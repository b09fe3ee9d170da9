"""Tests for the closed-loop harness: configs, runs, checks, and trace files."""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from mraclab import cli, controller, estimator, harness, plant_sim, poly, system
from mraclab.controller import x0_length
from mraclab.harness import (
    ConfigError,
    ExperimentConfig,
    NumericAbort,
    Trace,
    audit,
    check_identities,
    check_prop1,
    check_trace_consistency,
    config_from_dict,
    config_spectral_floor,
    demo_config,
    fit_decay_bound,
    ground_truth,
    predictor_residuals,
    reproduce_example,
    run_closed_loop,
    tracking_energy,
    trace_from_csv,
    write_outputs,
    write_trace_csv,
)
from mraclab.harness import CHECK_TOL, CSV_FMT, TRACE_COLUMNS, _csv_header
from mraclab.plant_sim import (
    COEF_KINDS,
    SIGNAL_KINDS,
    CoefficientSchedule,
    CoefSpec,
    SignalSpec,
    constant_signal,
    integer,
    integers,
    sinusoid,
    square_wave,
    table_signal,
    white_noise,
    windowed_sinusoid,
    zero_signal,
)
from mraclab.poly import PolyZ, max_root_modulus, predictor_split
from mraclab.system import ParamBox, PlantParams, ReferenceModel, to_predictor_params
from test_golden import D1_CONFIG, D1_GATED_CONFIG, P8_CONFIG, README_CONFIG, STATIC_D3_CONFIG


def make_config(
    a=(-0.6, 0.08),
    b=(2.0, 0.5),
    d=2,
    L=(1.0, -0.4),
    H=(0.6,),
    steps=400,
    delta=math.inf,
    theta0=None,
    x0=None,
    w=None,
    r=None,
    pad=1.0,
    t0=0,
):
    """Constant-plant config with the box centred on the true parameters."""
    params = PlantParams(a=a, b=b, d=d)
    ref = ReferenceModel(L=PolyZ(L), H=PolyZ(H), d=d)
    theta = to_predictor_params(params, ref).theta_star()
    box = ParamBox(lo=tuple(v - pad for v in theta), hi=tuple(v + pad for v in theta))
    n, m = params.n, params.m
    if x0 is None:
        x0 = tuple(np.linspace(-1.0, 1.0, (n + d - 1) + (m + 2 * d - 2)))
    return ExperimentConfig(
        schedule=CoefficientSchedule.constant(params),
        ref=ref,
        box=box,
        delta=delta,
        t0=t0,
        steps=steps,
        x0=x0,
        theta0=tuple(box.midpoint()) if theta0 is None else tuple(theta0),
        r=square_wave(60, 1.0) if r is None else r,
        w=white_noise(0.05, seed=3) if w is None else w,
    )


# (where in the showcase document, malformed value, field path of the error);
# math.inf is what json reads for 1e400, and int() cannot convert it. A key the
# document does not have is one no parser reads, such as a misspelled field.
MALFORMED = [
    ("sim.steps", math.inf, "sim.steps"),
    ("sim.t0", math.inf, "sim.t0"),
    ("plant.d", math.inf, "plant.d"),
    ("signals.r.period", math.inf, "signals.r: field 'period'"),
    ("sim", [], "sim"),
    ("estimator", [], "estimator"),
    ("plant.schedule", [], "plant.schedule"),
    ("reference", [], "reference"),
    ("estimator.box", 3.0, "estimator.box"),
    ("estimator.samples", "many", "estimator.samples"),
    ("estimator.margin", "wide", "estimator.margin"),
    ("lable", "showcase", "lable"),
    ("estimator.dleta", 0.5, "estimator.dleta"),
    ("estimator.box.mid", [0.0], "estimator.box.mid"),
    ("plant.schedule.c", [], "plant.schedule.c"),
    ("reference.M", [1.0], "reference.M"),
    ("sim.step", 10, "sim.step"),
    ("signals.v", {"kind": "zero"}, "signals.v"),
    ("signals.w.amplitud", 3.0, "signals.w: field 'amplitud'"),
    ("signals.r", {"kind": "constant", "level": math.nan}, "signals.r: field 'level'"),
    ("signals.w", {"kind": "white_noise", "amplitude": math.inf}, "signals.w: field 'amplitude'"),
    ("signals.w.rate", math.inf, "signals.w: field 'rate'"),
    ("signals", {"r": {"kind": "table", "values": [0.5, math.nan]}}, "signals.r: field 'values'"),
    ("plant.schedule.a", [{"kind": "sinusoid", "amplitude": 2.0, "rate": math.inf}, 0.0],
     "plant.schedule.a[0]: field 'rate'"),
]


class TestConfigValidation:
    def test_demo_config_is_valid(self):
        demo_config()

    def test_reference_order_exceeds_plant(self):
        params = PlantParams(a=(-0.5,), b=(1.0,), d=1)
        ref = ReferenceModel(L=PolyZ((1.0, 0.0, -0.25)), H=PolyZ((0.5,)), d=1)
        with pytest.raises(ConfigError, match="reference.L"):
            ExperimentConfig(
                schedule=CoefficientSchedule.constant(params),
                ref=ref,
                box=ParamBox(lo=(-1.0, 0.5), hi=(1.0, 2.0)),
                delta=math.inf,
                t0=0,
                steps=100,
                x0=(0.0,),
                theta0=(0.0, 1.0),
                r=zero_signal(),
                w=zero_signal(),
            )

    def test_box_dimension_mismatch(self):
        cfg = make_config()
        with pytest.raises(ConfigError, match="estimator.box"):
            ExperimentConfig(
                schedule=cfg.schedule,
                ref=cfg.ref,
                box=ParamBox(lo=(-1.0, 1.0), hi=(1.0, 2.0)),
                delta=cfg.delta,
                t0=0,
                steps=cfg.steps,
                x0=cfg.x0,
                theta0=(0.0, 1.5),
                r=cfg.r,
                w=cfg.w,
            )

    def test_gain_interval_must_avoid_zero(self):
        cfg = make_config()
        lo = list(cfg.box.lo)
        lo[cfg.n] = -1.0  # straddles zero with any positive hi
        with pytest.raises(ConfigError, match="beta0"):
            ExperimentConfig(
                schedule=cfg.schedule,
                ref=cfg.ref,
                box=ParamBox(lo=tuple(lo), hi=cfg.box.hi),
                delta=cfg.delta,
                t0=0,
                steps=cfg.steps,
                x0=cfg.x0,
                theta0=cfg.theta0,
                r=cfg.r,
                w=cfg.w,
            )

    def test_theta0_outside_box(self):
        cfg = make_config()
        theta0 = np.array(cfg.box.hi) + 1.0
        with pytest.raises(ConfigError, match="sim.theta0"):
            make_config(theta0=theta0)

    def test_x0_wrong_length(self):
        with pytest.raises(ConfigError, match="sim.x0"):
            make_config(x0=(1.0, 2.0))

    def test_delta_zero_rejected(self):
        with pytest.raises(ConfigError, match="estimator.delta"):
            make_config(delta=0.0)

    def test_horizon_too_short(self):
        with pytest.raises(ConfigError, match="sim.steps"):
            make_config(steps=3)

    def test_schedule_losing_admissibility(self):
        # b0 crosses zero mid-horizon
        schedule = CoefficientSchedule(
            a=(CoefSpec.const(-0.5),),
            b=(CoefSpec(kind="sinusoid", offset=0.5, amplitude=1.0, rate=0.01),),
            d=1,
        )
        ref = ReferenceModel(L=PolyZ((1.0,)), H=PolyZ((1.0,)), d=1)
        with pytest.raises(ConfigError, match="plant.schedule"):
            ExperimentConfig(
                schedule=schedule,
                ref=ref,
                box=ParamBox(lo=(-2.0, 0.1), hi=(2.0, 2.0)),
                delta=math.inf,
                t0=0,
                steps=500,
                x0=(0.0,),
                theta0=(0.0, 1.0),
                r=square_wave(40),
                w=zero_signal(),
            )


    @pytest.mark.parametrize(
        "name, value, fieldpath",
        [
            ("t0", True, "sim.t0"),
            ("seed", 1.5, "sim.seed"),
            ("delta", True, "estimator.delta"),
            ("t0", 0.5, "sim.t0"),
            ("steps", 200.0, "sim.steps"),
            ("s_ab_samples", True, "estimator.samples"),
        ],
        ids=["t0_bool", "seed_fraction", "delta_bool", "t0_fraction", "steps_float", "samples_bool"],
    )
    def test_scalar_fields_follow_the_document_rules(self, name, value, fieldpath):
        # The first three ran and wrote a summary that config_from_dict refuses;
        # t0 = 0.5 and steps = 200.0 raised a bare TypeError.
        with pytest.raises(ConfigError, match=f"^{re.escape(fieldpath)}: expected an? "):
            replace(demo_config(200), **{name: value})


    @pytest.mark.parametrize(
        "name, value",
        [("x0", "123"), ("x0", (True, 0.0, 0.0)), ("x0", (1.0, "2", 3.0)), ("theta0", "1234"),
         ("theta0", (0.0, 0.0, 3.0, None)), ("x0", np.zeros(3))],
        ids=["x0_string", "x0_bool", "x0_string_cell", "theta0_string", "theta0_none", "x0_ndarray"],
    )
    def test_python_built_arrays_follow_the_document_rules(self, name, value):
        # replace(demo_config(200), x0="123") built x0 = (1.0, 2.0, 3.0).
        with pytest.raises(ConfigError, match=f"^sim.{name}: expected an array of numbers$"):
            replace(demo_config(200), **{name: value})

    def test_tuples_of_numpy_floats_are_numbers(self):
        cfg = demo_config(200)
        built = replace(cfg, x0=tuple(np.float64(v) for v in cfg.x0),
                        theta0=tuple(cfg.box.midpoint()))
        assert built == cfg and all(type(v) is float for v in built.x0 + built.theta0)


class TestConfigRoundTrip:
    def roundtrip(self, cfg):
        doc = cfg.to_config_dict()
        cfg2 = config_from_dict(doc)
        assert cfg2 == cfg
        assert cfg2.config_hash() == cfg.config_hash()

    def test_constant_plant(self):
        self.roundtrip(make_config())

    def test_finite_delta_and_offsets(self):
        self.roundtrip(make_config(delta=2.5, t0=-7))

    def test_time_varying_schedule(self):
        self.roundtrip(demo_config())

    def test_validated_rows_are_kept(self):
        # Every consumer reads the rows validate_horizon checked; they are
        # read-only and stay out of ==, hash and repr.
        cfg = demo_config(300)
        a, b = cfg.plant_rows
        want_a, want_b = cfg.schedule.coeff_rows(cfg.t0, cfg.steps)
        assert np.array_equal(a, want_a) and np.array_equal(b, want_b)
        with pytest.raises(ValueError, match="read-only"):
            b[0, 0] = 0.0
        back = config_from_dict(cfg.to_config_dict())
        assert back == cfg and hash(back) == hash(cfg)
        assert "plant_rows" not in repr(cfg)
        assert len(replace(cfg, steps=200).plant_rows[0]) == 200
        assert [len(rows) for rows in make_config().plant_rows] == [1, 1]

    def test_delta_serialized_as_inf_string(self):
        doc = make_config().to_config_dict()
        assert doc["estimator"]["delta"] == "inf"

    def test_midpoint_theta0_resolved(self):
        doc = make_config().to_config_dict()
        doc["sim"]["theta0"] = "midpoint"
        cfg = config_from_dict(doc)
        assert cfg.theta0 == tuple(cfg.box.midpoint())

    def test_s_ab_box_builds_estimator_box(self):
        doc = make_config(a=(-0.5,), b=(1.0,), d=1, L=(1.0,), H=(1.0,), pad=0.5).to_config_dict()
        del doc["estimator"]["box"]
        doc["estimator"]["s_ab_box"] = {"lo": [-0.8, 0.5], "hi": [0.8, 2.0]}
        doc["sim"]["theta0"] = "midpoint"
        cfg = config_from_dict(doc)
        # d=1, L=1: alpha0 = -a1, beta0 = b0, so the box is the reflected s-box
        assert cfg.box.lo == (-0.8, 0.5)
        assert cfg.box.hi == (0.8, 2.0)
        self.roundtrip(cfg)

    @pytest.mark.parametrize(
        "key, row, message",
        [("b", [2.0, 3.0], "plant: schedule inadmissible at t = 0: B(z^-1) must have all roots "
                           "strictly inside the unit circle"),
         ("b", [0.0, 0.5], "plant: schedule inadmissible at t = 0: b0 must be nonzero"),
         ("a", [math.nan, 0.08], "plant: field 'value': must be finite"),
         ("b", [math.inf, 0.5], "plant: field 'value': must be finite")],
        ids=["non_minimum_phase", "zero_b0", "nan_a", "inf_b"],
    )
    def test_bad_constant_plant_is_a_plant_error(self, key, row, message):
        # The constant plant's row is tested once, by the horizon check, and
        # its numbers are constant coefficient specs, which must be finite.
        doc = make_config().to_config_dict()
        doc["plant"][key] = row
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "spec",
        [{"kind": "table", "values": [2.0] * 1000 + [math.nan]},
         {"kind": "piecewise", "times": [0, 1000000], "values": [2.0, math.nan]}],
        ids=["table", "piecewise"],
    )
    def test_non_finite_coefficient_past_the_horizon(self, spec):
        # a1 = 2.0 on the whole horizon, the showcase's a1 at t0; the NaN is
        # never sampled, yet it would reach summary.json, which JSON cannot hold.
        doc = demo_config().to_config_dict()
        doc["plant"]["schedule"]["a"][0] = spec
        with pytest.raises(ConfigError, match=r"^plant\.schedule\.a\[0\]: field 'values': must be finite$"):
            config_from_dict(doc)

    def test_margin_must_be_finite(self):
        # Beside a literal box the margin is unread, but the document would carry it.
        doc = demo_config().to_config_dict()
        doc["estimator"]["margin"] = math.nan
        with pytest.raises(ConfigError, match="^estimator.margin: must be finite$"):
            config_from_dict(doc)
        with pytest.raises(ConfigError, match="^estimator.margin: must be finite$"):
            replace(make_config(), s_ab_margin=math.inf)

    @pytest.mark.parametrize(
        "where, value",
        [
            ("sim.x0", "123456"),  # read digit by digit, it was x0 = (1.0, .., 6.0)
            ("sim.x0", [True, False, 0, 0, 0, 0]),
            ("sim.x0", {str(i): 0 for i in range(1, 7)}),  # read key by key
            ("sim.theta0", [True, 0, 2, 0, 0]),
            ("plant.a", "12"),
            ("plant.b", "21"),
            ("reference.L", "1"),
            ("reference.H", "6"),
            ("estimator.box.lo", "11111"),
            ("estimator.box.hi", [2, 1, 3, 1, True]),
        ],
        ids=["x0_string", "x0_bools", "x0_object", "theta0_bool", "a_string", "b_string",
             "L_string", "H_string", "box_lo_string", "box_hi_bool"],
    )
    def test_array_of_numbers_is_a_list_of_numbers(self, where, value):
        # Every one of these documents was accepted, read element by element by float().
        doc = json.loads(json.dumps(README_CONFIG))
        *parents, key = where.split(".")
        node = doc
        for name in parents:
            node = node[name]
        node[key] = value
        with pytest.raises(ConfigError, match=f"^{re.escape(where)}: expected an array of numbers$"):
            config_from_dict(doc)

    def test_array_of_numbers_takes_ints_and_floats(self):
        doc = json.loads(json.dumps(README_CONFIG))
        doc["sim"]["x0"] = [0, 1, -2.5, 0, 0, 3]
        doc["estimator"]["box"]["lo"] = (-2, -1, 1, -1, -1)
        cfg = config_from_dict(doc)
        assert cfg.x0 == (0.0, 1.0, -2.5, 0.0, 0.0, 3.0) and cfg.box.lo == (-2.0, -1.0, 1.0, -1.0, -1.0)
        doc["sim"]["x0"][0] = 10**400  # an int no float holds
        with pytest.raises(ConfigError, match="^sim.x0: expected an array of numbers$"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "where, value, message",
        [
            ("sim.steps", "400", "sim.steps: expected an integer, got '400'"),
            ("sim.steps", 400.9, "sim.steps: expected an integer, got 400.9"),
            ("sim.t0", True, "sim.t0: expected an integer, got True"),
            ("estimator.delta", True, "estimator.delta: expected a number or 'inf'"),
            ("signals.w", {"kind": "white_noise", "amplitude": 0.05, "seed": 3.7},
             "signals.w: field 'seed': expected an integer, got 3.7"),
            ("signals.r", {"kind": "table", "values": "123"},
             "signals.r: field 'values': expected an array of numbers"),
            ("plant", {"schedule": {"a": [True, 0.08], "b": [2.0, 0.5]}, "d": 2},
             "plant.schedule.a[0]: expected a number or an object with a 'kind' field"),
        ],
        ids=["steps_string", "steps_fraction", "t0_bool", "delta_bool", "seed_fraction",
             "table_values_string", "coefficient_bool"],
    )
    def test_scalar_field_takes_a_json_number(self, where, value, message):
        # Each was accepted through int() or float(): 400 steps twice, t0 = 1, delta = 1.0,
        # noise seed 3, table values (1.0, 2.0, 3.0) and a constant coefficient 1.0.
        doc = json.loads(json.dumps(README_CONFIG))
        *parents, key = where.split(".")
        node = doc
        for name in parents:
            node = node[name]
        node[key] = value
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_dict(doc)

    def test_number_fields_take_ints(self):
        doc = json.loads(json.dumps(README_CONFIG))
        doc["estimator"]["delta"] = 2
        doc["signals"]["r"]["amplitude"] = 1
        doc["plant"] = {"schedule": {"a": [-0.6, {"kind": "constant", "value": 0}], "b": [2, 0.5]},
                        "d": 2}
        cfg = config_from_dict(doc)
        assert cfg.delta == 2.0 and type(cfg.delta) is float and type(cfg.r.amplitude) is float
        assert cfg.plant_rows[0].tolist() == [[-0.6, 0.0]] and cfg.plant_rows[1].tolist() == [[2.0, 0.5]]

    def test_field_path_in_errors(self):
        doc = make_config().to_config_dict()
        doc["estimator"]["delta"] = "huge"
        with pytest.raises(ConfigError, match="estimator.delta"):
            config_from_dict(doc)
        doc = make_config().to_config_dict()
        del doc["reference"]
        with pytest.raises(ConfigError, match="reference"):
            config_from_dict(doc)
        doc = make_config().to_config_dict()
        doc["signals"]["r"] = {"kind": "sawtooth"}
        with pytest.raises(ConfigError, match="signals.r"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "key, value", [("a", ["x"]), ("a", [123.0, 456.0]), ("b", [0.0, 99.0])],
        ids=["a_not_numbers", "a_other_row", "b_other_row"],
    )
    def test_plant_row_beside_a_schedule_is_its_row_at_t0(self, key, value):
        doc = demo_config().to_config_dict()
        assert config_from_dict(doc) == demo_config()
        doc["plant"][key] = value
        with pytest.raises(ConfigError, match=f"^plant\\.{key}:"):
            config_from_dict(doc)
        del doc["plant"]["a"], doc["plant"]["b"]  # the schedule alone is enough
        assert config_from_dict(doc) == demo_config()

    def test_sinusoid_angle_is_finite_where_sampled(self):
        # math.cos raises on an infinite angle; times the run never samples do not count.
        doc = demo_config().to_config_dict()
        doc["plant"]["schedule"]["a"][0]["rate"] = 1e308  # rate * 999 overflows
        with pytest.raises(ConfigError, match=r"^plant\.schedule\.a\[0\]: field 'rate': .* t = 999$"):
            config_from_dict(doc)
        doc = demo_config().to_config_dict()
        doc["signals"]["w"]["rate"] = 1e308  # the window starts at t = 201
        with pytest.raises(ConfigError, match=r"^signals\.w: field 'rate': .* t = 201$"):
            config_from_dict(doc)
        doc["signals"]["w"].update(t_start=0, t_end=1)  # samples t = 1 alone
        cfg = config_from_dict(doc)
        assert np.all(np.isfinite(run_closed_loop(cfg).w))

    @pytest.mark.parametrize(
        "where, value, fieldpath",
        [pytest.param(*c, id=c[0]) for c in MALFORMED]
        # Horizons no array holds: past numpy's size limit, and more bytes
        # than an address space has (the allocation fails at once).
        + [pytest.param("sim.steps", v, "sim.steps", id=f"sim.steps={v:g}") for v in (1e20, 1e15)],
    )
    def test_malformed_document_is_a_config_error(self, where, value, fieldpath):
        doc = demo_config().to_config_dict()
        *parents, key = where.split(".")
        node = doc
        for name in parents:
            node = node[name]
        node[key] = value
        with pytest.raises(ConfigError, match="^" + re.escape(fieldpath) + ":"):
            config_from_dict(doc)


# Every kind of the document form, one example each, with the fields a
# document must carry for that kind (the others have defaults).
SIGNAL_EXAMPLES = {
    "zero": (zero_signal(), ()),
    "constant": (constant_signal(0.25), ("level",)),
    "square_wave": (square_wave(40, 0.8, 3.0), ("period",)),
    "sinusoid": (sinusoid(0.5, 0.07, 0.3), ("amplitude", "rate")),
    "windowed_sinusoid": (
        windowed_sinusoid(50, 120, 0.2, 0.9),
        ("t_start", "t_end", "amplitude", "rate"),
    ),
    "table": (table_signal((0.1, -0.2, 0.3), t_start=5), ("values",)),
    "white_noise": (white_noise(0.05, seed=7), ("amplitude",)),
}

COEF_EXAMPLES = {
    "constant": (CoefSpec.const(-0.5), ("value",)),
    "sinusoid": (
        CoefSpec(kind="sinusoid", offset=-0.3, amplitude=0.2, rate=0.02, phase=0.1, trig="sin"),
        ("amplitude", "rate"),
    ),
    "piecewise": (
        CoefSpec(kind="piecewise", times=(0, 30), values=(-0.4, -0.2)),
        ("times", "values"),
    ),
    "table": (CoefSpec(kind="table", values=(-0.1, -0.2, -0.3), t_start=2), ("values",)),
}


def coef_config(a1: CoefSpec) -> ExperimentConfig:
    """n = 1, m = 0, d = 1 plant whose a1 follows the given spec; b0 drifts, so the
    document always carries the schedule."""
    schedule = CoefficientSchedule(
        a=(a1,), b=(CoefSpec(kind="sinusoid", offset=2.0, amplitude=0.1, rate=0.01),), d=1
    )
    box = ParamBox(lo=(-2.0, 0.5), hi=(2.0, 3.0))
    return ExperimentConfig(
        schedule=schedule,
        ref=ReferenceModel(L=PolyZ((1.0,)), H=PolyZ((1.0,)), d=1),
        box=box,
        delta=math.inf,
        t0=0,
        steps=50,
        x0=(0.3,),
        theta0=tuple(box.midpoint()),
        r=square_wave(20, 1.0),
        w=zero_signal(),
    )


class TestSpecKinds:
    """Each signal and coefficient kind through the document form."""

    @staticmethod
    def assert_round_trip(cfg):
        back = config_from_dict(cfg.to_config_dict())
        assert back == cfg
        assert back.config_hash() == cfg.config_hash()

    @pytest.mark.parametrize("kind", SIGNAL_EXAMPLES)
    def test_signal_kind(self, kind):
        spec, required = SIGNAL_EXAMPLES[kind]
        cfg = make_config(r=spec, w=spec, steps=40)
        self.assert_round_trip(cfg)
        for name in required:
            doc = cfg.to_config_dict()
            del doc["signals"]["w"][name]
            msg = f"signals.w: missing field {name!r} for kind {kind!r}"
            with pytest.raises(ConfigError, match=re.escape(msg)):
                config_from_dict(doc)

    @pytest.mark.parametrize("kind", COEF_EXAMPLES)
    def test_coefficient_kind(self, kind):
        spec, required = COEF_EXAMPLES[kind]
        cfg = coef_config(spec)
        self.assert_round_trip(cfg)
        for name in required:
            doc = cfg.to_config_dict()
            del doc["plant"]["schedule"]["a"][0][name]
            msg = f"plant.schedule.a[0]: missing field {name!r} for kind {kind!r}"
            with pytest.raises(ConfigError, match=re.escape(msg)):
                config_from_dict(doc)

    def test_unknown_kinds_rejected(self):
        doc = make_config().to_config_dict()
        doc["signals"]["w"] = {"kind": "sawtooth"}
        msg = "signals.w: unknown signal kind 'sawtooth'"
        with pytest.raises(ConfigError, match=re.escape(msg)):
            config_from_dict(doc)
        doc = coef_config(CoefSpec.const(-0.5)).to_config_dict()
        doc["plant"]["schedule"]["a"][0] = {"kind": "sawtooth"}
        msg = "plant.schedule.a[0]: unknown coefficient kind 'sawtooth'"
        with pytest.raises(ConfigError, match=re.escape(msg)):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: SignalSpec(kind="zero", amplitude=5.0), "amplitude"),
            (lambda: CoefSpec(kind="constant", value=1.0, amplitude=2.0), "amplitude"),
            (lambda: replace(demo_config(200), r=replace(demo_config(200).r, rate=3.0)), "rate"),
        ],
        ids=["zero_signal", "constant_coefficient", "replaced_square_wave"],
    )
    def test_field_outside_the_kind_is_rejected(self, make, name):
        # to_doc writes only the kind's fields: such a value would drop out of
        # the document and the config hash, and break the round trip.
        with pytest.raises(ValueError, match=f"field '{name}' is not used by"):
            make()

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: square_wave(60.5), "period"),
            (lambda: white_noise(0.1, seed=2.5), "seed"),
            (lambda: CoefSpec(kind="piecewise", times=(0.5, 10), values=(1.0, 2.0)), "times"),
            (lambda: CoefSpec(kind="table", values=(1.0, 2.0), t_start=2.5), "t_start"),
            (lambda: table_signal(("1", "2")), "values"),
        ],
        ids=["square_wave_period", "noise_seed", "piecewise_times", "coef_table_start",
             "table_strings"],
    )
    def test_spec_built_in_python_follows_the_document_rules(self, make, name):
        # Each was built: a period of 60.5 ran but its summary could not be read
        # back, seed 2.5 failed inside numpy, the times were truncated to (0, 10),
        # t_start 2.5 was kept and the strings were read as (1.0, 2.0).
        with pytest.raises(ValueError, match=f"^field '{name}': expected an"):
            make()

    @pytest.mark.parametrize(
        "kinds, examples",
        [(SIGNAL_KINDS, SIGNAL_EXAMPLES), (COEF_KINDS, COEF_EXAMPLES)],
        ids=["signal", "coefficient"],
    )
    def test_integer_fields_refuse_floats_and_bools(self, kinds, examples):
        assert examples.keys() == kinds.keys()
        tried = 0
        for kind, kind_fields in kinds.items():
            spec = examples[kind][0]
            for name, read, _ in kind_fields:
                value = getattr(spec, name)
                if read is integer:
                    bad = [float(value), value + 0.5, True]
                elif read is integers:
                    bad = [tuple(map(float, value)), value[:-1] + (True,)]
                else:
                    continue
                for v in bad:
                    with pytest.raises(ValueError, match=f"^field '{name}': expected an"):
                        replace(spec, **{name: v})
                    tried += 1
        assert tried >= 5

    def test_python_built_numbers_hash_as_their_document(self):
        # An int where a number belongs is held as a float, as a document's is
        # read, so the config hash survives the round trip through the document.
        cfg = make_config(delta=2, r=square_wave(40, 1), w=constant_signal(0))
        back = config_from_dict(cfg.to_config_dict())
        assert back.config_hash() == cfg.config_hash()
        assert type(cfg.delta) is type(cfg.r.amplitude) is type(cfg.w.level) is float

    def test_bare_number_is_a_constant_coefficient(self):
        doc = coef_config(CoefSpec.const(-0.5)).to_config_dict()
        doc["plant"]["schedule"]["a"][0] = -0.5
        assert config_from_dict(doc).schedule.a == (CoefSpec.const(-0.5),)


class TestRunClosedLoop:
    def test_horizon_past_the_address_space_is_a_config_error(self):
        # theta_hat's 64 columns of 2^54 + 1 rows pass 2^63 bytes, which numpy
        # refuses with a ValueError rather than a MemoryError.
        cfg = make_config(a=(-0.5,), b=(1.0,), d=63, L=(1.0,), H=(1.0,), pad=0.5,
                          t0=-(2**53), steps=2**54)
        with pytest.raises(ConfigError, match="^sim.steps: "):
            run_closed_loop(cfg)

    def test_shapes_and_conventions(self):
        cfg = make_config(steps=150)
        tr = run_closed_loop(cfg)
        assert tr.rows == 151
        assert tr.t0 == 0 and tr.t_end == 150
        assert tr.theta_hat.shape == (151, cfg.dim_theta)
        assert tr.e[0] == 0.0
        assert tr.rho[-1] == 0
        assert np.array_equal(tr.theta_hat[0], np.array(cfg.theta0))
        assert tr.y[0] == cfg.x0[0]
        # derived phi rows carry the recorded signals
        phi = tr.regressors().phi[cfg.d - 1 :]  # row k is phi(t0 + k)
        assert phi[5][0] == tr.y[5]
        assert phi[5][cfg.n] == tr.u[5]

    def test_deterministic(self):
        cfg = make_config(steps=200)
        t1, t2 = run_closed_loop(cfg), run_closed_loop(cfg)
        for name in ("y", "u", "e", "theta_hat", "norm_phi", "rho"):
            assert np.array_equal(getattr(t1, name), getattr(t2, name)), name

    def test_pre_phi_for_two_step_delay(self):
        cfg = make_config(steps=50)
        tr = run_closed_loop(cfg)
        # table row 0 is phi(t0-d+1) = phi(-1) = [y(-1), y(-2), u(-1), u(-2), u(-3)], from x0
        y_part = [cfg.x0[1], cfg.x0[2]]
        u_part = [cfg.x0[3], cfg.x0[4], cfg.x0[5]]
        assert np.array_equal(tr.regressors().phi[0], np.array(y_part + u_part))

    def test_exact_estimate_tracks_after_transient(self):
        # theta_hat(0) = theta*, no disturbance, plant at rest: the weighted
        # tracking error is identically zero and eps obeys the homogeneous
        # weighting recursion, hence decays at the weighting's root rate.
        for d in (1, 2):
            params = PlantParams(a=(-0.6, 0.08), b=(2.0, 0.5), d=d)
            ref = ReferenceModel(L=PolyZ((1.0, 0.0, -0.25)), H=PolyZ((0.5,)), d=d)
            theta = to_predictor_params(params, ref).theta_star()
            cfg = make_config(
                a=params.a,
                b=params.b,
                d=d,
                L=ref.L.coeffs,
                H=ref.H.coeffs,
                steps=300,
                theta0=theta,
                x0=tuple([0.0] * ((2 + d - 1) + (1 + 2 * d - 2))),
                w=zero_signal(),
            )
            tr = run_closed_loop(cfg)
            assert np.max(np.abs(tr.eps_bar[d:])) < 1e-9
            assert np.max(np.abs(tr.e)) < 1e-9
            # homogeneous recursion oracle for eps beyond the first d rows
            l_coeffs = ref.L.coeffs
            eps = list(tr.eps[:d])
            for k in range(d, tr.rows):
                acc = 0.0
                for j in range(1, len(l_coeffs)):
                    if k - j >= 0:
                        acc -= l_coeffs[j] * eps[k - j]
                eps.append(acc)
            assert np.allclose(tr.eps, eps, atol=1e-9)
            rate = max_root_modulus(ref.L)
            tail = np.abs(tr.eps[50:])
            bound = np.max(np.abs(tr.eps)) * rate ** (np.arange(tr.rows - 50))
            assert np.all(tail <= bound + 1e-9)

    def test_divergence_aborts(self):
        # point box pins the estimate at a destabilizing value
        params = PlantParams(a=(-1.5,), b=(1.0,), d=1)
        ref = ReferenceModel(L=PolyZ((1.0,)), H=PolyZ((1.0,)), d=1)
        cfg = ExperimentConfig(
            schedule=CoefficientSchedule.constant(params),
            ref=ref,
            box=ParamBox(lo=(-1.0, 2.0), hi=(-1.0, 2.0)),
            delta=math.inf,
            t0=0,
            steps=2000,
            x0=(1.0,),
            theta0=(-1.0, 2.0),
            r=zero_signal(),
            w=zero_signal(),
        )
        with pytest.raises(NumericAbort, match="diverged at t"):
            run_closed_loop(cfg)

    @pytest.mark.parametrize("y_next", [math.nan, math.inf, -math.inf])
    def test_non_finite_output_aborts(self, monkeypatch, y_next):
        monkeypatch.setattr(harness, "plant_step", lambda *args: y_next)
        with pytest.raises(NumericAbort, match=r"diverged at t = 1 \(y = "):
            run_closed_loop(make_config(steps=50))

    def test_per_step_call_contract(self, monkeypatch):
        # The benchmark's tracer wraps these module attributes: each layer is
        # called through its name once per step (control law and ybar once more
        # at the final time), so inlining one would hide it from the trace.
        calls = Counter()
        for module, name in [(harness, "control_input"), (harness, "ybar"), (harness, "plant_step"),
                             (harness, "estimator_update"), (estimator, "deadzone_flag")]:
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)
        cfg = make_config(steps=50)
        run_closed_loop(cfg)
        T = cfg.steps
        assert calls == {"control_input": T + 1, "ybar": T + 1, "plant_step": T,
                         "estimator_update": T, "deadzone_flag": T}


def test_plant_is_checked_and_split_once(monkeypatch):
    # A config's validated rows are its only plant: the parse tests them once
    # (validate_horizon), ground truth maps row 0 with one long division, and
    # no step builds a PlantParams.
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, fn in [("first_inadmissible", system.first_inadmissible),
                     ("predictor_split", poly.predictor_split)]:
        for module in (poly, system, plant_sim, controller, estimator, harness, cli):
            for attr in [a for a, value in vars(module).items() if value is fn]:
                monkeypatch.setattr(module, attr, counted(name, fn))
    monkeypatch.setattr(system.PlantParams, "__post_init__",
                        counted("PlantParams", system.PlantParams.__post_init__))
    cfg = config_from_dict(README_CONFIG)
    assert calls["first_inadmissible"] == 1
    trace = run_closed_loop(cfg)
    gt = ground_truth(cfg)
    assert calls["predictor_split"] == 1
    assert check_prop1(trace, gt.theta_star, gt.wbar, gt.wbar_t0).passed
    assert check_identities(trace, gt.theta_star, gt.wbar, gt.wbar_t0).passed
    assert calls == {"first_inadmissible": 1, "predictor_split": 1}


def test_regressors_are_built_once(monkeypatch):
    # The loop lays out one history and builds one phi table for norm_phi; the
    # audit builds one more, which every check reads.
    calls = Counter()
    for owner, name in [(harness, "history"), (controller.History, "phi")]:
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    trace = run_closed_loop(config_from_dict(README_CONFIG))
    assert calls == {"history": 1, "phi": 1}
    assert audit(trace).passed
    assert calls == {"history": 2, "phi": 2}


class TestGroundTruth:
    def test_constant_plant_values(self):
        cfg = make_config()
        gt = ground_truth(cfg)
        params = PlantParams(a=(-0.6, 0.08), b=(2.0, 0.5), d=2)
        theta = to_predictor_params(params, cfg.ref).theta_star()
        assert np.array_equal(gt.theta_star, theta)

    def test_wbar_matches_direct_filter(self):
        cfg = make_config(w=white_noise(0.2, seed=9))
        gt = ground_truth(cfg)
        f = predictor_split(cfg.ref.L, PolyZ((1.0, -0.6, 0.08)), cfg.d)[0].coeffs
        assert len(f) == cfg.d and f[0] == 1.0
        from mraclab.plant_sim import signal_eval

        for t in (-1, 0, 3, word := 57):
            want = sum(
                f[i] * signal_eval(cfg.w, t + cfg.d - i) for i in range(len(f))
            )
            assert gt.wbar[t - gt.wbar_t0] == pytest.approx(want, abs=1e-12)

    def test_time_varying_is_refused(self):
        with pytest.raises(ValueError, match="ground truth needs a constant plant"):
            ground_truth(demo_config(steps=50))


@pytest.fixture(scope="module")
def noisy_run():
    cfg = make_config(steps=600)
    return cfg, run_closed_loop(cfg), ground_truth(cfg)


class TestChecks:
    def test_prop1_passes(self, noisy_run):
        cfg, tr, gt = noisy_run
        rep = check_prop1(tr, gt.theta_star, gt.wbar, gt.wbar_t0)
        assert rep.passed
        names = [c.name for c in rep.checks]
        assert "estimate_move_bounded" in names
        assert "parameter_error_contraction_step" in names
        assert "parameter_error_contraction_total" in names
        assert "parameter_error_monotone" not in names  # noisy run

    def test_prop1_monotone_without_noise(self):
        cfg = make_config(steps=400, w=zero_signal())
        tr = run_closed_loop(cfg)
        gt = ground_truth(cfg)
        rep = check_prop1(tr, gt.theta_star, gt.wbar, gt.wbar_t0)
        assert rep.passed
        assert any(c.name == "parameter_error_monotone" for c in rep.checks)

    def test_prop1_catches_oversized_move(self, noisy_run):
        cfg, tr, gt = noisy_run
        hacked = np.array(tr.theta_hat)
        hacked[300] = hacked[300] + 0.5
        bad = Trace(**{**tr.__dict__, "theta_hat": hacked})
        rep = check_prop1(bad)
        assert not rep.passed

    def test_identities_pass(self, noisy_run):
        cfg, tr, gt = noisy_run
        rep = check_identities(tr, gt.theta_star, gt.wbar, gt.wbar_t0)
        assert rep.passed

    def test_identities_catch_tampered_error_column(self, noisy_run):
        cfg, tr, gt = noisy_run
        hacked = np.array(tr.e)
        hacked[200] += 1e-3
        bad = Trace(**{**tr.__dict__, "e": hacked})
        rep = check_identities(bad, gt.theta_star, gt.wbar, gt.wbar_t0)
        assert not rep.passed

    def test_consistency_passes(self, noisy_run):
        cfg, tr, gt = noisy_run
        assert check_trace_consistency(tr, cfg).passed

    def test_consistency_catches_each_column(self, noisy_run):
        # One edited cell of any trace.csv column fails the check that owns it.
        cfg, tr, gt = noisy_run
        assert cfg.d == 2
        owners = {
            "t": "consistency_time_index",
            "y": "consistency_plant_recursion",
            "y_star": "consistency_reference_recursion",
            "u": "consistency_plant_recursion",
            "eps": "consistency_tracking_error",
            "eps_bar": "consistency_weighted_error",
            "e": "consistency_prediction_error",
            "rho": "consistency_deadzone_gate",
            "norm_phi": "consistency_regressor_norm",
            "r": "consistency_exogenous_signals",
            "w": "consistency_exogenous_signals",
        }
        owners.update(
            {f"theta_hat_{i}": "consistency_control_closure" for i in range(cfg.dim_theta)}
        )
        assert sorted(owners) == sorted(_csv_header(cfg.dim_theta))
        for col, check_name in owners.items():
            if col.startswith("theta_hat_"):
                name, hacked = "theta_hat", np.array(tr.theta_hat)
                hacked[150, int(col.rsplit("_", 1)[1])] += 1e-3
            else:
                name, hacked = col, np.array(getattr(tr, col))
                hacked[150] = 1 - hacked[150] if col == "rho" else hacked[150] + 1e-3
                if col == "t":
                    hacked[150] += 1
            bad = Trace(**{**tr.__dict__, name: hacked})
            rep = check_trace_consistency(bad, cfg)
            assert not rep.passed, col
            assert any(
                c.name == check_name and not c.passed for c in rep.checks
            ), col
        # A consistent edit of y_star and eps still breaks the reference recursion.
        y_star, eps = np.array(tr.y_star), np.array(tr.eps)
        y_star[150] += 1e-3
        eps[150] -= 1e-3
        rep = check_trace_consistency(Trace(**{**tr.__dict__, "y_star": y_star, "eps": eps}), cfg)
        failed = {c.name for c in rep.checks if not c.passed}
        assert failed == {"consistency_reference_recursion"}

    @pytest.mark.parametrize("make", [lambda: make_config(steps=60), lambda: demo_config(60)],
                             ids=["constant", "time_varying"])
    def test_consistency_needs_the_configs_horizon(self, make):
        cfg = make()
        tr = run_closed_loop(cfg)
        cols = {k: v[:-1] if isinstance(v, np.ndarray) else v for k, v in tr.__dict__.items()}
        msg = "trace has 60 rows; the configuration's horizon has 61"
        with pytest.raises(ValueError, match=msg):
            check_trace_consistency(Trace(**cols), cfg)

    def test_verdicts_do_not_depend_on_units(self):
        # The system is linear: r, w and x0 in other units scale every signal
        # alike, and every check must keep its verdict. The time-varying
        # showcase runs without ground truth, the README's constant plant with it.
        def verdicts(cfg):
            return [(c.name, c.passed) for c in audit(run_closed_loop(cfg)).checks]

        for base, scale in ((demo_config(3000), 1e6), (config_from_dict(README_CONFIG), 1e8)):
            scaled = replace(
                base,
                x0=tuple(v * scale for v in base.x0),
                r=replace(base.r, amplitude=base.r.amplitude * scale),
                w=replace(base.w, amplitude=base.w.amplitude * scale),
            )
            assert verdicts(base) == verdicts(scaled)
            assert all(passed for _, passed in verdicts(base))

    @pytest.mark.parametrize(
        "a, b, d, L",
        [((), (1.5,), 1, (1.0,)), ((), (1.5, 0.3), 3, (1.0,)), ((-0.5,), (2.0, 0.2), 3, (1.0, -0.3))],
        ids=["static_d1", "static_d3", "first_order_d3"],
    )
    def test_audit_static_plant_and_long_delay(self, tmp_path, a, b, d, L):
        cfg = make_config(a=a, b=b, d=d, L=L, steps=200, delta=3.0)
        tr = run_closed_loop(cfg)
        write_trace_csv(tr, tmp_path / "trace.csv")
        back = trace_from_csv(tmp_path / "trace.csv", cfg)
        gt = ground_truth(cfg)
        for trace in (tr, back):
            assert check_trace_consistency(trace, cfg).passed
            assert check_prop1(trace, gt.theta_star, gt.wbar, gt.wbar_t0).passed
            assert check_identities(trace, gt.theta_star, gt.wbar, gt.wbar_t0).passed
        assert np.max(np.abs(predictor_residuals(back, cfg))) < 1e-9

    def test_consistency_catches_flipped_gate(self, noisy_run):
        cfg, tr, gt = noisy_run
        hacked = np.array(tr.rho)
        hacked[100] = 1 - hacked[100]
        bad = Trace(**{**tr.__dict__, "rho": hacked})
        rep = check_trace_consistency(bad, cfg)
        gate = [c for c in rep.checks if c.name == "consistency_deadzone_gate"][0]
        assert not gate.passed


CONSISTENCY_CHECKS = [
    "consistency_plant_recursion",
    "consistency_control_closure",
    "consistency_tracking_error",
    "consistency_weighted_error",
    "consistency_prediction_error",
    "consistency_regressor_norm",
    "consistency_deadzone_gate",
    "consistency_estimates_in_box",
    "consistency_time_index",
    "consistency_exogenous_signals",
    "consistency_reference_recursion",
]
FITTED = ["lambda", "spectral_floor", "envelope_gain_c"]


class TestAudit:
    """audit is a run's one audit: which checks it runs and how it fits the envelope."""

    def test_constant_plant_is_checked_against_ground_truth(self):
        rep = audit(run_closed_loop(config_from_dict(README_CONFIG)))
        assert [c.name for c in rep.checks] == CONSISTENCY_CHECKS + [
            "estimate_move_bounded",
            "parameter_error_contraction_step",
            "parameter_error_contraction_total",
            "identity_tracking_vs_prediction",
            "identity_prediction_error",
            "identity_tracking_error",
        ]
        assert list(rep.fitted) == FITTED and rep.fitted["lambda"] == 0.9
        assert rep.passed

    def test_showcase_gets_the_move_bound(self):
        rep = audit(run_closed_loop(demo_config()))
        assert [c.name for c in rep.checks] == CONSISTENCY_CHECKS + ["estimate_move_bounded"]
        assert list(rep.fitted) == FITTED and rep.fitted["lambda"] == 0.9
        assert rep.passed

    def test_decay_rate(self):
        # With a floor of 0.9 or more the default is halfway to 1; a given
        # rate must lie strictly between the floor and 1.
        trace = run_closed_loop(make_config(L=(1.0, -0.95)))
        fitted = audit(trace).fitted
        floor = fitted["spectral_floor"]
        assert floor == pytest.approx(0.95, abs=1e-12) and fitted["lambda"] == 0.5 * (1.0 + floor)
        assert audit(trace, 0.99).fitted["lambda"] == 0.99
        for decay in (floor, 0.5, 1.0):
            msg = f"lambda: decay rate must lie in ({floor:.6f}, 1) for this configuration, got {decay}"
            with pytest.raises(ConfigError, match=f"^{re.escape(msg)}$"):
                audit(trace, decay)


def loop_margins(tr, cfg, gt):
    """Row-loop reference for the vectorized check_prop1/check_identities margins."""
    n, m, d, t0, T = cfg.n, cfg.m, cfg.d, tr.t0, tr.rows - 1
    x0, ny = cfg.x0, n + d - 1

    def y_at(s):
        return tr.y[s - t0] if s >= t0 else (x0[t0 - s] if t0 - s < ny else 0.0)

    def u_at(s):
        k = ny + t0 - 1 - s
        return tr.u[s - t0] if s >= t0 else (x0[k] if k < len(x0) else 0.0)

    def phi(t):
        return np.array([y_at(t - i) for i in range(n)] + [u_at(t - j) for j in range(m + d)])

    def wbar(t):
        return gt.wbar[t - gt.wbar_t0]

    th, e, eb = tr.theta_hat, tr.e, tr.eps_bar
    err_sq = np.sum((th - gt.theta_star) ** 2, axis=1)
    move = step = math.inf
    budget = res1 = res2 = res3 = 0.0
    for k in range(T):
        v = phi(t0 + k - d + 1)
        norm = float(np.linalg.norm(v))
        gated = tr.rho[k] and norm > 0
        bound = abs(e[k + 1]) / norm if gated else 0.0
        move = min(move, bound - float(np.linalg.norm(th[k + 1] - th[k])))
        if k >= d - 1:
            wb = wbar(t0 + k - d + 1)
            allowed = (-0.5 * e[k + 1] ** 2 + 2.0 * wb**2) / norm**2 if gated else 0.0
            budget += allowed
            step = min(step, allowed - (err_sq[k + 1] - err_sq[k]))
    for k in range(d, T + 1):
        v, wb = phi(t0 + k - d), wbar(t0 + k - d)
        prev, lagged, star = (abs(v) @ abs(x) for x in (th[k - 1], th[k - d], gt.theta_star))
        res1 = max(res1, abs(eb[k] - e[k] - v @ (th[k - 1] - th[k - d])) / (1 + abs(e[k]) + prev + lagged))
        res2 = max(res2, abs(e[k] + v @ (th[k - 1] - gt.theta_star) - wb) / (1 + prev + star + abs(wb)))
        res3 = max(res3, abs(eb[k] + v @ (th[k - d] - gt.theta_star) - wb) / (1 + lagged + star + abs(wb)))
    return {
        "estimate_move_bounded": move,
        "parameter_error_contraction_step": step,
        "parameter_error_contraction_total": err_sq[d - 1] + budget - err_sq[T],
        "identity_tracking_vs_prediction": 1e-8 - res1,
        "identity_prediction_error": 1e-8 - res2,
        "identity_tracking_error": 1e-8 - res3,
    }


@pytest.mark.parametrize("d, t0", [(1, 0), (2, -3), (3, 5)])
def test_vectorized_checks_match_row_loops(d, t0):
    cfg = make_config(d=d, t0=t0, steps=300, delta=1.0, w=white_noise(0.2, seed=4))
    tr, gt = run_closed_loop(cfg), ground_truth(cfg)
    rep = check_prop1(tr, gt.theta_star, gt.wbar, gt.wbar_t0).checks
    rep += check_identities(tr, gt.theta_star, gt.wbar, gt.wbar_t0).checks
    got = {c.name: c.margin for c in rep}
    for name, want in loop_margins(tr, cfg, gt).items():
        assert got[name] == pytest.approx(want, rel=1e-12, abs=1e-12), name


@pytest.mark.parametrize(
    "make",
    [lambda: config_from_dict(README_CONFIG), lambda: config_from_dict(D1_CONFIG),
     lambda: config_from_dict(STATIC_D3_CONFIG), demo_config,
     lambda: config_from_dict(D1_GATED_CONFIG), lambda: config_from_dict(P8_CONFIG)],
    ids=["readme", "d1", "static_d3", "showcase", "d1_gated", "p8"],
)
def test_audit_recomputes_loop_columns_exactly(make):
    # The loop's dot products and the audit's column sums run in one order,
    # so e and norm_phi are recomputed with a zero residual.
    cfg = make()
    trace = run_closed_loop(cfg)
    rep = check_trace_consistency(trace, cfg)
    margins = {c.name: c.margin for c in rep.checks}
    assert margins["consistency_prediction_error"] == CHECK_TOL
    assert margins["consistency_regressor_norm"] == CHECK_TOL
    assert margins["consistency_deadzone_gate"] == 0.0
    # audit hands its one regressor table to the checks; called alone, each builds its own.
    if cfg.schedule.is_constant():
        gt = ground_truth(cfg)
        rep.checks += check_prop1(trace, gt.theta_star, gt.wbar, gt.wbar_t0).checks
        rep.checks += check_identities(trace, gt.theta_star, gt.wbar, gt.wbar_t0).checks
    else:
        rep.checks += check_prop1(trace).checks
    alone = [(c.name, c.margin.hex()) for c in rep.checks]
    assert [(c.name, c.margin.hex()) for c in audit(trace).checks] == alone


class TestPredictorResiduals:
    def test_small_on_noisy_closed_loop(self):
        cfg = make_config(steps=500, w=white_noise(0.3, seed=11))
        tr = run_closed_loop(cfg)
        res = predictor_residuals(tr, cfg)
        assert len(res) == tr.rows - cfg.d
        assert np.max(np.abs(res)) < 1e-9

    def test_needs_constant_plant(self):
        cfg = demo_config(steps=60)
        tr = run_closed_loop(cfg)
        with pytest.raises(ValueError, match="constant"):
            predictor_residuals(tr, cfg)


def forged_trace(norm_phi, r, w, x0_norm, d=1):
    """Columns as given, on a (2, 1, d) config whose x0 has norm x0_norm."""
    rows = len(norm_phi)
    zeros = np.zeros(rows)
    x0 = [0.0] * x0_length(2, 1, d)
    x0[0] = x0_norm
    return Trace(
        t=np.arange(rows),
        y=zeros,
        y_star=zeros,
        u=zeros,
        eps=zeros,
        eps_bar=zeros,
        e=zeros,
        rho=np.zeros(rows, dtype=int),
        norm_phi=np.asarray(norm_phi, dtype=float),
        theta_hat=np.zeros((rows, 1)),
        r=np.asarray(r, dtype=float),
        w=np.asarray(w, dtype=float),
        cfg=make_config(d=d, x0=x0),
    )


class TestDecayFit:
    def test_exact_envelope_gives_unit_gain(self):
        lam = 0.5
        rows = 40
        env = [2.0 + 1.0]  # x0 norm + drive at t=0
        for _ in range(rows - 1):
            env.append(lam * env[-1] + 1.0)
        tr = forged_trace(env, np.ones(rows), np.zeros(rows), x0_norm=2.0)
        assert fit_decay_bound(tr, lam) == pytest.approx(1.0, rel=1e-12)

    def test_zero_signals_give_zero_gain(self):
        tr = forged_trace(np.zeros(10), np.zeros(10), np.zeros(10), x0_norm=0.0)
        assert fit_decay_bound(tr, 0.9) == 0.0

    def test_degenerate_fit_rejected(self):
        tr = forged_trace(np.ones(10), np.zeros(10), np.zeros(10), x0_norm=0.0)
        with pytest.raises(ValueError, match="degenerate"):
            fit_decay_bound(tr, 0.9)

    def test_degenerate_fit_names_its_first_time(self):
        norm_phi = [0.0, 0.0, 0.0, 2.0, 3.0, 1.0]  # nonzero under a zero envelope at t = 3, 4
        tr = forged_trace(norm_phi, np.zeros(6), [0.0, 0.0, 0.0, 0.0, 0.0, 1.0], x0_norm=0.0)
        with pytest.raises(ValueError, match="^degenerate fit at t = 3: "):
            fit_decay_bound(tr, 0.9)

    def test_gain_from_zero_signals_is_positive_zero(self):
        tr = forged_trace([-0.0] * 4, np.ones(4), np.zeros(4), x0_norm=1.0)
        assert math.copysign(1.0, fit_decay_bound(tr, 0.9)) == 1.0

    @pytest.mark.parametrize("lam", [0.75, 0.9, 0.99])
    @pytest.mark.parametrize("build", [lambda: demo_config(3000), lambda: config_from_dict(README_CONFIG)],
                             ids=["showcase", "readme"])
    def test_gain_is_the_running_loop_bit_for_bit(self, build, lam):
        tr = run_closed_loop(build())
        env, c = float(np.linalg.norm(np.array(tr.cfg.x0))), 0.0
        drive = np.abs(tr.r) + np.abs(tr.w)
        for k, (dk, norm_phi) in enumerate(zip(drive.tolist(), tr.norm_phi.tolist())):
            env = env + dk if k == 0 else lam * env + dk
            if env > 0.0:
                c = max(c, norm_phi / env)
        assert fit_decay_bound(tr, lam).hex() == c.hex()

    def test_monotone_in_rate(self):
        cfg = make_config(steps=300)
        tr = run_closed_loop(cfg)
        gains = [fit_decay_bound(tr, lam) for lam in (0.82, 0.9, 0.95, 0.99)]
        assert all(a >= b - 1e-12 for a, b in zip(gains, gains[1:]))

    def test_rate_limits(self):
        tr = forged_trace(np.ones(5), np.ones(5), np.zeros(5), x0_norm=1.0)
        with pytest.raises(ValueError):
            fit_decay_bound(tr, 1.0)
        with pytest.raises(ValueError):
            fit_decay_bound(tr, 0.0)
        with pytest.raises(ValueError, match="spectral floor"):
            fit_decay_bound(tr, 0.6, floor=0.7)


class TestTrackingEnergy:
    def test_hand_case(self):
        tr = forged_trace(np.ones(5), np.zeros(5), np.zeros(5), x0_norm=1.0, d=2)
        tr.eps = np.array([5.0, 4.0, 1.0, 2.0, 3.0])
        total, partial = tracking_energy(tr)
        assert total == pytest.approx(1 + 4 + 9)
        assert np.allclose(partial, [1.0, 5.0, 14.0])


class TestSpectralFloor:
    def test_demo_floor_is_weighting_root(self):
        assert config_spectral_floor(demo_config()) == pytest.approx(
            math.sqrt(0.5), abs=1e-12
        )

    def test_plant_zero_dominates(self):
        cfg = make_config(a=(-0.5,), b=(1.0, 0.9), d=1, L=(1.0, -0.4), H=(0.6,), pad=0.5)
        assert config_spectral_floor(cfg) == pytest.approx(0.9, abs=1e-12)


class TestTraceFiles:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = make_config(steps=120, delta=2.5, t0=-3)
        tr = run_closed_loop(cfg)
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, path)
        tr2 = trace_from_csv(path, cfg)
        for name in ("t", "y", "y_star", "u", "eps", "eps_bar", "e", "rho",
                     "norm_phi", "theta_hat", "r", "w"):
            assert np.array_equal(getattr(tr, name), getattr(tr2, name)), name
        assert np.array_equal(tr.regressors().phi, tr2.regressors().phi)
        assert check_trace_consistency(tr2, cfg).passed

    @pytest.mark.parametrize("rows", [1, 511, 512, 513, 1025])
    def test_writer_writes_the_savetxt_bytes(self, tmp_path, rows):
        # Whole blocks, a partial last block and one row all print as np.savetxt does.
        rng = np.random.default_rng(rows)
        width = len(_csv_header(3))
        table = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
        cells = table.reshape(-1)
        cells[::5] = np.resize([-0.0, 5e-324, 2.0**53, 1e16, -(2.0**53), 0.1], cells[::5].size)
        stops = np.cumsum([3 if name == "theta_hat" else 1 for name in TRACE_COLUMNS[:-1]])
        cols = dict(zip(TRACE_COLUMNS, np.split(table, stops, axis=1)))
        cols = {n: c if n == "theta_hat" else c[:, 0] for n, c in cols.items()}
        write_trace_csv(Trace(**cols, cfg=make_config()), tmp_path / "trace.csv")
        np.savetxt(tmp_path / "want.csv", table, fmt=CSV_FMT, delimiter=",",
                   header=",".join(_csv_header(3)), comments="")
        written = (tmp_path / "trace.csv").read_bytes()
        assert written == (tmp_path / "want.csv").read_bytes()
        back = np.loadtxt(tmp_path / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
        assert back.tobytes() == table.tobytes()

    def test_header_guard(self, tmp_path):
        cfg = make_config(steps=50)
        tr = run_closed_loop(cfg)
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, path)
        other = make_config(a=(-0.5,), b=(1.0,), d=1, L=(1.0,), H=(1.0,), steps=50,
                            x0=(0.0,), pad=0.5)
        with pytest.raises(ConfigError, match="header"):
            trace_from_csv(path, other)

    def test_tampered_file_detected(self, tmp_path):
        cfg = make_config(steps=100)
        tr = run_closed_loop(cfg)
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, path)
        lines = path.read_text().splitlines()
        cells = lines[40].split(",")
        cells[1] = "%.17g" % (float(cells[1]) + 1e-4)  # y column
        lines[40] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        rep = check_trace_consistency(trace_from_csv(path, cfg), cfg)
        assert not rep.passed

    def test_write_outputs_file_set(self, tmp_path):
        cfg = make_config(steps=60)
        tr = run_closed_loop(cfg)
        paths = write_outputs(tr, tmp_path / "out")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "plot.gp",
            "summary.json",
            "trace.csv",
        ]
        import json

        summary = json.loads(paths["summary"].read_text())
        assert summary["rows"] == tr.rows
        assert summary["estimates"]["within_box"] is True
        assert summary["estimates"]["updates_gated_on"] == int(np.sum(tr.rho))


class TestShowcase:
    def test_known_first_steps(self):
        tr = run_closed_loop(demo_config())
        assert tr.y[0] == -1.0
        assert tr.u[0] == 0.0
        assert tr.y[1] == 2.0

    def test_artifacts_byte_identical(self, tmp_path):
        _, s1 = reproduce_example(tmp_path / "a")
        _, s2 = reproduce_example(tmp_path / "b")
        assert s1 == s2
        for name in ("trace.csv", "summary.json", "plot.gp"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_config_document_built_once(self, tmp_path, monkeypatch):
        # One summary per reproduce, and its hash is taken from its own document.
        calls, to_doc = [], ExperimentConfig.to_config_dict
        counted = lambda cfg: calls.append(cfg) or to_doc(cfg)
        monkeypatch.setattr(ExperimentConfig, "to_config_dict", counted)
        reproduce_example(tmp_path)
        assert len(calls) == 1

    def test_disturbance_window_visible_in_rms(self, tmp_path):
        _, summary = reproduce_example()
        rms = summary["tracking"]
        assert rms["rms_eps(200,500]"] > rms["rms_eps[600,1000]"]
        assert summary["estimates"]["within_box"] is True
        assert summary["rows"] == 1001
