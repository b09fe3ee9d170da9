"""Tests for the closed-loop harness: configs, runs, checks, and trace files."""

from __future__ import annotations

import json
import math
import re
import warnings
from collections import Counter
from dataclasses import fields, replace
from itertools import product
from pathlib import Path

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
    run_closed_loop,
    tracking_energy,
    trace_from_csv,
    write_outputs,
    write_trace_csv,
)
from mraclab.harness import CSV_FMT, TRACE_COLUMNS, _csv_header
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
from mraclab.system import ParamBox, PlantParams, ReferenceModel, build_param_box, to_predictor_params
from test_golden import (D1_CONFIG, D1_GATED_CONFIG, P8_CONFIG, README_CONFIG, README_W0_CONFIG,
                         STATIC_D3_CONFIG)


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


# (where in the showcase document, malformed value, start of the error[, test id if not where]);
# math.inf is what json reads for 1e400, and int() cannot convert it. A key the
# document does not have is one no parser reads, such as a misspelled field.
MALFORMED = [
    ("sim.steps", math.inf, "sim.steps"),
    ("sim.t0", math.inf, "sim.t0"),
    ("plant.d", math.inf, "plant.d"),
    ("signals.r.period", math.inf, "signals.r: field 'period'"),
    ("signals.r.period", 10**400, "signals.r: field 'period'", "signals.r.period_10^400"),  # no float holds it
    ("sim", [], "sim"),
    ("estimator", [], "estimator"),
    ("plant.schedule", [], "plant.schedule"),
    ("reference", [], "reference"),
    ("estimator.box", 3.0, "estimator.box"),
    ("estimator.samples", "many", "estimator.samples"),
    ("estimator.margin", "wide", "estimator.margin"),
    ("estimator.seed", 7, "estimator.seed"),
    ("sim.seed", 0, "sim.seed"),
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

    @pytest.mark.parametrize("doc", [demo_config().to_config_dict(), README_CONFIG],
                             ids=["showcase", "readme"])
    def test_inputs_are_validated_on_the_runs_times(self, doc):
        # r and w are checked on t0 .. t0 + steps, the times the run samples: this w's
        # angle is finite up to t = 1000 and infinite from t = 1001 on, and wbar reads
        # no time past the horizon.
        w = {"kind": "sinusoid", "amplitude": 0.1, "rate": 1.7976931348623157e308 / 1000.5}
        doc = {**doc, "signals": {**doc["signals"], "w": w}}
        assert audit(run_closed_loop(config_from_dict(doc))).passed
        msg = r"^signals\.w: field 'rate': rate \* t \+ phase is not finite at t = 1001$"
        with pytest.raises(ConfigError, match=msg):
            config_from_dict({**doc, "sim": {**doc["sim"], "steps": 1001}})

    @pytest.mark.parametrize("d", [2.0, True], ids=["float", "bool"])
    def test_python_built_delay_is_an_integer(self, d):
        # A document's plant.d must be an integer; so must a delay built in Python.
        # A float would fail the run, a bool would write "d": true and not read back.
        with pytest.raises(TypeError, match="expected an integer"):
            CoefficientSchedule(a=(CoefSpec.const(-0.6),), b=(CoefSpec.const(2.0),), d=d)
        with pytest.raises(TypeError, match="expected an integer"):
            ReferenceModel(L=PolyZ((1.0,)), H=PolyZ((1.0,)), d=d)
        with pytest.raises(TypeError, match="expected an integer"):
            PlantParams(a=(-0.6,), b=(2.0,), d=d)

    @pytest.mark.parametrize("key", ["box", "s_ab"])
    def test_reference_order_exceeds_plant(self, key):
        # One fault, one field path: with an s_ab_box it was once
        # "estimator.s_ab_box: reference order 2 exceeds plant order 1".
        params = PlantParams(a=(-0.5,), b=(1.0,), d=1)
        ref = ReferenceModel(L=PolyZ((1.0, -0.4, 0.04)), H=PolyZ((0.5,)), d=1)
        with pytest.raises(ConfigError, match=r"^reference\.L: order 2 exceeds plant order 1$"):
            ExperimentConfig(
                schedule=CoefficientSchedule.constant(params),
                ref=ref,
                **{key: ParamBox(lo=(-1.0, 0.5), hi=(1.0, 2.0))},  # theta = (a1, b0), as is (alpha1, beta0)
                delta=math.inf,
                t0=0,
                steps=100,
                x0=(0.0,),
                theta0=(0.0, 1.0),
                r=zero_signal(),
                w=zero_signal(),
            )

    def test_reference_order_is_capped_by_the_plant_order_not_the_delay(self):
        # n = 1, d = 2: deg L = 2 meets deg L <= n+d-1 yet exceeds n, the rule the config keeps.
        doc = {
            "plant": {"a": [-0.5], "b": [1.0], "d": 2},
            "reference": {"L": [1.0, 0.0, -0.25], "H": [0.5]},
            "estimator": {"box": {"lo": [-1.0, 0.5, -1.0], "hi": [1.0, 2.0, 1.0]}},
            "sim": {"steps": 100, "x0": [0.0] * 4},
        }
        with pytest.raises(ConfigError, match=r"^reference\.L: order 2 exceeds plant order 1$"):
            config_from_dict(doc)

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
        # No tolerance either: a beta0_hat of 0 a hair below the box would reach the control law.
        for beta0 in (0.0, -0.0):
            doc = json.loads(json.dumps(README_CONFIG))
            doc["estimator"]["box"]["lo"][2] = 1e-13
            doc["sim"]["theta0"] = [0.0, 0.0, beta0, 0.0, 0.0]
            with pytest.raises(ConfigError, match="sim.theta0"):
                config_from_dict(doc)

    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_theta0_one_ulp_outside_box(self, side):
        # Exactly inside, as in the audit's replay of the update: a bound is in, one ulp past it is out.
        cfg = make_config()
        bound = getattr(cfg.box, side)[1]
        theta0 = list(cfg.box.midpoint())
        theta0[1] = bound
        make_config(theta0=theta0)
        theta0[1] = float(np.nextafter(bound, -math.inf if side == "lo" else math.inf))
        with pytest.raises(ConfigError, match=r"^sim\.theta0: initial estimate must lie inside the box$"):
            make_config(theta0=theta0)

    @pytest.mark.parametrize("lo, hi", [(0.0, 3.0), (-0.0, 3.0), (-3.0, 0.0)], ids=["lo_zero", "lo_minus_zero", "hi_zero"])
    def test_gain_interval_with_zero_at_an_end(self, lo, hi):
        # A closed interval that ends at 0 holds beta0_hat = 0, which the control law would divide by.
        doc = json.loads(json.dumps(README_CONFIG))
        doc["estimator"]["box"]["lo"][2], doc["estimator"]["box"]["hi"][2] = lo, hi
        msg = rf"^estimator\.box: beta0 interval \[{lo!r}, {hi!r}\] contains 0; the control law divides by beta0$"
        with pytest.raises(ConfigError, match=msg):
            config_from_dict(doc)

    def test_x0_wrong_length(self):
        with pytest.raises(ConfigError, match="sim.x0"):
            make_config(x0=(1.0, 2.0))

    @pytest.mark.parametrize(
        "field, length, message",
        [
            ("x0", 5, r"^sim\.x0: needs 6 entries for \(n=2, m=1, d=2\), got 5$"),
            ("x0", 7, r"^sim\.x0: needs 6 entries for \(n=2, m=1, d=2\), got 7$"),
            ("theta0", 4, r"^sim\.theta0: needs 5 entries, got 4$"),
            ("theta0", 6, r"^sim\.theta0: needs 5 entries, got 6$"),
        ],
        ids=["x0_short", "x0_long", "theta0_short", "theta0_long"],
    )
    def test_lengths_are_exact(self, field, length, message):
        # One entry off either way is refused: the loop's history and estimate take these lengths as given.
        with pytest.raises(ConfigError, match=message):
            make_config(**{field: (0.0,) * length})

    def test_delta_zero_rejected(self):
        with pytest.raises(ConfigError, match="estimator.delta"):
            make_config(delta=0.0)

    @pytest.mark.parametrize("delta", [-1.0, math.nan], ids=["negative", "nan"])
    def test_delta_not_positive_rejected(self, delta):
        with pytest.raises(ConfigError, match=r"^estimator\.delta: deadzone width must be positive \(or inf\)$"):
            make_config(delta=delta)

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
            ("delta", True, "estimator.delta"),
            ("t0", 0.5, "sim.t0"),
            ("steps", 200.0, "sim.steps"),
            ("s_ab_samples", True, "estimator.samples"),
            ("s_ab_margin", "0.5", "estimator.margin"),
            ("label", 5, "label"),
        ],
        ids=["t0_bool", "delta_bool", "t0_fraction", "steps_float", "samples_bool",
             "margin_string", "label_int"],
    )
    def test_scalar_fields_follow_the_document_rules(self, name, value, fieldpath):
        # The first two ran and wrote a summary that config_from_dict refuses;
        # t0 = 0.5 and steps = 200.0 raised a bare TypeError; label = 5 wrote
        # "label": 5, which read back as "5" under another config hash.
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

    def test_document_label_is_a_string(self):
        doc = json.loads(json.dumps(README_CONFIG))
        doc["label"] = {"x": 1}  # was turned into the label "{'x': 1}"
        with pytest.raises(ConfigError, match=r"^label: expected a string, got \{'x': 1\}$"):
            config_from_dict(doc)

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
         ("b", [math.inf, 0.5], "plant: field 'value': must be finite"),
         ("b", [], "plant: schedule needs at least the b0 coefficient")],
        ids=["non_minimum_phase", "zero_b0", "nan_a", "inf_b", "empty_b"],
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
        # Checked first, before build_param_box reads it: beside a literal box, where a
        # finite margin is "only read with an s_ab_box", a NaN is still this error.
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
            # Refused as they always were; each pins its field path and message.
            ("sim.x0", [math.nan, 0.0, 0.0, 0.0, 0.0, 0.0], "sim.x0: entries must be finite"),
            ("sim.theta0", [0.0, 0.0, 2.0, 0.0], "sim.theta0: needs 5 entries, got 4"),
            ("plant.d", 0, "plant: input delay d must be at least 1"),
            ("plant", {"a": [-0.6, 0.08], "b": [2.0, 0.5]}, "plant.d: missing field"),
            ("plant", {"a": [-0.6, 0.08], "d": 2}, "plant.b: missing section"),
            ("plant", {"schedule": {"a": 0.08, "b": [2.0, 0.5]}, "d": 2},
             "plant.schedule.a: expected an array"),
            ("plant", {"schedule": {"a": [{"kind": "sinusoid", "amplitude": 0.1, "rate": 0.01,
                                           "trig": "tan"}, 0.08], "b": [2.0, 0.5]}, "d": 2},
             "plant.schedule.a[0]: sinusoid coefficient needs trig in {'cos', 'sin'}"),
            ("plant", {"schedule": {"a": [{"kind": "piecewise", "times": [0, 10], "values": [-0.6]},
                                          0.08], "b": [2.0, 0.5]}, "d": 2},
             "plant.schedule.a[0]: piecewise coefficient needs matching times/values"),
            ("plant", {"schedule": {"a": [{"kind": "table", "values": []}, 0.08], "b": [2.0, 0.5]},
                       "d": 2},
             "plant.schedule.a[0]: table coefficient needs at least one value"),
            ("reference", {"L": [1.0, -0.4]}, "reference: missing field 'H'"),
        ],
        ids=["steps_string", "steps_fraction", "t0_bool", "delta_bool", "seed_fraction",
             "table_values_string", "coefficient_bool", "x0_nan", "theta0_length", "d_zero",
             "no_d", "no_b", "schedule_a_number", "trig_tan", "piecewise_lengths", "empty_table",
             "no_H"],
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

    @pytest.mark.parametrize(
        "where, value, message",
        [
            ("plant.d", 1, "estimator.box: box dimension 5 != n+m+d = 4"),
            ("plant.b", [2.0, 3.0], "plant: schedule inadmissible at t = 0: B(z^-1) must have all "
                                    "roots strictly inside the unit circle"),
            ("sim.x0", "123456", "sim.x0: expected an array of numbers"),
            ("sim.steps", 400.9, "sim.steps: expected an integer, got 400.9"),
            ("plant.a", [math.nan, 0.08], "plant: field 'value': must be finite"),
            ("plant", {"schedule": {"a": [{"kind": "table", "values": [-0.6, math.nan]}, 0.08],
                                    "b": [2.0, 0.5]}, "d": 2},
             "plant.schedule.a[0]: field 'values': must be finite"),
            ("reference.L", [], "reference: PolyZ needs at least one coefficient"),
        ],
        ids=["box_dimension", "non_minimum_phase", "x0_string", "steps_fraction", "nan_a",
             "nan_table", "empty_L"],
    )
    def test_readme_error_messages(self, where, value, message):
        # Each message is quoted in README.md; an empty L is a ValueError of PolyZ, which the
        # reference's one guarded call names as a reference error.
        doc = json.loads(json.dumps(README_CONFIG))
        *parents, key = where.split(".")
        node = doc
        for name in parents:
            node = node[name]
        node[key] = value
        with pytest.raises(ConfigError) as info:
            config_from_dict(doc)
        assert str(info.value) == message
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        assert message in " ".join(readme.split())

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

    @pytest.mark.parametrize("key", ["a", "b"])
    def test_plant_row_beside_a_schedule_is_an_unknown_field(self, key):
        # A schedule holds its rows: its document repeated the row at t0 as plant.a/b,
        # a copy that config_from_dict had to hold equal to the schedule's.
        doc = demo_config().to_config_dict()
        assert sorted(doc["plant"]) == ["d", "schedule"] and config_from_dict(doc) == demo_config()
        doc["plant"][key] = demo_config().plant_rows["ab".index(key)][0].tolist()
        with pytest.raises(ConfigError, match=f"^plant\\.{key}: unknown field$"):
            config_from_dict(doc)

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

    @pytest.mark.parametrize("where, value, fieldpath", [pytest.param(*c[:3], id=c[3] if len(c) > 3 else c[0])
                                                         for c in MALFORMED])
    def test_malformed_document_is_a_config_error(self, where, value, fieldpath):
        doc = demo_config().to_config_dict()
        *parents, key = where.split(".")
        node = doc
        for name in parents:
            node = node[name]
        node[key] = value
        with pytest.raises(ConfigError, match="^" + re.escape(fieldpath) + ":"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "steps, reason",
        [(10**20, "t0 + steps = 100000000000000000000 passes 2^53"),
         (10**15, "1000000000000000 steps cannot be allocated")],
        ids=["10^20", "10^15"],
    )
    def test_horizon_no_array_holds_is_a_config_error(self, steps, reason):
        # Integer horizons no trace holds: a t column past float64's exact integers, and
        # more rows than memory holds (the allocation fails at once). A sim.steps that is
        # no integer is refused before either, as MALFORMED's math.inf case shows.
        doc = demo_config().to_config_dict()
        doc["sim"]["steps"] = steps
        with pytest.raises(ConfigError) as info:
            config_from_dict(doc)
        assert str(info.value) == f"sim.steps: {reason}"

    @pytest.mark.parametrize("key, name, value", [("samples", "s_ab_samples", 10),
                                                 ("margin", "s_ab_margin", 0.25)])
    def test_samples_and_margin_need_an_s_ab_box(self, key, name, value):
        # Beside a literal box they were kept, then dropped by to_config_dict, so the
        # config read back from its own document differed under the same hash. They
        # build nothing there, so any value is refused, build_param_box's default too.
        for v in (value, {"samples": 256, "margin": 0.0}[key]):
            doc = demo_config().to_config_dict()
            doc["estimator"][key] = v
            with pytest.raises(ConfigError, match=f"^estimator.{key}: only read with an s_ab_box$"):
                config_from_dict(doc)
            with pytest.raises(ConfigError, match=f"^estimator.{key}: only read with an s_ab_box$"):
                replace(demo_config(), **{name: v})


MINIMAL_DOC = {key: README_CONFIG[key] for key in ("plant", "reference")}
MINIMAL_DOC.update(estimator={"box": README_CONFIG["estimator"]["box"]}, sim={"steps": 400})
README_S_AB = {"lo": [-0.8, 0.0, 1.5, 0.3], "hi": [-0.4, 0.16, 2.5, 0.7]}
S_AB = ParamBox(**{k: tuple(v) for k, v in README_S_AB.items()})


def minimal_config(**fields) -> ExperimentConfig:
    """README's plant and reference built in Python, with only the given fields."""
    return ExperimentConfig(
        schedule=CoefficientSchedule.constant(PlantParams(a=(-0.6, 0.08), b=(2.0, 0.5), d=2)),
        ref=ReferenceModel(L=PolyZ((1.0, -0.4)), H=PolyZ((0.6,)), d=2),
        **fields,
    )


def minimal_doc(estimator=None, **sim) -> dict:
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["estimator"] = estimator or doc["estimator"]
    doc["sim"].update(sim)
    return doc


class TestPythonAndDocumentParity:
    """A config built in Python takes the document's defaults (SCALAR_FIELDS)."""

    BOX = ParamBox(lo=(-2.0, -1.0, 1.0, -1.0, -1.0), hi=(2.0, 1.0, 3.0, 1.0, 1.0))

    def test_minimal_config_equals_its_document(self):
        cfg = minimal_config(box=self.BOX, steps=400)
        doc = config_from_dict(minimal_doc())
        assert cfg == doc and cfg.config_hash() == doc.config_hash()
        assert (cfg.delta, cfg.t0, cfg.label) == (math.inf, 0, "")
        assert cfg.x0 == (0.0,) * 6 and cfg.theta0 == (0.0, 0.0, 2.0, 0.0, 0.0)
        assert cfg.r == cfg.w == zero_signal()

    @pytest.mark.parametrize("section, key, value", [("estimator", "delta", "inf"),
                                                     ("sim", "theta0", "midpoint")])
    def test_document_strings_are_read_in_python(self, section, key, value):
        # Each was refused in Python: delta "expected a number", theta0 "expected an array".
        cfg = minimal_config(box=self.BOX, steps=400, **{key: value})
        doc = minimal_doc()
        doc[section][key] = value
        assert cfg == config_from_dict(doc) == minimal_config(box=self.BOX, steps=400)

    def test_s_ab_alone_builds_the_box(self):
        cfg = minimal_config(s_ab=S_AB, steps=400)
        assert cfg == config_from_dict(minimal_doc({"s_ab_box": README_S_AB}))
        assert cfg.box.contains(cfg.theta0) and cfg.theta0 == tuple(cfg.box.midpoint())

    def test_s_ab_box_round_trip_keeps_samples_and_margin(self):
        cfg = config_from_dict(minimal_doc({"s_ab_box": README_S_AB, "samples": 12, "margin": 0.125}))
        assert cfg.box == build_param_box(S_AB, cfg.ref, n_a=2, samples=12, margin=0.125)
        assert cfg == minimal_config(s_ab=S_AB, s_ab_samples=12, s_ab_margin=0.125, steps=400)
        assert cfg.box != config_from_dict(minimal_doc({"s_ab_box": README_S_AB})).box
        back = config_from_dict(cfg.to_config_dict())
        assert back == cfg and back.config_hash() == cfg.config_hash()

    def test_s_ab_document_records_only_the_box(self):
        # It recorded s_ab_box, samples and margin beside the box they built.
        cfg = config_from_dict(minimal_doc({"s_ab_box": README_S_AB, "samples": 64, "margin": 0.05}))
        doc = cfg.to_config_dict()
        assert list(doc["estimator"]) == ["delta", "box"]
        back = config_from_dict(doc)
        assert back == cfg and back.config_hash() == cfg.config_hash()
        assert not [f.name for f in fields(ExperimentConfig) if f.name.startswith("s_ab")]

    def test_replace_keeps_the_box_and_refuses_a_recipe(self):
        # replace(cfg, s_ab_margin=0.5) kept the box built without it, and
        # to_config_dict wrote margin 0.5 beside that box.
        cfg = minimal_config(s_ab=S_AB, s_ab_margin=0.05, steps=400)
        with pytest.raises(ConfigError, match="^estimator.margin: only read with an s_ab_box$"):
            replace(cfg, s_ab_margin=0.5)
        assert replace(cfg, steps=300).box == cfg.box

    def test_box_and_s_ab_box_are_refused_together(self):
        # The literal box ran, while summary.json recorded the s_ab_box,
        # samples and margin as its source.
        message = "^estimator: takes a 'box' or an 's_ab_box', not both$"
        with pytest.raises(ConfigError, match=message):
            minimal_config(box=self.BOX, s_ab=S_AB, steps=400)
        doc = minimal_doc({"box": MINIMAL_DOC["estimator"]["box"], "s_ab_box": README_S_AB})
        with pytest.raises(ConfigError, match=message):
            config_from_dict(doc)

    def test_missing_fields_are_named(self):
        with pytest.raises(ConfigError, match=r"^sim\.steps: missing field$"):
            minimal_config(box=self.BOX)
        doc = minimal_doc()
        del doc["sim"]["steps"]
        with pytest.raises(ConfigError, match=r"^sim\.steps: missing field$"):
            config_from_dict(doc)
        with pytest.raises(ConfigError, match=r"^estimator: needs a 'box' or an 's_ab_box'$"):
            minimal_config(steps=400)

    def test_negative_samples_are_refused(self):
        # They were accepted and built the samples: 0 box.
        message = r"^estimator\.samples: must not be negative, got -5$"
        with pytest.raises(ConfigError, match=message):
            config_from_dict(minimal_doc({"s_ab_box": README_S_AB, "samples": -5}))
        with pytest.raises(ConfigError, match=message):
            minimal_config(s_ab=S_AB, s_ab_samples=-5, steps=400)
        assert minimal_config(s_ab=S_AB, s_ab_samples=0, steps=400).box.dim == 5

    @pytest.mark.parametrize("key, fieldpath", [("s_ab", "estimator.s_ab_box"), ("box", "estimator.box"),
                                                 ("schedule", "plant"), ("ref", "reference"),
                                                 ("r", "signals.r"), ("w", "signals.w")])
    def test_a_box_that_is_not_a_param_box_is_refused(self, key, fieldpath):
        # A (lo, hi) tuple escaped as AttributeError: 'tuple' object has no attribute 'dim';
        # one in the plant, the reference or a signal as its own AttributeError.
        kind = {"schedule": "CoefficientSchedule", "ref": "ReferenceModel", "r": "SignalSpec",
                "w": "SignalSpec"}.get(key, "ParamBox")
        cfg = minimal_config(box=self.BOX, steps=400)
        box = S_AB if key == "s_ab" else self.BOX
        given = {"schedule": cfg.schedule, "ref": cfg.ref, "box": None if key == "s_ab" else self.BOX,
                 "steps": 400, key: (box.lo, box.hi)}
        with pytest.raises(ConfigError, match=rf"^{re.escape(fieldpath)}: expected a {kind}, got tuple$"):
            ExperimentConfig(**given)


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

    def test_trig_is_a_string(self):
        # builtin str read trig = 5 as "5" and refused it as neither cos nor sin.
        with pytest.raises(ValueError, match="^field 'trig': expected a string, got 5$"):
            CoefSpec.sinusoid(1.0, 0.1, trig=5)
        doc = coef_config(CoefSpec.sinusoid(0.1, 0.01, offset=-0.5)).to_config_dict()
        doc["plant"]["schedule"]["a"][0]["trig"] = ["cos"]
        message = "plant.schedule.a[0]: field 'trig': expected a string, got ['cos']"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_dict(doc)

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


def _with_ground_truth(check):
    """check(trace, theta*, wbar, wbar_t0) from trace.cfg's ground truth, or check(trace) when
    that plant has none."""
    def run(trace):
        if not trace.cfg.schedule.is_constant():
            return check(trace)
        gt = ground_truth(trace.cfg)
        return check(trace, gt.theta_star, gt.wbar, gt.wbar_t0)
    return run


def constant_60():
    return make_config(steps=60)


def showcase_60():
    return demo_config(60)


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
        assert tr.t[0] == 0 and tr.t[-1] == 150
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

    @pytest.mark.parametrize("w_next", [math.nan, math.inf, -math.inf])
    def test_non_finite_output_aborts(self, w_next):
        # A non-finite sample in the w column the loop reads makes y(t0 + 1) that value.
        cfg = make_config(steps=50)
        r, w = cfg.inputs
        w = w.copy()
        w[1] = w_next
        cfg.__dict__["inputs"] = (r, w)  # the cached columns, as the loop reads them
        with pytest.raises(NumericAbort, match=r"diverged at t = 1 \(y = ") as info:
            run_closed_loop(cfg)
        assert str(info.value) == (
            f"output diverged at t = 1 (y = {w_next!r}); check the admissible box and plant schedule"
        )

    def test_per_step_call_contract(self, monkeypatch):
        # The benchmark's tracer wraps control_input and estimator_update by module attribute
        # and counts their calls: the loop calls both through harness's names, once per step
        # (control_input once more at the final time). It computes y(t+1), ybar(t+1) and the
        # deadzone gate in place, so plant_step and deadzone_flag are never called and ybar at
        # most once per run, for the t0 row, wherever a module holds them.
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in ("control_input", "estimator_update"):
            monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
        for name, fn in [("plant_step", plant_sim.plant_step), ("ybar", controller.ybar),
                         ("deadzone_flag", estimator.deadzone_flag)]:
            for module in (plant_sim, controller, estimator, harness):
                for attr in [a for a, value in vars(module).items() if value is fn]:
                    monkeypatch.setattr(module, attr, counted(name, fn))
        cfg = make_config(steps=50)
        run_closed_loop(cfg)
        T = cfg.steps
        assert (calls["control_input"], calls["estimator_update"]) == (T + 1, T)
        assert (calls["plant_step"], calls["deadzone_flag"]) == (0, 0) and calls["ybar"] <= 1


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


def test_regressors_are_built_once(monkeypatch, tmp_path):
    # The loop lays out one history and builds one phi table for norm_phi, and its
    # trace keeps it: the audit and the standalone checks of that trace build none.
    # A reloaded trace has no table; its audit builds one, which every check reads.
    calls = Counter()
    for owner, name in [(harness, "history"), (controller.History, "phi")]:
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    trace = run_closed_loop(config_from_dict(README_CONFIG))
    assert calls == {"history": 1, "phi": 1}
    assert audit(trace).passed
    gt = ground_truth(trace.cfg)
    assert check_prop1(trace, gt.theta_star, gt.wbar, gt.wbar_t0).passed
    assert check_identities(trace, gt.theta_star, gt.wbar, gt.wbar_t0).passed
    assert np.max(np.abs(predictor_residuals(trace, trace.cfg))) < 1e-9
    assert calls == {"history": 1, "phi": 1}
    write_trace_csv(trace, tmp_path / "trace.csv")
    assert audit(trace_from_csv(tmp_path / "trace.csv", trace.cfg)).passed
    assert calls == {"history": 2, "phi": 2}


def _verdict(trace) -> dict:
    """audit(trace).to_dict() with every float as its .hex()."""
    rep = audit(trace).to_dict()
    rep["checks"] = [{**c, "margin": c["margin"].hex()} for c in rep["checks"]]
    rep["fitted"] = {k: v.hex() if isinstance(v, float) else v for k, v in rep["fitted"].items()}
    return rep


@pytest.mark.parametrize("col, row", product(("y", "u"), (0, 150)))
def test_the_kept_table_never_changes_a_verdict(col, row):
    # Each trace audits as a trace of copies of its cells, which holds no table. A
    # table kept on object identity alone would miss the in-place edit and count
    # a different number of differing rows.
    cfg = config_from_dict(README_CONFIG)

    def fresh(trace):
        return Trace(**{name: np.array(getattr(trace, name)) for name in TRACE_COLUMNS}, cfg=trace.cfg)

    tr = run_closed_loop(cfg)
    assert _verdict(tr)["passed"]  # the table's lazy parts are taken before the edit
    cells = getattr(tr, col)
    cells[row] = np.nextafter(cells[row], np.inf)  # in place, on the loop's own trace
    want = _verdict(fresh(tr))
    assert not want["passed"] and _verdict(tr) == want

    tr = run_closed_loop(cfg)
    cells = np.array(getattr(tr, col))
    cells[row] = np.nextafter(cells[row], np.inf)
    copy = Trace(**{**tr.__dict__, col: cells})
    assert _verdict(copy) == _verdict(fresh(copy)) == want

    for other in (config_from_dict(README_CONFIG), replace(cfg, x0=(0.0,) * len(cfg.x0))):
        swapped = replace(run_closed_loop(cfg), cfg=other)
        assert _verdict(swapped) == _verdict(fresh(swapped))
        assert _verdict(swapped)["passed"] == (other == cfg)


def test_inputs_are_the_configs_one_copy():
    # The loop and the audit read cfg.inputs, r and w on t0 .. t0 + steps, read-only. The
    # trace holds writable copies: an in-place edit of one fails its check alone.
    cfg = config_from_dict(README_CONFIG)
    r, w = cfg.inputs
    assert len(r) == len(w) == cfg.steps + 1 and not (r.flags.writeable or w.flags.writeable)
    for col in ("r", "w"):
        tr = run_closed_loop(cfg)
        getattr(tr, col)[100] += 1.0
        assert [c.name for c in audit(tr).checks if not c.passed] == ["consistency_exogenous_signals"]
    assert cfg.inputs[0] is r and not np.array_equal(w, tr.w)  # the edits left the config's copy


def test_traces_compare_by_identity():
    # Columns are arrays, so == on a Trace is identity, and never raises; the golden
    # pins cover that two runs of one config are bitwise the same.
    tr = run_closed_loop(demo_config(60))
    assert tr == tr
    assert (run_closed_loop(demo_config(60)) == tr) is False


class TestGroundTruth:
    def test_constant_plant_values(self):
        cfg = make_config()
        gt = ground_truth(cfg)
        params = PlantParams(a=(-0.6, 0.08), b=(2.0, 0.5), d=2)
        theta = to_predictor_params(params, cfg.ref).theta_star()
        assert np.array_equal(gt.theta_star, theta)

    def test_wbar_matches_direct_filter(self):
        # wbar covers the rows the checks read, t0 .. t0 + T - d.
        cfg = make_config(w=white_noise(0.2, seed=9))
        gt = ground_truth(cfg)
        assert gt.wbar_t0 == cfg.t0 and len(gt.wbar) == cfg.steps - cfg.d + 1
        f = predictor_split(cfg.ref.L, PolyZ((1.0, -0.6, 0.08)), cfg.d)[0].coeffs
        assert len(f) == cfg.d and f[0] == 1.0
        from mraclab.plant_sim import signal_eval

        for t in (0, 3, 57, cfg.t0 + cfg.steps - cfg.d):
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


def big_input_doc(steps: int) -> dict:
    """y(t+1) = 1.5 y(t) + 1e-300 u(t) under a point box whose beta0 is 1e-300."""
    return {"plant": {"a": [-1.5], "b": [1e-300], "d": 1}, "reference": {"L": [1.0], "H": [1.0]},
            "estimator": {"box": {"lo": [-1.0, 1e-300], "hi": [-1.0, 1e-300]}},
            "sim": {"steps": steps, "x0": [1.0], "theta0": "midpoint"}, "signals": {}}


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda cfg, tr, gt: replace(cfg, ref=replace(cfg.ref, d=3)),
         ConfigError, "reference: reference delay 3 != plant delay 2"),
        # The showcase's coefficient rows for 10^15 steps are 32 PB: refused at validation.
        (lambda cfg, tr, gt: demo_config(10**15),
         ConfigError, "sim.steps: 1000000000000000 steps cannot be allocated"),
        (lambda cfg, tr, gt: config_from_dict([]), ConfigError, "config: top level must be an object"),
        (lambda cfg, tr, gt: check_prop1(tr, gt.theta_star, gt.wbar[:-1], gt.wbar_t0),
         ValueError, "wbar covers t = 0 .. 597, the check reads t = 0 .. 598"),
        (lambda cfg, tr, gt: check_identities(tr, gt.theta_star, gt.wbar, gt.wbar_t0 + 1),
         ValueError, "wbar covers t = 1 .. 599, the check reads t = 0 .. 598"),
        (lambda cfg, tr, gt: check_prop1(tr, gt.theta_star),
         ValueError, "contraction checks need the filtered noise sequence"),
        # The loop runs u = 1e300 y and y(t+1) = 2.5 y(t), both finite, but ||phi||^2 overflows
        # from the first rows on; at 21 steps the final u(t0 + T), which no y reads, is inf too.
        (lambda cfg, tr, gt: run_closed_loop(config_from_dict(big_input_doc(3))),
         NumericAbort, "non-finite values in column norm_phi"),
        (lambda cfg, tr, gt: run_closed_loop(config_from_dict(big_input_doc(21))),
         NumericAbort, "non-finite values in column u"),
    ],
    ids=["reference_delay", "showcase_10^15_steps", "top_level_array", "wbar_short", "wbar_late",
         "theta_star_without_wbar", "norm_phi_overflows", "final_u_overflows"],
)
def test_call_is_refused_with_its_message(noisy_run, call, error, message):
    # Refusals no document of the other tables reaches: a config built in Python, a top
    # level that is no object, a horizon refused before any row is sampled, checks called
    # with too little ground truth, and a finished loop whose regressors leave the floats.
    with pytest.raises(error) as info:
        call(*noisy_run)
    assert str(info.value) == message


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

    def test_prop1_names_ground_truth_outside_the_box(self):
        # The README plant with box coordinate 0 moved to [theta*_0 + 0.05, theta*_0 + 0.5].
        theta_star = ground_truth(config_from_dict(README_CONFIG)).theta_star
        doc = json.loads(json.dumps(README_CONFIG))
        doc["estimator"]["box"]["lo"][0] = theta_star[0] + 0.05
        doc["estimator"]["box"]["hi"][0] = theta_star[0] + 0.5
        rep = audit(run_closed_loop(config_from_dict(doc)))
        failed = {c.name: c.margin for c in rep.checks if not c.passed}
        assert sorted(failed) == ["ground_truth_in_box", "parameter_error_contraction_step"]
        assert failed["ground_truth_in_box"] == pytest.approx(-0.05)

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

    @pytest.mark.parametrize("tamper", ["theta_star", "wbar"])
    def test_identities_catch_a_ground_truth_off_by_a_millionth(self, tamper):
        # theta* or wbar off by 1e-6 (relative) fails the two identities that read
        # it; the bookkeeping identity reads neither and still passes.
        cfg = make_config(steps=400)
        tr, gt = run_closed_loop(cfg), ground_truth(cfg)
        theta_star, wbar = np.array(gt.theta_star), np.array(gt.wbar)
        if tamper == "theta_star":
            theta_star *= 1.0 + 1e-6
        else:
            wbar += 1e-6 * np.max(np.abs(wbar))
        assert check_identities(tr, gt.theta_star, gt.wbar, gt.wbar_t0).passed
        rep = check_identities(tr, theta_star, wbar, gt.wbar_t0)
        assert {c.name: c.passed for c in rep.checks} == {
            "identity_tracking_vs_prediction": True,
            "identity_prediction_error": False,
            "identity_tracking_error": False,
        }

    def test_consistency_passes(self, noisy_run):
        cfg, tr, gt = noisy_run
        assert check_trace_consistency(tr).passed

    def test_consistency_catches_each_column(self, noisy_run):
        # One edited cell of any trace.csv column fails the check that owns it, whether
        # the edit is 1e-3 or one ulp.
        cfg, tr, gt = noisy_run
        assert cfg.d == 2
        owners = {
            "t": "consistency_time_index",
            "y": "consistency_plant_recursion",
            "y_star": "consistency_reference_recursion",
            "u": "consistency_control_closure",
            "eps": "consistency_tracking_error",
            "eps_bar": "consistency_weighted_error",
            "e": "consistency_prediction_error",
            "rho": "consistency_deadzone_gate",
            "norm_phi": "consistency_regressor_norm",
            "r": "consistency_exogenous_signals",
            "w": "consistency_exogenous_signals",
        }
        owners.update(
            {f"theta_hat_{i}": "consistency_estimator_recursion" for i in range(cfg.dim_theta)}
        )
        assert sorted(owners) == sorted(_csv_header(cfg.dim_theta))

        def edit(col, cell, size):
            if size == "ulp":
                return np.nextafter(cell, np.inf)
            if col == "rho":
                return 1 - cell
            return cell + 1e-3 + 1 if col == "t" else cell + 1e-3

        # Row 0 holds the start of every recursion (y(t0) comes from x0); row 150 is interior.
        for size, row in product(("1e-3", "ulp"), (0, 150)):
            for col, check_name in owners.items():
                if col.startswith("theta_hat_"):
                    name, hacked = "theta_hat", np.array(tr.theta_hat)
                    i = int(col.rsplit("_", 1)[1])
                    hacked[row, i] = edit(col, hacked[row, i], size)
                else:
                    name, hacked = col, np.array(getattr(tr, col))
                    hacked[row] = edit(col, hacked[row], size)
                bad = Trace(**{**tr.__dict__, name: hacked})
                rep = check_trace_consistency(bad)
                assert not rep.passed, (col, size, row)
                assert any(
                    c.name == check_name and not c.passed for c in rep.checks
                ), (col, size, row)
            # A consistent edit of y_star and eps still breaks the reference recursion.
            y_star, eps = np.array(tr.y_star), np.array(tr.eps)
            y_star[row] = edit("y_star", y_star[row], size)
            eps[row] = tr.y[row] - y_star[row]
            rep = check_trace_consistency(Trace(**{**tr.__dict__, "y_star": y_star, "eps": eps}))
            failed = {c.name for c in rep.checks if not c.passed}
            assert failed == {"consistency_reference_recursion"}, (size, row)

    def test_consistency_detail_counts_rows_and_names_the_first(self):
        cfg = make_config(steps=400)
        tr = run_closed_loop(cfg)
        w = np.array(tr.w)
        w[100] = np.nextafter(w[100], np.inf)
        rep = check_trace_consistency(Trace(**{**tr.__dict__, "w": w}))
        failed = [(c.name, c.margin, c.detail) for c in rep.checks if not c.passed]
        assert failed == [("consistency_exogenous_signals", -1.0, "1 of 401 rows differ, first at t = 100")]

    @pytest.mark.parametrize(
        "col, row, check",
        [
            # y, u, y_star and theta_hat feed the re-derivation of later rows: edited at the
            # last row, only that row differs in their owner's comparison.
            ("y", 400, "consistency_plant_recursion"),
            ("u", 400, "consistency_control_closure"),
            ("eps", 100, "consistency_tracking_error"),
            ("eps_bar", 100, "consistency_weighted_error"),
            ("e", 100, "consistency_prediction_error"),
            ("norm_phi", 100, "consistency_regressor_norm"),
            ("rho", 100, "consistency_deadzone_gate"),
            ("theta_hat", 400, "consistency_estimator_recursion"),
            ("t", 100, "consistency_time_index"),
            ("r", 100, "consistency_exogenous_signals"),
            ("y_star", 400, "consistency_reference_recursion"),
        ],
    )
    def test_consistency_detail_of_each_check(self, col, row, check):
        cfg = make_config(steps=400, t0=-7)
        tr = run_closed_loop(cfg)
        column = np.array(getattr(tr, col))
        if col == "rho":
            column[row] = 1.0 - column[row]
        else:
            column[row] = np.nextafter(column[row], np.inf)  # theta_hat: every coordinate
        rep = check_trace_consistency(Trace(**{**tr.__dict__, col: column}))
        owner = next(c for c in rep.checks if c.name == check)
        assert (owner.margin, owner.detail) == (-1.0, f"1 of 401 rows differ, first at t = {row - 7}")

    @pytest.mark.parametrize("below, rho, passed", [(False, 0.0, True), (False, 1.0, False), (True, 1.0, True)])
    def test_deadzone_gate_replay_is_strict_at_the_threshold(self, below, rho, passed):
        # |e(t+1)| = (2 ||S|| + delta) ||phi(t-d+1)|| exactly: the gate is a strict <, so
        # the replay expects rho(t) = 0 there, and rho(t) = 1 one ulp below it.
        cfg = make_config(steps=400, delta=0.5)
        tr = run_closed_loop(cfg)
        k = 100
        threshold = (2.0 * system.box_norm(cfg.box) + cfg.delta) * np.sqrt(tr.regressors().sq[k])
        assert threshold > 0.0
        e, rhos = np.array(tr.e), np.array(tr.rho)
        e[k + 1], rhos[k] = -np.nextafter(threshold, 0.0) if below else -threshold, rho
        rep = check_trace_consistency(Trace(**{**tr.__dict__, "e": e, "rho": rhos}))
        gate = next(c for c in rep.checks if c.name == "consistency_deadzone_gate")
        assert gate.passed is passed
        if not passed:
            assert gate.detail == f"1 of 401 rows differ, first at t = {k}"

    @pytest.mark.parametrize(
        "make, check",
        [
            pytest.param(constant_60, check_trace_consistency, id="constant"),
            pytest.param(showcase_60, check_trace_consistency, id="time_varying"),
            pytest.param(constant_60, _with_ground_truth(check_prop1), id="constant-check_prop1"),
            pytest.param(showcase_60, _with_ground_truth(check_prop1), id="time_varying-check_prop1"),
            pytest.param(constant_60, _with_ground_truth(check_identities), id="constant-check_identities"),
            pytest.param(constant_60, lambda trace: predictor_residuals(trace, trace.cfg),
                         id="constant-predictor_residuals"),
            pytest.param(showcase_60, lambda trace: fit_decay_bound(trace, 0.9),
                         id="time_varying-fit_decay_bound"),
        ],
    )
    def test_consistency_needs_the_configs_horizon(self, make, check):
        # Every audit takes t0 and T from trace.cfg through one row-count guard.
        cfg = make()
        tr = run_closed_loop(cfg)
        cols = {k: v[:-1] if isinstance(v, np.ndarray) else v for k, v in tr.__dict__.items()}
        msg = "trace has 60 rows; the configuration's horizon has 61"
        with pytest.raises(ValueError, match=msg):
            check(Trace(**cols))

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
            assert check_trace_consistency(trace).passed
            assert check_prop1(trace, gt.theta_star, gt.wbar, gt.wbar_t0).passed
            assert check_identities(trace, gt.theta_star, gt.wbar, gt.wbar_t0).passed
        assert np.max(np.abs(predictor_residuals(back, cfg))) < 1e-9

    def test_consistency_catches_flipped_gate(self, noisy_run):
        cfg, tr, gt = noisy_run
        hacked = np.array(tr.rho)
        hacked[100] = 1 - hacked[100]
        bad = Trace(**{**tr.__dict__, "rho": hacked})
        rep = check_trace_consistency(bad)
        gate = [c for c in rep.checks if c.name == "consistency_deadzone_gate"][0]
        assert not gate.passed

    def test_gate_open_on_a_zero_regressor_fails_its_two_owners(self):
        # Default x0 = 0: phi(t0-d+1) = 0, so the loop's rho(t0) is 0. rho(t0) = 1 claims an
        # update on a zero regressor; its replay divides by ||phi||^2 = 0 without a warning.
        doc = json.loads(json.dumps(README_CONFIG))
        del doc["sim"]["x0"]
        tr = run_closed_loop(config_from_dict(doc))
        assert tr.rho[0] == 0.0 and not tr.regressors().phi[0].any()
        rho = np.array(tr.rho)
        rho[0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = audit(Trace(**{**tr.__dict__, "rho": rho}))
        failed = [(c.name, c.margin) for c in rep.checks if not c.passed]
        assert failed == [("consistency_deadzone_gate", -1.0), ("consistency_estimator_recursion", -1.0)]
        assert [c.margin >= 0.0 for c in rep.checks if c.name == "estimate_move_bounded"] == [True]


CONSISTENCY_CHECKS = [
    "consistency_plant_recursion",
    "consistency_control_closure",
    "consistency_tracking_error",
    "consistency_weighted_error",
    "consistency_prediction_error",
    "consistency_regressor_norm",
    "consistency_deadzone_gate",
    "consistency_estimator_recursion",
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
            "ground_truth_in_box",
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

    def test_largest_finite_delta_audits_without_a_warning(self):
        # At delta = 1e308 the gate's threshold (2 ||S|| + delta) ||phi|| overflows to
        # +inf, in the loop's float product and in the audit's replay alike.
        trace = run_closed_loop(replace(demo_config(), delta=1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = audit(trace)
        assert rep.passed
        assert [c.margin for c in rep.checks if c.name == "consistency_deadzone_gate"] == [0.0]

    @pytest.mark.parametrize(
        "l1, floor, lam",
        [(-0.95, "0x1.e666666666666p-1", 0.975),
         (-0.9, "0x1.ccccccccccccdp-1", 0.95),
         (-math.nextafter(0.9, 0.0), "0x1.cccccccccccccp-1", 0.9)],
        ids=["above", "at", "below"],
    )
    def test_decay_rate(self, l1, floor, lam):
        # The rate is 0.9 below a floor of 0.9 and halfway to 1 from it on: a floor of exactly
        # 0.9 takes 0.95, and the float just below it takes 0.9.
        fitted = audit(run_closed_loop(make_config(L=(1.0, l1)))).fitted
        assert fitted["spectral_floor"] == float.fromhex(floor) and fitted["lambda"] == lam


class TestHorizonFromConfig:
    """The audit takes t0, T and its check list from trace.cfg; the recorded t column is
    consistency_time_index's alone, w's cells decide no check, and r's and w's no gain."""

    @pytest.mark.parametrize("doc", [README_CONFIG, D1_CONFIG], ids=["readme", "d1"])
    @pytest.mark.parametrize(
        "row, cell",
        [(0, lambda t0, T: t0 - 100), (0, lambda t0, T: t0 + 1), (0, lambda t0, T: 0.5),
         (0, lambda t0, T: 2.0**52), (-1, lambda t0, T: t0 + T + 1)],
        ids=["t0_minus_100", "t0_plus_1", "half", "2^52", "t_end_plus_1"],
    )
    def test_edited_time_cell_fails_only_its_owner(self, doc, row, cell):
        cfg = config_from_dict(doc)
        tr = run_closed_loop(cfg)
        t = np.array(tr.t)
        t[row] = cell(cfg.t0, cfg.steps)
        bad = Trace(**{**tr.__dict__, "t": t})
        want, got = audit(tr), audit(bad)
        assert [c.name for c in got.checks] == [c.name for c in want.checks]
        assert [c.name for c in got.checks if not c.passed] == ["consistency_time_index"]
        others = [(c.name, c.margin, c.detail) for c in got.checks if c.name != "consistency_time_index"]
        assert others == [(c.name, c.margin, c.detail) for c in want.checks
                          if c.name != "consistency_time_index"]
        assert got.fitted == want.fitted
        summary, clean = harness.build_summary(bad), harness.build_summary(tr)
        assert summary == clean and summary["t_range"] == [cfg.t0, cfg.t0 + cfg.steps]

    def test_edited_w_cell_keeps_every_check(self):
        # w = 0 run: parameter_error_monotone rests on wbar = 0 from the config, not on w's cells.
        tr = run_closed_loop(config_from_dict(README_W0_CONFIG))
        w = np.array(tr.w)
        w[100] = 1e-300
        names = [c.name for c in audit(tr).checks]
        assert "parameter_error_monotone" in names and len(names) == 19
        got = audit(Trace(**{**tr.__dict__, "w": w}))
        assert [c.name for c in got.checks] == names
        assert [c.name for c in got.checks if not c.passed] == ["consistency_exogenous_signals"]

    def test_edited_r_column_moves_no_gain(self):
        # The envelope is driven by the config's r and w, not by the recorded columns.
        tr = run_closed_loop(config_from_dict(README_CONFIG))
        rep = audit(Trace(**{**tr.__dict__, "r": tr.r * 10.0}))
        assert [c.name for c in rep.checks if not c.passed] == ["consistency_exogenous_signals"]
        assert rep.fitted["envelope_gain_c"] == 0.47869579963764824 == audit(tr).fitted["envelope_gain_c"]

    def test_edited_norm_phi_column_moves_no_gain(self):
        # The fit reads ||phi|| from the regressor table, not from the recorded column.
        tr = run_closed_loop(config_from_dict(README_CONFIG))
        rep = audit(Trace(**{**tr.__dict__, "norm_phi": tr.norm_phi * 10.0}))
        assert [c.name for c in rep.checks if not c.passed] == ["consistency_regressor_norm"]
        gain = audit(tr).fitted["envelope_gain_c"]
        assert rep.fitted["envelope_gain_c"].hex() == gain.hex() == (0.47869579963764824).hex()

    def test_w_at_t0_alone_keeps_the_monotone_check(self):
        # w(t0) enters no update: wbar is zero on every contraction row.
        cfg = replace(config_from_dict(README_CONFIG), w=table_signal([0.3], t_start=0))
        tr = run_closed_loop(cfg)
        assert tr.w[0] == 0.3 and not tr.w[1:].any()
        monotone = [c for c in audit(tr).checks if c.name == "parameter_error_monotone"]
        assert [c.passed for c in monotone] == [True]
        assert monotone[0].margin == pytest.approx(harness.TOL, rel=1e-6)  # no estimate moved away

    def test_zero_input_run_with_an_edited_y_survives_the_fit(self):
        # x0 = 0, r = w = 0: every column is zero, so the envelope is zero too; a nonzero
        # y cell gives phi(10) a nonzero norm, which makes the fit degenerate, and the audit
        # records the gain as None.
        cfg = replace(config_from_dict(README_CONFIG), x0=(0.0,) * 6, r=zero_signal(), w=zero_signal())
        tr = run_closed_loop(cfg)
        y = np.array(tr.y)
        y[10] = 1e-100
        bad = Trace(**{**tr.__dict__, "y": y})
        rep = audit(bad)
        assert [c.name for c in rep.checks if not c.passed] == [
            "consistency_plant_recursion", "consistency_tracking_error", "consistency_weighted_error",
            "consistency_prediction_error", "consistency_regressor_norm", "consistency_deadzone_gate"]
        assert rep.fitted["envelope_gain_c"] is None and audit(tr).fitted["envelope_gain_c"] == 0.0
        with pytest.raises(ValueError, match="^degenerate fit at t = 10: zero envelope, nonzero signal$"):
            fit_decay_bound(bad, 0.9)


def test_margin_adds_its_terms_left_to_right():
    # Python floats, where builtin sum() compensates from Python 3.12 on: there the
    # denominator was 1 + 1.0000000000000007 rather than 1 + 1.0000000000000004.
    want = harness.TOL + -1.0 / (1.0 + ((1.0 + 3e-16) + 3e-16))
    assert harness._margin(-1.0, 1.0, 3e-16, 3e-16).hex() == want.hex()


def loop_margins(tr, cfg, gt):
    """Row-loop reference for the vectorized check_prop1/check_identities margins."""
    n, m, d, t0, T = cfg.n, cfg.m, cfg.d, cfg.t0, cfg.steps
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
    rows = {}

    def row(name, slack, *terms):  # one row's margin: 1e-9 + slack / (1 + sum |terms|)
        rows.setdefault(name, []).append(1e-9 + slack / (1.0 + sum(abs(x) for x in terms)))

    budget = 0.0
    for k in range(T):
        v = phi(t0 + k - d + 1)
        norm = float(np.linalg.norm(v))
        gated = tr.rho[k] and norm > 0
        bound = abs(e[k + 1]) / norm if gated else 0.0
        move = float(np.linalg.norm(th[k + 1] - th[k]))
        row("estimate_move_bounded", bound - move, bound, move)
        if k >= d - 1:
            wb = wbar(t0 + k - d + 1)
            allowed = (-0.5 * e[k + 1] ** 2 + 2.0 * wb**2) / norm**2 if gated else 0.0
            budget += allowed
            row("parameter_error_contraction_step", allowed - (err_sq[k + 1] - err_sq[k]),
                err_sq[k], err_sq[k + 1], allowed)
    row("parameter_error_contraction_total", err_sq[d - 1] + budget - err_sq[T],
        err_sq[d - 1], budget, err_sq[T])
    for k in range(d, T + 1):
        v, wb = phi(t0 + k - d), wbar(t0 + k - d)
        prev, lagged, star = (abs(v) @ abs(x) for x in (th[k - 1], th[k - d], gt.theta_star))
        row("identity_tracking_vs_prediction", -abs(eb[k] - e[k] - v @ (th[k - 1] - th[k - d])),
            e[k], prev, lagged)
        row("identity_prediction_error", -abs(e[k] + v @ (th[k - 1] - gt.theta_star) - wb), prev, star, wb)
        row("identity_tracking_error", -abs(eb[k] + v @ (th[k - d] - gt.theta_star) - wb), lagged, star, wb)
    return {name: min(margins) for name, margins in rows.items()}


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
    # The audit re-derives every column in the loop's operation order, so every
    # consistency check finds no differing row: its margin is 0.0.
    cfg = make()
    trace = run_closed_loop(cfg)
    rep = check_trace_consistency(trace)
    exact = [(c.name, c.margin.hex()) for c in rep.checks]
    assert exact == [(name, (0.0).hex()) for name, _ in exact]
    # Called alone, each check reads the same trace.regressors() table that audit's checks read.
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


def forged_trace(y, r, w, x0_norm, d=1, n=1):
    """Columns as given, on an (n, 0, d) config with L = 1 and a horizon of the given rows
    (at least 2d + 1), whose x0 has norm x0_norm and whose r and w signals are the r and w
    columns from t = 0. Every u is 0, in the column and in x0, so for n = 1 phi(t) is
    y(t) and zeros, and ||phi(t)|| = |y(t)|."""
    rows = len(y)
    zeros = np.zeros(rows)
    x0 = [0.0] * x0_length(n, 0, d)
    x0[0] = x0_norm
    r, w = np.asarray(r, dtype=float), np.asarray(w, dtype=float)
    signals = {"r": table_signal(r.tolist(), t_start=0), "w": table_signal(w.tolist(), t_start=0)}
    return Trace(
        t=np.arange(rows),
        y=np.asarray(y, dtype=float),
        y_star=zeros,
        u=zeros,
        eps=zeros,
        eps_bar=zeros,
        e=zeros,
        rho=np.zeros(rows, dtype=int),
        norm_phi=zeros,
        theta_hat=np.zeros((rows, 1)),
        r=r,
        w=w,
        cfg=make_config(a=(-0.5,) * n, b=(2.0,), d=d, L=(1.0,), steps=rows - 1, x0=x0, **signals),
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
        y = [0.0, 0.0, 0.0, 2.0, 3.0, 1.0]  # nonzero under a zero envelope at t = 3, 4
        tr = forged_trace(y, np.zeros(6), [0.0, 0.0, 0.0, 0.0, 0.0, 1.0], x0_norm=0.0)
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
        sq = 0.0  # ||x0|| in fit_decay_bound's order: squares added left to right from +0.0
        for v in tr.cfg.x0:
            sq += v * v
        env, c = math.sqrt(sq), 0.0
        drive = np.abs(tr.r) + np.abs(tr.w)
        for k, (dk, norm_phi) in enumerate(zip(drive.tolist(), tr.norm_phi.tolist())):
            env = env + dk if k == 0 else lam * env + dk
            if env > 0.0:
                c = max(c, norm_phi / env)
        assert fit_decay_bound(tr, lam).hex() == c.hex()

    def test_envelope_starts_at_the_left_to_right_norm_of_x0(self):
        # The long_constant benchmark's x0 at seed 17. Added left to right from +0.0
        # its squares give 0.6126996449012786; a BLAS dot that fuses multiply-adds,
        # as numpy's np.linalg.norm may, gives 0.6126996449012785.
        x0 = [0.15546235888176674, -0.34109404688937395, 0.23349797599062883,
              0.4012871765147368, 0.13808349941531117, 0.016352534116494066]
        sq = 0.0
        for v in x0:
            sq += v * v
        x0_norm = math.sqrt(sq)
        assert x0_norm == 0.6126996449012786
        # On a (6, 0, 1) config x0 is y(t0) .. y(t0-5): with the y column's y(t0) = x0[0],
        # phi(t0) is x0 and a zero u(t0), whose norm the envelope starts at. The rate keeps
        # every later row's ||phi|| (x0 less its oldest entries) below the envelope.
        tr = forged_trace([x0[0], 0.0, 0.0, 0.0, 0.0], np.zeros(5), np.zeros(5), x0_norm=0.0, n=6)
        tr = replace(tr, cfg=replace(tr.cfg, x0=tuple(x0)))
        assert np.sqrt(tr.regressors().sq[0]) == x0_norm
        assert fit_decay_bound(tr, 0.9999) == 1.0  # the gain is attained at t0

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
        assert check_trace_consistency(tr2).passed

    @pytest.mark.parametrize("rows", [1, 511, 512, 513, 1025])
    def test_writer_writes_the_savetxt_bytes(self, tmp_path, rows):
        # Whole blocks, a partial last block and one row all print as np.savetxt does.
        rng = np.random.default_rng(rows)
        width = len(_csv_header(3))
        table = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
        cells = table.reshape(-1)
        # The fast path's edges: powers of ten and their neighbours, 2^53 and its, an exact
        # 18th-digit tie (1 + 2^-17 = 1.00000762939453125 prints 1.0000076293945312) and
        # the ends of the float range.
        tens = [v for k in range(-6, 19) for v in (np.nextafter(float(f"1e{k}"), 0.0), float(f"1e{k}"),
                                                   np.nextafter(float(f"1e{k}"), np.inf))]
        edges = [*tens, np.nextafter(2.0**53, 0.0), np.nextafter(2.0**53, np.inf), 1 + 2.0**-17,
                 2.2250738585072014e-308, 1.7976931348623157e308, 0.0]
        special = [-0.0, 5e-324, 2.0**53, 1e16, -(2.0**53), 0.1, *edges, *np.negative(edges)]
        cells[::5] = np.resize(special, cells[::5].size)
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
        rep = check_trace_consistency(trace_from_csv(path, cfg))
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

    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_within_box_is_exact(self, side):
        # One ulp outside the box is outside, as in ExperimentConfig and the estimator replay.
        tr = run_closed_loop(make_config(steps=60))
        assert harness.build_summary(tr)["estimates"]["within_box"] is True
        theta = tr.theta_hat.copy()
        bound = getattr(tr.cfg.box, side)[1]
        theta[30, 1] = np.nextafter(bound, -np.inf if side == "lo" else np.inf)
        summary = harness.build_summary(replace(tr, theta_hat=theta))
        assert summary["estimates"]["within_box"] is False

    @pytest.mark.parametrize("make", [demo_config, lambda: config_from_dict(P8_CONFIG),
                                      lambda: config_from_dict(STATIC_D3_CONFIG)],
                             ids=["showcase", "p8", "static_d3"])
    def test_rms_eps_sums_left_to_right(self, make):
        # Each rms_eps is its window's eps(t)^2 added left to right from +0.0 over its count,
        # the one summation order; numpy's pairwise mean gave other bits here.
        tr = run_closed_loop(make())
        tracking = harness.build_summary(tr)["tracking"]
        keys = [key for key in tracking if key.startswith("rms_eps")]
        assert len(keys) == 3
        for key in keys:
            open_, first, last = re.fullmatch(r"rms_eps([\[(])(-?\d+),(-?\d+)\]", key).groups()
            rows = tr.eps[int(first) - tr.cfg.t0 + (open_ == "(") : int(last) - tr.cfg.t0 + 1].tolist()
            acc = 0.0
            for v in rows:
                acc += v * v
            assert tracking[key].hex() == math.sqrt(acc / len(rows)).hex(), key


class TestShowcase:
    def test_known_first_steps(self):
        tr = run_closed_loop(demo_config())
        assert tr.y[0] == -1.0
        assert tr.u[0] == 0.0
        assert tr.y[1] == 2.0

    def test_artifacts_byte_identical(self, tmp_path):
        assert cli.main(["reproduce", "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["reproduce", "--out", str(tmp_path / "b")]) == 0
        for name in ("trace.csv", "summary.json", "plot.gp"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_config_document_built_once(self, tmp_path, monkeypatch):
        # One summary per reproduce, and its hash is taken from its own document.
        calls, to_doc = [], ExperimentConfig.to_config_dict
        counted = lambda cfg: calls.append(cfg) or to_doc(cfg)
        monkeypatch.setattr(ExperimentConfig, "to_config_dict", counted)
        assert cli.main(["reproduce", "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_disturbance_window_visible_in_rms(self):
        trace = run_closed_loop(demo_config())
        summary = harness.build_summary(trace, audit(trace))
        rms = summary["tracking"]
        assert rms["rms_eps(200,500]"] > rms["rms_eps[600,1000]"]
        assert summary["estimates"]["within_box"] is True
        assert summary["rows"] == 1001
