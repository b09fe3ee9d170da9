"""Tests for plant stepping, coefficient schedules, signals, and filtered noise."""

import copy
import json
import math
import pickle
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mraclab import plant_sim
from mraclab.controller import loop_start, x0_length
from mraclab.harness import check_trace_consistency, config_from_dict, ground_truth, run_closed_loop
from mraclab.poly import PolyZ, predictor_split
from mraclab.system import AdmissibilityError, PlantParams, ReferenceModel, to_predictor_params
from mraclab.plant_sim import (
    COEF_KINDS,
    REQUIRED,
    SIGNAL_KINDS,
    CoefSpec,
    CoefficientSchedule,
    coef_eval,
    constant_signal,
    plant_step,
    signal_eval,
    SignalSpec,
    sinusoid,
    square_wave,
    table_signal,
    wbar_sequence,
    white_noise,
    windowed_sinusoid,
    zero_signal,
)
from test_golden import D1_CONFIG, README_CONFIG, STATIC_D3_CONFIG


def demo_schedule() -> CoefficientSchedule:
    """Time-varying showcase plant: slow sinusoidal drifts in every coefficient."""
    return CoefficientSchedule(
        a=(
            CoefSpec(kind="sinusoid", amplitude=2.0, rate=1.0 / 100.0),
            CoefSpec(kind="sinusoid", amplitude=-2.0, rate=1.0 / 300.0, trig="sin"),
        ),
        b=(
            CoefSpec(kind="sinusoid", offset=13.0 / 4.0, amplitude=-7.0 / 4.0, rate=1.0 / 125.0),
            CoefSpec(kind="sinusoid", amplitude=-1.0, rate=1.0 / 50.0),
        ),
        d=1,
    )


class TestSignals:
    def test_square_wave_halves(self):
        r = square_wave(period=200)
        assert signal_eval(r, 0) == 1.0
        assert signal_eval(r, 50) == 1.0
        assert signal_eval(r, 99) == 1.0
        assert signal_eval(r, 100) == -1.0
        assert signal_eval(r, 150) == -1.0
        assert signal_eval(r, 200) == 1.0

    def test_square_wave_phase_and_prehistory(self):
        r = square_wave(period=4, amplitude=2.0, phase=1.0)
        assert signal_eval(r, 1) == 2.0
        assert signal_eval(r, 3) == -2.0
        # Before the phase origin the wave holds its starting value.
        assert signal_eval(r, 0) == 2.0
        assert signal_eval(r, -10) == 2.0

    def test_windowed_sinusoid_window_is_open_left(self):
        w = windowed_sinusoid(200, 500, amplitude=0.1, rate=10.0)
        assert signal_eval(w, 200) == 0.0
        assert signal_eval(w, 300) == pytest.approx(0.1 * math.cos(3000.0), abs=1e-15)
        assert signal_eval(w, 500) == pytest.approx(0.1 * math.cos(5000.0), abs=1e-15)
        assert signal_eval(w, 501) == 0.0

    def test_sinusoid_and_constant(self):
        s = sinusoid(amplitude=2.0, rate=0.5, phase=0.25)
        assert signal_eval(s, 3) == pytest.approx(2.0 * math.cos(1.75), abs=1e-15)
        assert signal_eval(constant_signal(-1.5), 123) == -1.5
        assert signal_eval(zero_signal(), 7) == 0.0

    def test_table(self):
        s = table_signal([1.0, -2.0, 3.0], t_start=10)
        assert signal_eval(s, 9) == 0.0
        assert signal_eval(s, 10) == 1.0
        assert signal_eval(s, 12) == 3.0
        assert signal_eval(s, 13) == 0.0

    def test_white_noise_is_bounded_and_pure(self):
        w = white_noise(amplitude=0.5, seed=3)
        samples = [signal_eval(w, t) for t in range(-100, 2000)]
        assert max(abs(v) for v in samples) <= 0.5
        # Purity: re-evaluation after touching other times gives the same value.
        ref = signal_eval(w, 700)
        for t in range(650, 750):
            signal_eval(w, t)
        assert signal_eval(w, 700) == ref
        assert abs(np.mean(samples)) < 0.02

    def test_white_noise_seeds_differ(self):
        a = [signal_eval(white_noise(1.0, seed=1), t) for t in range(50)]
        b = [signal_eval(white_noise(1.0, seed=2), t) for t in range(50)]
        assert a != b

    def test_white_noise_blocks_are_read_only_arrays(self):
        # The cache shares each block between calls, so none may write to it.
        assert type(signal_eval(white_noise(0.5, seed=4), 1000)) is float
        block = plant_sim._noise_block(4, 1)
        assert block.dtype == np.float64 and block.shape == (512,)
        assert not block.flags.writeable

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            square_wave(period=0)
        with pytest.raises(ValueError):
            windowed_sinusoid(10, 5, 1.0, 1.0)
        with pytest.raises(ValueError):
            table_signal([])

    def test_white_noise_is_read_without_signal_eval(self, monkeypatch):
        # The run, its audit and its ground truth read the README config's
        # white-noise w as whole columns; its square-wave r is still sampled.
        cfg = config_from_dict(README_CONFIG)
        sampled, sample = [], plant_sim.signal_eval
        monkeypatch.setattr(
            plant_sim, "signal_eval", lambda spec, t: sampled.append(spec) or sample(spec, t)
        )
        check_trace_consistency(run_closed_loop(cfg))
        ground_truth(cfg)
        assert cfg.w.kind == "white_noise" and cfg.r in sampled
        assert cfg.w not in sampled


class TestCoefSpecs:
    def test_constant(self):
        assert coef_eval(CoefSpec.const(1.25), 999) == 1.25

    def test_sinusoid_cos_and_sin(self):
        c = CoefSpec(kind="sinusoid", offset=3.25, amplitude=-1.75, rate=1.0 / 125.0)
        assert coef_eval(c, 0) == pytest.approx(1.5, abs=1e-15)
        s = CoefSpec(kind="sinusoid", amplitude=-2.0, rate=1.0 / 300.0, trig="sin")
        assert coef_eval(s, 0) == 0.0
        assert coef_eval(s, 300) == pytest.approx(-2.0 * math.sin(1.0), abs=1e-15)

    @pytest.mark.parametrize("t0", [2**63 - 1000, 2**63 + 5000, -(2**63) - 100])
    def test_sinusoid_times_round_as_python_floats_past_int64(self, t0):
        # Each t is rounded as float(t); stepping a float from float(t0) would
        # not reach the next representable time 1024 or 2048 later.
        c = CoefSpec(kind="sinusoid", offset=0.5, amplitude=2.0, rate=1.0, phase=0.25, trig="sin")
        want = [0.5 + 2.0 * math.sin(1.0 * t + 0.25) for t in range(t0, t0 + 1100)]
        assert plant_sim.coef_column(c, t0, 1100).tolist() == want
        want = [2.0 * math.cos(1.0 * t + 0.25) for t in range(t0, t0 + 1100)]
        assert plant_sim.signal_rows(sinusoid(2.0, 1.0, 0.25), t0, 1100).tolist() == want

    def test_piecewise(self):
        c = CoefSpec(kind="piecewise", times=(0, 100), values=(1.0, -1.0))
        assert coef_eval(c, -5) == 1.0
        assert coef_eval(c, 99) == 1.0
        assert coef_eval(c, 100) == -1.0

    def test_table_clamps_at_ends(self):
        c = CoefSpec(kind="table", values=(0.5, 0.6, 0.7), t_start=10)
        assert coef_eval(c, 0) == 0.5
        assert coef_eval(c, 11) == 0.6
        assert coef_eval(c, 99) == 0.7

    def test_rejects_bad_piecewise(self):
        with pytest.raises(ValueError):
            CoefSpec(kind="piecewise", times=(5, 5), values=(1.0, 2.0))


class TestSchedule:
    def test_demo_values_at_zero(self):
        a, b = demo_schedule().coeff_rows(0, 1)
        np.testing.assert_allclose(a, [[2.0, 0.0]], rtol=0, atol=1e-15)
        np.testing.assert_allclose(b, [[1.5, -1.0]], rtol=0, atol=1e-15)

    def test_constant_round_trip(self):
        params = PlantParams(a=(0.3, -0.1), b=(2.0, 1.0), d=1)
        sched = CoefficientSchedule.constant(params)
        assert sched.is_constant()
        a, b = sched.coeff_rows(123, 77)
        assert PlantParams(a=tuple(a[0]), b=tuple(b[0]), d=sched.d) == params and len(a) == 1

    def test_entries_are_coef_specs(self):
        # A bare 0.5 was kept, and ExperimentConfig then ended in an AttributeError.
        with pytest.raises(TypeError, match=r"^a\[0\]: expected a CoefSpec, got 0\.5$"):
            CoefficientSchedule(a=(0.5, CoefSpec.const(0.1)), b=(CoefSpec.const(1.0),), d=1)
        with pytest.raises(TypeError, match=r"^b\[1\]: expected a CoefSpec, got \{"):
            CoefficientSchedule(a=(), b=(CoefSpec.const(1.0), {"kind": "constant"}), d=1)

    def test_demo_horizon_is_admissible(self):
        demo_schedule().validate_horizon(0, 1000)

    def test_constant_plant_horizon_is_not_built(self):
        # 10^15 emission times would need 8 PB; a constant plant checks t0 only.
        sched = CoefficientSchedule.constant(PlantParams(a=(-0.5,), b=(1.0, 0.3), d=1))
        sched.validate_horizon(0, 10**15)

    def test_horizon_past_the_address_space_is_a_memory_error(self):
        # 64 columns of 2^54 rows are 2^63 bytes, which numpy refuses with a ValueError.
        a = (CoefSpec.sinusoid(0.001, 0.01),) * 63
        sched = CoefficientSchedule(a=a, b=(CoefSpec.const(1.0),), d=1)
        with pytest.raises(MemoryError):
            sched.validate_horizon(-(2**53), 2**54)

    def test_flags_minimum_phase_loss(self):
        sched = CoefficientSchedule(
            a=(),
            b=(CoefSpec.const(1.0), CoefSpec(kind="sinusoid", amplitude=2.0, rate=0.05)),
            d=1,
        )
        with pytest.raises(AdmissibilityError, match="t = "):
            sched.validate_horizon(0, 200)

    def test_flags_b0_sign_flip(self):
        sched = CoefficientSchedule(
            a=(), b=(CoefSpec(kind="piecewise", times=(0, 50), values=(1.0, -1.0)),), d=1
        )
        with pytest.raises(AdmissibilityError, match="sign"):
            sched.validate_horizon(0, 100)

    @pytest.mark.parametrize(
        "a, b, message",
        [
            ((), (CoefSpec(kind="piecewise", times=(0, 7), values=(1.0, 0.0)),),
             "schedule inadmissible at t = 7: b0 must be nonzero (otherwise the true delay "
             "exceeds d)"),
            # Every field is finite; offset + amplitude * cos(2 pi) overflows at t = 3.
            ((CoefSpec(kind="sinusoid", offset=1e308, amplitude=1e308, rate=math.pi / 3,
                       phase=math.pi),), (CoefSpec.const(1.0),),
             "schedule inadmissible at t = 3: plant coefficients must be finite"),
            ((), (CoefSpec.const(1.0), CoefSpec(kind="piecewise", times=(0, 12), values=(0.5, 1.5))),
             "schedule inadmissible at t = 12: B(z^-1) must have all roots strictly inside the "
             "unit circle"),
            ((), (CoefSpec(kind="piecewise", times=(0, 50), values=(1.0, -1.0)),),
             "b0 changes sign on the horizon (t = 50)"),
        ],
        ids=["zero_b0", "non_finite", "non_minimum_phase", "sign_flip"],
    )
    def test_first_bad_time_message(self, a, b, message):
        sched = CoefficientSchedule(a=a, b=b, d=1)
        with pytest.raises(AdmissibilityError) as info:
            sched.validate_horizon(0, 100)
        assert str(info.value) == message


# Each kind's REQUIRED fields, with values the kind accepts.
SIGNAL_REQUIRED = {
    "zero": {},
    "constant": {"level": 0.5},
    "square_wave": {"period": 60},
    "sinusoid": {"amplitude": 1.5, "rate": 0.1},
    "windowed_sinusoid": {"t_start": 5, "t_end": 20, "amplitude": 0.1, "rate": 10.0},
    "table": {"values": [1.0, -2.0]},
    "white_noise": {"amplitude": 0.3},
}
COEF_REQUIRED = {
    "constant": {"value": 0.5},
    "sinusoid": {"amplitude": 2.0, "rate": 0.01},
    "piecewise": {"times": [0, 50], "values": [1.0, -1.0]},
    "table": {"values": [0.5, 0.6]},
}
# The helper constructor of each kind that has one; its parameters are named as the fields.
HELPERS = {
    (SignalSpec, "zero"): zero_signal,
    (SignalSpec, "constant"): constant_signal,
    (SignalSpec, "square_wave"): square_wave,
    (SignalSpec, "sinusoid"): sinusoid,
    (SignalSpec, "windowed_sinusoid"): windowed_sinusoid,
    (SignalSpec, "table"): table_signal,
    (SignalSpec, "white_noise"): white_noise,
    (CoefSpec, "constant"): CoefSpec.const,
    (CoefSpec, "sinusoid"): CoefSpec.sinusoid,
}
KIND_CASES = [(SignalSpec, kind, req) for kind, req in SIGNAL_REQUIRED.items()] + [
    (CoefSpec, kind, req) for kind, req in COEF_REQUIRED.items()
]


@pytest.mark.parametrize(
    "cls, kind, required", KIND_CASES, ids=[f"{cls.NOUN}-{kind}" for cls, kind, _ in KIND_CASES]
)
class TestOneConstructionPath:
    """A spec built in Python takes its kind's defaults and needs its required fields, as its
    document does: SignalSpec(kind="square_wave", period=60) had amplitude 0.0, and
    SignalSpec(kind="sinusoid", amplitude=1.0) built with rate 0.0."""

    def test_every_kind_and_required_field_is_covered(self, cls, kind, required):
        assert set(SIGNAL_REQUIRED) == set(SIGNAL_KINDS) and set(COEF_REQUIRED) == set(COEF_KINDS)
        assert set(required) == {name for name, _, default in cls.KINDS[kind] if default is REQUIRED}

    def test_python_and_document_build_the_same_spec(self, cls, kind, required):
        spec = cls(kind=kind, **required)
        assert spec == cls.from_doc({"kind": kind, **required})
        if (cls, kind) in HELPERS:
            assert HELPERS[cls, kind](**required) == spec
        for name, _, default in cls.KINDS[kind]:
            if default is not REQUIRED:
                value = getattr(spec, name)
                assert value == default and type(value) is type(default), name

    def test_a_missing_field_is_the_same_error_on_both_paths(self, cls, kind, required):
        for name in required:
            rest = {key: value for key, value in required.items() if key != name}
            message = f"^missing field '{name}' for kind '{kind}'$"
            with pytest.raises(ValueError, match=message):
                cls.from_doc({"kind": kind, **rest})
            with pytest.raises(ValueError, match=message):
                cls(kind=kind, **rest)

    def test_copies_keep_the_spec(self, cls, kind, required):
        spec = cls(kind=kind, **required)
        assert copy.deepcopy(spec) == spec
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert replace(copy.deepcopy(spec)) == spec
        assert replace(copy.deepcopy(spec), **required) == spec


def readme_kind_table(header: str) -> dict:
    """kind -> ((field, default or REQUIRED), ...) from the README table headed by header.

    A field's parenthesis is its default when it holds a JSON value, such as (1.0) or
    (`"cos"`); otherwise it notes a constraint, such as (≥ 1), and the field is required.
    """
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table_text = text.split(f"| {header} | fields (default) |", 1)[1].split("\n\n", 1)[0]
    rows = table_text.splitlines()[2:]  # below the header's separator row
    table = {}
    for row in rows:
        kind, fields = (cell.strip() for cell in row.split("|")[1:3])
        entries = []
        for name, note in re.findall(r"`(\w+)`(?: \(([^)]*)\))?", fields):
            try:
                default = json.loads(note.strip("`"))
            except ValueError:
                default = REQUIRED
            entries.append((name, default, type(default)))
        table[kind.strip("`")] = tuple(entries)
    return table


@pytest.mark.parametrize(
    "header, kinds", [("signal kind", SIGNAL_KINDS), ("coefficient kind", COEF_KINDS)],
    ids=["signal", "coefficient"],
)
def test_readme_kind_tables_are_the_kind_tables(header, kinds):
    # The kind tables are the one home of a field's default; README's tables restate them.
    documented = readme_kind_table(header)
    assert list(documented) == list(kinds)
    for kind, fields in kinds.items():
        assert documented[kind] == tuple((name, d, type(d)) for name, _, d in fields), kind


def at_rest(n, m, d):
    """The loop's starting y/u lists for a plant at rest: y ends with y(t0), u with u(t0-1)."""
    start = loop_start(np.zeros(x0_length(n, m, d)), n, m, d)
    return start.y.tolist(), start.u.tolist()


class TestPlantStep:
    def test_single_step(self):
        assert plant_step((0.5,), (2.0,), 1, [1.0], [0.3], w_next=0.0) == pytest.approx(0.1, abs=1e-15)

    def test_pure_noise_from_rest(self):
        y, u = at_rest(1, 1, 1)
        assert plant_step((0.4,), (1.0, 0.2), 1, y, u + [0.0], w_next=1.0) == 1.0

    def test_two_step_delay_alignment(self):
        # y(t+1) = u(t-1) with d = 2: the first input surfaces two steps later.
        y, u = at_rest(0, 0, 2)
        u.append(5.0)
        y.append(plant_step((), (1.0,), 2, y, u, w_next=0.0))
        u.append(7.0)
        y.append(plant_step((), (1.0,), 2, y, u, w_next=0.0))
        assert y[-2:] == [0.0, 5.0]

    def test_matches_direct_recursion(self):
        rng = np.random.default_rng(41)
        for d in (1, 2):
            plant = PlantParams(a=(0.6, -0.3), b=(1.5, 0.4), d=d)
            T = 60
            u = rng.uniform(-1, 1, T)
            w = rng.uniform(-0.2, 0.2, T + 1)
            # Oracle: plain nested recursion on zero-extended arrays.
            y_ref = [0.0] * (T + 1)
            for t in range(T):
                acc = w[t + 1]
                for i, ai in enumerate(plant.a, start=1):
                    if t + 1 - i >= 0:
                        acc -= ai * y_ref[t + 1 - i]
                for i, bi in enumerate(plant.b):
                    if t + 1 - d - i >= 0:
                        acc += bi * u[t + 1 - d - i]
                y_ref[t + 1] = acc
            y_list, u_list = at_rest(2, 1, d)
            for t in range(T):
                u_list.append(u[t])
                y_list.append(plant_step(plant.a, plant.b, d, y_list, u_list, w[t + 1]))
            np.testing.assert_allclose(y_list[-(T + 1) :], y_ref, rtol=0, atol=1e-12)


class TestWbar:
    def test_unit_delay_shifts_by_one(self):
        w = table_signal([1.0], t_start=5)  # impulse at t = 5
        out = wbar_sequence(PolyZ((1.0,)), w, t0=0, T=10)
        expected = np.zeros(11)
        expected[4] = 1.0
        np.testing.assert_allclose(out, expected, rtol=0, atol=0)

    def test_zero_disturbance(self):
        out = wbar_sequence(PolyZ((1.0, 0.5)), zero_signal(), t0=-3, T=6)
        np.testing.assert_allclose(out, np.zeros(7), rtol=0, atol=0)

    def test_two_step_filter(self):
        w = table_signal([2.0, -1.0, 4.0], t_start=0)
        out = wbar_sequence((1.0, 0.5), w, t0=-2, T=6)
        # wbar(t) = w(t+2) + 0.5 w(t+1)
        expected = [2.0, -1.0 + 1.0, 4.0 - 0.5, 2.0, 0.0, 0.0, 0.0]
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)


def wbar_by_rows(F, w, t0, T):
    """wbar_sequence as a loop over rows, d samples of w per row (the reference)."""
    f = tuple(float(c) for c in getattr(F, "coeffs", F))
    d = len(f)
    out = np.empty(T + 1)
    for k in range(T + 1):
        t = t0 + k
        out[k] = sum(f[i] * signal_eval(w, t + d - i) for i in range(d))
    return out


class TestWbarMatchesRowLoop:
    @pytest.mark.parametrize(
        "doc", [README_CONFIG, D1_CONFIG, STATIC_D3_CONFIG], ids=["readme", "d1", "static_d3"]
    )
    def test_golden_configs(self, doc):
        cfg = config_from_dict(doc)
        a, _ = cfg.schedule.coeff_rows(cfg.t0, 1)
        F, _ = predictor_split(cfg.ref.L, PolyZ((1.0, *a[0])), cfg.d)
        args = (F, cfg.w, cfg.t0 - cfg.d + 1, cfg.steps + cfg.d)
        assert np.array_equal(wbar_sequence(*args), wbar_by_rows(*args))

    def test_random_filters(self):
        rng = np.random.default_rng(83)
        for k in range(60):
            d = int(rng.integers(1, 4))
            f = (1.0,) + tuple(rng.uniform(-2.0, 2.0, d - 1) * 10.0 ** rng.integers(-3, 4, d - 1))
            w = [white_noise(float(rng.uniform(0.01, 5.0)), seed=k), sinusoid(1e3, 0.37, 0.2),
                 table_signal(rng.uniform(-1.0, 1.0, 9).tolist(), t_start=-4)][k % 3]
            t0, T = int(rng.integers(-700, 700)), int(rng.integers(0, 600))
            assert np.array_equal(wbar_sequence(f, w, t0, T), wbar_by_rows(f, w, t0, T))


class TestPredictorForm:
    """Open-loop check that the split parameters satisfy the d-step predictor."""

    @pytest.mark.parametrize(
        "a, b, d, L",
        [
            ((0.7, -0.2), (2.0, 0.5), 1, (1.0, 0.0, -0.5)),
            ((0.4,), (1.0, 0.3), 2, (1.0, -0.4)),
            ((-0.9, 0.3), (2.5,), 3, (1.0, 0.2)),
        ],
    )
    def test_weighted_output_matches_regressor_form(self, a, b, d, L):
        plant = PlantParams(a=a, b=b, d=d)
        ref = ReferenceModel(L=PolyZ(L), H=PolyZ((1.0,)), d=d)
        theta = to_predictor_params(plant, ref).theta_star()
        n, m = plant.n, plant.m
        T = 120
        u_sig = white_noise(1.0, seed=11)
        w_sig = table_signal(list(np.random.default_rng(13).uniform(-0.3, 0.3, T)), t_start=1)
        y_list, u_list = at_rest(n, m, d)
        u = [signal_eval(u_sig, t) for t in range(T + 1)]
        for t in range(T):
            u_list.append(u[t])
            y_list.append(plant_step(plant.a, plant.b, d, y_list, u_list, signal_eval(w_sig, t + 1)))
        y = y_list[-(T + 1) :]
        wbar = wbar_sequence(predictor_F(ref, plant), w_sig, t0=0, T=T)
        l_coeffs = ref.L.coeffs
        worst = 0.0
        for t in range(max(n, m + d) + len(l_coeffs), T - d):
            ybar_future = sum(l_coeffs[j] * y[t + d - j] for j in range(len(l_coeffs)))
            phi = [y[t - i] for i in range(n)] + [u[t - i] for i in range(m + d)]
            worst = max(worst, abs(ybar_future - float(np.dot(phi, theta)) - wbar[t]))
        assert worst <= 1e-9


def predictor_F(ref, plant):
    F, _ = predictor_split(ref.L, PolyZ((1.0, *plant.a)), plant.d)
    return F
