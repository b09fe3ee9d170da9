"""The benchmark's own checks: the reference computations agree with mraclab at
small sizes, and every correctness check fails on a tampered input.

    python -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import json
import math

import numpy as np
import pytest

from mraclab import harness
from mraclab.plant_sim import CoefficientSchedule, square_wave, white_noise
from mraclab.poly import PolyZ, max_root_modulus, predictor_split
from mraclab.system import ParamBox, PlantParams, ReferenceModel, to_predictor_params

import reference as ref
from calibrate import Meter
import tracer as tracer_mod
import workloads as wl


def random_plant(rng, n, m, d):
    a = rng.uniform(-1.2, 1.2, n)
    b0 = rng.uniform(1.0, 3.0)
    b = np.concatenate(([b0], rng.uniform(-0.4, 0.4, m) * b0))
    L = (1.0,) + tuple(rng.uniform(-0.5, 0.5, int(rng.integers(0, n + 1))) * 0.5)
    return a, b, L


SHAPES = [(0, 0, 1), (1, 0, 1), (1, 0, 2), (2, 1, 1), (2, 1, 2), (3, 2, 3)]


@pytest.mark.parametrize("n,m,d", SHAPES)
def test_predictor_params_match_mraclab(n, m, d):
    rng = np.random.default_rng(n * 100 + m * 10 + d)
    for _ in range(20):
        a, b, L = random_plant(rng, n, m, d)
        theta, F = ref.predictor_params(a, b, L, d)
        model = ReferenceModel(L=PolyZ(L), H=PolyZ((0.6,)), d=d)
        want = to_predictor_params(PlantParams(a=tuple(a), b=tuple(b), d=d), model).theta_star()
        F_want, _ = predictor_split(PolyZ(L), PolyZ((1.0, *a)), d)
        assert np.max(np.abs(theta - want), initial=0.0) <= 1e-12
        assert np.max(np.abs(F - F_want.coeffs)) <= 1e-12


def test_root_moduli_match_mraclab():
    rng = np.random.default_rng(7)
    coeffs = np.column_stack((rng.uniform(1.0, 3.0, 50), rng.uniform(-0.9, 0.9, (50, 3))))
    got = ref.max_root_moduli(coeffs)
    want = [max_root_modulus(PolyZ(tuple(c))) for c in coeffs]
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.array_equal(ref.max_root_moduli([[2.0]]), [0.0])


def test_spectral_floor_matches_mraclab():
    cfg = harness.demo_config(400)
    doc = cfg.to_config_dict()
    assert abs(ref.spectral_floor(doc) - harness.config_spectral_floor(cfg)) <= 1e-12
    # With L's own roots shrunk, the floor is set by B(t) somewhere on the horizon.
    doc["reference"]["L"] = [1.0, 0.0, -0.01]
    cfg = harness.config_from_dict(doc)
    floor = ref.spectral_floor(doc)
    assert floor > 0.1
    assert abs(floor - harness.config_spectral_floor(cfg)) <= 1e-12


def small_config(rng, n=2, m=1, d=2, steps=300, amp=0.1):
    a, b, L = random_plant(rng, n, m, d)
    theta, _ = ref.predictor_params(a, b, L, d)
    lo, hi = theta - 0.8, theta + 0.8
    lo[n] = max(lo[n], 0.05)
    cfg = harness.ExperimentConfig(
        schedule=CoefficientSchedule.constant(PlantParams(a=tuple(a), b=tuple(b), d=d)),
        ref=ReferenceModel(L=PolyZ(L), H=PolyZ((0.6,)), d=d),
        box=ParamBox(lo=tuple(lo), hi=tuple(hi)),
        delta=math.inf,
        t0=0,
        steps=steps,
        x0=tuple(rng.uniform(-1.0, 1.0, (n + d - 1) + (m + 2 * d - 2))),
        theta0=tuple((lo + hi) / 2),
        r=square_wave(40, 1.0),
        w=white_noise(amp, seed=5),
    )
    return cfg, a, b, L


def residuals(cfg, a, b, L, trace, theta=None):
    n, m, d = cfg.n, cfg.m, cfg.d
    hist = ref.History(trace.y, trace.u, cfg.x0, n, m, d)
    theta_ref, F = ref.predictor_params(a, b, L, d)
    theta = theta_ref if theta is None else theta
    w_of = wl.signal_fn(cfg.w)
    T = trace.rows - 1
    return (
        ref.predictor_residual(hist, theta, F, w_of, L, n, m, d, T),
        ref.plant_residual(hist, a, b, w_of, d, T),
    )


@pytest.mark.parametrize("n,m,d", SHAPES[1:])
def test_residuals_match_mraclab(n, m, d):
    rng = np.random.default_rng(3 + d)
    cfg, a, b, L = small_config(rng, n, m, d)
    trace = harness.run_closed_loop(cfg)
    pred, plant = residuals(cfg, a, b, L, trace)
    assert np.max(np.abs(pred - harness.predictor_residuals(trace, cfg))) <= 1e-12
    assert np.max(np.abs(pred)) <= wl.RESIDUAL_TOL
    assert np.max(np.abs(plant)) <= wl.RESIDUAL_TOL
    gt = harness.ground_truth(cfg)
    times = np.arange(gt.wbar_t0, gt.wbar_t0 + len(gt.wbar))
    _, F = ref.predictor_params(a, b, L, d)
    assert np.max(np.abs(ref.filtered_noise(F, wl.signal_fn(cfg.w), times) - gt.wbar)) <= 1e-15


def test_tampered_cell_and_perturbed_theta_fail_residuals():
    rng = np.random.default_rng(11)
    cfg, a, b, L = small_config(rng)
    trace = harness.run_closed_loop(cfg)
    trace.y[150] += 1e-6
    pred, plant = residuals(cfg, a, b, L, trace)
    assert np.max(np.abs(pred)) > wl.RESIDUAL_TOL
    assert np.max(np.abs(plant)) > wl.RESIDUAL_TOL

    trace = harness.run_closed_loop(cfg)
    theta, _ = ref.predictor_params(a, b, L, cfg.d)
    theta[0] += 1e-6
    pred, plant = residuals(cfg, a, b, L, trace, theta=theta)
    assert np.max(np.abs(pred)) > wl.RESIDUAL_TOL
    assert np.max(np.abs(plant)) <= wl.RESIDUAL_TOL


class SmallLong(wl.LongConstant):
    steps = 300


class SmallDrifting(wl.DriftingShowcase):
    steps = 1_000


class SmallEnsemble(wl.EnsembleSweep):
    steps = 200


def tamper_csv(path, row, col, delta):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    i = header.index(col)
    cells[i] = repr(float(cells[i]) + delta)
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("col", ["y", "u", "theta_hat_0"])
def test_long_constant_checks_catch_tampering(tmp_path, col):
    work = SmallLong(1, tmp_path)
    rnd = work.run_round(contextlib.nullcontext, Meter())
    assert (rnd.attempted, rnd.failed) == (2, 0)
    tamper_csv(work.out / "trace.csv", 120, col, 1e-6 if col != "theta_hat_0" else 5.0)
    assert work.check_outputs()
    assert work.check_determinism()


def test_drifting_checks_and_known_fault(tmp_path):
    work = SmallDrifting(2, tmp_path)
    rnd = work.run_round(contextlib.nullcontext, Meter())
    # run --verify and verify --trace pass; the scaled-units verify fails
    assert (rnd.attempted, rnd.failed, rnd.unexpected) == (3, 1, [])
    summary_path = work.out / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["checks"]["fitted"]["spectral_floor"] += 1e-6
    summary_path.write_text(json.dumps(summary))
    assert any("spectral floor" in f for f in work.check_outputs())
    tamper_csv(work.out / "trace.csv", 700, "eps", 50.0)
    assert any("burst rms" in f for f in work.check_outputs())


def test_ensemble_checks_catch_perturbed_theta(tmp_path):
    work = SmallEnsemble(3, tmp_path)
    rnd = work.run_round(contextlib.nullcontext, Meter())
    assert (rnd.attempted, rnd.failed) == (work.members, 0)
    quiet = [mb for mb in work.ensemble if mb.cfg.w.kind == "zero"]
    assert quiet
    for mb in quiet:
        trace = harness.run_closed_loop(mb.cfg)
        assert wl.EnsembleSweep.check_member(mb, trace) == []
        mb.theta = mb.theta + 0.05
        failures = wl.EnsembleSweep.check_member(mb, trace)
        assert any("predictor residual" in f for f in failures)


def test_tracer_counts_spans_and_restores_names():
    rng = np.random.default_rng(5)
    cfg, *_ = small_config(rng, steps=100)
    originals = {mod: dict(vars(mod)) for mod in tracer_mod.MODULES}
    tr = tracer_mod.Tracer()
    with tr:
        assert harness.run_closed_loop is not originals[harness]["run_closed_loop"]
        trace = harness.run_closed_loop(cfg)
    for mod, attrs in originals.items():
        for name, val in attrs.items():
            assert vars(mod)[name] is val, (mod.__name__, name)
    s = tr.summary()
    assert s["harness.run_closed_loop"]["calls"] == 1
    assert s["harness.run_closed_loop"]["rows"] == 100
    assert s["controller.control_input"]["calls"] == trace.rows
    assert s["estimator.estimator_update"]["calls"] == 100
    assert s["plant_sim.signal_eval"]["calls"] > 0
    assert tr.gates_opened == int(np.sum(trace.rho))
    for entry in s.values():
        if "self_s" in entry:
            assert 0.0 <= entry["self_s"] <= entry["total_s"] + 1e-9
    top = s["harness.run_closed_loop"]
    children = sum(
        s[name]["total_s"]
        for name in ("controller.reference_outputs", "controller.control_input", "controller.ybar",
                     "plant_sim.plant_step", "estimator.estimator_update", "plant_sim.validate_horizon")
    )
    assert abs(top["total_s"] - top["self_s"] - children) <= 1e-6
