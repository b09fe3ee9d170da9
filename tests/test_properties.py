"""Property tests: every admissible constant plant passes the audit and round-trips,
the estimator's scalar sums match the audits' column sums bit for bit, configs
survive their document form, the admissibility test agrees with the root
moduli, and the predictor split is exact."""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from mraclab.estimator import _dot, deadzone_flag, prediction_error
from mraclab.harness import (
    ExperimentConfig,
    check_identities,
    check_prop1,
    check_trace_consistency,
    config_from_dict,
    demo_config,
    ground_truth,
    run_closed_loop,
    trace_from_csv,
    write_trace_csv,
)
from mraclab.harness import _weighted
from mraclab.plant_sim import CoefficientSchedule, square_wave, white_noise
from mraclab.poly import PolyZ, max_root_moduli, poly_mul, predictor_split
from mraclab.system import (
    ParamBox,
    PlantParams,
    ReferenceModel,
    first_inadmissible,
    to_predictor_params,
)

SHAPES = [(n, m, d) for n in range(3) for m in range(2) for d in range(1, 4)]
COLUMNS = ("t", "y", "y_star", "u", "eps", "eps_bar", "e", "rho", "norm_phi", "theta_hat", "r", "w")


def unit(lo: float = -1.0, hi: float = 1.0):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def constant_plants(draw) -> ExperimentConfig:
    """n <= 2, m <= 1, d <= 3; a box around theta* that pins the sign of beta0."""
    n, m, d = draw(st.sampled_from(SHAPES))
    a = tuple(draw(unit()) for _ in range(n))
    b0 = draw(st.sampled_from((-1.0, 1.0))) * draw(unit(1.0, 3.0))
    b = (b0,) + tuple(b0 * draw(unit(-0.5, 0.5)) for _ in range(m))  # minimum phase
    L = draw(st.sampled_from([(1.0,), (1.0, -0.4), (1.0, 0.0, -0.5)][: n + 1]))
    params = PlantParams(a=a, b=b, d=d)
    ref = ReferenceModel(L=PolyZ(L), H=PolyZ((0.6,)), d=d)
    theta = to_predictor_params(params, ref).theta_star()
    lo = [v - draw(unit(0.1, 1.0)) for v in theta]
    hi = [v + draw(unit(0.1, 1.0)) for v in theta]
    if b0 > 0:
        lo[n] = max(lo[n], 0.05)
    else:
        hi[n] = min(hi[n], -0.05)
    theta0 = tuple(l + draw(unit(0.0, 1.0)) * (h - l) for l, h in zip(lo, hi))
    return ExperimentConfig(
        schedule=CoefficientSchedule.constant(params),
        ref=ref,
        box=ParamBox(lo=tuple(lo), hi=tuple(hi)),
        delta=draw(st.sampled_from((math.inf, 0.1, 1.0))),
        t0=draw(st.integers(-5, 5)),
        steps=120,
        x0=tuple(draw(unit()) for _ in range((n + d - 1) + (m + 2 * d - 2))),
        theta0=theta0,
        r=square_wave(draw(st.integers(10, 60)), 1.0),
        w=white_noise(draw(unit(0.0, 0.2)), seed=draw(st.integers(0, 99))),
    )


@settings(max_examples=30, derandomize=True, deadline=None)
@given(constant_plants())
def test_admissible_constant_plants_pass_and_round_trip(cfg):
    trace, gt = run_closed_loop(cfg), ground_truth(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_csv(trace, path)
        back = trace_from_csv(path, cfg)
    for name in COLUMNS:
        got, want = getattr(back, name), getattr(trace, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    reports = (
        check_trace_consistency(trace, cfg),
        check_prop1(trace, gt.theta_star, gt.wbar, gt.wbar_t0),
        check_identities(trace, gt.theta_star, gt.wbar, gt.wbar_t0),
    )
    failed = [c.line() for rep in reports for c in rep.checks if not c.passed]
    assert not failed


@st.composite
def regressor_rows(draw):
    """Rows of (phi, theta, ybar) of mixed sign and scale (1e-8 .. 1e8), with
    exact zeros and some phi rows all zero, plus the gate's constants."""
    p, rows = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    size = (2 * p + 1) * rows
    mantissa = draw(st.lists(unit(), min_size=size, max_size=size))
    scale = draw(st.lists(st.integers(-8, 8), min_size=size, max_size=size))
    cols = (np.array(mantissa) * 10.0 ** np.array(scale)).reshape(rows, 2 * p + 1)
    cols[:, sorted(draw(st.sets(st.integers(0, 2 * p))))] = 0.0
    phi, theta, ybar = cols[:, :p], cols[:, p:-1], cols[:, -1]
    phi[sorted(draw(st.sets(st.integers(0, rows - 1))))] = 0.0
    delta = draw(st.sampled_from((math.inf, 0.01, 0.5, 3.0)))
    return phi, theta, ybar, draw(unit(0.0, 5.0)), delta


@settings(max_examples=100, derandomize=True, deadline=None)
@given(regressor_rows())
def test_loop_sums_match_audit_columns(case):
    phi, theta, ybar, s_norm, delta = case
    e = ybar - _weighted(phi, theta)
    norm = np.sqrt(_weighted(phi, phi))
    gate = norm > 0.0
    if not math.isinf(delta):
        gate &= np.abs(e) < (2.0 * s_norm + delta) * norm
    for k in range(len(phi)):
        row, est = phi[k].tolist(), theta[k].tolist()
        e_loop = prediction_error(float(ybar[k]), row, est)
        assert np.float64(e_loop).tobytes() == e[k].tobytes()
        assert np.float64(math.sqrt(_dot(row, row))).tobytes() == norm[k].tobytes()
        assert deadzone_flag(e_loop, row, s_norm, delta) == int(gate[k])


def assert_round_trips(cfg: ExperimentConfig) -> None:
    doc = cfg.to_config_dict()
    back = config_from_dict(json.loads(json.dumps(doc, allow_nan=False)))
    assert back == cfg
    assert back.config_hash() == cfg.config_hash()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(constant_plants())
def test_config_document_round_trips(cfg):
    assert_round_trips(cfg)


def test_demo_config_document_round_trips():
    for steps in (50, 1000):
        assert_round_trips(demo_config(steps))


@st.composite
def plant_rows(draw):
    """Rows of finite plant coefficients (a, b) with b0 != 0, n <= 2, m <= 4."""
    n, m, rows = draw(st.integers(0, 2)), draw(st.integers(0, 4)), draw(st.integers(1, 12))
    a = np.array([[draw(unit(-3.0, 3.0)) for _ in range(n)] for _ in range(rows)]).reshape(rows, n)
    b = np.empty((rows, m + 1))
    for k in range(rows):
        b0 = draw(st.sampled_from((-1.0, 1.0))) * draw(unit(0.1, 3.0))
        b[k] = [b0] + [b0 * draw(unit(-1.5, 1.5)) for _ in range(m)]
    return a, b


@settings(max_examples=100, derandomize=True, deadline=None)
@given(plant_rows())
def test_admissibility_agrees_with_root_moduli(rows):
    a, b = rows
    moduli = max_root_moduli(b)
    assume(np.all(np.abs(moduli - 1.0) >= 1e-6))
    unstable = np.flatnonzero(moduli >= 1.0)
    expected = None
    if len(unstable):
        expected = (int(unstable[0]), "B(z^-1) must have all roots strictly inside the unit circle")
    assert first_inadmissible(a, b) == expected


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(0, 3), st.integers(1, 4), st.data())
def test_predictor_split_is_exact(n, d, data):
    A = PolyZ((1.0,) + tuple(data.draw(unit()) for _ in range(n)))
    deg_L = data.draw(st.integers(0, n + d - 1))
    L = PolyZ((1.0,) + tuple(data.draw(unit()) for _ in range(deg_L)))
    F, alpha = predictor_split(L, A, d)
    assert len(F.coeffs) == d and len(alpha.coeffs) == max(n, 1)
    size = n + d + 1
    rhs = np.zeros(size)
    fa = poly_mul(F, A).coeffs
    rhs[: len(fa)] += fa
    rhs[d : d + len(alpha.coeffs)] += alpha.coeffs
    lhs = np.zeros(size)
    lhs[: len(L.coeffs)] = L.coeffs
    np.testing.assert_allclose(rhs, lhs, rtol=0, atol=1e-12)
