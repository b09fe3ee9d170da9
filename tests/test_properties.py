"""Property tests: every admissible constant plant passes the audit and round-trips,
passes it too with u in any unit, keeps its bits but u's and beta's signs when u
changes sign, and scales exactly with a power-of-two scale of r, w and x0; a
one-ulp edit of any trace cell fails the check README names for its column, the
estimator's scalar sums and update match the audits' columns bit for bit, the
loop's columns are its step kernels composed step by step, configs
survive their document form, the admissibility test agrees with the root
moduli, the predictor split is exact, signals and coefficients are their
definitions, the loop's step kernels, the audits' row sum _weighted, box_norm
and the convolution compute the products and sums of their plain index formulas
bit for bit, the root moduli are their companion matrices' eigenvalues, and the
trace writer prints every finite cell as CSV_FMT % cell does."""

from __future__ import annotations

import bisect
import functools
import json
import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mraclab.controller import control_input, loop_start, reference_outputs, ybar
from mraclab.estimator import EstimatorState, estimator_update
from mraclab.harness import (
    CSV_FMT,
    TRACE_COLUMNS,
    ExperimentConfig,
    Trace,
    audit,
    config_from_dict,
    demo_config,
    run_closed_loop,
    trace_from_csv,
    write_trace_csv,
)
from mraclab.harness import _weighted
from mraclab.plant_sim import (
    COEF_KINDS,
    SIGNAL_KINDS,
    CoefficientSchedule,
    SignalSpec,
    CoefSpec,
    coef_column,
    coef_eval,
    constant_signal,
    plant_step,
    signal_eval,
    signal_rows,
    sinusoid,
    square_wave,
    table_signal,
    white_noise,
    windowed_sinusoid,
    zero_signal,
)
from mraclab.poly import PolyZ, convolve, max_root_moduli, predictor_split
from mraclab.system import (
    ParamBox,
    PlantParams,
    ReferenceModel,
    box_norm,
    first_inadmissible,
    to_predictor_params,
)
from test_golden import (D1_CONFIG, D1_GATED_CONFIG, M0_D2_CONFIG, P8_CONFIG, README_CONFIG,
                         README_W0_CONFIG, STATIC_D3_CONFIG)

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
    trace = run_closed_loop(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_csv(trace, path)
        back = trace_from_csv(path, cfg)
    for name in COLUMNS:
        got, want = getattr(back, name), getattr(trace, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    rep = audit(trace)  # consistency, prop1 against ground truth, identities
    assert [c.line() for c in rep.checks if not c.passed] == []
    assert {"parameter_error_contraction_total", "identity_prediction_error"} <= {c.name for c in rep.checks}
    # The projection keeps every recorded estimate in the box, so beta0_hat keeps the sign of lo[n].
    theta, lo, hi = trace.theta_hat, np.asarray(cfg.box.lo), np.asarray(cfg.box.hi)
    assert np.all((lo <= theta) & (theta <= hi)) and np.all(np.sign(theta[:, cfg.n]) == np.sign(lo[cfg.n]))


FIXED_BITS = (1009 << 52, 1080 << 52)  # exponent fields from 2^-14 to 2^57, around 10^-4 .. 10^17


def finite_floats():
    """A finite float64 from its bit pattern: any pattern, or one whose exponent lies in
    the range where %.17g prints fixed notation, with either sign."""
    fixed = st.integers(*FIXED_BITS) | st.integers(*((1 << 63) + b for b in FIXED_BITS))
    bits = st.integers(0, 2**64 - 1) | fixed
    return bits.map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]).filter(math.isfinite)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(1, 4).flatmap(lambda rows: st.lists(finite_floats(), min_size=14 * rows, max_size=14 * rows)))
def test_writer_prints_every_cell_as_csv_fmt(cells):
    table = np.array(cells).reshape(-1, 14)  # theta_hat has 3 coordinates
    stops = np.cumsum([3 if name == "theta_hat" else 1 for name in COLUMNS[:-1]])
    cols = {n: c if n == "theta_hat" else c[:, 0] for n, c in zip(COLUMNS, np.split(table, stops, axis=1))}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_csv(Trace(**cols, cfg=demo_config(10)), path)
        written = path.read_bytes()
    rows = "".join(",".join([CSV_FMT % v for v in row]) + "\n" for row in table.tolist())
    assert written.split(b"\n", 1)[1] == rows.encode()


def transformed(cfg: ExperimentConfig, gain: float = 1.0, scale: float = 1.0) -> ExperimentConfig:
    """cfg with u in units gain times smaller and r, w and x0 times scale.

    gain multiplies b and the beta coordinates of the box and of theta0, and
    divides x0's u entries; a negative gain swaps the box's beta bounds.
    """
    doc = cfg.to_config_dict()
    n, ny = cfg.n, cfg.n + cfg.d - 1  # theta0 and the box: n alphas, then betas; x0: ny outputs

    def beta(v):
        return v[:n] + [gain * x for x in v[n:]]

    doc["plant"]["b"] = [gain * v for v in doc["plant"]["b"]]
    lo, hi = beta(doc["estimator"]["box"]["lo"]), beta(doc["estimator"]["box"]["hi"])
    doc["estimator"]["box"] = {"lo": list(map(min, lo, hi)), "hi": list(map(max, lo, hi))}
    x0 = doc["sim"]["x0"]
    doc["sim"].update(theta0=beta(doc["sim"]["theta0"]),
                      x0=[scale * v for v in x0[:ny]] + [scale * v / gain for v in x0[ny:]])
    for key in ("r", "w"):
        doc["signals"][key]["amplitude"] *= scale
    return config_from_dict(doc)


def margins(rep, drop: str | None = None) -> list[tuple[str, str]]:
    """Each check's name and margin bits, leaving out the checks whose names start with drop."""
    return [(c.name, c.margin.hex()) for c in rep.checks if drop is None or not c.name.startswith(drop)]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(constant_plants(), unit(-8.0, 8.0))
def test_every_check_passes_in_any_unit_of_u(cfg, log_gain):
    # A check against an absolute tolerance failed the contraction step by one ulp
    # of ||theta_hat - theta*||^2 once u was measured in units 1e4 times smaller.
    rep = audit(run_closed_loop(transformed(cfg, gain=10.0**log_gain)))
    assert [c.line() for c in rep.checks if not c.passed] == []


@settings(max_examples=30, derandomize=True, deadline=None)
@given(constant_plants())
def test_negating_u_keeps_every_bit_but_the_signs_of_u_and_beta(cfg):
    trace, flipped = run_closed_loop(cfg), run_closed_loop(transformed(cfg, gain=-1.0))
    for name in ("t", "y", "y_star", "eps", "eps_bar", "e", "rho", "norm_phi", "r", "w"):
        assert getattr(flipped, name).tobytes() == getattr(trace, name).tobytes(), name
    n = cfg.n
    assert flipped.theta_hat[:, :n].tobytes() == trace.theta_hat[:, :n].tobytes()
    assert np.array_equal(flipped.theta_hat[:, n:], -trace.theta_hat[:, n:])  # == : 0.0 is -0.0
    assert np.array_equal(flipped.u, -trace.u)
    rep, back = audit(trace), audit(flipped)
    assert margins(back) == margins(rep) and back.fitted == rep.fitted


@settings(max_examples=30, derandomize=True, deadline=None)
@given(constant_plants(), st.integers(-24, 24))
def test_a_power_of_two_scale_of_r_w_and_x0_scales_every_signal_exactly(cfg, power):
    scale = 2.0**power
    trace, scaled = run_closed_loop(cfg), run_closed_loop(transformed(cfg, scale=scale))
    for name in ("y", "y_star", "u", "eps", "eps_bar", "e", "norm_phi", "r", "w"):
        assert getattr(scaled, name).tobytes() == (scale * getattr(trace, name)).tobytes(), name
    for name in ("t", "rho", "theta_hat"):
        assert getattr(scaled, name).tobytes() == getattr(trace, name).tobytes(), name
    # The identities' 1 + sum |terms| does not scale; every other margin is a ratio that does not move.
    rep, back = audit(trace), audit(scaled)
    assert margins(back, drop="identity_") == margins(rep, drop="identity_") and back.fitted == rep.fitted


@functools.lru_cache(maxsize=None)
def tamper_trace(name: str):
    """A 200-step run of the README config or of the showcase, built once."""
    if name == "showcase":
        return run_closed_loop(demo_config(200))
    doc = json.loads(json.dumps(README_CONFIG))
    doc["sim"]["steps"] = 200
    return run_closed_loop(config_from_dict(doc))


@functools.lru_cache(maxsize=None)
def readme_owners() -> dict:
    """Trace column -> the check README's column table names first for it."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| (`.+?`) \| `(consistency_\w+)`", text, re.M)
    cells = ((col, check) for cols, check in rows for col in re.findall(r"`(\w+)`", cols))
    return {col.removesuffix("_i"): check for col, check in cells}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(("readme", "showcase")), st.sampled_from(COLUMNS),
       st.sampled_from((math.inf, -math.inf)), st.data())
def test_one_ulp_edit_of_any_cell_fails_its_owner(name, col, toward, data):
    owners = readme_owners()
    assert sorted(owners) == sorted(COLUMNS)
    trace = tamper_trace(name)
    hacked = np.array(getattr(trace, col))
    cell = data.draw(st.tuples(*(st.integers(0, k - 1) for k in hacked.shape)), label="cell")
    hacked[cell] = np.nextafter(hacked[cell], toward)
    rep = audit(Trace(**{**trace.__dict__, col: hacked}))
    assert owners[col] in {c.name for c in rep.checks if not c.passed}


@st.composite
def regressor_rows(draw):
    """Rows of (phi, theta, ybar) of mixed sign and scale (1e-8 .. 1e8), with
    exact zeros and some phi rows all zero, plus a box margin and the deadzone width."""
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
    """estimator_update's e, gate and updated estimate equal the audit's column formulas bit for
    bit: e = ybar - phi^T theta, the gate from ||phi||, and the replay theta + phi g with
    g = e / ||phi||^2, clamped to the box, where the gate opens."""
    phi, theta, ybar, margin, delta = case
    boxes = [ParamBox(lo=tuple(row - margin), hi=tuple(row + margin)) for row in theta]
    e = ybar - _weighted(phi, theta)
    sq = _weighted(phi, phi)
    norm = np.sqrt(sq)
    gate = norm > 0.0
    if not math.isinf(delta):
        gate &= np.abs(e) < (2.0 * np.array([box_norm(b) for b in boxes]) + delta) * norm
    with np.errstate(all="ignore"):  # a zero regressor divides by 0; its gate is closed
        v = theta + phi * (e / sq)[:, None]
    for k in range(len(phi)):
        lo, hi = np.array(boxes[k].lo), np.array(boxes[k].hi)
        want = np.where(v[k] < lo, lo, np.where(v[k] > hi, hi, v[k])) if gate[k] else theta[k]
        state = EstimatorState(theta_hat=theta[k].tolist(), box=boxes[k], delta=delta)
        rec = estimator_update(state, phi[k].tolist(), float(ybar[k]))
        assert np.float64(rec.e_next).tobytes() == e[k].tobytes()
        assert rec.rho == int(gate[k])
        assert np.array(state.theta_hat).tobytes() == want.tobytes()


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
    fa = convolve(F.coeffs, A.coeffs)
    rhs[: len(fa)] += fa
    rhs[d : d + len(alpha.coeffs)] += alpha.coeffs
    lhs = np.zeros(size)
    lhs[: len(L.coeffs)] = L.coeffs
    np.testing.assert_allclose(rhs, lhs, rtol=0, atol=1e-12)


# Integers a SignalSpec accepts that int64 cannot hold, or whose neighbourhood overflows it.
HUGE = (10**30, -(10**30), 2**63 - 3, -(2**63) - 1, 2**63 + 5)


@st.composite
def signal_specs(draw, kind: str):
    """A spec of the kind; its start and seed may be HUGE."""
    amp, rate = draw(unit(-5.0, 5.0)), draw(unit(-2.0, 2.0))
    start = draw(st.integers(-700, 700) | st.sampled_from(HUGE))
    if kind == "zero":
        return zero_signal()
    if kind == "constant":
        return constant_signal(draw(st.just(amp) | st.integers(-5, 5)))
    if kind == "square_wave":
        return square_wave(draw(st.integers(1, 50)), amp, draw(unit(-20.0, 20.0)))
    if kind == "sinusoid":
        return sinusoid(amp, rate, draw(unit(-3.0, 3.0)))
    if kind == "windowed_sinusoid":
        return windowed_sinusoid(start, start + draw(st.integers(0, 300)), amp, rate)
    if kind == "table":
        # +0.0 becomes -0.0: a stored +0.0 has the bits of the zero outside the table.
        values = st.lists(unit(-5.0, 5.0).map(lambda v: v or -0.0), min_size=1, max_size=20)
        return table_signal(draw(values), t_start=start)
    return white_noise(amp, seed=draw(st.integers(0, 99) | st.sampled_from((-1,) + HUGE)))


@st.composite
def horizons(draw, edges):
    """A horizon (t0, count): it may start negative or past int64, be empty, cross
    noise-block edges (at multiples of 512), and start or stop on either side of
    each of the spec's edges."""
    def near(lo, hi):  # an integer from lo to hi past one of the edges
        return st.sampled_from(edges).flatmap(lambda e: st.integers(e + lo, e + hi))

    start = draw(
        near(-40, 5) | st.integers(-1100, 1100) | st.sampled_from((-(2**63), 2**63 - 1300, 10**30))
    )
    stop = draw(near(-5, 5) | st.integers(start, start + 700))
    return start, min(max(stop - start, 0), 725)


@functools.lru_cache(maxsize=64)
def noise_block(seed: int, block: int) -> tuple[float, ...]:
    """512 uniform samples on [-1, 1] from a generator seeded by (seed, block), zig-zag encoded."""
    enc = tuple(2 * v if v >= 0 else -2 * v - 1 for v in (seed, block))
    return tuple(np.random.default_rng((0x9E3779B9,) + enc).uniform(-1.0, 1.0, 512).tolist())


def signal_reference(spec: SignalSpec, t: int) -> float:
    """Each kind's definition at time t, as the plant_sim constructors state it."""
    if spec.kind == "zero":
        return 0.0
    if spec.kind == "constant":
        return spec.level
    if spec.kind == "square_wave":  # frozen at its first value before the phase origin
        s = max(t - spec.phase, 0.0)
        return spec.amplitude if s % spec.period < spec.period / 2.0 else -spec.amplitude
    if spec.kind == "sinusoid":
        return spec.amplitude * math.cos(spec.rate * t + spec.phase)
    if spec.kind == "windowed_sinusoid":
        return spec.amplitude * math.cos(spec.rate * t) if spec.t_start < t <= spec.t_end else 0.0
    if spec.kind == "table":
        return spec.values[t - spec.t_start] if 0 <= t - spec.t_start < len(spec.values) else 0.0
    return spec.amplitude * noise_block(spec.seed, t // 512)[t % 512]


@pytest.mark.parametrize("kind", SIGNAL_KINDS)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_signal_rows_are_signal_eval_bit_for_bit(kind, data):
    # Both are each kind's definition, written out in signal_reference.
    spec = data.draw(signal_specs(kind))
    doc = spec.to_doc()  # the kind's fields only: the others are unset
    start = doc.get("t_start", 0)
    edges = (start, start + len(doc.get("values", ())), doc.get("t_end", 0) + 1)
    t0, count = data.draw(horizons(edges))
    want = np.array([signal_reference(spec, t) for t in range(t0, t0 + count)], dtype=float)
    column = signal_rows(spec, t0, count)
    assert column.dtype == want.dtype and column.shape == want.shape
    assert column.tobytes() == want.tobytes()
    samples = [signal_eval(spec, t) for t in range(t0, t0 + count)]
    assert all(type(v) is float for v in samples)
    assert struct.pack(f"{count}d", *samples) == want.tobytes()


@st.composite
def coef_specs(draw, kind: str):
    """A coefficient spec of the kind; its breakpoints and table start may be HUGE."""
    start = draw(st.integers(-700, 700) | st.sampled_from(HUGE))
    if kind == "constant":
        return CoefSpec.const(draw(unit(-5.0, 5.0)))
    if kind == "sinusoid":
        return CoefSpec(kind="sinusoid", offset=draw(unit(-3.0, 3.0)), amplitude=draw(unit(-5.0, 5.0)),
                        rate=draw(unit(-2.0, 2.0)), phase=draw(unit(-3.0, 3.0)),
                        trig=draw(st.sampled_from(("cos", "sin"))))
    if kind == "piecewise":
        gaps = draw(st.lists(st.integers(1, 200), min_size=1, max_size=8))
        times = [start + sum(gaps[:i]) for i in range(len(gaps))]
        return CoefSpec(kind="piecewise", times=tuple(times),
                        values=tuple(draw(unit(-5.0, 5.0)) for _ in times))
    values = draw(st.lists(unit(-5.0, 5.0), min_size=1, max_size=12))
    return CoefSpec(kind="table", values=tuple(values), t_start=start)


def coef_reference(spec: CoefSpec, t: int) -> float:
    """Each kind's definition at time t, as CoefSpec's docstring states it."""
    if spec.kind == "constant":
        return spec.value
    if spec.kind == "sinusoid":
        trig = math.cos if spec.trig == "cos" else math.sin
        return spec.offset + spec.amplitude * trig(spec.rate * t + spec.phase)
    if spec.kind == "piecewise":  # the last breakpoint at or before t, values[0] before all
        return spec.values[max(bisect.bisect_right(spec.times, t) - 1, 0)]
    return spec.values[min(max(t - spec.t_start, 0), len(spec.values) - 1)]


@pytest.mark.parametrize("kind", COEF_KINDS)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_coefficient_columns_are_their_definitions_bit_for_bit(kind, data):
    spec = data.draw(coef_specs(kind))
    doc = spec.to_doc()  # the kind's fields only: the others are unset
    start = doc.get("t_start", 0)
    edges = tuple(doc.get("times", ())) + (start, start + len(doc.get("values", ())))
    t0, count = data.draw(horizons(edges))
    want = np.array([coef_reference(spec, t) for t in range(t0, t0 + count)], dtype=float)
    column = coef_column(spec, t0, count)
    assert column.dtype == want.dtype and column.shape == want.shape
    assert column.tobytes() == want.tobytes()
    samples = [coef_eval(spec, t) for t in range(t0, t0 + count)]
    assert all(type(v) is float for v in samples)
    assert struct.pack(f"{count}d", *samples) == want.tobytes()
    a, b = CoefficientSchedule(a=(spec,), b=(spec,), d=1).coeff_rows(t0, count)
    rows = min(count, 1) if kind == "constant" else count  # a constant plant keeps one row
    assert a.tobytes() == b.tobytes() == want[:rows].tobytes()


# The per-step kernels as the enumerate/range formulas they replaced. The loop's kernels
# walk their lags with a running index instead; the products and the order of every sum
# must stay these, or the golden traces move.
def ybar_by_offsets(y, coeffs):
    acc = 0.0
    for j, c in enumerate(coeffs):
        acc += c * y[-1 - j]
    return acc


def control_by_offsets(theta, target, y, u, n, p):
    acc = target
    for i in range(n):
        acc -= theta[i] * y[-1 - i]
    for i in range(1, p - n):
        acc -= theta[n + i] * u[-i]
    return acc / theta[n]


def plant_step_by_offsets(a, b, d, y, u, w_next):
    y_next = float(w_next)
    for i, ai in enumerate(a):
        y_next -= ai * y[-1 - i]
    for i, bi in enumerate(b):
        y_next += bi * u[-d - i]
    return y_next


def update_by_offsets(theta, box, delta, phi, ybar_next):
    pred = sq = 0.0
    for f, c in zip(phi, theta):
        pred += f * c
        sq += f * f
    e_next = float(ybar_next) - pred
    # The gate as stated: open iff ||phi|| != 0 and |e| < (2 ||S|| + delta) ||phi||, at every delta.
    # A NaN error or regressor closes it.
    norm = math.sqrt(sq)
    rho = int(norm != 0.0 and abs(e_next) < (2.0 * box_norm(box) + delta) * norm)
    if rho:
        g = e_next / sq
        for i, (f, lo, hi) in enumerate(zip(phi, box.lo, box.hi)):
            v = theta[i] + f * g
            theta[i] = lo if v < lo else hi if v > hi else v
    return e_next, rho


def y_star_by_offsets(now, l, order):
    y_star = [0.0] * order
    for s in now:
        acc = 0.0
        for j in range(1, len(l)):
            acc += l[j] * y_star[-j]
        y_star.append(s - acc)
    return y_star[order:]


def bits(values) -> bytes:
    return b"".join(struct.pack("<d", v) for v in values)


# Floats of mixed sign and scale with signed zeros often.
VALUE = unit().map(lambda v: v * 10.0 ** round(4 * v)) | st.sampled_from((0.0, -0.0, 1.0, -1.0))
WIDTH = st.sampled_from((0.0, 0.5)) | unit(0.0, 2.0)  # a zero width puts both edges on the centre
ROOT, FRACTION, SHAPE = unit(-0.9, 0.9), unit(0.0, 1.0), st.integers(1, 3)
EDGE, DEGREE, DELTA = st.integers(0, 2), st.integers(0, 3), st.sampled_from((math.inf, 1e-3, 0.5))


@st.composite
def kernel_cases(draw):
    """n in 1..3, m in 0..2, d in 1..3, L of degree 0..3 (Schur stable), histories, a
    box whose edges the estimate sits on or is pushed past, and a regressor."""
    def values(size: int) -> list[float]:
        return [draw(VALUE) for _ in range(size)]

    n, m, d = draw(SHAPE), draw(SHAPE) - 1, draw(SHAPE)
    p = n + m + d
    L = PolyZ((1.0,))
    for _ in range(draw(DEGREE)):
        L = PolyZ(convolve(L.coeffs, (1.0, -draw(ROOT))))
    ref = ReferenceModel(L=L, H=PolyZ(tuple(values(1 + max(L.degree - d, 0)))), d=d)
    mid = values(p)
    lo, hi = [c - draw(WIDTH) for c in mid], [c + draw(WIDTH) for c in mid]
    if draw(EDGE) % 2:  # the sign of beta0 is pinned away from zero
        lo[n], hi[n] = 0.25, 0.25 + hi[n] - lo[n]
    else:
        lo[n], hi[n] = -0.25 - hi[n] + lo[n], -0.25
    phi = values(p)
    if draw(EDGE) == 0:  # now and then a NaN in the regressor
        phi[draw(SHAPE) % p] = math.nan
    theta = []
    for l, h in zip(lo, hi):
        where = draw(EDGE)  # on the lower edge, on the upper edge, or inside
        theta.append((l, h)[where] if where < 2 else l + draw(FRACTION) * (h - l))
    return dict(n=n, d=d, p=p, ref=ref, box=ParamBox(lo=tuple(lo), hi=tuple(hi)), theta=theta,
                a=values(n), b=values(m + 1), r=values(4 * draw(SHAPE)), y=values(8), u=values(8),
                phi=phi, w=draw(VALUE), target=draw(VALUE), ybar_next=draw(VALUE), delta=draw(DELTA))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(kernel_cases())
def test_loop_kernels_keep_their_products_and_order(case):
    n, p, d, y, u = case["n"], case["p"], case["d"], case["y"], case["u"]
    L, theta, box = case["ref"].L, case["theta"], case["box"]
    assert bits([ybar(y, L)]) == bits([ybar_by_offsets(y, L.coeffs)])
    got = control_input(theta, case["target"], y, u, n)
    assert bits([got]) == bits([control_by_offsets(theta, case["target"], y, u, n, p)])
    got = plant_step(case["a"], case["b"], d, y, u, case["w"])
    assert bits([got]) == bits([plant_step_by_offsets(case["a"], case["b"], d, y, u, case["w"])])

    state = EstimatorState(theta_hat=list(theta), box=box, delta=case["delta"])
    rec = estimator_update(state, case["phi"], case["ybar_next"])
    want = list(theta)
    e_next, rho = update_by_offsets(want, box, case["delta"], case["phi"], case["ybar_next"])
    assert bits(state.theta_hat + [rec.e_next]) == bits(want + [e_next]) and rec.rho == rho

    y_star, now, _ = reference_outputs(case["ref"], case["r"])
    assert bits(y_star.tolist()) == bits(y_star_by_offsets(now.tolist(), L.coeffs, L.degree))


def composed_loop(cfg: ExperimentConfig) -> dict:
    """run_closed_loop's columns from its step kernels called one by one on oldest-first
    lists: control_input, plant_step and ybar, and an update whose estimate, error and
    gate are estimator_update's and update_by_offsets's alike. ||phi(t)|| is summed left
    to right from +0.0."""
    n, m, d, T, L = cfg.n, cfg.m, cfg.d, cfg.steps, cfg.ref.L
    r, w = cfg.inputs
    y_star, ybar_star, target = reference_outputs(cfg.ref, r)
    a_rows, b_rows = (rows.tolist() for rows in cfg.plant_rows)
    start = loop_start(cfg.x0, n, m, d)
    y, u = start.y.tolist(), start.u.tolist()
    state = EstimatorState(theta_hat=cfg.theta0, box=cfg.box, delta=cfg.delta)
    theta = list(state.theta_hat)
    ybars, e, rho, thetas, norms = [ybar(y, L)], [0.0], [], [], []
    for k in range(T + 1):
        thetas.append(list(theta))
        u.append(control_input(theta, float(target[k]), y, u, n))
        sq = 0.0
        for f in [y[-1 - i] for i in range(n)] + [u[-1 - i] for i in range(m + d)]:
            sq += f * f
        norms.append(math.sqrt(sq))
        if k == T:
            break
        phi_lag = [y[-d - i] for i in range(n)] + [u[-d - i] for i in range(m + d)]
        row = k if len(a_rows) > 1 else 0
        y.append(plant_step(a_rows[row], b_rows[row], d, y, u, w[k + 1]))
        ybars.append(ybar(y, L))
        rec = estimator_update(state, phi_lag, ybars[-1])
        e_next, gate = update_by_offsets(theta, cfg.box, cfg.delta, phi_lag, ybars[-1])
        assert bits([rec.e_next] + state.theta_hat) == bits([e_next] + theta) and rec.rho == gate
        e.append(e_next)
        rho.append(gate)
    y, u = np.array(y[start.lead :]), np.array(u[start.lead :])
    return dict(t=np.arange(cfg.t0, cfg.t0 + T + 1, dtype=float), y=y, y_star=y_star, u=u,
                eps=y - y_star, eps_bar=np.array(ybars) - ybar_star, e=np.array(e),
                rho=np.array(rho + [0], dtype=float), norm_phi=np.array(norms),
                theta_hat=np.array(thetas), r=r, w=w)


@pytest.mark.parametrize(
    "doc",
    [None, README_CONFIG, README_W0_CONFIG, D1_CONFIG, D1_GATED_CONFIG, STATIC_D3_CONFIG, M0_D2_CONFIG,
     P8_CONFIG],
    ids=["showcase", "readme", "readme_w0", "d1", "d1_gated", "static_d3", "m0_d2", "p8"],
)
def test_loop_is_its_kernels_composed(doc):
    """The loop computes y(t+1), ybar(t+1) and the gate in place: every column it records
    has the bits of its kernels composed step by step, for d = 1, 2 and 3, m = 0, the
    drifting showcase and gates that close."""
    cfg = demo_config(300) if doc is None else config_from_dict(doc)
    trace, want = run_closed_loop(cfg), composed_loop(cfg)
    assert sorted(want) == sorted(TRACE_COLUMNS)
    for name in TRACE_COLUMNS:
        got = getattr(trace, name)
        assert got.shape == want[name].shape and got.tobytes() == want[name].tobytes(), name
    if doc is D1_GATED_CONFIG:  # the case must keep covering a closed gate
        assert not trace.rho[:-1].all()


def weighted_by_index(lags, coef, acc):
    """Row i: acc(i) + coef(i, 0) * lags[i][0] + coef(i, 1) * lags[i][1] + ..., left to right."""
    out = []
    for i, row in enumerate(lags):
        total = acc[i] if isinstance(acc, list) else acc
        for j, v in enumerate(row):
            total += coef(i, j) * v
        out.append(total)
    return out


@st.composite
def weighted_cases(draw):
    """rows x p lags (p may be 0), coefficients 1-D, (1, p) or (rows, p), and a scalar
    or per-row starting value."""
    rows, p = draw(st.integers(1, 5)), draw(st.integers(0, 6))
    lags = [[draw(VALUE) for _ in range(p)] for _ in range(rows)]
    shape = draw(st.sampled_from(("1-D", "(1, p)", "(rows, p)")))
    if shape == "1-D":
        coeffs = [draw(VALUE) for _ in range(p)]
    else:
        coeffs = [[draw(VALUE) for _ in range(p)] for _ in range(1 if shape == "(1, p)" else rows)]
    acc = draw(st.sampled_from((0.0, -0.0)) | VALUE | st.lists(VALUE, min_size=rows, max_size=rows))
    return lags, shape, coeffs, acc


@settings(max_examples=100, derandomize=True, deadline=None)
@given(weighted_cases())
def test_weighted_is_its_index_formula_bit_for_bit(case):
    lags, shape, coeffs, acc = case
    coef = {"1-D": lambda i, j: coeffs[j], "(1, p)": lambda i, j: coeffs[0][j],
            "(rows, p)": lambda i, j: coeffs[i][j]}[shape]
    lag_array = np.array(lags).reshape(len(lags), -1)  # keeps p = 0 as (rows, 0)
    start = np.array(acc) if isinstance(acc, list) else acc
    got = np.broadcast_to(_weighted(lag_array, coeffs, start), (len(lags),))
    assert bits(got.tolist()) == bits(weighted_by_index(lags, coef, acc))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.tuples(VALUE, WIDTH), min_size=1, max_size=9))
def test_box_norm_adds_left_to_right_from_zero(edges):
    box = ParamBox(lo=tuple(c - w for c, w in edges), hi=tuple(c + w for c, w in edges))
    sq = 0.0
    for l, h in zip(box.lo, box.hi):
        sq += max(l * l, h * h)
    assert box_norm(box).hex() == math.sqrt(sq).hex()


def convolve_by_index(f, g):
    """c_k = +0.0 + f_0 g_k + f_1 g_(k-1) + ..., left to right over the i with 0 <= k - i < len(g)."""
    out = []
    for k in range(len(f) + len(g) - 1):
        total = 0.0
        for i in range(len(f)):
            if 0 <= k - i < len(g):
                total += f[i] * g[k - i]
        out.append(total)
    return out


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(VALUE, min_size=1, max_size=6), st.lists(VALUE, min_size=1, max_size=6))
@example([2.0, 1.0], [-0.0])  # single-term products of -0.0: each sum is +0.0
def test_convolution_is_its_index_formula_bit_for_bit(f, g):
    want = bits(convolve_by_index(f, g))
    assert bits(convolve(f, g)) == want


LEAD = st.sampled_from((-1.0, 1.0)).flatmap(lambda s: unit(0.1, 5.0).map(lambda v: s * v))


def companion_root_modulus(p) -> float:
    """Largest eigenvalue modulus of the companion matrix of p / p_0; 0.0 for a constant."""
    k = len(p) - 1
    if k == 0:
        return 0.0
    comp = np.zeros((k, k))
    comp[0] = [-c / p[0] for c in p[1:]]
    for i in range(1, k):
        comp[i, i - 1] = 1.0
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


# Degree 1 is |p_1 / p_0| in closed form. Past [2^-459, 2^459] dgeev rescales the 1x1
# matrix and rounds these two roots an ulp off that quotient.
@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(0, 4).flatmap(
    lambda k: st.lists(st.tuples(LEAD, *[VALUE] * k), min_size=1, max_size=8)))
@example([(1.0, 0.5), (1.0, 8.852710601199884e-141)])
@example([(-1.0, 3.7544088060464667e139), (1.0, 0.5)])
def test_root_moduli_are_companion_eigenvalues_bit_for_bit(rows):
    got = max_root_moduli(rows)
    assert bits(got.tolist()) == bits([companion_root_modulus(p) for p in rows])
