"""Closed-loop orchestration, trace capture, and the verification suite.

One experiment = plant schedule + reference model + estimator box + initial
data + exogenous signals. run_closed_loop executes the certainty-equivalence
loop and records everything needed to re-derive each quantity offline; audit,
the one audit of a run (run --verify, verify and reproduce call it), picks
the check_* functions that confirm, on the recorded trace, the properties the
projection estimator and the adaptive loop are supposed to have:

* the per-step estimate move is bounded by the normalized prediction error,
  and the parameter error contracts up to a noise term (check_prop1);
* the tracking error, the prediction error, and the parameter error are
  linked by exact algebraic identities (check_identities);
* closed-loop signals admit exponential-decay envelopes driven by the
  reference and disturbance inputs (fit_decay_bound), with tracking-error
  energy finite in the disturbance-free case (tracking_energy).

Trace columns are exact re-loadable decimals, so a saved run can be audited
later without re-simulation. A Trace carries its ExperimentConfig, whose
document and hash are built only when a summary is written. The config
keeps the coefficient rows it validated; the loop and every audit read
those rows rather than evaluating the schedule again. Regressors
are not stored: Trace.regressors builds their one table from x0 and the y/u
columns, and the checks read it on whole columns at once. Consistency checks
re-derive every column from its recursion or config signal, so edits show
as residuals.
Loop and audits add every sum term by term in one order, dot products left
to right from +0.0 with no BLAS dot, so a recomputed e, norm_phi or gate
matches the loop's bit for bit. Those three must follow the loop's order;
every other audit row sum keeps it too (_weighted, the squared parameter
error included, and _size over magnitudes), so slicing History's lag views,
the regressor table or wbar leaves every margin bit for bit as it was.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from array import array
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import accumulate
from pathlib import Path

import numpy as np

from .controller import (
    control_input,
    history,
    loop_start,
    reference_outputs,
    x0_length,
    ybar,
)
from .estimator import EstimatorState, estimator_update
from .plant_sim import (
    CoefficientSchedule,
    CoefSpec,
    SignalSpec,
    plant_step,
    signal_rows,
    square_wave,
    wbar_sequence,
    windowed_sinusoid,
    zero_signal,
)
from .poly import PolyZ, max_root_modulus, max_root_moduli
from .system import (
    AdmissibilityError,
    ParamBox,
    ReferenceModel,
    box_norm,
    build_param_box,
    integer,
    number,
    numbers,
    predictor_map,
)

__all__ = [
    "ConfigError",
    "NumericAbort",
    "ExperimentConfig",
    "config_from_dict",
    "Trace",
    "GroundTruth",
    "ground_truth",
    "run_closed_loop",
    "predictor_residuals",
    "CheckResult",
    "VerificationReport",
    "check_prop1",
    "check_identities",
    "check_trace_consistency",
    "fit_decay_bound",
    "tracking_energy",
    "audit",
    "config_spectral_floor",
    "demo_config",
    "reproduce_example",
    "write_trace_csv",
    "trace_from_csv",
    "write_outputs",
]

OVERFLOW_LIMIT = 1e100
MAX_TIME = 2**53  # |t| bound on a run's times: the trace's float t column holds each exactly
CHECK_TOL = 1e-9
IDENTITY_TOL = 1e-8


class ConfigError(ValueError):
    """Invalid experiment configuration; carries the offending field path."""

    def __init__(self, fieldpath: str, message: str):
        super().__init__(f"{fieldpath}: {message}")
        self.fieldpath = fieldpath


class NumericAbort(RuntimeError):
    """The simulation produced a non-finite or astronomically large value."""


# ---------------------------------------------------------------------------
# Configuration

# ExperimentConfig's scalar fields: (name, system reader, document field path).
SCALAR_FIELDS = (("delta", number, "estimator.delta"), ("t0", integer, "sim.t0"),
                 ("steps", integer, "sim.steps"), ("seed", integer, "sim.seed"),
                 ("s_ab_samples", integer, "estimator.samples"),
                 ("s_ab_margin", number, "estimator.margin"))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one closed-loop run depends on, in plain hashable data."""

    schedule: CoefficientSchedule
    ref: ReferenceModel
    box: ParamBox
    delta: float
    t0: int
    steps: int
    x0: tuple[float, ...]
    theta0: tuple[float, ...]
    r: SignalSpec
    w: SignalSpec
    seed: int = 0
    s_ab: ParamBox | None = None
    s_ab_samples: int = 256
    s_ab_margin: float = 0.0
    label: str = ""
    plant_rows: tuple = field(init=False, repr=False, compare=False)  # validate_horizon's (a, b)

    @property
    def n(self) -> int:
        return self.schedule.n

    @property
    def m(self) -> int:
        return self.schedule.m

    @property
    def d(self) -> int:
        return self.schedule.d

    @property
    def dim_theta(self) -> int:
        return self.n + self.m + self.d

    def __post_init__(self) -> None:
        """Read the scalar fields and x0/theta0 as a document's and check the whole
        configuration.

        Raises ConfigError with the offending field path, so a constructed
        config always meets the assumptions run_closed_loop relies on.
        """
        for name, read, fieldpath in SCALAR_FIELDS:
            try:
                object.__setattr__(self, name, read(getattr(self, name)))
            except (TypeError, OverflowError) as exc:
                raise ConfigError(fieldpath, str(exc)) from None
        for name in ("x0", "theta0"):
            try:
                object.__setattr__(self, name, numbers(getattr(self, name)))
            except TypeError as exc:
                raise ConfigError(f"sim.{name}", str(exc)) from None
        n, m, d = self.n, self.m, self.d
        if self.ref.d != d:
            raise ConfigError("reference", f"reference delay {self.ref.d} != plant delay {d}")
        if self.ref.order > n:
            raise ConfigError(
                "reference.L", f"order {self.ref.order} exceeds plant order {n}"
            )
        if self.box.dim != self.dim_theta:
            raise ConfigError(
                "estimator.box",
                f"box dimension {self.box.dim} != n+m+d = {self.dim_theta}",
            )
        lo, hi = self.box.lo[n], self.box.hi[n]
        if lo <= 0.0 <= hi:
            raise ConfigError(
                "estimator.box",
                f"beta0 interval [{lo}, {hi}] contains 0; the control law divides by beta0",
            )
        if not self.delta > 0.0:
            raise ConfigError("estimator.delta", "deadzone width must be positive (or inf)")
        if not math.isfinite(self.s_ab_margin):
            raise ConfigError("estimator.margin", "must be finite")
        if len(self.x0) != x0_length(n, m, d):
            raise ConfigError(
                "sim.x0",
                f"needs {x0_length(n, m, d)} entries for (n={n}, m={m}, d={d}), got {len(self.x0)}",
            )
        if not all(math.isfinite(v) for v in self.x0):
            raise ConfigError("sim.x0", "entries must be finite")
        if len(self.theta0) != self.dim_theta:
            raise ConfigError(
                "sim.theta0", f"needs {self.dim_theta} entries, got {len(self.theta0)}"
            )
        if not self.box.contains(np.array(self.theta0), tol=1e-12):
            raise ConfigError("sim.theta0", "initial estimate must lie inside the box")
        if self.steps < self.ref.order + 2 * d:
            raise ConfigError(
                "sim.steps",
                f"horizon must cover at least n' + 2d = {self.ref.order + 2 * d} steps",
            )
        if not -MAX_TIME <= self.t0 <= MAX_TIME:
            raise ConfigError("sim.t0", f"must lie within +-2^53, got {self.t0}")
        if self.t0 + self.steps > MAX_TIME:
            raise ConfigError("sim.steps", f"t0 + steps = {self.t0 + self.steps} passes 2^53")
        t_end = self.t0 + self.steps  # sampled times; ground truth's wbar reads w past t_end
        sampled = [("signals.r", self.r, self.t0, t_end),
                   ("signals.w", self.w, self.t0 - d + 1, t_end + d + 1)]
        sampled += [(f"plant.schedule.{key}[{i}]", spec, self.t0, t_end - 1)
                    for key in "ab" for i, spec in enumerate(getattr(self.schedule, key))]
        for fieldpath, spec, first, last in sampled:
            try:
                spec.check_angle(first, last)
            except ValueError as exc:
                raise ConfigError(fieldpath, str(exc)) from None
        try:
            rows = self.schedule.validate_horizon(self.t0, self.steps)
        except AdmissibilityError as exc:
            fieldpath = "plant" if self.schedule.is_constant() else "plant.schedule"
            raise ConfigError(fieldpath, str(exc)) from exc
        except MemoryError:
            raise _too_long(self.steps) from None
        object.__setattr__(self, "plant_rows", rows)

    # -- serialization ------------------------------------------------------

    def to_config_dict(self) -> dict:
        """Plain-JSON document form (the shape the CLI accepts)."""
        a, b = self.plant_rows
        plant: dict = {"a": a[0].tolist(), "b": b[0].tolist(), "d": self.d}
        if not self.schedule.is_constant():
            plant["schedule"] = {
                "a": [c.to_doc() for c in self.schedule.a],
                "b": [c.to_doc() for c in self.schedule.b],
            }
        estimator: dict = {
            "delta": "inf" if math.isinf(self.delta) else self.delta,
            "box": {"lo": list(self.box.lo), "hi": list(self.box.hi)},
        }
        if self.s_ab is not None:
            estimator["s_ab_box"] = {"lo": list(self.s_ab.lo), "hi": list(self.s_ab.hi)}
            estimator["samples"] = self.s_ab_samples
            estimator["margin"] = self.s_ab_margin
        doc = {
            "plant": plant,
            "reference": {"L": list(self.ref.L.coeffs), "H": list(self.ref.H.coeffs)},
            "estimator": estimator,
            "sim": {
                "t0": self.t0,
                "steps": self.steps,
                "x0": list(self.x0),
                "theta0": list(self.theta0),
                "seed": self.seed,
            },
            "signals": {"r": self.r.to_doc(), "w": self.w.to_doc()},
        }
        if self.label:
            doc["label"] = self.label
        return doc

    def config_hash(self) -> str:
        return _document_hash(self.to_config_dict())


def _document_hash(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, allow_nan=False)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _too_long(steps: int) -> ConfigError:
    return ConfigError("sim.steps", f"{steps} steps cannot be allocated")


# -- parsing ----------------------------------------------------------------


def _spec(cls, doc, fieldpath: str):
    """A SignalSpec or CoefSpec from its document form, errors under fieldpath."""
    try:
        return cls.from_doc(doc)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(fieldpath, str(exc)) from None


def _specs(cls, doc, fieldpath: str) -> tuple:
    if not isinstance(doc, list):
        raise ConfigError(fieldpath, "expected an array")
    return tuple(_spec(cls, c, f"{fieldpath}[{i}]") for i, c in enumerate(doc))


def _known(doc: dict, keys: tuple[str, ...], fieldpath: str) -> None:
    """Reject a key that the parser does not read: a misspelled field would fall back to its default."""
    for key in doc:
        if key not in keys:
            raise ConfigError(f"{fieldpath}.{key}" if fieldpath else str(key), "unknown field")


def _section(doc: dict, key: str, fieldpath: str, keys: tuple[str, ...], default=None) -> dict:
    """doc[key], an object with no keys but these; a missing section is an error unless it has a default."""
    if key not in doc:
        if default is None:
            raise ConfigError(fieldpath, "missing section")
        return default
    if not isinstance(doc[key], dict):
        raise ConfigError(fieldpath, "expected an object")
    _known(doc[key], keys, fieldpath)
    return doc[key]


def _number(read, doc: dict, key: str, fieldpath: str, default=None):
    """read(doc[key]) (or the default when it is absent), finite, errors under fieldpath.

    read is system's integer or number: a string, a bool or, for an integer, a fraction fails."""
    if key not in doc and default is None:
        raise ConfigError(fieldpath, "missing field")
    try:
        value = read(doc.get(key, default))
    except (TypeError, OverflowError) as exc:
        raise ConfigError(fieldpath, str(exc)) from None
    if isinstance(value, float) and not math.isfinite(value):  # before build_param_box reads it
        raise ConfigError(fieldpath, "must be finite")
    return value


def _floats(doc, fieldpath: str) -> tuple[float, ...]:
    """doc as floats; only a list or tuple of ints and floats (not bools) is an array of numbers."""
    try:
        return numbers(doc)
    except TypeError as exc:
        raise ConfigError(fieldpath, str(exc)) from None


def _pair(doc, keys: tuple[str, str], fieldpath: str) -> tuple:
    """The two arrays of numbers doc[keys[0]], doc[keys[1]]; doc must be an object with just these."""
    if not isinstance(doc, dict):
        raise ConfigError(fieldpath, f"expected an object with {keys[0]!r} and {keys[1]!r}")
    _known(doc, keys, fieldpath)
    for key in keys:
        if key not in doc:
            raise ConfigError(fieldpath, f"missing field {key!r}")
    return tuple(_floats(doc[key], f"{fieldpath}.{key}") for key in keys)


def _box(doc, fieldpath: str) -> ParamBox:
    lo, hi = _pair(doc, ("lo", "hi"), fieldpath)
    try:
        return ParamBox(lo=lo, hi=hi)
    except ValueError as exc:
        raise ConfigError(fieldpath, str(exc))


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from its JSON-document form.

    Raises ConfigError (with a dotted field path) on any structural or
    semantic problem. config_from_dict(cfg.to_config_dict()) == cfg for any
    valid configuration.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config", "top level must be an object")
    _known(doc, ("plant", "reference", "estimator", "sim", "signals", "label"), "")
    plant = _section(doc, "plant", "plant", ("a", "b", "d", "schedule"))
    ref_doc = _section(doc, "reference", "reference", ("L", "H"))
    est = _section(doc, "estimator", "estimator", ("delta", "box", "s_ab_box", "samples", "margin"))
    sim = _section(doc, "sim", "sim", ("t0", "steps", "seed", "x0", "theta0"))
    signals = _section(doc, "signals", "signals", ("r", "w"), default={})
    d = _number(integer, plant, "d", "plant.d")

    # A constant plant is a schedule of constant specs: ExperimentConfig tests its row once.
    fieldpath = "plant.schedule" if "schedule" in plant else "plant"
    if "schedule" in plant:
        sched = _section(plant, "schedule", fieldpath, ("a", "b"))
        specs = [_specs(CoefSpec, sched.get(key, []), f"{fieldpath}.{key}") for key in "ab"]
    elif "b" not in plant:
        raise ConfigError("plant.b", "missing section")
    else:
        specs = [_floats(plant.get(key, ()), f"plant.{key}") for key in "ab"]
    try:
        if "schedule" not in plant:  # a non-finite number fails CoefSpec here
            specs = [tuple(map(CoefSpec.const, row)) for row in specs]
        schedule = CoefficientSchedule(*specs, d=d)
    except ValueError as exc:
        raise ConfigError(fieldpath, str(exc))

    L, H = _pair(ref_doc, ("L", "H"), "reference")
    try:
        ref = ReferenceModel(L=PolyZ(L), H=PolyZ(H), d=d)
    except ValueError as exc:
        raise ConfigError("reference", str(exc))

    t0 = _number(integer, sim, "t0", "sim.t0", default=0)
    steps = _number(integer, sim, "steps", "sim.steps")
    seed = _number(integer, sim, "seed", "sim.seed", default=0)
    x0 = _floats(sim.get("x0", [0.0] * x0_length(schedule.n, schedule.m, d)), "sim.x0")

    raw_delta = est.get("delta", "inf")
    if isinstance(raw_delta, str):
        if raw_delta != "inf":
            raise ConfigError("estimator.delta", f"expected a number or 'inf', got {raw_delta!r}")
        delta = math.inf
    else:
        try:
            delta = number(raw_delta)
        except (TypeError, OverflowError):
            raise ConfigError("estimator.delta", "expected a number or 'inf'") from None

    s_ab = None
    samples = _number(integer, est, "samples", "estimator.samples", default=256)
    margin = _number(number, est, "margin", "estimator.margin", default=0.0)
    if "s_ab_box" in est:
        s_ab = _box(est["s_ab_box"], "estimator.s_ab_box")
    if "box" in est:
        box = _box(est["box"], "estimator.box")
    elif s_ab is not None:
        try:
            box = build_param_box(
                s_ab, ref, n_a=schedule.n, samples=samples, margin=margin, seed=seed
            )
        except (AdmissibilityError, ValueError) as exc:
            raise ConfigError("estimator.s_ab_box", str(exc))
    else:
        raise ConfigError("estimator", "needs a 'box' or an 's_ab_box'")

    raw_theta0 = sim.get("theta0", "midpoint")
    if isinstance(raw_theta0, str):
        if raw_theta0 != "midpoint":
            raise ConfigError("sim.theta0", f"expected an array or 'midpoint', got {raw_theta0!r}")
        theta0 = tuple(box.midpoint())
    else:
        theta0 = _floats(raw_theta0, "sim.theta0")

    r = _spec(SignalSpec, signals["r"], "signals.r") if "r" in signals else zero_signal()
    w = _spec(SignalSpec, signals["w"], "signals.w") if "w" in signals else zero_signal()

    cfg = ExperimentConfig(
        schedule=schedule,
        ref=ref,
        box=box,
        delta=delta,
        t0=t0,
        steps=steps,
        x0=x0,
        theta0=theta0,
        r=r,
        w=w,
        seed=seed,
        s_ab=s_ab,
        s_ab_samples=samples,
        s_ab_margin=margin,
        label=str(doc.get("label", "")),
    )
    # plant.a and plant.b beside a schedule are its row at t0, as to_config_dict writes them.
    for key, rows in zip("ab", cfg.plant_rows if "schedule" in plant else ()):
        row = rows[0].tolist()
        if key in plant and list(_floats(plant[key], f"plant.{key}")) != row:
            raise ConfigError(f"plant.{key}", f"must equal the schedule's row at t0, {row}")
    return cfg


CONVENTIONS = {
    "r_prestart": "r(t) = 0 for t < t0",
    "w_alignment": "w(t) enters the output emitted at index t",
    "coefficient_sampling": "time-varying coefficients are sampled at emission time",
    "history_padding": "output/input history older than x0 is zero",
    "e_column": "e(t) was computed while emitting y(t); e(t0) = 0",
    "rho_column": "rho(t)/nu(t) gate the update from t to t+1; final row is 0",
    "identity_range": "algebraic identity checks start at t = t0 + d",
}


# ---------------------------------------------------------------------------
# Trace


@dataclass
class Trace:
    """Row-per-time-step record of one closed-loop run (t = t0 .. t0+steps).

    cfg is the run's configuration (for a reloaded file, the one it is
    audited against). Regressors are not stored: regressors() builds their table
    anew from cfg.x0 and the y/u columns, so an edit shows in every check.
    Every array is float64, t and rho too; TRACE_COLUMNS orders them as the file does.
    """

    t: np.ndarray
    y: np.ndarray
    y_star: np.ndarray
    u: np.ndarray
    eps: np.ndarray
    eps_bar: np.ndarray
    e: np.ndarray
    rho: np.ndarray
    norm_phi: np.ndarray
    theta_hat: np.ndarray  # (rows, p)
    r: np.ndarray
    w: np.ndarray
    cfg: ExperimentConfig

    @property
    def rows(self) -> int:
        return len(self.t)

    @property
    def t0(self) -> int:
        return int(self.t[0])

    @property
    def t_end(self) -> int:
        return int(self.t[-1])

    def regressors(self) -> Regressors:
        return Regressors(self.cfg, self.y, self.u)


class Regressors:
    """The regressor table of a run of cfg with these y/u columns, from one history and one
    phi build: phi's row k is phi(t0-d+1+k), k = 0 .. T+d-1, sq its ||phi||^2 in the loop's
    order and mags its |phi|, each taken on first use. All are row-wise, so a slice has the
    bits of a build of its rows alone. audit passes one table to every check as table=; a
    check given none builds its own."""

    def __init__(self, cfg: ExperimentConfig, y: np.ndarray, u: np.ndarray):
        self.hist = history(cfg.x0, y, u, cfg.n, cfg.m, cfg.d)
        self.phi = self.hist.phi(1 - cfg.d, len(y) + cfg.d - 1)

    @cached_property
    def sq(self) -> np.ndarray:
        return _weighted(self.phi, self.phi)

    @cached_property
    def mags(self) -> np.ndarray:
        return np.abs(self.phi)


# The one trace layout, read by the header, writer, reader, plot.gp and the loop's finite check.
TRACE_COLUMNS = tuple(f.name for f in fields(Trace) if f.name != "cfg")


# ---------------------------------------------------------------------------
# Closed loop


def run_closed_loop(cfg: ExperimentConfig) -> Trace:
    """Execute the adaptive loop over t = t0 .. t0 + steps and record a Trace.

    The loop starts from the layout that controller.history builds from x0
    (loop_start) and appends each u(t) and y(t+1) to its two lists; every per-step read
    indexes them from the end. Step order at each time t: solve the control
    law for u(t) (which freezes phi(t)), emit y(t+1) with the disturbance
    sample w(t+1), then run one estimator update on the d-step-lagged
    regressor. The estimate used to compute u(t) is always theta_hat(t),
    i.e. the one produced after the previous step's update. The open-loop
    columns (r, w and the reference outputs) are computed once, before the
    loop; the coefficient rows are the ones the config validated. Each
    update sums phi^T theta_hat and ||phi||^2 in one pass over phi, each
    from +0.0; theta_hat and rho are written to their arrays once, after the loop.

    Each step calls its kernels (control_input, plant_step, ybar,
    estimator_update) through this module's names, so a wrapper installed
    on a name sees every call. Their term orders, which the golden traces
    pin, are stated in the controller, plant_sim and estimator module
    docstrings. The last time t0 + T only records theta_hat and solves for
    u; it emits nothing and runs no update.
    """
    n, m, d = cfg.n, cfg.m, cfg.d
    p, T, L = cfg.dim_theta, cfg.steps, cfg.ref.L
    try:
        theta_hat, rho = np.zeros((T + 1, p)), np.zeros(T + 1)
    except (MemoryError, ValueError):  # a horizon no memory holds, or past numpy's address space
        raise _too_long(T) from None
    r, w = signal_rows(cfg.r, cfg.t0, T + 1), signal_rows(cfg.w, cfg.t0, T + 1)
    y_star, ybar_star, target = reference_outputs(cfg.ref, r)
    coeffs = list(zip(*(rows.tolist() for rows in cfg.plant_rows)))  # (a, b) per emission time
    if len(coeffs) == 1:  # a constant plant has one row
        coeffs *= T
    gain_sign = math.copysign(1.0, cfg.box.lo[n])
    est = EstimatorState(theta_hat=cfg.theta0, box=cfg.box, delta=cfg.delta)

    start = loop_start(cfg.x0, n, m, d)
    y, u = start.y.tolist(), start.u.tolist()  # y ends with y(t), u with u(t-1)
    target, w_next = target.tolist(), w[1:].tolist()
    ys, us = slice(-d, -d - n, -1), slice(-d, -m - 2 * d, -1)  # phi(t-d+1) = y[ys] + u[us]
    theta = est.theta_hat  # updated in place by every update
    ybars, e, thetas, gates = [ybar(y, L)], [0.0], array("d"), []  # thetas: T+1 rows of p
    for k, (a, b) in enumerate(coeffs):
        thetas.fromlist(theta)
        u.append(control_input(theta, target[k], y, u, n, p, gain_sign))
        phi_lag = y[ys] + u[us]
        y_next = plant_step(a, b, d, y, u, w_next[k])
        if not -OVERFLOW_LIMIT <= y_next <= OVERFLOW_LIMIT:  # NaN compares false: aborts too
            raise NumericAbort(
                f"output diverged at t = {cfg.t0 + k + 1} (y = {y_next!r}); "
                "check the admissible box and plant schedule"
            )
        y.append(y_next)
        yb = ybar(y, L)
        ybars.append(yb)
        rec = estimator_update(est, phi_lag, yb)
        e.append(rec.e_next)
        gates.append(rec.rho)
    thetas.fromlist(theta)  # the final time: u(t0 + T) and theta_hat(t0 + T), no emission
    u.append(control_input(theta, target[T], y, u, n, p, gain_sign))
    theta_hat[:] = np.frombuffer(thetas).reshape(T + 1, p)
    rho[:T] = gates

    y, u = np.array(y[start.lead :]), np.array(u[start.lead :])
    trace = Trace(
        t=np.arange(cfg.t0, cfg.t0 + T + 1, dtype=float),
        y=y,
        y_star=y_star,
        u=u,
        eps=y - y_star,
        eps_bar=np.array(ybars) - ybar_star,
        e=np.array(e),
        rho=rho,
        norm_phi=np.sqrt(Regressors(cfg, y, u).sq[d - 1 :]),
        theta_hat=theta_hat,
        r=r,
        w=w,
        cfg=cfg,
    )
    for name in TRACE_COLUMNS:
        if not np.all(np.isfinite(getattr(trace, name))):
            raise NumericAbort(f"non-finite values in column {name}")
    return trace


# ---------------------------------------------------------------------------
# Ground truth for verification


@dataclass
class GroundTruth:
    """theta* and filtered noise wbar of a constant-plant run, both from its one plant row."""

    theta_star: np.ndarray  # (p,)
    wbar: np.ndarray  # wbar(t) for t = wbar_t0 ..
    wbar_t0: int


def ground_truth(cfg: ExperimentConfig) -> GroundTruth:
    """GroundTruth of cfg.plant_rows' one row, checked by the config; one long division gives
    both F (for wbar) and theta* = (alpha, beta). ValueError for a time-varying plant."""
    if not cfg.schedule.is_constant():
        raise ValueError("ground truth needs a constant plant")
    F, theta_star = predictor_map(*(rows[0] for rows in cfg.plant_rows), cfg.ref)
    wbar_t0 = cfg.t0 - cfg.d + 1
    return GroundTruth(
        theta_star=np.array(theta_star),
        wbar=wbar_sequence(F, cfg.w, wbar_t0, cfg.steps + cfg.d),
        wbar_t0=wbar_t0,
    )


# ---------------------------------------------------------------------------
# Verification checks


@dataclass
class CheckResult:
    name: str
    passed: bool
    margin: float  # worst slack; negative means violated by that much
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status} {self.name} (worst margin {self.margin:.3e})"
        return f"{out} - {self.detail}" if self.detail else out


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)
    fitted: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, margin: float, detail: str = "", tol: float = CHECK_TOL) -> None:
        self.checks.append(CheckResult(name, bool(margin >= -tol), float(margin), detail))

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        for key, val in self.fitted.items():
            out.append(f"INFO {key} = {val:.6g}" if isinstance(val, float) else f"INFO {key} = {val}")
        return out

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "margin": c.margin, "detail": c.detail}
                for c in self.checks
            ],
            "fitted": self.fitted,
        }


def _max_abs(x) -> float:
    return float(np.abs(x).max(initial=0.0))


def _weighted(lags: np.ndarray, coeffs, acc=0.0):
    """acc + sum_j coeffs[..., j] * lags[:, j], column by column; coeffs may vary by row.

    This is the loop's order, term by term from acc: with acc = 0.0 a row
    dot gets the loop's bits, so e, norm_phi and the gate's ||phi|| come
    out as the loop made them, and every margin built on them keeps its
    bits. Coefficients that do not vary by row enter as the Python floats
    of one tolist(); per-row coefficients multiply lags in one pass, and
    column j of those products is added in turn.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim == 2 and len(coeffs) > 1:
        terms = coeffs * lags
        for j in range(lags.shape[1]):
            acc = acc + terms[:, j]
        return acc
    coeffs = coeffs.reshape(-1).tolist()
    for j in range(lags.shape[1]):
        acc = acc + coeffs[j] * lags[:, j]
    return acc


def _size(mags: np.ndarray, coeffs) -> np.ndarray:
    """Row sums of |coeffs[..., j]| * mags[:, j], mags = |lags|: the magnitude _weighted adds up.

    The caller takes |lags| once for all the sizes over the same rows."""
    return _weighted(mags, np.abs(coeffs))


def _wbar_rows(wbar, wbar_t0: int, t0: int, count: int) -> np.ndarray:
    """wbar(t) for t = t0 .. t0+count-1, a slice of wbar = wbar(wbar_t0), wbar(wbar_t0+1), .."""
    wbar = np.asarray(wbar, dtype=float)
    first = t0 - wbar_t0
    if first < 0 or first + count > len(wbar):
        raise ValueError(
            f"wbar covers t = {wbar_t0} .. {wbar_t0 + len(wbar) - 1}, "
            f"the check reads t = {t0} .. {t0 + count - 1}"
        )
    return wbar[first : first + count]


def _relative(res: np.ndarray, *mags: np.ndarray) -> float:
    """Largest |res| / (1 + sum mags) over rows, the mags added left to right.

    The mags are the magnitudes of the parts of the re-derived value (sizes,
    or |term| taken by the caller), so a check against CHECK_TOL gives the
    same verdict when every signal is rescaled.
    """
    return _max_abs(res / (1.0 + sum(mags[1:], mags[0])))


def check_prop1(trace: Trace, theta_star=None, wbar=None, wbar_t0: int | None = None, *,
                table: Regressors | None = None) -> VerificationReport:
    """Estimator-property checks on a recorded trace.

    Always checked: the per-step estimate move is bounded by the gated,
    normalized prediction error. When the true parameters (constant plants)
    and the filtered noise are supplied, additionally checks the
    parameter-error contraction per step and accumulated over the run, and
    - for disturbance-free runs - monotonicity of the parameter error.
    """
    rep = VerificationReport()
    d = trace.cfg.d
    t0 = trace.t0
    T = trace.rows - 1

    # Row k pairs the update from t = t0 + k with ||phi(t-d+1)||^2.
    sq = (trace.regressors() if table is None else table).sq[:T]
    gated = (trace.rho[:T] != 0) & (sq > 0.0)
    bound = np.divide(np.abs(trace.e[1:]), np.sqrt(sq), out=np.zeros(T), where=gated)
    th = trace.theta_hat
    step = th[1:] - th[:-1]
    move = np.sqrt(_weighted(step, step))
    rep.add("estimate_move_bounded", float((bound - move).min(initial=math.inf)), f"{T} steps")

    if theta_star is None:
        return rep

    theta_star = np.asarray(theta_star, dtype=float)
    if wbar is None or wbar_t0 is None:
        raise ValueError("contraction checks need the filtered noise sequence")
    wb = _wbar_rows(wbar, wbar_t0, t0, T - d + 1)  # wbar(t-d+1) for t = t0+d-1 .. t0+T-1

    dev = th - theta_star
    err_sq = _weighted(dev, dev)
    e = trace.e[d:]
    allowed = np.divide(
        -0.5 * e * e + 2.0 * wb * wb, sq[d - 1 :], out=np.zeros(T - d + 1), where=gated[d - 1 :]
    )
    worst = float((allowed - (err_sq[d:] - err_sq[d - 1 : -1])).min(initial=math.inf))
    rep.add("parameter_error_contraction_step", worst, f"from t = {t0 + d - 1}")
    budget = float(allowed.cumsum()[-1]) if len(allowed) else 0.0  # summed in time order
    rep.add("parameter_error_contraction_total", err_sq[d - 1] + budget - err_sq[T])

    if not trace.w.any():
        err = np.sqrt(err_sq[d - 1 :])
        inc = float((err[1:] - err[:-1]).max()) if T >= d else 0.0
        rep.add("parameter_error_monotone", -inc, "w = 0 run")
    return rep


def check_identities(trace: Trace, theta_star, wbar, wbar_t0: int, *,
                     table: Regressors | None = None) -> VerificationReport:
    """Exact algebraic identities linking eps_bar, e, and the parameter error.

    Checked for t >= t0 + d, where the recorded history fully determines
    every term (before that, the arbitrary initial condition x0 breaks the
    predictor identity by construction):

      eps_bar(t) = e(t) + phi(t-d)^T [theta_hat(t-1) - theta_hat(t-d)]
      e(t)       = -phi(t-d)^T [theta_hat(t-1) - theta*] + wbar(t-d)
      eps_bar(t) = -phi(t-d)^T [theta_hat(t-d) - theta*] + wbar(t-d)

    The first is pure bookkeeping (no plant knowledge); the other two hold
    because theta* satisfies the d-step predictor. As in
    check_trace_consistency, each residual is scaled by 1 + sum |terms|,
    the terms being the parts of the right-hand side, so the margins do
    not depend on units.
    """
    rep = VerificationReport()
    theta_star = np.asarray(theta_star, dtype=float)
    d = trace.cfg.d
    t0 = trace.t0
    T = trace.rows - 1
    count = max(T + 1 - d, 0)

    table = trace.regressors() if table is None else table
    phi, mags = table.phi[d - 1 : T], table.mags[d - 1 : T]  # phi(t-d) for t = t0+d .. t0+T
    wb = _wbar_rows(wbar, wbar_t0, t0, count)
    prev, lagged = trace.theta_hat[d - 1 : T], trace.theta_hat[:count]
    eps_bar, e = trace.eps_bar[d:], trace.e[d:]
    wb_mag = np.abs(wb)
    prev_size, lagged_size = _size(mags, prev), _size(mags, lagged)
    star_size = _size(mags, theta_star)
    res1 = _relative(eps_bar - e - _weighted(phi, prev - lagged), np.abs(e), prev_size, lagged_size)
    res2 = _relative(e + _weighted(phi, prev - theta_star) - wb, prev_size, star_size, wb_mag)
    res3 = _relative(eps_bar + _weighted(phi, lagged - theta_star) - wb, lagged_size, star_size, wb_mag)
    span = f"t = {t0 + d} .. {t0 + T}"
    rep.add("identity_tracking_vs_prediction", IDENTITY_TOL - res1, span, tol=0.0)
    rep.add("identity_prediction_error", IDENTITY_TOL - res2, span, tol=0.0)
    rep.add("identity_tracking_error", IDENTITY_TOL - res3, span, tol=0.0)
    return rep


def check_trace_consistency(trace: Trace, cfg: ExperimentConfig, *,
                            table: Regressors | None = None) -> VerificationReport:
    """Cross-check every stored column against the recursions that made it.

    Used when auditing a reloaded trace file: each column is re-derived from
    the configuration plus the y/u columns (the README lists which check
    owns which column), so any edit to a stored value shows up as a residual.
    Residual margins are CHECK_TOL - max |res| / (1 + sum |terms|), the terms
    being the parts of the re-derived value, so they do not depend on units.
    A trace must span the config's horizon, whose coefficient rows it reads.
    """
    rep = VerificationReport()
    n, m, d = cfg.n, cfg.m, cfg.d
    T = cfg.steps
    if trace.rows != T + 1:
        raise ValueError(f"trace has {trace.rows} rows; the configuration's horizon has {T + 1}")
    h, l_coeffs = cfg.ref.H.coeffs, cfg.ref.L.coeffs
    table = Regressors(cfg, trace.y, trace.u) if table is None else table
    hist, phi, sq, phi_mags = table.hist, table.phi, table.sq, table.mags  # phi(t0-d+1 .. t0+T)
    r_cfg, w_cfg = signal_rows(cfg.r, cfg.t0, T + 1), signal_rows(cfg.w, cfg.t0, T + 1)
    # Lags of |x| are |lags of x|: each magnitude column is taken once, sizes read its views.
    r_ext = hist.at_rest(r_cfg)
    r_mags = np.abs(r_ext)

    # Plant recursion: y(t+1) from schedule, history, and w(t+1); phi(t) holds its
    # y(t) .. y(t-n+1) and u(t-d+1) .. u(t-d-m+1).
    cols = np.r_[:n, n + d - 1 : n + m + d]
    lags, mags = phi[d - 1 : -1, cols], phi_mags[d - 1 : -1, cols]
    coeffs = np.hstack((-cfg.plant_rows[0], cfg.plant_rows[1]))
    y_next = _weighted(lags, coeffs, w_cfg[1:])
    worst = _relative(y_next - trace.y[1:], _size(mags, coeffs), np.abs(w_cfg[1:]))
    rep.add("consistency_plant_recursion", CHECK_TOL - worst, tol=0.0)

    # Control-law closure: phi(t)^T theta_hat(t) = ybar*(t+d).
    now, now_mags = phi[d - 1 :], phi_mags[d - 1 :]
    closure = _weighted(now, trace.theta_hat) - _weighted(hist.lags(r_ext, len(h), 0, T + 1), h)
    r_size = _size(hist.lags(r_mags, len(h), 0, T + 1), h)
    worst = _relative(closure, _size(now_mags, trace.theta_hat), r_size)
    rep.add("consistency_control_closure", CHECK_TOL - worst, tol=0.0)

    # Error columns from y, y*, and the weighted sums.
    ybar_t = _weighted(hist.lags(hist.y, len(l_coeffs), 0, T + 1), l_coeffs)
    ybar_size = _size(hist.lags(np.abs(hist.y), len(l_coeffs), 0, T + 1), l_coeffs)
    ybar_star = _weighted(hist.lags(r_ext, len(h), -d, T + 1), h)
    ybar_star_size = _size(hist.lags(r_mags, len(h), -d, T + 1), h)
    worst = _relative(trace.eps - (trace.y - trace.y_star), np.abs(trace.y), np.abs(trace.y_star))
    rep.add("consistency_tracking_error", CHECK_TOL - worst, tol=0.0)
    worst = _relative(trace.eps_bar - (ybar_t - ybar_star), ybar_size, ybar_star_size)
    rep.add("consistency_weighted_error", CHECK_TOL - worst, tol=0.0)

    # Prediction-error column: e(t) = ybar(t) - phi(t-d)^T theta_hat(t-1); e(t0) = 0.
    lagged, prev = phi[:T], trace.theta_hat[:T]
    pred = ybar_t[1:] - _weighted(lagged, prev)
    pred_size = ybar_size[1:] + _size(phi_mags[:T], prev)
    worst = max(abs(float(trace.e[0])), _relative(trace.e[1:] - pred, pred_size))
    rep.add("consistency_prediction_error", CHECK_TOL - worst, tol=0.0)

    # Regressor norms and deadzone gates, both from the table's ||phi||^2.
    norm = np.sqrt(sq[d - 1 :])
    worst = _relative(trace.norm_phi - norm, norm)
    rep.add("consistency_regressor_norm", CHECK_TOL - worst, tol=0.0)
    lag_norm = np.sqrt(sq[:T])
    gate = lag_norm > 0.0
    if not math.isinf(cfg.delta):
        gate &= np.abs(trace.e[1:]) < (2.0 * box_norm(cfg.box) + cfg.delta) * lag_norm
    bad = np.count_nonzero(gate != trace.rho[:T]) + int(trace.rho[T] != 0)
    rep.add("consistency_deadzone_gate", -float(bad), f"{T} gates", tol=0.0)

    # Estimates stay inside the box.
    th, lo, hi = trace.theta_hat, np.asarray(cfg.box.lo), np.asarray(cfg.box.hi)
    overs = np.max(np.maximum(lo - th, th - hi), initial=0.0)
    rep.add("consistency_estimates_in_box", 1e-12 - float(overs), tol=0.0)

    # Time index, exogenous inputs, and the reference recursion
    # y*(t) = ybar*(t) - sum_{j>=1} l_j y*(t-j), at rest before t0.
    bad = np.count_nonzero(trace.t != cfg.t0 + np.arange(T + 1))
    rep.add("consistency_time_index", -float(bad), f"t = {cfg.t0} .. {cfg.t0 + cfg.steps}", tol=0.0)
    worst = max(_relative(trace.r - r_cfg, np.abs(r_cfg)), _relative(trace.w - w_cfg, np.abs(w_cfg)))
    rep.add("consistency_exogenous_signals", CHECK_TOL - worst, tol=0.0)
    past = hist.lags(hist.at_rest(trace.y_star), len(l_coeffs), 0, T + 1)[:, 1:]
    res = trace.y_star - (ybar_star - _weighted(past, l_coeffs[1:]))
    worst = _relative(res, ybar_star_size, _size(np.abs(past), l_coeffs[1:]))
    rep.add("consistency_reference_recursion", CHECK_TOL - worst, tol=0.0)
    return rep


def predictor_residuals(trace: Trace, cfg: ExperimentConfig) -> np.ndarray:
    """Residuals of the d-step predictor on recorded closed-loop data.

    For a constant plant, ybar(t) - phi(t-d)^T theta* - wbar(t-d) is zero in
    exact arithmetic for every t >= t0 + d, no matter how u was chosen; the
    returned array holds those residuals (closed-loop data included).
    ground_truth raises ValueError for a time-varying plant.
    """
    gt = ground_truth(cfg)
    d, t0, T = cfg.d, trace.t0, trace.rows - 1
    l_coeffs = cfg.ref.L.coeffs
    table = Regressors(cfg, trace.y, trace.u)
    ybar_t = _weighted(table.hist.lags(table.hist.y, len(l_coeffs), d, T + 1 - d), l_coeffs)
    wb = _wbar_rows(gt.wbar, gt.wbar_t0, t0, T + 1 - d)
    return ybar_t - _weighted(table.phi[d - 1 : T], gt.theta_star) - wb


def fit_decay_bound(trace: Trace, lam: float, floor: float | None = None) -> float:
    """Smallest c such that, for every recorded t,

        ||phi(t)|| <= c [ lam^(t-t0) ||x0|| + sum_{j=t0..t} lam^(t-j) (|r(j)| + |w(j)|) ].

    The envelope is computed recursively in one pass (itertools.accumulate, the
    same float operations in the same order as a loop); lam must lie strictly
    between the spectral floor of the configuration (when supplied) and 1.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"decay rate must lie in (0, 1), got {lam}")
    if floor is not None and lam <= floor:
        raise ValueError(
            f"decay rate {lam} does not exceed the spectral floor {floor:.6f}"
        )
    drive = (np.abs(trace.r) + np.abs(trace.w)).tolist()
    start = float(np.linalg.norm(np.array(trace.cfg.x0))) + drive[0]
    env = np.fromiter(accumulate(drive[1:], lambda e, dk: lam * e + dk, initial=start),
                      float, len(drive))
    norm_phi = trace.norm_phi
    live = env > 0.0
    bad = np.flatnonzero(~live & (norm_phi > 0.0))
    if len(bad):
        raise ValueError(
            f"degenerate fit at t = {trace.t0 + int(bad[0])}: zero envelope, nonzero signal"
        )
    # max(0.0, .) turns a -0.0 maximum into +0.0, as a running max from 0.0 gives
    return max(0.0, float(np.max(norm_phi[live] / env[live], initial=0.0)))


def tracking_energy(trace: Trace) -> tuple[float, np.ndarray]:
    """Total and cumulative tracking-error energy sum eps(t)^2 from t0 + d on.

    partial[k] covers t = t0 + d .. t0 + d + k.
    """
    partial = np.cumsum(trace.eps[trace.cfg.d :] ** 2)
    total = float(partial[-1]) if len(partial) else 0.0
    return total, partial


def config_spectral_floor(cfg: ExperimentConfig) -> float:
    """Spectral floor of one run: root moduli of L and of B(t) on the horizon."""
    return max(max_root_modulus(cfg.ref.L), float(np.max(max_root_moduli(cfg.plant_rows[1]))))


def audit(trace: Trace, decay: float | None = None) -> VerificationReport:
    """A run's audit, as run --verify, verify and reproduce make it: every column against its
    recursion, then a constant plant against its ground truth (check_prop1 in full and
    check_identities), any other plant by check_prop1's move bound; then the envelope fit.

    The decay rate is decay, which must lie in (floor, 1), else 0.9, or halfway
    from the spectral floor to 1 when the floor is 0.9 or more."""
    cfg = trace.cfg
    floor = config_spectral_floor(cfg)
    if decay is None:
        decay = 0.9 if floor < 0.9 else 0.5 * (1.0 + floor)
    elif not floor < decay < 1.0:
        msg = f"decay rate must lie in ({floor:.6f}, 1) for this configuration, got {decay}"
        raise ConfigError("lambda", msg)
    table = trace.regressors()  # the one regressor table every check reads
    rep = check_trace_consistency(trace, cfg, table=table)
    if cfg.schedule.is_constant():
        gt = ground_truth(cfg)
        rep.checks += check_prop1(trace, gt.theta_star, gt.wbar, gt.wbar_t0, table=table).checks
        rep.checks += check_identities(trace, gt.theta_star, gt.wbar, gt.wbar_t0, table=table).checks
    else:
        rep.checks += check_prop1(trace, table=table).checks
    gain = fit_decay_bound(trace, decay, floor)
    rep.fitted = {"lambda": decay, "spectral_floor": floor, "envelope_gain_c": gain}
    return rep


# ---------------------------------------------------------------------------
# Trace files


CSV_FMT = "%.17g"  # every cell; prints an integer up to 2^53 as %d does


def _cells(name: str, p: int) -> list[str]:
    """The header cells of one TRACE_COLUMNS entry: theta_hat spreads over its p coordinates."""
    return [f"{name}_{i}" for i in range(p)] if name == "theta_hat" else [name]


def _csv_header(p: int) -> list[str]:
    return [cell for name in TRACE_COLUMNS for cell in _cells(name, p)]


CSV_BLOCK = 512  # rows formatted per pass of write_trace_csv


def write_trace_csv(trace: Trace, path) -> None:
    """Exact decimal dump, one row per time step, reloadable bit-for-bit.

    The bytes np.savetxt(fmt=CSV_FMT, delimiter=",") writes, header first. Each
    block of CSV_BLOCK rows is one % over the row template repeated per row,
    applied to the block's cells as Python floats; a block at a time keeps the
    boxed cells few.
    """
    table = np.column_stack([getattr(trace, name) for name in TRACE_COLUMNS])
    row = ",".join([CSV_FMT] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(_csv_header(trace.theta_hat.shape[1])) + "\n")
        for start in range(0, len(table), CSV_BLOCK):
            block = table[start : start + CSV_BLOCK]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def trace_from_csv(path, cfg: ExperimentConfig) -> Trace:
    """Reload a stored trace written by write_trace_csv.

    Regressors are not in the file; Trace.regressors() derives their table
    from the y/u columns plus cfg.x0. A wrong header, a row count other than
    cfg.steps + 1, a row of the wrong length or a non-finite cell raises ConfigError.
    """
    header = _csv_header(cfg.dim_theta)
    with open(path, errors="replace") as fh:  # stray bytes fail as bad cells, not decode errors
        if fh.readline().rstrip("\n").split(",") != header:
            raise ConfigError("trace", "unexpected trace header for this configuration")
        try:
            with warnings.catch_warnings():  # no rows is reported below, not warned about
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:  # unparsable cells and ragged rows
            raise ConfigError("trace", f"malformed trace file: {exc}") from None
    if data.shape != (cfg.steps + 1, len(header)) or not np.all(np.isfinite(data)):
        raise ConfigError("trace", f"expected {cfg.steps + 1} rows of {len(header)} finite numbers")
    stops = np.cumsum([len(_cells(name, cfg.dim_theta)) for name in TRACE_COLUMNS[:-1]])
    parts = zip(TRACE_COLUMNS, np.split(data, stops, axis=1))  # float64 as written, no casts
    return Trace(**{n: c if n == "theta_hat" else c[:, 0] for n, c in parts}, cfg=cfg)


PLOT_SCRIPT = """\
# Render with: gnuplot plot.gp
set datafile separator ','
set key autotitle columnhead
set terminal pngcairo size 1000,760 font ',11'

set output 'tracking.png'
set multiplot layout 2,1 title 'Closed-loop tracking'
set ylabel 'output'
plot 'trace.csv' using {t}:{y} with lines lw 1.5 title 'y', \\
     'trace.csv' using {t}:{y_star} with lines dashtype 2 lw 1.5 title 'y*'
set ylabel 'input'
plot 'trace.csv' using {t}:{u} with lines lw 1.2 title 'u'
unset multiplot

set output 'estimates.png'
set multiplot layout 2,1 title 'Estimator behaviour'
set ylabel 'theta_hat'
plot {theta_plots}
set ylabel 'tracking error'
plot 'trace.csv' using {t}:{eps} with lines lw 1.2 title 'eps'
unset multiplot
"""


def write_plot_script(trace: Trace, path) -> None:
    p = trace.theta_hat.shape[1]
    col = {cell: i + 1 for i, cell in enumerate(_csv_header(p))}  # gnuplot counts from 1
    thetas = ", \\\n     ".join(
        f"'trace.csv' using {col['t']}:{col[cell]} with lines title '{cell}'"
        for cell in _cells("theta_hat", p)
    )
    Path(path).write_text(PLOT_SCRIPT.format(theta_plots=thetas, **col))


def _regime_rms(trace: Trace) -> dict:
    """RMS tracking error over thirds of the run (before/during/after windows)."""
    t, eps = trace.t, trace.eps

    def rms(mask) -> float:
        vals = eps[mask]
        return float(np.sqrt(np.mean(vals**2))) if len(vals) else 0.0

    t0, t_end = trace.t0, trace.t_end
    b0, b1 = t0 + (t_end - t0) // 5, t0 + (t_end - t0) // 2
    return {
        f"rms_eps[{t0},{b0}]": rms((t >= t0) & (t <= b0)),
        f"rms_eps({b0},{b1}]": rms((t > b0) & (t <= b1)),
        f"rms_eps[{b1 + (t_end - b1) // 5},{t_end}]": rms(
            (t >= b1 + (t_end - b1) // 5) & (t <= t_end)
        ),
    }


def build_summary(trace: Trace, report: VerificationReport | None = None) -> dict:
    cfg = trace.cfg
    total, _ = tracking_energy(trace)
    lo, hi = np.asarray(cfg.box.lo), np.asarray(cfg.box.hi)
    in_box = bool(
        np.all(trace.theta_hat >= lo - 1e-12) and np.all(trace.theta_hat <= hi + 1e-12)
    )
    doc = cfg.to_config_dict()
    summary = {
        "config": doc,
        "config_hash": _document_hash(doc),
        "rows": trace.rows,
        "t_range": [trace.t0, trace.t_end],
        "tracking": {
            "energy_total": total,
            **_regime_rms(trace),
        },
        "estimates": {
            "final": [float(v) for v in trace.theta_hat[-1]],
            "min": [float(v) for v in trace.theta_hat.min(axis=0)],
            "max": [float(v) for v in trace.theta_hat.max(axis=0)],
            "within_box": in_box,
            "updates_gated_on": int(np.sum(trace.rho)),
        },
        "conventions": dict(CONVENTIONS),
    }
    if cfg.label:
        summary["label"] = cfg.label
    if report is not None:
        summary["checks"] = report.to_dict()
    return summary


def write_outputs(trace: Trace, out_dir, report: VerificationReport | None = None) -> dict:
    """Write trace.csv, summary.json, and plot.gp into out_dir; return the paths."""
    return _write_artifacts(trace, out_dir, build_summary(trace, report))


def _write_artifacts(trace: Trace, out_dir, summary: dict) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"trace": out / "trace.csv", "summary": out / "summary.json", "plot": out / "plot.gp"}
    write_trace_csv(trace, paths["trace"])
    paths["summary"].write_text(json.dumps(summary, indent=2, allow_nan=False) + "\n")
    write_plot_script(trace, paths["plot"])
    return paths


# ---------------------------------------------------------------------------
# Packaged showcase experiment


def demo_config(steps: int = 1000) -> ExperimentConfig:
    """The packaged showcase run: slowly drifting second-order plant,
    two-periods-back reference weighting, mid-run disturbance burst.

    All four plant coefficients drift sinusoidally; the admissible box is
    the exact predictor-space image of their envelope box. The estimator
    runs without a deadzone; the disturbance 0.1 cos(10 t) is active only on
    200 < t <= 500, so the trace shows clean tracking, degradation, and
    recovery in sequence.
    """
    schedule = CoefficientSchedule(
        a=(
            CoefSpec.sinusoid(2.0, 1.0 / 100.0),
            CoefSpec.sinusoid(-2.0, 1.0 / 300.0, trig="sin"),
        ),
        b=(
            CoefSpec.sinusoid(-7.0 / 4.0, 1.0 / 125.0, offset=13.0 / 4.0),
            CoefSpec.sinusoid(-1.0, 1.0 / 50.0),
        ),
        d=1,
    )
    ref = ReferenceModel(L=PolyZ((1.0, 0.0, -0.5)), H=PolyZ((0.5,)), d=1)
    box = ParamBox(lo=(-2.0, -2.5, 1.5, -1.0), hi=(2.0, 1.5, 5.0, 1.0))
    return ExperimentConfig(
        schedule=schedule,
        ref=ref,
        box=box,
        delta=math.inf,
        t0=0,
        steps=steps,
        x0=(-1.0, -1.0, 0.0),
        theta0=tuple(box.midpoint()),
        r=square_wave(period=200, amplitude=1.0),
        w=windowed_sinusoid(200, 500, amplitude=0.1, rate=10.0),
        seed=0,
        label="showcase",
    )


def reproduce_example(out_dir=None) -> tuple[Trace, dict]:
    """Run the packaged showcase experiment, audit it and build its summary.

    When out_dir is given, also writes trace.csv, summary.json, and plot.gp
    there. Returns (trace, summary). The run is fully deterministic: two
    invocations produce byte-identical artifacts.
    """
    trace = run_closed_loop(demo_config())
    summary = build_summary(trace, audit(trace))
    if out_dir is not None:
        _write_artifacts(trace, out_dir, summary)
    return trace, summary
