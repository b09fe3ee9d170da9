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
those rows rather than evaluating the schedule again. A trace keeps the loop's
regressor table, which Trace.regressors hands to every check while cfg and y/u are
its own (else it builds one): the checks read it on whole columns at once. Consistency
checks re-derive columns from their recursions and config signals in the loop's
operation order and compare with ==: an edit that changes a re-derived value
shows as a differing row.
Loop and audits add every sum term by term in one order, dot products left
to right from +0.0 with no BLAS dot, so every re-derived column matches the
loop's bit for bit. _weighted carries that order for the audits: the
consistency checks must follow it; every other audit row sum keeps it too
(the squared parameter error, the identities' sizes and ||x0|| in
fit_decay_bound), as does system.box_norm, which sets the gate's threshold.
Slicing History's lag views, the regressor table or wbar therefore leaves
every margin bit for bit as it was.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import warnings
from array import array
from dataclasses import InitVar, dataclass, field, fields
from functools import cached_property, lru_cache, reduce
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
    ybar_terms,
)
from .estimator import EstimatorState, estimator_update
from .plant_sim import (
    REQUIRED,
    UNSET,
    CoefficientSchedule,
    CoefSpec,
    SignalSpec,
    plant_terms,
    signal_rows,
    square_wave,
    wbar_sequence,
    windowed_sinusoid,
    zero_signal,
)
from .poly import PolyZ, _compiled, integer, max_root_modulus, max_root_moduli, number, numbers, text
from .system import AdmissibilityError, ParamBox, ReferenceModel, box_norm, build_param_box, predictor_map

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
    "write_trace_csv",
    "trace_from_csv",
    "write_outputs",
]

OVERFLOW_LIMIT = 1e100
MAX_TIME = 2**53  # |t| bound on a run's times: the trace's float t column holds each exactly
TOL = 1e-9  # a row passes when TOL + slack / (1 + sum |terms|) >= 0


class ConfigError(ValueError):
    """Invalid experiment configuration; carries the offending field path."""

    def __init__(self, fieldpath: str, message: str):
        super().__init__(f"{fieldpath}: {message}")
        self.fieldpath = fieldpath


class NumericAbort(RuntimeError):
    """The simulation produced a non-finite or astronomically large value."""


# ---------------------------------------------------------------------------
# Configuration

def _deadzone(v) -> float:
    """A deadzone width: a number, or the string "inf" for no deadzone."""
    if isinstance(v, str):
        if v == "inf":
            return math.inf
        raise TypeError(f"expected a number or 'inf', got {v!r}")
    try:
        return number(v)
    except (TypeError, OverflowError):
        raise TypeError("expected a number or 'inf'") from None


def _estimate(v):
    """An initial estimate: an array of numbers, or "midpoint", read as the box's once it is known."""
    return v if isinstance(v, str) and v == "midpoint" else numbers(v)


# ExperimentConfig's fields as a document's, in its order: (name, reader, field path, default).
# An UNSET field takes its default, called with the config if callable, or is missing if REQUIRED.
SCALAR_FIELDS = (("delta", _deadzone, "estimator.delta", "inf"), ("t0", integer, "sim.t0", 0),
                 ("steps", integer, "sim.steps", REQUIRED),
                 ("x0", numbers, "sim.x0", lambda cfg: (0.0,) * x0_length(cfg.n, cfg.m, cfg.d)),
                 ("theta0", _estimate, "sim.theta0", "midpoint"), ("label", text, "label", ""))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one closed-loop run depends on, in plain hashable data.

    Built in Python or by config_from_dict, it takes the document's defaults:
    each SCALAR_FIELDS field left UNSET takes the table's, r and w are zero, and
    s_ab, like theta0 "midpoint", is a recipe: it builds the box once, and only the box is kept.
    """

    schedule: CoefficientSchedule
    ref: ReferenceModel
    box: ParamBox | None = None
    delta: float = UNSET
    t0: int = UNSET
    steps: int = UNSET
    x0: tuple[float, ...] = UNSET
    theta0: tuple[float, ...] = UNSET
    r: SignalSpec = zero_signal()
    w: SignalSpec = zero_signal()
    s_ab: InitVar[ParamBox | None] = None
    s_ab_samples: InitVar[int] = UNSET
    s_ab_margin: InitVar[float] = UNSET
    label: str = UNSET
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

    def __post_init__(self, s_ab, s_ab_samples, s_ab_margin) -> None:
        """Build the box from s_ab with the samples and margin given (build_param_box
        holds their defaults), give each SCALAR_FIELDS field its value as a document's,
        and check the whole configuration.

        Raises ConfigError with the offending field path, so a constructed
        config always meets the assumptions run_closed_loop relies on.
        """
        recipe = (("samples", integer, s_ab_samples), ("margin", number, s_ab_margin))
        given = {key: _at(f"estimator.{key}", read, v) for key, read, v in recipe if v is not UNSET}
        if not math.isfinite(given.get("margin", 0.0)):  # before build_param_box reads it
            raise ConfigError("estimator.margin", "must be finite")
        if given.get("samples", 0) < 0:
            raise ConfigError("estimator.samples", f"must not be negative, got {given['samples']}")
        typed = (("plant", self.schedule, CoefficientSchedule), ("reference", self.ref, ReferenceModel),
                 ("signals.r", self.r, SignalSpec), ("signals.w", self.w, SignalSpec),
                 ("estimator.box", self.box, ParamBox), ("estimator.s_ab_box", s_ab, ParamBox))
        for fieldpath, value, kind in typed:  # a box may be left out
            if not isinstance(value, kind) and not (kind is ParamBox and value is None):
                raise ConfigError(fieldpath, f"expected a {kind.__name__}, got {type(value).__name__}")
        n, m, d = self.n, self.m, self.d
        if self.ref.d != d:  # before the box recipe, which reads the reference
            raise ConfigError("reference", f"reference delay {self.ref.d} != plant delay {d}")
        if self.ref.order > n:
            raise ConfigError("reference.L", f"order {self.ref.order} exceeds plant order {n}")
        if s_ab is not None:
            if self.box is not None:
                raise ConfigError("estimator", "takes a 'box' or an 's_ab_box', not both")
            try:  # the image's long division has d terms
                box = _at("estimator.s_ab_box", build_param_box, s_ab, self.ref, n_a=n, **given)
            except MemoryError:
                raise ConfigError("plant.d", f"{d} is too long a delay to allocate") from None
            object.__setattr__(self, "box", box)
        elif given:
            raise ConfigError(f"estimator.{next(iter(given))}", "only read with an s_ab_box")
        elif self.box is None:
            raise ConfigError("estimator", "needs a 'box' or an 's_ab_box'")
        if self.box.dim != self.dim_theta:  # before x0's default, whose length grows with d
            raise ConfigError("estimator.box", f"box dimension {self.box.dim} != n+m+d = {self.dim_theta}")
        for name, read, fieldpath, default in SCALAR_FIELDS:
            value = getattr(self, name)
            if value is UNSET:
                if default is REQUIRED:
                    raise ConfigError(fieldpath, "missing field")
                value = default(self) if callable(default) else default
            object.__setattr__(self, name, _at(fieldpath, read, value))
        if isinstance(self.theta0, str):  # "midpoint"
            object.__setattr__(self, "theta0", tuple(self.box.midpoint().tolist()))
        lo, hi = self.box.lo[n], self.box.hi[n]
        if lo <= 0.0 <= hi:  # the one refusal of the sign, for a given box or s_ab's hull
            raise ConfigError(f"estimator.{'box' if s_ab is None else 's_ab_box'}",
                              f"beta0 interval [{lo}, {hi}] contains 0; the control law divides by beta0")
        if not self.delta > 0.0:
            raise ConfigError("estimator.delta", "deadzone width must be positive (or inf)")
        if len(self.x0) != x0_length(n, m, d):
            raise ConfigError(
                "sim.x0",
                f"needs {x0_length(n, m, d)} entries for (n={n}, m={m}, d={d}), got {len(self.x0)}",
            )
        if not all(math.isfinite(v) for v in self.x0):
            raise ConfigError("sim.x0", "entries must be finite")
        if len(self.theta0) != self.dim_theta:
            raise ConfigError("sim.theta0", f"needs {self.dim_theta} entries, got {len(self.theta0)}")
        if not self.box.contains(np.array(self.theta0)):
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
        t_end = self.t0 + self.steps  # r and w are sampled on t0 .. t_end, coefficients to t_end - 1
        sampled = [(f"signals.{key}", getattr(self, key), self.t0, t_end) for key in "rw"]
        sampled += [(f"plant.schedule.{key}[{i}]", spec, self.t0, t_end - 1)
                    for key in "ab" for i, spec in enumerate(getattr(self.schedule, key))]
        for fieldpath, spec, first, last in sampled:
            _at(fieldpath, spec.check_angle, first, last)
        try:
            rows = self.schedule.validate_horizon(self.t0, self.steps)
        except AdmissibilityError as exc:
            fieldpath = "plant" if self.schedule.is_constant() else "plant.schedule"
            raise ConfigError(fieldpath, str(exc)) from exc
        except MemoryError:
            raise _too_long(self.steps) from None
        object.__setattr__(self, "plant_rows", rows)

    @cached_property
    def inputs(self) -> tuple[np.ndarray, np.ndarray]:
        """r and w on t0 .. t0 + steps, read-only like plant_rows: the one copy that the loop and
        every audit read, sampled on first use (so a horizon no memory holds fails at the loop's
        allocation); no field, so ==, hash, repr and the document skip it."""
        columns = tuple(signal_rows(spec, self.t0, self.steps + 1) for spec in (self.r, self.w))
        for column in columns:
            column.flags.writeable = False
        return columns

    # -- serialization ------------------------------------------------------

    def to_config_dict(self) -> dict:
        """Plain-JSON document form (the shape the CLI accepts): each SCALAR_FIELDS
        field at its path, a tuple as a list, an infinity as "inf", an empty label left out;
        a constant plant as its row, any other as its schedule."""
        a, b = self.plant_rows
        plant = ({"a": a[0].tolist(), "b": b[0].tolist()} if self.schedule.is_constant() else
                 {"schedule": {key: [c.to_doc() for c in getattr(self.schedule, key)] for key in "ab"}})
        doc = {"plant": {**plant, "d": self.d},
               "reference": {"L": list(self.ref.L.coeffs), "H": list(self.ref.H.coeffs)},
               "estimator": {}, "sim": {}, "signals": {"r": self.r.to_doc(), "w": self.w.to_doc()}}
        for name, _, path, _ in SCALAR_FIELDS:
            section, _, key = path.rpartition(".")
            value = getattr(self, name)
            if value != "":  # an empty label is left out
                value = list(value) if isinstance(value, tuple) else value
                (doc[section] if section else doc)[key] = "inf" if value == math.inf else value
        doc["estimator"]["box"] = {"lo": list(self.box.lo), "hi": list(self.box.hi)}
        return doc

    def config_hash(self) -> str:
        return _document_hash(self.to_config_dict())


def _document_hash(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, allow_nan=False)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _too_long(steps: int) -> ConfigError:
    return ConfigError("sim.steps", f"{steps} steps cannot be allocated")


# -- parsing ----------------------------------------------------------------


def _at(fieldpath: str, read, *args, **kwargs):
    """read(*args, **kwargs), whose TypeError, ValueError or OverflowError becomes a ConfigError
    under fieldpath: the one way a reader's or a constructor's refusal names its field."""
    try:
        return read(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(fieldpath, str(exc)) from None


def _specs(cls, doc, fieldpath: str) -> tuple:
    if not isinstance(doc, list):
        raise ConfigError(fieldpath, "expected an array")
    return tuple(_at(f"{fieldpath}[{i}]", cls.from_doc, c) for i, c in enumerate(doc))


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


def _pair(doc, keys: tuple[str, str], fieldpath: str) -> tuple:
    """The two arrays of numbers doc[keys[0]], doc[keys[1]]; doc must be an object with just these."""
    if not isinstance(doc, dict):
        raise ConfigError(fieldpath, f"expected an object with {keys[0]!r} and {keys[1]!r}")
    _known(doc, keys, fieldpath)
    for key in keys:
        if key not in doc:
            raise ConfigError(fieldpath, f"missing field {key!r}")
    return tuple(_at(f"{fieldpath}.{key}", numbers, doc[key]) for key in keys)


def _box(doc, fieldpath: str) -> ParamBox:
    return _at(fieldpath, ParamBox, *_pair(doc, ("lo", "hi"), fieldpath))


def _keys(section: str) -> tuple[str, ...]:
    """The SCALAR_FIELDS keys of a document section."""
    return tuple(path.rpartition(".")[2] for _, _, path, _ in SCALAR_FIELDS
                 if path.rpartition(".")[0] == section)


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from its JSON-document form.

    Maps the document's structure to ExperimentConfig's keyword arguments;
    a field left out stays UNSET and takes its SCALAR_FIELDS default there.
    Raises ConfigError (with a dotted field path) on any structural or
    semantic problem. config_from_dict(cfg.to_config_dict()) == cfg for any
    valid configuration.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config", "top level must be an object")
    _known(doc, ("plant", "reference", "estimator", "sim", "signals", *_keys("")), "")
    plant = _section(doc, "plant", "plant", ("a", "b", "d", "schedule"))
    ref_doc = _section(doc, "reference", "reference", ("L", "H"))
    est = _section(doc, "estimator", "estimator",
                   (*_keys("estimator"), "box", "s_ab_box", "samples", "margin"))
    sim = _section(doc, "sim", "sim", _keys("sim"))
    signals = _section(doc, "signals", "signals", ("r", "w"), default={})
    if "d" not in plant:
        raise ConfigError("plant.d", "missing field")
    d = _at("plant.d", integer, plant["d"])

    # A constant plant is a schedule of constant specs: ExperimentConfig tests its row once.
    fieldpath = "plant.schedule" if "schedule" in plant else "plant"
    if "schedule" in plant:
        _known(plant, ("d", "schedule"), "plant")  # a schedule holds its rows
        sched = _section(plant, "schedule", fieldpath, ("a", "b"))
        specs = [_specs(CoefSpec, sched.get(key, []), f"{fieldpath}.{key}") for key in "ab"]
    elif "b" not in plant:
        raise ConfigError("plant.b", "missing section")
    else:
        ab = [_at(f"plant.{key}", numbers, plant.get(key, ())) for key in "ab"]
        # a non-finite number fails CoefSpec here
        specs = [tuple(_at("plant", CoefSpec.const, v) for v in row) for row in ab]
    schedule = _at(fieldpath, CoefficientSchedule, *specs, d=d)

    L, H = _pair(ref_doc, ("L", "H"), "reference")
    ref = _at("reference", lambda: ReferenceModel(L=PolyZ(L), H=PolyZ(H), d=d))

    kwargs = {name: _box(est[key], f"estimator.{key}")
              for name, key in (("s_ab", "s_ab_box"), ("box", "box")) if key in est}
    kwargs.update({f"s_ab_{key}": est[key] for key in ("samples", "margin") if key in est})
    kwargs.update({key: _at(f"signals.{key}", SignalSpec.from_doc, signals[key])
                   for key in ("r", "w") if key in signals})
    sections = {"": doc, "estimator": est, "sim": sim}
    for name, _, path, _ in SCALAR_FIELDS:  # each is read by ExperimentConfig
        section, _, key = path.rpartition(".")
        if key in sections[section]:
            kwargs[name] = sections[section][key]
    return ExperimentConfig(schedule=schedule, ref=ref, **kwargs)


CONVENTIONS = {
    "r_prestart": "r(t) = 0 for t < t0",
    "w_alignment": "w(t) enters the output emitted at index t",
    "coefficient_sampling": "time-varying coefficients are sampled at emission time",
    "history_padding": "output/input history older than x0 is zero",
    "e_column": "e(t) was computed while emitting y(t); e(t0) = 0",
    "rho_column": "rho(t) gates the update from t to t+1; final row is 0",
    "identity_range": "algebraic identity checks start at t = t0 + d",
}


# ---------------------------------------------------------------------------
# Trace


@dataclass(eq=False)
class Trace:
    """Row-per-time-step record of one closed-loop run (t = t0 .. t0+steps).

    cfg is the run's configuration (for a reloaded file, the one it is audited against).
    regressors() returns _table, the loop's, while cfg is its object and y/u are bitwise its
    own, else builds one and keeps it there; _table is no column (file and repr skip it).
    Every array is float64, t and rho too; TRACE_COLUMNS orders them as the file does.
    == is identity; compare columns with np.array_equal.
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
    _table: Regressors | None = field(default=None, repr=False)

    @property
    def rows(self) -> int:
        return len(self.t)

    def regressors(self) -> Regressors:
        if self._table is None or not self._table.matches(self):
            self._table = Regressors(self.cfg, self.y, self.u)
        return self._table


class Regressors:
    """The regressor table of a run of cfg with these y/u columns, from one history and one
    phi build: phi's row k is phi(t0-d+1+k), k = 0 .. T+d-1, and sq its ||phi||^2 in the
    loop's order, taken on first use. Both are row-wise, so a slice has the
    bits of a build of its rows alone."""

    def __init__(self, cfg: ExperimentConfig, y: np.ndarray, u: np.ndarray):
        self.cfg = cfg
        self.hist = history(cfg.x0, y, u, cfg.n, cfg.m, cfg.d)
        self.phi = self.hist.phi(1 - cfg.d, len(y) + cfg.d - 1)

    def matches(self, trace: Trace) -> bool:
        """Whether this is trace's table: its cfg object, and its y/u bit for bit."""
        y, u = self.hist.y[self.hist.lead :], self.hist.u[self.hist.lead :]
        return trace.cfg is self.cfg and (y.tobytes(), u.tobytes()) == (trace.y.tobytes(), trace.u.tobytes())

    @cached_property
    def sq(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # |phi| past 1e154 squares to inf, which the loop refuses
            return _weighted(self.phi, self.phi)


# The one trace layout, read by the header, writer, reader, plot.gp and the loop's finite check.
TRACE_COLUMNS = tuple(f.name for f in fields(Trace) if f.name not in ("cfg", "_table"))


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
    columns (the config's inputs r and w, and the reference outputs) are read
    once, before the loop; the coefficient rows are the ones the config
    validated. theta_hat and rho are written to their arrays once, after the loop.

    The steps run in _loop_kernel, compiled once per shape: y(t+1) and ybar(t+1) are the
    straight lines plant_step and ybar compile (plant_terms, ybar_terms; ybar itself runs
    for the t0 row alone). control_input and estimator_update are this module's names, read
    when the run starts, so a wrapper on a name sees every call. The last time t0 + T only
    records theta_hat and solves for u; it emits nothing and runs no update.
    """
    n, m, d = cfg.n, cfg.m, cfg.d
    p, T, L = cfg.dim_theta, cfg.steps, cfg.ref.L.coeffs
    try:
        theta_hat, rho = np.zeros((T + 1, p)), np.zeros(T + 1)
    except (MemoryError, ValueError):  # a horizon no memory holds, or past numpy's address space
        raise _too_long(T) from None
    r, w = cfg.inputs
    y_star, ybar_star, target = reference_outputs(cfg.ref, r)
    # One (a, b) per emission time; a constant plant has one row.
    a_rows, b_rows = (rows.tolist() * (T if len(rows) == 1 else 1) for rows in cfg.plant_rows)
    est = EstimatorState(theta_hat=cfg.theta0, box=cfg.box, delta=cfg.delta)

    start = loop_start(cfg.x0, n, m, d)
    y, u = start.y.tolist(), start.u.tolist()  # y ends with y(t), u with u(t-1)
    target = target.tolist()
    ybars, e, thetas, gates = [ybar(y, cfg.ref.L)], [0.0], array("d"), []  # thetas: T+1 rows of p
    diverged = _loop_kernel(n, m, d, len(L))(zip(a_rows, b_rows, target, w[1:].tolist()), L, y, u,
                                             est, thetas, ybars, e, gates, control_input, estimator_update)
    if diverged:
        raise NumericAbort(f"output diverged at t = {cfg.t0 + diverged[0] + 1} (y = {diverged[1]!r}); "
                           "check the admissible box and plant schedule")
    thetas.fromlist(est.theta_hat)  # the final time: u(t0 + T) and theta_hat(t0 + T), no emission
    u.append(control_input(est.theta_hat, target[T], y, u, n))
    theta_hat[:] = np.frombuffer(thetas).reshape(T + 1, p)
    rho[:T] = gates

    y, u = np.array(y[start.lead :]), np.array(u[start.lead :])
    table = Regressors(cfg, y, u)
    trace = Trace(
        t=np.arange(cfg.t0, cfg.t0 + T + 1, dtype=float),
        y=y,
        y_star=y_star,
        u=u,
        eps=y - y_star,
        eps_bar=np.array(ybars) - ybar_star,
        e=np.array(e),
        rho=rho,
        norm_phi=np.sqrt(table.sq[d - 1 :]),
        theta_hat=theta_hat,
        r=r.copy(),
        w=w.copy(),
        cfg=cfg,
        _table=table,
    )
    for name in TRACE_COLUMNS:
        if not np.all(np.isfinite(getattr(trace, name))):
            raise NumericAbort(f"non-finite values in column {name}")
    return trace


@lru_cache(maxsize=None)
def _loop_kernel(n: int, m: int, d: int, k: int):
    """run_closed_loop's steps; at the first y(t+1) outside +-OVERFLOW_LIMIT, or NaN, returns (k, y(t+1))."""
    ab, y_next = plant_terms(n, m, d)
    l, yb = ybar_terms(k)
    phi = [f"y[{-d - i}]" for i in range(n)] + [f"u[{-d - i}]" for i in range(m + d)]  # phi(t-d+1)
    src = f"""def loop_kernel(steps, L, y, u, est, thetas, ybars, e, gates, control_input, estimator_update):
    {l} = L
    theta = est.theta_hat
    for k, ({ab}, target, w) in enumerate(steps):
        thetas.fromlist(theta)
        u.append(control_input(theta, target, y, u, {n}))
        phi_lag = [{', '.join(phi)}]
        y_next = {y_next}
        if not -LIMIT <= y_next <= LIMIT:
            return k, y_next
        y.append(y_next)
        yb = {yb}
        ybars.append(yb)
        rec = estimator_update(est, phi_lag, yb)
        e.append(rec.e_next)
        gates.append(rec.rho)
"""
    return _compiled(src, "loop_kernel", LIMIT=OVERFLOW_LIMIT)


# ---------------------------------------------------------------------------
# Ground truth for verification


@dataclass
class GroundTruth:
    """theta* and filtered noise wbar of a constant-plant run, both from its one plant row."""

    theta_star: np.ndarray  # (p,)
    wbar: np.ndarray  # wbar(t) for t = wbar_t0 .. t0 + T - d, the rows the checks read
    wbar_t0: int  # the run's t0


def ground_truth(cfg: ExperimentConfig) -> GroundTruth:
    """GroundTruth of cfg.plant_rows' one row, checked by the config; one long division gives
    both F (for wbar) and theta* = (alpha, beta). wbar covers t = t0 .. t0 + T - d, the rows
    that check_prop1, check_identities and predictor_residuals read, from cfg.inputs' w column
    on t0 .. t0 + T, the config's one sampling. ValueError for a time-varying plant."""
    if not cfg.schedule.is_constant():
        raise ValueError("ground truth needs a constant plant")
    F, theta_star = predictor_map(*(rows[0] for rows in cfg.plant_rows), cfg.ref)
    return GroundTruth(
        theta_star=np.array(theta_star),
        wbar=wbar_sequence(F, cfg.inputs[1], cfg.t0, cfg.steps - cfg.d),
        wbar_t0=cfg.t0,
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

    def add(self, name: str, margin: float, detail: str = "") -> None:
        self.checks.append(CheckResult(name, bool(margin >= 0.0), float(margin), detail))

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


def _weighted(lags: np.ndarray, coeffs, acc=0.0):
    """acc + sum_j coeffs[..., j] * lags[:, j], column by column.

    This is the loop's order, term by term from acc: with acc = 0.0 a row
    dot gets the loop's bits, so e, norm_phi and the gate's ||phi|| come
    out as the loop made them, and every margin built on them keeps its
    bits. coeffs is 1-D, (1, p) or one row per lag row; it is broadcast
    against lags in one multiplication, and column j of the products is
    added in turn.
    """
    terms = np.asarray(coeffs, dtype=float) * lags
    for j in range(lags.shape[1]):
        acc = acc + terms[:, j]
    return acc


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


def _horizon(trace: Trace) -> tuple[int, int]:
    """The run's t0 and steps T, from trace.cfg: the one source of every audit's horizon.
    The recorded t column is consistency_time_index's alone. ValueError unless the trace
    holds the config's T + 1 rows."""
    cfg = trace.cfg
    if trace.rows != cfg.steps + 1:
        raise ValueError(f"trace has {trace.rows} rows; the configuration's horizon has {cfg.steps + 1}")
    return cfg.t0, cfg.steps


def _margin(slack, *mags) -> float:
    """A check's margin: the smallest TOL + slack / (1 + sum mags) over its rows, TOL with none.

    slack is how far each row is from failing (negative when it fails), the mags are the
    magnitudes of its terms, added left to right (builtin sum() compensates from Python 3.12
    on), so the verdict is the same in any unit of the signals.
    """
    rel = np.asarray(slack / (1.0 + reduce(operator.add, mags)))
    return TOL + float(rel.min()) if rel.size else TOL


def check_prop1(trace: Trace, theta_star=None, wbar=None, wbar_t0: int | None = None) -> VerificationReport:
    """Estimator-property checks on a recorded trace.

    Always checked: the per-step estimate move is bounded by the gated,
    normalized prediction error. When the true parameters (constant plants)
    and the filtered noise are supplied, additionally checks that theta* is
    in the box, the parameter-error contraction per step and accumulated over
    the run, and - when wbar = 0 on every row the contraction reads, wbar(t0) ..
    wbar(t0+T-d) - monotonicity of the parameter error. t0 and T are trace.cfg's.
    """
    rep = VerificationReport()
    d = trace.cfg.d
    t0, T = _horizon(trace)

    # Row k pairs the update from t = t0 + k with ||phi(t-d+1)||^2.
    sq = trace.regressors().sq[:T]
    gated = (trace.rho[:T] != 0) & (sq > 0.0)
    bound = np.divide(np.abs(trace.e[1:]), np.sqrt(sq), out=np.zeros(T), where=gated)
    th = trace.theta_hat
    step = th[1:] - th[:-1]
    move = np.sqrt(_weighted(step, step))
    rep.add("estimate_move_bounded", _margin(bound - move, bound, move), f"{T} steps")

    if theta_star is None:
        return rep

    theta_star = np.asarray(theta_star, dtype=float)
    lo, hi = np.asarray(trace.cfg.box.lo), np.asarray(trace.cfg.box.hi)
    inside = float(np.minimum(theta_star - lo, hi - theta_star).min())
    rep.add("ground_truth_in_box", inside, "the contraction checks assume theta* is in the box")
    if wbar is None or wbar_t0 is None:
        raise ValueError("contraction checks need the filtered noise sequence")
    wb = _wbar_rows(wbar, wbar_t0, t0, T - d + 1)  # wbar(t-d+1) for t = t0+d-1 .. t0+T-1

    dev = th - theta_star
    err_sq = _weighted(dev, dev)
    e = trace.e[d:]
    allowed = np.divide(
        -0.5 * e * e + 2.0 * wb * wb, sq[d - 1 :], out=np.zeros(T - d + 1), where=gated[d - 1 :]
    )
    before, after = err_sq[d - 1 : -1], err_sq[d:]
    rep.add("parameter_error_contraction_step",
            _margin(allowed - (after - before), before, after, np.abs(allowed)), f"from t = {t0 + d - 1}")
    budget = float(allowed.cumsum()[-1]) if len(allowed) else 0.0  # summed in time order
    rep.add("parameter_error_contraction_total",
            _margin(err_sq[d - 1] + budget - err_sq[T], err_sq[d - 1], abs(budget), err_sq[T]))

    if not wb.any():  # then no allowed change is positive: the error cannot grow
        err = np.sqrt(err_sq[d - 1 :])
        rep.add("parameter_error_monotone", _margin(err[:-1] - err[1:], err[:-1], err[1:]),
                "wbar = 0 on every contraction row")
    return rep


def check_identities(trace: Trace, theta_star, wbar, wbar_t0: int) -> VerificationReport:
    """Exact algebraic identities linking eps_bar, e, and the parameter error.

    Checked for t >= t0 + d, where the recorded history fully determines
    every term (before that, the arbitrary initial condition x0 breaks the
    predictor identity by construction):

      eps_bar(t) = e(t) + phi(t-d)^T [theta_hat(t-1) - theta_hat(t-d)]
      e(t)       = -phi(t-d)^T [theta_hat(t-1) - theta*] + wbar(t-d)
      eps_bar(t) = -phi(t-d)^T [theta_hat(t-d) - theta*] + wbar(t-d)

    The first is pure bookkeeping (no plant knowledge); the other two hold
    because theta* satisfies the d-step predictor. The two sides add their
    terms in different orders, so each residual is scaled by 1 + sum |terms|,
    the terms being the parts of the right-hand side, and the margins do not
    depend on units.
    """
    rep = VerificationReport()
    theta_star = np.asarray(theta_star, dtype=float)
    d = trace.cfg.d
    t0, T = _horizon(trace)

    phi = trace.regressors().phi[d - 1 : T]  # phi(t-d) for t = t0+d .. t0+T
    mags = np.abs(phi)
    wb = _wbar_rows(wbar, wbar_t0, t0, T + 1 - d)
    prev, lagged = trace.theta_hat[d - 1 : T], trace.theta_hat[: T + 1 - d]
    eps_bar, e = trace.eps_bar[d:], trace.e[d:]
    e_mag, wb_mag = np.abs(e), np.abs(wb)
    prev_size, lagged_size = _weighted(mags, np.abs(prev)), _weighted(mags, np.abs(lagged))
    star_size = _weighted(mags, np.abs(theta_star))
    res1 = eps_bar - e - _weighted(phi, prev - lagged)
    res2 = e + _weighted(phi, prev - theta_star) - wb
    res3 = eps_bar + _weighted(phi, lagged - theta_star) - wb
    span = f"t = {t0 + d} .. {t0 + T}"
    rep.add("identity_tracking_vs_prediction", _margin(-np.abs(res1), e_mag, prev_size, lagged_size), span)
    rep.add("identity_prediction_error", _margin(-np.abs(res2), prev_size, star_size, wb_mag), span)
    rep.add("identity_tracking_error", _margin(-np.abs(res3), lagged_size, star_size, wb_mag), span)
    return rep


def check_trace_consistency(trace: Trace) -> VerificationReport:
    """Cross-check every stored column against the recursions that made it.

    Used when auditing a reloaded trace file: each column is re-derived from
    trace.cfg plus the y/u columns in the loop's operation order (the
    README lists which check owns which column) and compared with ==; the
    margin is minus the rows that differ; theta_hat is the projection update
    replayed from theta0. A trace must span the config's horizon, whose
    coefficient rows and inputs it reads.
    """
    rep = VerificationReport()
    cfg = trace.cfg
    n, m, d = cfg.n, cfg.m, cfg.d
    _, T = _horizon(trace)
    h, l_coeffs = cfg.ref.H.coeffs, cfg.ref.L.coeffs
    table = trace.regressors()
    hist, phi, sq = table.hist, table.phi, table.sq  # phi(t0-d+1 .. t0+T)
    r_cfg, w_cfg = cfg.inputs
    r_ext = hist.at_rest(r_cfg)

    def equal(name: str, recorded, derived) -> None:
        # Rows t0 .. t0+T of recorded (a column, or one row of columns per t) == derived.
        differ = np.flatnonzero((recorded != derived).reshape(T + 1, -1).any(axis=1))
        first = f", first at t = {cfg.t0 + int(differ[0])}" if len(differ) else ""
        rep.add(name, float(-len(differ)), f"{len(differ)} of {T + 1} rows differ{first}")

    # Plant recursion: y(t0) as the loop starts from it, then y(t+1) from schedule,
    # history, and w(t+1); phi(t) holds its y(t) .. y(t-n+1) and u(t-d+1) .. u(t-d-m+1).
    cols = np.r_[:n, n + d - 1 : n + m + d]
    coeffs = np.hstack((-cfg.plant_rows[0], cfg.plant_rows[1]))
    y = _weighted(phi[d - 1 : -1, cols], coeffs, w_cfg[1:])
    equal("consistency_plant_recursion", trace.y, np.r_[loop_start(cfg.x0, n, m, d).y[-1], y])

    # Control law: u(t) re-solved as control_input does, from ybar*(t+d) less
    # theta_hat_i y(t-i), then theta_hat_{n+j} u(t-j) for j >= 1, over beta0_hat.
    th = trace.theta_hat
    target = _weighted(hist.lags(r_ext, len(h), 0, T + 1), h)
    with np.errstate(all="ignore"):  # an edited beta0_hat of 0 re-solves to inf or NaN: it differs
        u = _weighted(np.delete(phi[d - 1 :], n, 1), -np.delete(th, n, 1), target) / th[:, n]
    equal("consistency_control_closure", trace.u, u)

    # Error columns from y, y*, and the weighted sums.
    ybar_t = _weighted(hist.lags(hist.y, len(l_coeffs), 0, T + 1), l_coeffs)
    ybar_star = np.r_[np.zeros(d), target][: T + 1]  # ybar*(t) is ybar*(t+d) d rows down
    equal("consistency_tracking_error", trace.eps, trace.y - trace.y_star)
    equal("consistency_weighted_error", trace.eps_bar, ybar_t - ybar_star)

    # Prediction-error column: e(t) = ybar(t) - phi(t-d)^T theta_hat(t-1); e(t0) = 0.
    e = np.r_[0.0, ybar_t[1:] - _weighted(phi[:T], th[:T])]
    equal("consistency_prediction_error", trace.e, e)

    # Regressor norms and deadzone gates, both from the table's ||phi||^2.
    equal("consistency_regressor_norm", trace.norm_phi, np.sqrt(sq[d - 1 :]))
    lag_norm = np.sqrt(sq[:T])
    # 0 * inf is NaN at delta = inf: a zero norm closes that row. An overflowing
    # threshold is +inf, as the loop's float product (2 ||S|| + delta) ||phi|| is.
    with np.errstate(invalid="ignore", over="ignore"):
        gate = (lag_norm > 0.0) & (np.abs(trace.e[1:]) < (2.0 * box_norm(cfg.box) + cfg.delta) * lag_norm)
    equal("consistency_deadzone_gate", trace.rho, np.r_[gate, False])

    # Projection update: theta_hat(t0) = theta0; where rho(t) != 0, theta_hat(t+1) is
    # theta_hat(t) + phi(t-d+1) (e(t+1) / ||phi||^2) clamped as estimator_update clamps.
    lo, hi = np.asarray(cfg.box.lo), np.asarray(cfg.box.hi)
    with np.errstate(all="ignore"):  # an edited rho on a zero regressor divides by 0: it differs
        v = th[:T] + phi[:T] * (trace.e[1:] / sq[:T])[:, None]
    step = np.where(v < lo, lo, np.where(v > hi, hi, v))
    equal("consistency_estimator_recursion", th,
          np.r_[[cfg.theta0], np.where(trace.rho[:T, None] != 0, step, th[:T])])

    # Time index, exogenous inputs, and the reference recursion
    # y*(t) = ybar*(t) - sum_{j>=1} l_j y*(t-j), at rest before t0.
    equal("consistency_time_index", trace.t, cfg.t0 + np.arange(T + 1))
    equal("consistency_exogenous_signals", np.c_[trace.r, trace.w], np.c_[r_cfg, w_cfg])
    past = hist.lags(hist.at_rest(trace.y_star), len(l_coeffs), 0, T + 1)[:, 1:]
    equal("consistency_reference_recursion", trace.y_star, ybar_star - _weighted(past, l_coeffs[1:]))
    return rep


def predictor_residuals(trace: Trace, cfg: ExperimentConfig) -> np.ndarray:
    """Residuals of the d-step predictor on recorded closed-loop data.

    For a constant plant, ybar(t) - phi(t-d)^T theta* - wbar(t-d) is zero in
    exact arithmetic for every t >= t0 + d, no matter how u was chosen; the
    returned array holds those residuals (closed-loop data included). cfg gives
    the predictor tested, trace.cfg the horizon and the regressor table.
    ground_truth raises ValueError for a time-varying plant.
    """
    gt = ground_truth(cfg)
    t0, T = _horizon(trace)
    d, l_coeffs = cfg.d, cfg.ref.L.coeffs
    table = trace.regressors()
    ybar_t = _weighted(table.hist.lags(table.hist.y, len(l_coeffs), d, T + 1 - d), l_coeffs)
    wb = _wbar_rows(gt.wbar, gt.wbar_t0, t0, T + 1 - d)
    return ybar_t - _weighted(table.phi[d - 1 : T], gt.theta_star) - wb


def fit_decay_bound(trace: Trace, lam: float) -> float:
    """Smallest c such that, for every recorded t,

        ||phi(t)|| <= c [ lam^(t-t0) ||x0|| + sum_{j=t0..t} lam^(t-j) (|r(j)| + |w(j)|) ].

    ||phi|| is trace.regressors()'s and r and w are trace.cfg's inputs, never the recorded
    columns; t0 and T are trace.cfg's.
    The envelope is one pass of itertools.accumulate (a loop's float operations, in order);
    lam must lie in (0, 1); audit fits at its own rate, above the configuration's spectral floor.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"decay rate must lie in (0, 1), got {lam}")
    t0, _ = _horizon(trace)
    r, w = trace.cfg.inputs
    drive = (np.abs(r) + np.abs(w)).tolist()
    x0 = np.array([trace.cfg.x0], dtype=float)  # one row: ||x0|| in _weighted's order
    start = math.sqrt(_weighted(x0, x0, np.zeros(1))[0]) + drive[0]
    env = np.fromiter(accumulate(drive[1:], lambda e, dk: lam * e + dk, initial=start),
                      float, len(drive))
    norm_phi = np.sqrt(trace.regressors().sq[trace.cfg.d - 1 :])
    live = env > 0.0
    bad = np.flatnonzero(~live & (norm_phi > 0.0))
    if len(bad):
        raise ValueError(
            f"degenerate fit at t = {t0 + int(bad[0])}: zero envelope, nonzero signal"
        )
    return float(np.max(norm_phi[live] / env[live], initial=0.0))


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


def audit(trace: Trace) -> VerificationReport:
    """A run's audit, as run --verify, verify and reproduce make it: every column against its
    recursion, then a constant plant against its ground truth (check_prop1 in full and
    check_identities), any other plant by check_prop1's move bound; then the envelope fit.

    The fit's decay rate is 0.9, or halfway from the spectral floor to 1 when the floor is
    0.9 or more; fit_decay_bound fits any other rate."""
    cfg = trace.cfg
    floor = config_spectral_floor(cfg)
    decay = 0.9 if floor < 0.9 else 0.5 * (1.0 + floor)
    rep = check_trace_consistency(trace)  # every check reads the one trace.regressors() table
    if cfg.schedule.is_constant():
        gt = ground_truth(cfg)
        rep.checks += check_prop1(trace, gt.theta_star, gt.wbar, gt.wbar_t0).checks
        rep.checks += check_identities(trace, gt.theta_star, gt.wbar, gt.wbar_t0).checks
    else:
        rep.checks += check_prop1(trace).checks
    try:
        gain = fit_decay_bound(trace, decay)
    except ValueError:  # a zero envelope under a nonzero ||phi||: a consistency check has failed
        gain = None
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


CSV_BLOCK = 256  # rows formatted per pass of write_trace_csv

# _cell_bytes's tables. A cell is laid out in a slot of _SLOT bytes around a point at
# column 20: integer digits end at column 19, fraction digits start at column 21.
_SLOT = 42
_POW10 = np.array([float(10**i) for i in range(21)])  # 10^0 .. 10^20, each an exact double
_POW10_HI = _POW10 * (2.0**27 + 1) - (_POW10 * (2.0**27 + 1) - _POW10)  # Dekker's split
_POW10_LO = _POW10 - _POW10_HI
_PAIRS = np.frombuffer("".join([f"{i:02d}" for i in range(100)]).encode(), np.uint8).reshape(100, 2)
_QUADS = np.concatenate(np.broadcast_arrays(_PAIRS[:, None], _PAIRS), axis=2).view(np.uint32).ravel()
_SPANS = (np.arange(_SLOT) >= np.arange(20)[:, None, None]) & (np.arange(_SLOT) <= np.arange(_SLOT)[:, None])
_SPANS = _SPANS.reshape(-1, _SLOT)  # row start * _SLOT + end keeps slot columns start .. end


def _cell_bytes(x: np.ndarray, seps: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """The bytes of CSV_FMT % cell for each cell of x, each followed by its seps byte.

    A cell whose decimal exponent k is -4 .. 16, where %.17g prints fixed notation, is
    printed from its 17 significant digits D = round(|x| 10^(16 - k)): Dekker's product
    gives hi + lo = |x| 10^(16 - k) exactly, with hi an even integer from 2^53 on and
    |lo| <= 8, so hi + rint(lo) is D rounded half-even, as %.17g rounds. D's digits come
    from _QUADS, four to a word, and k places them in the cell's slot. Zeros, cells out
    of that range, non-finite cells and a k from log10 that is off by one (D outside
    [10^16, 10^17)) take CSV_FMT % cell.
    """
    rows = np.arange(0, x.size * _SLOT, _SLOT)  # each slot's first byte in flat
    ax = np.abs(x)
    with np.errstate(divide="ignore"):  # zeros: log10 is -inf, outside the range below
        k = np.floor(np.log10(ax))
    fast = (k >= -4) & (k <= 16)
    k = np.where(fast, k, 0.0).astype(np.intp)
    ax[~fast] = 1.0
    hi = ax * _POW10[16 - k]
    ah = ax * (2.0**27 + 1)
    ah -= ah - ax  # Dekker's split: ah keeps ax's top 26 bits
    al = ax - ah
    ph, pl = _POW10_HI[16 - k], _POW10_LO[16 - k]
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # k is right iff 10^16 <= D < 10^17: the largest double below each 10^j, j = -4 .. 17,
    # is more than 10^j * 5e-17 below it, so no D rounds up to a power of ten.
    fast &= (d >= 10**16) & (d < 10**17)
    d[~fast] = 10**16
    quads = np.empty((x.size, 5), np.int64)  # D as 20 digits ("000" and its 17), four a column
    for i in (4, 3, 2, 1):
        np.divmod(d, 10**4, out=(d, quads[:, i]))
    quads[:, 0] = d
    digits = _QUADS[quads]
    del ax, hi, ah, al, ph, pl, lo, quads  # the byte matrix's work below peaks without them
    flat = slots.reshape(-1)
    runs = np.ndarray((flat.size - 19,), "V20", flat, strides=(1,))  # runs[i] is flat[i : i + 20]
    slots[:, 19] = ord("0")  # the integer 0 of 0.000d...
    runs[rows + 16 - k] = digits.view("V20")[:, 0]  # the leading digit at column 19 - k
    slots[:, 21:41] = slots[:, 20:40]
    slots[:, 20] = ord(".")
    last = 35 - k - np.argmax(digits.view(np.uint8)[:, :2:-1] != ord("0"), axis=1)
    end = np.where(last >= 20, last + 2, 20)  # after the last nonzero fraction digit, or the point
    neg = x < 0  # a % cell's text, placed below, covers its sign
    start = 19 - np.maximum(k, 0) - neg
    flat[rows[neg] + start[neg]] = ord("-")
    slow = np.flatnonzero(~fast)
    if slow.size:  # one Python float per cell here only
        raw = np.frombuffer((CSV_FMT + "\0").encode() * slow.size % tuple(x[slow].tolist()), np.uint8)
        stops = np.flatnonzero(raw == 0)
        lens = np.diff(stops, prepend=-1) - 1
        flat[np.repeat(rows[slow] - stops + lens, lens + 1) + np.arange(raw.size)] = raw
        start[slow], end[slow] = 0, lens
    flat[rows + end] = seps
    return slots[np.take(_SPANS, start * _SLOT + end, axis=0)]


def write_trace_csv(trace: Trace, path) -> None:
    """Exact decimal dump, one row per time step, reloadable bit-for-bit.

    The bytes np.savetxt(fmt=CSV_FMT, delimiter=",") writes, header first. Each block
    of CSV_BLOCK rows goes through _cell_bytes, which prints a cell whose decimal
    exponent is -4 .. 16 from numpy digit arithmetic, with no Python float, and every
    other cell (zeros, exponent notation, non-finite) by CSV_FMT %; it is laid out in
    one byte matrix, compacted by cell length and written at once.
    """
    header = _csv_header(trace.theta_hat.shape[1])
    slots = np.empty((min(trace.rows, CSV_BLOCK) * len(header), _SLOT), np.uint8)  # reused by each block
    seps = np.resize(np.r_[np.full(len(header) - 1, ord(","), np.uint8), ord("\n")], len(slots))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for i in range(0, trace.rows, CSV_BLOCK):
            cells = np.column_stack([getattr(trace, n)[i : i + CSV_BLOCK] for n in TRACE_COLUMNS]).ravel()
            fh.write(_cell_bytes(cells, seps[: cells.size], slots[: cells.size]))


def trace_from_csv(path, cfg: ExperimentConfig) -> Trace:
    """Reload a stored trace written by write_trace_csv.

    Regressors are not in the file; the first Trace.regressors() call builds
    their table from the y/u columns plus cfg.x0. A wrong header, a row count other than
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
    parts = zip(TRACE_COLUMNS, np.split(np.ascontiguousarray(data.T), stops))  # a contiguous row per cell
    return Trace(**{n: c.T if n == "theta_hat" else c[0] for n, c in parts}, cfg=cfg)  # float64 as written


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


def _regime_rms(trace: Trace, t0: int, T: int) -> dict:
    """RMS tracking error over three windows of t0 .. t0 + T, by row index k = t - t0: the
    first fifth [0, k0 = T // 5], the rest of the first half up to k1 = T // 2, and the
    second half without its first fifth, [k1 + (T - k1) // 5, T]. Each window's squares are
    summed left to right (np.cumsum, as tracking_energy) and divided by their count."""
    k0, k1 = T // 5, T // 2
    k2 = k1 + (T - k1) // 5
    windows = {f"rms_eps[{t0},{t0 + k0}]": (0, k0), f"rms_eps({t0 + k0},{t0 + k1}]": (k0 + 1, k1),
               f"rms_eps[{t0 + k2},{t0 + T}]": (k2, T)}
    return {key: float(np.sqrt(np.cumsum(trace.eps[first : last + 1] ** 2)[-1] / (last + 1 - first)))
            for key, (first, last) in windows.items()}


def build_summary(trace: Trace, report: VerificationReport | None = None) -> dict:
    cfg = trace.cfg
    t0, T = _horizon(trace)
    total, _ = tracking_energy(trace)
    lo, hi = np.asarray(cfg.box.lo), np.asarray(cfg.box.hi)
    in_box = bool(np.all(trace.theta_hat >= lo) and np.all(trace.theta_hat <= hi))
    doc = cfg.to_config_dict()
    summary = {
        "config": doc,
        "config_hash": _document_hash(doc),
        "rows": T + 1,
        "t_range": [t0, t0 + T],
        "tracking": {
            "energy_total": total,
            **_regime_rms(trace, t0, T),
        },
        "estimates": {
            "final": [float(v) for v in trace.theta_hat[-1]],
            "min": [float(v) for v in trace.theta_hat.min(axis=0)],
            "max": [float(v) for v in trace.theta_hat.max(axis=0)],
            "within_box": in_box,
            "updates_gated_on": int(np.count_nonzero(trace.rho)),
        },
        "conventions": dict(CONVENTIONS),
    }
    if report is not None:
        summary["checks"] = report.to_dict()
    return summary


def write_outputs(trace: Trace, out_dir, report: VerificationReport | None = None) -> dict:
    """Write trace.csv, summary.json, and plot.gp into out_dir; return the paths."""
    summary = build_summary(trace, report)
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
        steps=steps,
        x0=(-1.0, -1.0, 0.0),
        r=square_wave(period=200, amplitude=1.0),
        w=windowed_sinusoid(200, 500, amplitude=0.1, rate=10.0),
        label="showcase",
    )

