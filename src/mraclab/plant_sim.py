"""The plant recursion, coefficient schedules, and exogenous signal generators.

plant_step is a pure function of the coefficients at emission time and the
run's past outputs and inputs, read from the end of the oldest-first lists
that the closed loop grows from controller.history's layout. Its order of
terms is pinned by the golden traces: from w(t+1) it subtracts a_i y(t-i)
for i = 0 .. n-1, then adds b_i u(t-d+1-i) for i = 0 .. m, walking each
list with a running negative index.

Conventions used throughout the package:

* The disturbance sample w(t) enters the output emitted at the same index:
  y(t+1) is produced with w(t+1).
* Time-varying coefficients are sampled at emission time: producing y(t+1)
  from data up to time t uses a_i(t), b_i(t). validate_horizon returns the
  rows it checked, and the experiment config keeps them for every consumer.
* Signals and coefficients are pure functions of (spec, t) - evaluating one
  sample never depends on the horizon or on previous evaluations, so every
  run is reproducible sample-by-sample. The run and the audits sample a
  horizon t0 .. t0 + count - 1 at once. coef_column is the one definition
  of each coefficient kind, evaluated over the whole horizon (coef_eval is
  its one-sample view), and CoefficientSchedule.coeff_rows calls it once
  per coefficient. signal_rows is the one definition of every signal kind
  but square_wave, over the whole horizon (stored samples as array slices,
  the sinusoids as one angle pass, see _sinusoid_column), and signal_eval is
  its one-sample view. square_wave alone is defined per sample in signal_eval,
  which signal_rows calls per sample: the benchmark's tracer test counts
  those calls inside a run.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .poly import integer, integers, number, numbers, text
from .system import AdmissibilityError, PlantParams, first_inadmissible

__all__ = [
    "SIGNAL_KINDS",
    "COEF_KINDS",
    "SignalSpec",
    "signal_eval",
    "signal_rows",
    "zero_signal",
    "constant_signal",
    "square_wave",
    "sinusoid",
    "windowed_sinusoid",
    "table_signal",
    "white_noise",
    "CoefSpec",
    "coef_column",
    "coef_eval",
    "CoefficientSchedule",
    "plant_step",
    "wbar_sequence",
]

# Every spec field but kind defaults to UNSET, read as the kind's default below (none if REQUIRED).
# Ellipsis survives deepcopy and pickle, and no JSON holds it: a document's null reaches the reader.
UNSET = REQUIRED = ...


# kind -> its fields in document order, each (name, reader, default or REQUIRED).
SIGNAL_KINDS = {
    "zero": (),
    "constant": (("level", number, REQUIRED),),
    "square_wave": (("period", integer, REQUIRED), ("amplitude", number, 1.0),
                    ("phase", number, 0.0)),
    "sinusoid": (("amplitude", number, REQUIRED), ("rate", number, REQUIRED), ("phase", number, 0.0)),
    "windowed_sinusoid": (("t_start", integer, REQUIRED), ("t_end", integer, REQUIRED),
                          ("amplitude", number, REQUIRED), ("rate", number, REQUIRED)),
    "table": (("values", numbers, REQUIRED), ("t_start", integer, 0)),
    "white_noise": (("amplitude", number, REQUIRED), ("seed", integer, 0)),
}
COEF_KINDS = {
    "constant": (("value", number, REQUIRED),),
    "sinusoid": (("offset", number, 0.0), ("amplitude", number, REQUIRED),
                 ("rate", number, REQUIRED), ("phase", number, 0.0), ("trig", text, "cos")),
    "piecewise": (("times", integers, REQUIRED), ("values", numbers, REQUIRED)),
    "table": (("values", numbers, REQUIRED), ("t_start", integer, 0)),
}


class KindSpec:
    """Document form of SignalSpec and CoefSpec, read from the subclass's KINDS table.

    A ValueError, TypeError or OverflowError from from_doc describes a malformed
    document; a field that does not convert, or that the kind does not read,
    is named in the message.
    """

    KINDS: dict
    NOUN: str  # "signal" or "coefficient", for error messages
    SHAPE = "an object with a 'kind' field"

    @classmethod
    def fields_of(cls, kind) -> tuple:
        try:
            return cls.KINDS[kind]
        except (KeyError, TypeError):
            raise ValueError(f"unknown {cls.NOUN} kind {kind!r}") from None

    @classmethod
    def _used(cls, kind) -> set:
        return {name for name, _, _ in cls.fields_of(kind)} | {"kind"}

    def _read_fields(self) -> None:
        """The one place a spec field gets its value: an UNSET field takes its KINDS default, or
        is missing if that is REQUIRED, and each field the kind uses is read by its KINDS reader.
        A field set outside the kind is refused, and so is a NaN or an infinity in any number
        field (integer fields are finite by type)."""
        for name, _, default in self.fields_of(self.kind):  # in table order, before any read
            if default is REQUIRED and getattr(self, name) is UNSET:
                raise ValueError(f"missing field {name!r} for kind {self.kind!r}")
        read = {name: (reader, default) for name, reader, default in self.fields_of(self.kind)}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in read:
                reader, default = read[f.name]
                try:
                    value = reader(default if value is UNSET else value)
                except (TypeError, OverflowError) as exc:
                    raise ValueError(f"field {f.name!r}: {exc}") from None
                object.__setattr__(self, f.name, value)
            elif f.name != "kind" and value is not UNSET:
                raise ValueError(f"field {f.name!r} is not used by {self.NOUN} kind {self.kind!r}")
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in (value if isinstance(value, tuple) else (value,))):
                raise ValueError(f"field {f.name!r}: must be finite")

    def check_angle(self, first: int, last: int) -> None:
        """Reject a rate whose angle rate * t + phase is not finite at a sampled t in first .. last.

        math.cos of an infinite angle raises. The angle is monotone in t, so
        the ends of the sampled times decide; a windowed_sinusoid samples its window.
        """
        if self.kind == "windowed_sinusoid":
            first, last = max(first, self.t_start + 1), min(last, self.t_end)
        if "rate" in self._used(self.kind) and first <= last:
            phase = self.phase if "phase" in self._used(self.kind) else 0.0  # none on a window
            for t in (first, last):
                if not math.isfinite(self.rate * t + phase):
                    raise ValueError(f"field 'rate': rate * t + phase is not finite at t = {t}")

    def to_doc(self) -> dict:
        doc = {"kind": self.kind}
        for name, _, _ in self.fields_of(self.kind):
            value = getattr(self, name)
            doc[name] = list(value) if isinstance(value, tuple) else value
        return doc

    @classmethod
    def from_doc(cls, doc):
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ValueError(f"expected {cls.SHAPE}")
        used = cls._used(doc["kind"])
        for key in doc:
            if key not in used:
                raise ValueError(f"field {key!r}: not used by {cls.NOUN} kind {doc['kind']!r}")
        return cls(**doc)  # __post_init__ gives each field its value, as in Python


_NOISE_BLOCK = 512


@dataclass(frozen=True)
class SignalSpec(KindSpec):
    """Declarative description of a scalar signal on integer time."""

    KINDS = SIGNAL_KINDS
    NOUN = "signal"

    kind: str
    amplitude: float = UNSET
    level: float = UNSET
    period: int = UNSET
    phase: float = UNSET
    rate: float = UNSET
    t_start: int = UNSET
    t_end: int = UNSET
    values: tuple[float, ...] = UNSET
    seed: int = UNSET

    def __post_init__(self) -> None:
        self._read_fields()
        if self.kind == "square_wave" and not 1 <= self.period <= sys.float_info.max:
            raise ValueError(f"field 'period': must lie in 1 .. {sys.float_info.max!r}, the largest float")
        if self.kind == "windowed_sinusoid" and self.t_end < self.t_start:
            raise ValueError("windowed_sinusoid needs t_start <= t_end")
        if self.kind == "table" and not self.values:
            raise ValueError("table signal needs at least one value")


def zero_signal() -> SignalSpec:
    return SignalSpec(kind="zero")


def constant_signal(level: float) -> SignalSpec:
    return SignalSpec(kind="constant", level=level)


def square_wave(period: int, amplitude: float = UNSET, phase: float = UNSET) -> SignalSpec:
    """+amplitude on the first half of each period, -amplitude on the second."""
    return SignalSpec(kind="square_wave", period=period, amplitude=amplitude, phase=phase)


def sinusoid(amplitude: float, rate: float, phase: float = UNSET) -> SignalSpec:
    """amplitude * cos(rate * t + phase)."""
    return SignalSpec(kind="sinusoid", amplitude=amplitude, rate=rate, phase=phase)


def windowed_sinusoid(t_start: int, t_end: int, amplitude: float, rate: float) -> SignalSpec:
    """amplitude * cos(rate * t) on the window t_start < t <= t_end, else 0."""
    return SignalSpec(
        kind="windowed_sinusoid", t_start=t_start, t_end=t_end, amplitude=amplitude, rate=rate
    )


def table_signal(values, t_start: int = UNSET) -> SignalSpec:
    """Explicit samples values[k] at t = t_start + k; zero outside the table."""
    return SignalSpec(kind="table", values=tuple(values), t_start=t_start)


def white_noise(amplitude: float, seed: int = UNSET) -> SignalSpec:
    """Uniform noise on [-amplitude, amplitude], reproducible per (seed, t)."""
    return SignalSpec(kind="white_noise", amplitude=amplitude, seed=seed)


@lru_cache(maxsize=8192)
def _noise_block(seed: int, block: int) -> np.ndarray:
    """The block's _NOISE_BLOCK uniform samples on [-1, 1], read-only as the cache shares them."""
    # Zig-zag encode the (possibly negative) block index and seed, since
    # seed sequences only accept non-negative integers.
    enc = tuple(2 * v if v >= 0 else -2 * v - 1 for v in (seed, block))
    noise = np.random.default_rng((0x9E3779B9,) + enc).uniform(-1.0, 1.0, _NOISE_BLOCK)
    noise.flags.writeable = False
    return noise


def _sinusoid_column(trig, rate, phase, lo, hi, amplitude, offset=None) -> np.ndarray:
    """amplitude * trig(rate * t + phase), plus offset if given, for t = lo .. hi - 1.

    numpy forms the angles in one pass over the times as floats (each rounded
    as float(t)), math.cos or math.sin is mapped over them (np.cos need not
    round as math.cos on every CPU), and numpy applies amplitude and offset:
    the per-sample formula's own IEEE operations, so its bits. An overflow
    gives the formula's infinity, not a warning.
    """
    if -(2**63) <= lo and hi <= 2**63:
        t = np.arange(lo, hi, dtype=np.int64).astype(float)
    else:
        t = np.arange(lo, hi, dtype=object).astype(float)  # OverflowError past the floats
    with np.errstate(over="ignore"):
        angle = rate * t + phase
        wave = amplitude * np.fromiter(map(trig, angle.tolist()), float, len(angle))
        return wave if offset is None else offset + wave


def signal_eval(spec: SignalSpec, t: int) -> float:
    """Sample the signal at integer time t: signal_rows' one sample, or a square wave's."""
    if spec.kind != "square_wave":
        return float(signal_rows(spec, t, 1)[0])
    s = t - spec.phase
    if s < 0:
        s = 0.0  # frozen at the start-of-wave value before the phase origin
    return spec.amplitude if (s % spec.period) < spec.period / 2.0 else -spec.amplitude


def signal_rows(spec: SignalSpec, t0: int, count: int) -> np.ndarray:
    """The signal at t = t0 .. t0 + count - 1, the samples a run takes over its horizon.

    The stored-sample kinds (zero, constant, table, white_noise) are read as
    array slices; each sample is a stored number, or amplitude times a stored
    noise value in one IEEE multiply. sinusoid is amplitude * cos(rate * t +
    phase), and windowed_sinusoid, which has no phase, the same with phase 0.0 on
    its window (cos(-0.0) = cos(+0.0)) and zero elsewhere, both as _sinusoid_column.
    square_wave goes through signal_eval sample by sample: the benchmark's
    tracer test counts signal_eval calls inside a run on a square wave.
    Index arithmetic is on Python ints, so no start overflows.
    """
    if spec.kind == "zero":
        return np.zeros(count)
    if spec.kind == "constant":
        return np.full(count, spec.level, dtype=float)
    if spec.kind == "table":
        out = np.zeros(count)
        lo, hi = max(t0, spec.t_start), min(t0 + count, spec.t_start + len(spec.values))
        if lo < hi:
            out[lo - t0 : hi - t0] = spec.values[lo - spec.t_start : hi - spec.t_start]
        return out
    if spec.kind == "white_noise":
        # Sample t is block t // _NOISE_BLOCK (floored) at offset t % _NOISE_BLOCK;
        # the blocks from t0's on are laid end to end.
        first, offset = divmod(t0, _NOISE_BLOCK)
        last = (t0 + max(count, 1) - 1) // _NOISE_BLOCK
        noise = np.concatenate([_noise_block(spec.seed, b) for b in range(first, last + 1)])
        return spec.amplitude * noise[offset : offset + count]
    if spec.kind in ("sinusoid", "windowed_sinusoid"):
        lo, hi = t0, t0 + count
        if spec.kind == "windowed_sinusoid":  # nonzero on t_start < t <= t_end
            lo, hi = max(lo, spec.t_start + 1), min(hi, spec.t_end + 1)
        phase = spec.phase if spec.kind == "sinusoid" else 0.0
        out = np.zeros(count)
        if lo < hi:
            out[lo - t0 : hi - t0] = _sinusoid_column(math.cos, spec.rate, phase, lo, hi, spec.amplitude)
        return out
    # square_wave, the last kind: a spec's kind is checked when it is built
    return np.array([signal_eval(spec, t) for t in range(t0, t0 + count)], dtype=float)


@dataclass(frozen=True)
class CoefSpec(KindSpec):
    """One time-varying plant coefficient.

    constant:  value
    sinusoid:  offset + amplitude * trig(rate * t + phase), trig in {cos, sin}
    piecewise: values[k] on [times[k], times[k+1]), values[0] before times[0]
    table:     values[t - t_start], clamped to the table ends

    In a document a bare number stands for a constant coefficient.
    """

    KINDS = COEF_KINDS
    NOUN = "coefficient"
    SHAPE = "a number or an object with a 'kind' field"

    kind: str
    value: float = UNSET
    offset: float = UNSET
    amplitude: float = UNSET
    rate: float = UNSET
    phase: float = UNSET
    trig: str = UNSET
    times: tuple[int, ...] = UNSET
    values: tuple[float, ...] = UNSET
    t_start: int = UNSET

    def __post_init__(self) -> None:
        self._read_fields()
        if self.kind == "sinusoid" and self.trig not in ("cos", "sin"):
            raise ValueError("sinusoid coefficient needs trig in {'cos', 'sin'}")
        if self.kind == "piecewise":
            if len(self.times) != len(self.values) or not self.values:
                raise ValueError("piecewise coefficient needs matching times/values")
            if any(b <= a for a, b in zip(self.times, self.times[1:])):
                raise ValueError("piecewise breakpoints must be strictly increasing")
        if self.kind == "table" and not self.values:
            raise ValueError("table coefficient needs at least one value")

    @staticmethod
    def const(value: float) -> "CoefSpec":
        return CoefSpec(kind="constant", value=value)

    @staticmethod
    def sinusoid(amplitude: float, rate: float, offset: float = UNSET, trig: str = UNSET):
        return CoefSpec(kind="sinusoid", offset=offset, amplitude=amplitude, rate=rate, trig=trig)

    @classmethod
    def from_doc(cls, doc) -> "CoefSpec":
        if isinstance(doc, (int, float)) and not isinstance(doc, bool):
            return cls.const(doc)
        return super().from_doc(doc)


def coef_column(spec: CoefSpec, t0: int, count: int) -> np.ndarray:
    """The coefficient at t = t0 .. t0 + count - 1, the one definition of each kind.

    A sinusoid is offset + amplitude * trig(rate * t + phase), as
    _sinusoid_column; piecewise and table fill slices of stored values, with
    index arithmetic on Python ints so that no t0 overflows.
    """
    kind = spec.kind
    if kind == "constant":
        return np.full(count, spec.value, dtype=float)
    if kind == "sinusoid":
        trig = math.cos if spec.trig == "cos" else math.sin
        return _sinusoid_column(trig, spec.rate, spec.phase, t0, t0 + count, spec.amplitude, spec.offset)
    if kind == "piecewise":  # values[k] from times[k] on, values[0] before times[0]
        out = np.full(count, spec.values[0], dtype=float)
        starts = [min(max(brk - t0, 0), count) for brk in spec.times]
        for lo, hi, val in zip(starts, starts[1:] + [count], spec.values):
            out[lo:hi] = val
        return out
    # table, the last kind: values[t - t_start], clamped to the table ends
    values, start = spec.values, spec.t_start
    lo = min(max(start - t0, 0), count)  # first sample inside the table
    hi = min(max(start + len(values) - t0, 0), count)  # first sample past its end
    out = np.empty(count)
    out[:lo], out[hi:] = values[0], values[-1]
    if lo < hi:
        out[lo:hi] = values[t0 + lo - start : t0 + hi - start]
    return out


def coef_eval(spec: CoefSpec, t: int) -> float:
    """The coefficient at integer time t: coef_column's one sample."""
    return float(coef_column(spec, t, 1)[0])


@dataclass(frozen=True)
class CoefficientSchedule:
    """Per-coefficient time functions for the plant, plus the fixed delay d."""

    a: tuple[CoefSpec, ...]
    b: tuple[CoefSpec, ...]
    d: int

    def __post_init__(self) -> None:
        for key in "ab":
            object.__setattr__(self, key, tuple(getattr(self, key)))
            for i, spec in enumerate(getattr(self, key)):
                if not isinstance(spec, CoefSpec):  # only a document may hold a bare number
                    raise TypeError(f"{key}[{i}]: expected a CoefSpec, got {spec!r}")
        if integer(self.d) < 1:
            raise AdmissibilityError("input delay d must be at least 1")
        if not self.b:
            raise AdmissibilityError("schedule needs at least the b0 coefficient")

    @classmethod
    def constant(cls, params: PlantParams) -> "CoefficientSchedule":
        return cls(
            a=tuple(CoefSpec.const(v) for v in params.a),
            b=tuple(CoefSpec.const(v) for v in params.b),
            d=params.d,
        )

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def m(self) -> int:
        return len(self.b) - 1

    def is_constant(self) -> bool:
        return all(s.kind == "constant" for s in self.a + self.b)

    def coeff_rows(self, t0: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Unchecked a, b values at t = t0 .. t0 + count - 1 as (count, n) and (count, m+1)
        arrays; a constant plant has at most one row."""
        if self.is_constant():
            count = min(count, 1)
        try:  # a horizon no memory holds fails here, before any evaluation
            ab = np.empty((count, self.n + self.m + 1))
        except ValueError:  # numpy's refusal of more bytes than it can address
            raise MemoryError from None
        for j, spec in enumerate(self.a + self.b):
            ab[:, j] = coef_column(spec, t0, count)
        return ab[:, : self.n], ab[:, self.n :]

    def validate_horizon(self, t0: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
        """Check admissibility (and a fixed b0 sign) at every emission time; return the rows.

        Emission times for a run over [t0, t0 + steps] are t0..t0 + steps - 1.
        All rows are checked at once by first_inadmissible; the first failing
        row raises its reason, or the sign error if b0 flips first. Returns the
        checked rows read-only; a constant plant's one row (t0) needs no horizon.
        """
        a, b = self.coeff_rows(t0, max(steps, 1))
        bad = first_inadmissible(a, b)
        flips = np.flatnonzero(np.copysign(1.0, b[:, 0]) != math.copysign(1.0, b[0, 0]))
        if len(flips) and flips[0] < (bad[0] if bad else len(b)):
            raise AdmissibilityError(f"b0 changes sign on the horizon (t = {t0 + int(flips[0])})")
        if bad:
            raise AdmissibilityError(f"schedule inadmissible at t = {t0 + bad[0]}: {bad[1]}")
        a.flags.writeable = b.flags.writeable = False
        return a, b


def plant_step(a, b, d: int, y, u, w_next: float) -> float:
    """One plant recursion: y(t+1) from the coefficients a, b sampled at time t.

    y ends with y(t) and u with u(t), both oldest first:
    y(t+1) = w(t+1) - sum_i a_i y(t-i) + sum_i b_i u(t-d+1-i). run_closed_loop carries
    an in-place copy, which test_loop_is_its_kernels_composed pins to these bits.
    """
    y_next = float(w_next)
    i = -1
    for c in a:
        y_next -= c * y[i]
        i -= 1
    i = -d
    for c in b:
        y_next += c * u[i]
        i -= 1
    return y_next


def wbar_sequence(F, w: SignalSpec, t0: int, T: int) -> np.ndarray:
    """Forward-filtered disturbance wbar(t) = sum_i f_i w(t + d - i), d = len(F).

    F is the quotient from the predictor split (a PolyZ or plain coefficient
    sequence of exactly d entries). Returns samples for t = t0 .. t0 + T
    inclusive. This is the noise term of the d-step-ahead predictor: the
    weighted output satisfies ybar(t + d) = phi(t)^T theta* + wbar(t).
    """
    f = tuple(float(c) for c in getattr(F, "coeffs", F))
    d = len(f)
    w_rows = signal_rows(w, t0, T + d + 1)  # w(t0) .. w(t0 + T + d)
    out = np.zeros(T + 1)  # term by term from +0.0, as a per-row sum adds them
    for i, c in enumerate(f):
        out = out + c * w_rows[d - i : d - i + T + 1]
    return out
