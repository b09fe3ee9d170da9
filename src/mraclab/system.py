"""Plant and predictor parameter spaces.

A plant is the difference equation

    y(t) + sum_{i=1}^n a_i y(t-i) = sum_{i=0}^m b_i u(t-d-i) + w(t)

with unit leading output coefficient, b0 != 0 and B(z^-1) = sum b_i z^-i
having all roots strictly inside the unit circle (minimum phase). A stable
reference model L(z^-1) y*(t) = z^-d H(z^-1) r(t) induces the predictor
reparameterization (alpha, beta) through the split L = F A + z^-d alpha,
beta = F B, under which the weighted output ybar(t) = y(t) + sum l_j y(t-j)
satisfies ybar(t+d) = phi(t)^T theta* + wbar(t) with the regressor
phi(t) = (y(t)..y(t-n+1), u(t)..u(t-m-d+1)).

This module holds the parameter containers, the one admissibility test of
plant coefficient rows (first_inadmissible), the plant-to-predictor map
predictor_map (F and theta* from one long division, with no checks: a
config maps the rows it has tested, PlantParams checks a hand-built plant),
and the hyperrectangle machinery the projected estimator needs: building
a predictor-space box from a plant-space box and its norm.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .poly import PolyZ, convolve, integer, numbers, predictor_split, schur_stable, schur_stable_rows

__all__ = [
    "AdmissibilityError",
    "first_inadmissible",
    "PlantParams",
    "ReferenceModel",
    "PredictorParams",
    "ParamBox",
    "to_predictor_params",
    "predictor_map",
    "build_param_box",
    "box_norm",
]


class AdmissibilityError(ValueError):
    """A parameter set violates the standing admissibility assumptions."""


def first_inadmissible(a_rows, b_rows) -> tuple[int, str] | None:
    """The first row of plant coefficients that is not admissible, and why.

    Row k holds a_1..a_n in a_rows[k] and b_0..b_m in b_rows[k]. All rows
    are tested at once, each in this order: b0 != 0, finite coefficients,
    then B(z^-1) Schur stable. None when every row passes.
    """
    a, b = np.asarray(a_rows, dtype=float), np.asarray(b_rows, dtype=float)
    nonzero = b[:, 0] != 0.0
    finite = np.isfinite(a).all(axis=1) & np.isfinite(b).all(axis=1)
    ok = nonzero & finite
    ok[ok] = schur_stable_rows(b[ok])
    if ok.all():
        return None
    k = int(np.argmin(ok))
    if not nonzero[k]:
        return k, "b0 must be nonzero (otherwise the true delay exceeds d)"
    if not finite[k]:
        return k, "plant coefficients must be finite"
    return k, "B(z^-1) must have all roots strictly inside the unit circle"


@dataclass(frozen=True)
class PlantParams:
    """Constant plant coefficients (a_1..a_n, b_0..b_m) with input delay d."""

    a: tuple[float, ...]
    b: tuple[float, ...]
    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", numbers(self.a))
        object.__setattr__(self, "b", numbers(self.b))
        if integer(self.d) < 1:
            raise AdmissibilityError("input delay d must be at least 1")
        if not self.b:
            raise AdmissibilityError("b must contain at least b0")
        bad = first_inadmissible([self.a], [self.b])
        if bad:
            raise AdmissibilityError(bad[1])

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def m(self) -> int:
        return len(self.b) - 1


@dataclass(frozen=True)
class ReferenceModel:
    """Stable reference model L(z^-1) y*(t) = z^-d H(z^-1) r(t)."""

    L: PolyZ
    H: PolyZ
    d: int

    def __post_init__(self) -> None:
        if integer(self.d) < 1:
            raise AdmissibilityError("reference delay d must be at least 1")
        if not self.L.is_monic():
            raise AdmissibilityError("L must be monic in z^0")
        if not schur_stable(self.L):
            raise AdmissibilityError("L must have all roots strictly inside the unit circle")
        # H may always carry a direct term; beyond that its depth is capped
        # so that ybar*(t+d) depends on r(t), r(t-1), ... but never on
        # reference samples older than the L recursion can supply.
        if self.H.degree > max(self.order - self.d, 0):
            raise AdmissibilityError(
                f"deg H = {self.H.degree} exceeds max(deg L - d, 0) = "
                f"{max(self.order - self.d, 0)}"
            )

    @property
    def order(self) -> int:
        """Order n' of the reference recursion (degree of L)."""
        return self.L.degree


@dataclass(frozen=True)
class PredictorParams:
    """Predictor-space parameters theta* = (alpha_0..alpha_{n-1}, beta_0..beta_{m+d-1})."""

    alpha: tuple[float, ...]
    beta: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", numbers(self.alpha))
        object.__setattr__(self, "beta", numbers(self.beta))
        if not self.beta:
            raise AdmissibilityError("beta must contain at least beta0")

    def theta_star(self) -> np.ndarray:
        return np.array(self.alpha + self.beta)


@dataclass(frozen=True)
class ParamBox:
    """Axis-aligned hyperrectangle with lo[i] <= hi[i] in every coordinate."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            lo, hi = numbers(self.lo), numbers(self.hi)
        except TypeError as exc:
            raise AdmissibilityError(f"box bounds: {exc}") from None
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or not lo:
            raise AdmissibilityError("box needs matching, non-empty lo/hi")
        if not all(math.isfinite(v) for v in lo + hi):
            raise AdmissibilityError("box bounds must be finite")
        if any(l > h for l, h in zip(lo, hi)):
            raise AdmissibilityError("box needs lo[i] <= hi[i] in every coordinate")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point has dimension {x.shape}, box has {self.dim}")
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))

    def midpoint(self) -> np.ndarray:
        return (np.asarray(self.lo) + np.asarray(self.hi)) / 2.0

    def corners(self):
        """Iterate over all 2^dim corner tuples."""
        return itertools.product(*zip(self.lo, self.hi))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lo, self.hi)


def to_predictor_params(theta: PlantParams, ref: ReferenceModel) -> PredictorParams:
    """Map plant coefficients (a, b) to predictor coefficients (alpha, beta).

    alpha is the d-step remainder of L/A (n coefficients) and beta = F B
    (m + d coefficients, beta0 = b0 exactly since f0 = 1).
    """
    if theta.d != ref.d:
        raise AdmissibilityError("plant and reference model disagree on the delay d")
    _check_order(ref, theta.n)
    _, theta_star = predictor_map(theta.a, theta.b, ref)
    return PredictorParams(theta_star[: theta.n], theta_star[theta.n :])


def _check_order(ref: ReferenceModel, n: int) -> None:
    if ref.order > n:
        raise AdmissibilityError(f"reference order {ref.order} exceeds plant order {n}")


def predictor_map(a, b, ref: ReferenceModel) -> tuple[PolyZ, tuple[float, ...]]:
    """The quotient F (d coefficients) and theta* = (alpha, beta) of plant coefficients (a, b).

    One long division, no admissibility checks: the caller has tested (a, b).
    beta = F * B is poly.convolve's product of the same floats.
    """
    a = np.asarray(a, dtype=float).tolist()
    F, alpha = predictor_split(ref.L, PolyZ((1.0, *a)), ref.d)
    beta = convolve(F.coeffs, np.asarray(b, dtype=float).tolist())
    return F, alpha.coeffs[: len(a)] + tuple(beta)


def build_param_box(
    s_ab: ParamBox,
    ref: ReferenceModel,
    n_a: int,
    samples: int = 256,
    margin: float = 0.0,
    *,
    seed: int = 0,
) -> ParamBox:
    """Hyperrectangle hull of the predictor-space image of a plant-space box.

    The first n_a coordinates of s_ab are the a-coefficients, the remaining
    m + 1 the b-coefficients. The map is evaluated at every corner of s_ab
    plus `samples` uniform interior points drawn with `seed`; per-coordinate
    extrema, inflated by `margin`, give the box. For d = 1 each output
    coordinate is affine in (a, b), so the corner sweep alone is exact and
    samples only confirm it. For d >= 2 the result is a sampled outer
    estimate; use margin > 0 for slack. Every evaluated plant must be
    admissible (all points are tested at once), and the resulting beta0
    interval must exclude zero.
    """
    if not 0 <= n_a <= s_ab.dim - 1:
        raise AdmissibilityError(
            f"n_a = {n_a} incompatible with a box of dimension {s_ab.dim}"
        )
    points = list(s_ab.corners())
    if samples > 0:
        rng = np.random.default_rng(seed)
        points.extend(tuple(s_ab.sample(rng)) for _ in range(samples))
    ab = np.array(points)
    bad = first_inadmissible(ab[:, :n_a], ab[:, n_a:])
    # A one-at-a-time sweep stops at the first bad point, and its first point
    # is checked for admissibility before the reference order.
    if not bad or bad[0] > 0:
        _check_order(ref, n_a)
    if bad:
        raise AdmissibilityError(bad[1])
    stacked = np.array([predictor_map(pt[:n_a], pt[n_a:], ref)[1] for pt in points])
    lo = stacked.min(axis=0) - margin
    hi = stacked.max(axis=0) + margin
    if lo[n_a] <= 0.0 <= hi[n_a]:
        raise AdmissibilityError(
            "beta0 interval of the predictor box contains 0; the control law "
            "divides by beta0, so its sign must be fixed over the box"
        )
    return ParamBox(tuple(lo), tuple(hi))


def box_norm(box: ParamBox) -> float:
    """Largest Euclidean norm over the box, attained at a corner; squares added
    left to right from +0.0 (builtin sum() compensates from Python 3.12 on)."""
    sq = 0.0
    for l, h in zip(box.lo, box.hi):
        sq += max(l * l, h * h)
    return math.sqrt(sq)
