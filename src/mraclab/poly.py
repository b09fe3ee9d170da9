"""Polynomials in the unit-delay operator z^-1.

Coefficients are stored densely in ascending powers of z^-1: coeffs[i]
multiplies z^-i. This is the natural indexing for difference equations,
where a polynomial acts on a signal as sum_i c_i x(t - i). Trailing zero
coefficients are legal; trimmed() drops them where the degree matters.
PolyZ reads its coefficients by a document's number rule; the readers
(integer, number, text, numbers, integers) live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PolyZ",
    "convolve",
    "predictor_split",
    "schur_stable",
    "schur_stable_rows",
    "max_root_modulus",
    "max_root_moduli",
]

# Roots within this distance of the unit circle count as unstable: the
# admissible region is the open unit disk, so the boundary is rejected.
BOUNDARY_TOL = 1e-9


# Readers of a document's number and string fields. JSON has one number type: an
# integer field takes an int and a number field an int or a float, never a bool; a
# string, a bool or a fraction is refused rather than converted, and a string field
# takes only a string.
def integer(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def number(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a number, got {v!r}")
    return float(v)  # OverflowError for an int no float holds


def text(v) -> str:
    if not isinstance(v, str):
        raise TypeError(f"expected a string, got {v!r}")
    return v


def numbers(v) -> tuple[float, ...]:
    """A list or tuple of numbers, as floats."""
    if isinstance(v, (list, tuple)):
        try:
            return tuple(number(x) for x in v)
        except (TypeError, OverflowError):
            pass
    raise TypeError("expected an array of numbers")


def integers(v) -> tuple[int, ...]:
    """A list or tuple of integers."""
    if isinstance(v, (list, tuple)):
        try:
            return tuple(integer(x) for x in v)
        except TypeError:
            pass
    raise TypeError("expected an array of integers")


@dataclass(frozen=True)
class PolyZ:
    """Dense polynomial in z^-1; degree = len(coeffs) - 1, never empty."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = numbers(self.coeffs)
        if not vals:
            raise ValueError("PolyZ needs at least one coefficient")
        if not all(math.isfinite(c) for c in vals):
            raise ValueError("PolyZ coefficients must be finite")
        object.__setattr__(self, "coeffs", vals)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        """True when the z^0 coefficient is exactly 1."""
        return self.coeffs[0] == 1.0

    def trimmed(self) -> "PolyZ":
        """Copy with trailing zero coefficients dropped."""
        last = len(self.coeffs) - 1
        while last > 0 and self.coeffs[last] == 0.0:
            last -= 1
        return PolyZ(self.coeffs[: last + 1])


def convolve(f, g) -> list[float]:
    """Coefficients c_k = sum_i f_i g_(k-i) of the product of f and g.

    Each c_k adds its products left to right over f's index i, starting from
    +0.0, in plain float arithmetic: no BLAS kernel picks the order, so the
    bits are the same on every CPU.
    """
    out = []
    for k in range(len(f) + len(g) - 1):
        acc = 0.0
        for i in range(max(0, k - len(g) + 1), min(k + 1, len(f))):
            acc += f[i] * g[k - i]
        out.append(acc)
    return out


def predictor_split(L: PolyZ, A: PolyZ, d: int) -> tuple[PolyZ, PolyZ]:
    """Split L/A = F + z^-d alpha/A by synthetic long division.

    F collects the first d quotient coefficients of the expansion of L/A in
    powers of z^-1 (so f0 = 1 when both are monic), and alpha is the
    remainder advanced by d steps, padded to exactly deg A coefficients
    (one zero coefficient when A is constant). The exact identity
    L == F*A + z^-d alpha holds coefficient-wise.
    """
    if d < 1:
        raise ValueError("delay d must be a positive integer")
    if not A.is_monic():
        raise ValueError("A must be monic in z^0 (division normalized by a0 = 1)")
    if not L.is_monic():
        raise ValueError("L must be monic in z^0")
    n = A.degree
    if L.degree > n + d - 1:
        raise ValueError(
            f"deg L = {L.degree} exceeds deg A + d - 1 = {n + d - 1}; "
            "the remainder would not fit in deg A coefficients"
        )
    work = list(L.coeffs) + [0.0] * (n + d - len(L.coeffs))
    f = [0.0] * d
    for k in range(d):
        f[k] = work[k]
        if f[k] != 0.0:
            for i in range(1, n + 1):
                work[k + i] -= f[k] * A.coeffs[i]
    alpha = work[d : d + n] if n >= 1 else [0.0]
    return PolyZ(tuple(f)), PolyZ(tuple(alpha))


def schur_stable_rows(coeffs) -> np.ndarray:
    """schur_stable for each row of coefficients p_0 .. p_k (ascending powers of z^-1).

    Runs the Schur-Cohn reduction on the forward-power coefficients of all
    rows at once. Every operation is elementwise in the row, and the
    normalizing scale is taken with Python's max() semantics (a NaN is kept
    only when it comes first), so each row gets the verdict a scalar loop
    over that row alone would give.
    """
    c = np.atleast_2d(np.asarray(coeffs, dtype=float))
    if np.any(c[:, 0] == 0.0):
        raise ValueError("degenerate polynomial: leading (z^0) coefficient is zero")
    # Ascending powers of z; the leading coefficient c[:, -1] equals p_0.
    c = c[:, ::-1]
    stable = np.ones(len(c), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        while c.shape[1] > 1:
            stable &= ~(np.abs(c[:, 0]) >= (1.0 - BOUNDARY_TOL) * np.abs(c[:, -1]))
            q0, qn = c[:, :1], c[:, -1:]
            m = c.shape[1] - 1
            c = qn * c[:, 1:] - q0 * c[:, m - 1 :: -1]
            mag = np.abs(c)
            scale = mag[:, 0]
            for j in range(1, m):
                scale = np.where(mag[:, j] > scale, mag[:, j], scale)
            scale = scale[:, None]
            c = np.divide(c, scale, out=c, where=scale > 0.0)
    return stable


def schur_stable(p: PolyZ) -> bool:
    """True iff every root of z^deg p(1/z) lies strictly inside the unit circle.

    Roots within BOUNDARY_TOL of the unit circle are classified unstable, so
    a True answer always certifies a strict stability margin.
    """
    return bool(schur_stable_rows(p.coeffs)[0])


def max_root_moduli(coeffs) -> np.ndarray:
    """Largest root modulus of z^k p(1/z) for each row of coefficients.

    Row r holds p_0 .. p_k in ascending powers of z^-1. The roots are the
    eigenvalues of the companion matrix of p / p_0, the matrix np.roots
    builds, found for all rows in one batched eigvals call. A first-degree
    row's one root is |p_1 / p_0|, the bits of its 1x1 companion's eigenvalue
    while LAPACK's dgeev takes the matrix unscaled, which is when its entry
    is 0 or lies in [2^-459, 2^459]; past that range dgeev rescales and may
    round the root by an ulp, so such rows take the eigvals call.
    """
    c = np.atleast_2d(np.asarray(coeffs, dtype=float))
    if np.any(c[:, 0] == 0.0):
        raise ValueError("degenerate polynomial: leading (z^0) coefficient is zero")
    rows, k = c.shape[0], c.shape[1] - 1
    if k == 0:
        return np.zeros(rows)
    if k == 1:
        root = np.abs(c[:, 1] / c[:, 0])
        if np.all((root == 0.0) | ((root >= 2.0**-459) & (root <= 2.0**459))):
            return root
    comp = np.zeros((rows, k, k))
    comp[:, 0, :] = -c[:, 1:] / c[:, :1]
    comp[:, np.arange(1, k), np.arange(k - 1)] = 1.0
    return np.max(np.abs(np.linalg.eigvals(comp)), axis=1)


def max_root_modulus(p: PolyZ) -> float:
    """Largest root modulus of z^deg p(1/z); 0.0 for constants."""
    return float(max_root_moduli(p.trimmed().coeffs)[0])
