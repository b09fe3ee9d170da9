"""Certainty-equivalence control law and the layout of a run's past.

At every step the input u(t) is chosen so that the current estimate
predicts perfect reference following d steps ahead:

    phi(t)^T theta_hat(t) = ybar*(t+d),

which is solvable for u(t) because beta0_hat is bounded away from zero by
the box. history() is the one layout of a run's past y/u samples: the
closed loop starts from it and appends to its two columns, and the
offline audits read regressor rows from it. The reference-model outputs
are whole-horizon columns of r; the control law and the weighted-output
sum ybar are pure functions of coefficients and oldest-first lists.

Conventions: the reference input r(t) is taken as 0 before the start time
t0, and output history older than the supplied initial condition is
treated as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .poly import PolyZ
from .system import ReferenceModel

__all__ = [
    "History",
    "history",
    "loop_start",
    "x0_length",
    "ybar",
    "reference_outputs",
    "control_input",
]


class ControlError(RuntimeError):
    """The control law hit a corrupted or unsolvable state."""


def x0_length(n: int, m: int, d: int) -> int:
    """Initial-condition layout: n+d-1 outputs y(t0)..y(t0-n-d+2) followed by
    m+2d-2 inputs u(t0-1)..u(t0-m-2d+2)."""
    return (n + d - 1) + (m + 2 * d - 2)


@dataclass(frozen=True)
class History:
    """A run's output and input history as two padded arrays.

    y[k] and u[k] hold y(t0 - lead + k) and u(t0 - lead + k): zeros, then
    the part of x0 older than t0, then the recorded columns from t0 on.
    """

    y: np.ndarray
    u: np.ndarray
    lead: int
    n: int
    m: int
    d: int

    def lags(self, x: np.ndarray, depth: int, first: int, count: int) -> np.ndarray:
        """Rows (x(t), x(t-1), .., x(t-depth+1)) for t = t0+first .. t0+first+count-1."""
        start = self.lead + first - depth + 1
        return sliding_window_view(x, depth)[start : start + count, ::-1]

    def at_rest(self, col) -> np.ndarray:
        """A recorded column on the same time axis, zero before t0."""
        return np.concatenate((np.zeros(self.lead), col))

    def phi(self, first: int, count: int) -> np.ndarray:
        """Contiguous regressor rows phi(t) for t = t0+first .. t0+first+count-1."""
        ys = self.lags(self.y, self.n, first, count)
        return np.hstack((ys, self.lags(self.u, self.m + self.d, first, count)))


def history(x0, y, u, n: int, m: int, d: int) -> History:
    """Lay out x0 and the recorded y/u columns as one History.

    x0 stacks y(t0)..y(t0-n-d+2) then u(t0-1)..u(t0-m-2d+2); u(t0) is not
    part of the initial data - the controller computes it. The lead of
    x0_length + 1 samples covers the oldest value any regressor, weighted
    sum or plant recursion of the run reads.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    need = x0_length(n, m, d)
    if len(x0) != need:
        raise ValueError(
            f"x0 has {len(x0)} entries; dims (n={n}, m={m}, d={d}) need "
            f"{need} = (n+d-1) outputs + (m+2d-2) inputs"
        )
    ny = n + d - 1
    lead = need + 1
    y_old = x0[1:ny][::-1]  # y(t0-n-d+2) .. y(t0-1); x0[0] is the recorded y(t0)
    u_old = x0[ny:][::-1]  # u(t0-m-2d+2) .. u(t0-1)
    y_ext = np.concatenate((np.zeros(lead - len(y_old)), y_old, y))
    u_ext = np.concatenate((np.zeros(lead - len(u_old)), u_old, u))
    return History(y_ext, u_ext, lead, n, m, d)


def loop_start(x0, n: int, m: int, d: int) -> History:
    """The history a closed loop starts from: outputs up to y(t0), inputs up to u(t0-1).

    y(t0) heads x0, except when n + d = 1: x0 then holds no output and y(t0) = 0.
    """
    return history(x0, list(x0[:1]) if n + d > 1 else [0.0], [], n, m, d)


def ybar(y, L: PolyZ) -> float:
    """Weighted output ybar(t) = y(t) + sum_j l_j y(t-j); y is oldest first, y(t) last."""
    coeffs = L.coeffs
    if len(y) < len(coeffs):
        raise ValueError(f"history of depth {len(y)} cannot evaluate deg-{L.degree} L")
    acc = 0.0  # term by term from +0.0: the trace pins depend on this order
    for j, c in enumerate(coeffs):
        acc += c * y[-1 - j]
    return acc


def reference_outputs(ref: ReferenceModel, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference-model columns over a whole horizon, from the r column r(t0..t0+T).

    Returns (y*(t), ybar*(t), ybar*(t+d)) for t = t0 .. t0+T, with r = 0
    and y* = 0 before t0. ybar*(t+d) = sum_i h_i r(t-i) depends only on r
    up to time t, so it is known when u(t) is chosen; y* follows the
    recursion y*(t) = ybar*(t) - sum_{j>=1} l_j y*(t-j).
    """
    h, l, d = ref.H.coeffs, ref.L.coeffs, ref.d
    rows = len(r)
    lead = len(h) - 1 + d
    r_ext = np.concatenate((np.zeros(lead), np.asarray(r, dtype=float)))
    now = ahead = 0.0
    for i, c in enumerate(h):
        now = now + c * r_ext[lead - d - i : lead - d - i + rows]
        ahead = ahead + c * r_ext[lead - i : lead - i + rows]
    y_star = [0.0] * ref.order
    for s in now.tolist():
        acc = 0.0
        for j in range(1, len(l)):
            acc += l[j] * y_star[-j]
        y_star.append(s - acc)
    return np.array(y_star[ref.order :]), now, ahead


def control_input(theta_hat, target: float, y, u, n: int, p: int, gain_sign: float = 1.0) -> float:
    """Certainty-equivalence input u(t) solving phi(t)^T theta_hat = target = ybar*(t+d).

    theta_hat is a sequence of p = n+m+d floats; y ends with y(t) and u
    with u(t-1), both oldest first; n is the plant order.
    """
    if len(theta_hat) != p:
        raise ControlError(f"theta has {len(theta_hat)} entries, expected {p}")
    b0_hat = theta_hat[n]
    if b0_hat == 0.0 or math.copysign(1.0, b0_hat) != gain_sign:
        raise ControlError(
            f"estimated leading gain {b0_hat} left its admissible sign; "
            "the box must pin the sign of beta0"
        )
    acc = target
    for i in range(n):
        acc -= theta_hat[i] * y[-1 - i]
    for i in range(1, p - n):
        acc -= theta_hat[n + i] * u[-i]
    return acc / b0_hat
