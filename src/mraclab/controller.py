"""Certainty-equivalence control law and the layout of a run's past.

At every step the input u(t) is chosen so that the current estimate
predicts perfect reference following d steps ahead:

    phi(t)^T theta_hat(t) = ybar*(t+d),

which is solvable for u(t) because the projection keeps beta0_hat in the
box, whose beta0 interval ExperimentConfig refuses if it contains 0.
history() is the one layout of a run's past y/u samples: the closed loop
starts from it and appends to its two columns, and the offline audits read
regressor rows from it. The reference-model outputs are whole-horizon
columns of r; the control law and the weighted-output sum ybar are pure
functions of coefficients and oldest-first lists. history, ybar and
control_input take a validated config's data (its x0 length, box and
theta0 are checked once, by ExperimentConfig) and do not re-check it.

The golden traces pin each kernel's products and the order of its sums.
Each walks its lags with a running negative index, newest sample first:
ybar adds l_j y(t-j) for j = 0, 1, .. to an accumulator from +0.0;
control_input starts from ybar*(t+d), subtracts theta_i y(t-i) for
i = 0 .. n-1 and then theta_{n+i} u(t-i) for i = 1 .. m+d-1, and divides
by beta0_hat last; the y* recursion adds l_j y*(t-j) for j = 1, .. from
+0.0 and subtracts that sum from ybar*(t).

Conventions: the reference input r(t) is taken as 0 before the start time
t0, and output history older than the supplied initial condition is
treated as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def x0_length(n: int, m: int, d: int) -> int:
    """Initial-condition layout: n+d-1 outputs y(t0)..y(t0-n-d+2) followed by
    m+2d-2 inputs u(t0-1)..u(t0-m-2d+2)."""
    return (n + d - 1) + (m + 2 * d - 2)


@dataclass(frozen=True)
class History:
    """A run's output and input history as two padded arrays.

    y[k] and u[k] hold y(t0 - lead + k) and u(t0 - lead + k): zeros, then
    the part of x0 older than t0, then the recorded columns from t0 on.
    Times are counted from t0: the padded arrays cover t0 - lead .. t0 +
    len(y) - lead - 1, and lags and phi refuse rows outside that span
    rather than clip them.
    """

    y: np.ndarray
    u: np.ndarray
    lead: int
    n: int
    m: int
    d: int

    def lags(self, x: np.ndarray, depth: int, first: int, count: int) -> np.ndarray:
        """Rows (x(t), x(t-1), .., x(t-depth+1)) for t = t0+first .. t0+first+count-1.

        x is a contiguous 1-D array on the padded time axis (y, u or an
        at_rest column). The result is a read-only (count, depth) view of x,
        row stride one sample forward and column stride one sample back, so
        column j is the contiguous run x(t0+first-j ..). ValueError when a
        row would read before x[0] or past x[-1].
        """
        newest = self.lead + first  # index of x(t0 + first)
        if count < 0 or depth < 0 or newest - depth + 1 < 0 or newest + count > len(x):
            raise ValueError(
                f"{count} rows of {depth} lags from t0{first:+d} reach outside "
                f"t0-{self.lead} .. t0+{len(x) - self.lead - 1}"
            )
        step = x.itemsize
        view = np.ndarray((count, depth), x.dtype, x, newest * step, (step, -step))
        view.flags.writeable = False
        return view

    def at_rest(self, col) -> np.ndarray:
        """A recorded column on the same time axis, zero before t0."""
        return np.concatenate((np.zeros(self.lead), col))

    def phi(self, first: int, count: int) -> np.ndarray:
        """Regressor rows phi(t) for t = t0+first .. t0+first+count-1, as one new (count, p) array.

        Columns 0..n-1 are y(t)..y(t-n+1), the rest u(t)..u(t-m-d+1); the
        bounds are those of lags.
        """
        n = self.n
        ys = self.lags(self.y, n, first, count)
        us = self.lags(self.u, self.m + self.d, first, count)
        out = np.empty((count, n + self.m + self.d))
        out[:, :n] = ys
        out[:, n:] = us
        return out


def history(x0, y, u, n: int, m: int, d: int) -> History:
    """Lay out x0 and the recorded y/u columns as one History.

    x0 stacks y(t0)..y(t0-n-d+2) then u(t0-1)..u(t0-m-2d+2); u(t0) is not
    part of the initial data - the controller computes it. The lead of
    x0_length + 1 samples covers the oldest value any regressor, weighted
    sum or plant recursion of the run reads.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    ny = n + d - 1
    lead = x0_length(n, m, d) + 1
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
    """Weighted output ybar(t) = y(t) + sum_j l_j y(t-j); y is oldest first, y(t) last.
    run_closed_loop's in-place copy is pinned to these bits by test_loop_is_its_kernels_composed."""
    acc = 0.0  # term by term from +0.0: the trace pins depend on this order
    i = -1
    for c in L.coeffs:
        acc += c * y[i]
        i -= 1
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
    lead = len(h) - 1
    r_ext = np.concatenate((np.zeros(lead), np.asarray(r, dtype=float)))
    ahead = 0.0
    for i, c in enumerate(h):
        ahead = ahead + c * r_ext[lead - i : lead - i + rows]
    now = np.concatenate((np.zeros(d), ahead))[:rows]  # ybar*(t) is ybar*(t+d) d rows down
    y_star, tail = [0.0] * ref.order, l[1:]
    for s in now.tolist():
        acc = 0.0
        i = -1
        for c in tail:
            acc += c * y_star[i]
            i -= 1
        y_star.append(s - acc)
    return np.array(y_star[ref.order :]), now, ahead


def control_input(theta_hat, target: float, y, u, n: int) -> float:
    """Certainty-equivalence input u(t) solving phi(t)^T theta_hat = target = ybar*(t+d).

    theta_hat is a sequence of n+m+d floats; y ends with y(t) and u
    with u(t-1), both oldest first; n is the plant order.
    """
    acc = target
    i = -1
    for c in theta_hat[:n]:
        acc -= c * y[i]
        i -= 1
    i = -1
    for c in theta_hat[n + 1 :]:
        acc -= c * u[i]
        i -= 1
    return acc / theta_hat[n]
