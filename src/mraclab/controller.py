"""Certainty-equivalence control law and its bookkeeping.

At every step the input u(t) is chosen so that the current estimate
predicts perfect reference following d steps ahead:

    phi(t)^T theta_hat(t) = ybar*(t+d),

which is solvable for u(t) because beta0_hat is bounded away from zero by
the box. The module also owns the regressor ring buffers (deep enough to
materialize phi(t) .. phi(t-d+1)), the reference-model recursion, and the
weighted-output sum ybar.

Conventions: the reference input r(t) is taken as 0 before the start time
t0, and output history older than the supplied initial condition is
treated as 0.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .plant_sim import PlantState, SignalSpec, signal_eval
from .poly import PolyZ
from .system import ReferenceModel

__all__ = [
    "Regressor",
    "ControllerState",
    "init_from_x0",
    "History",
    "history",
    "x0_length",
    "ybar",
    "reference_outputs",
    "control_input",
]


class ControlError(RuntimeError):
    """The control law hit a corrupted or unsolvable state."""


class Regressor:
    """Ring buffers of plant data, newest first.

    y holds n + d samples, u holds m + 2d - 1, enough to materialize the
    regressor vectors phi(t), phi(t-1), ..., phi(t-d+1) that the control
    law and the estimator consume.
    """

    def __init__(self, n: int, m: int, d: int):
        self.n, self.m, self.d = n, m, d
        self.y = deque([0.0] * (n + d), maxlen=n + d)
        self.u = deque([0.0] * (m + 2 * d - 1), maxlen=m + 2 * d - 1)

    def push_y(self, value: float) -> None:
        self.y.appendleft(float(value))

    def push_u(self, value: float) -> None:
        self.u.appendleft(float(value))

    def phi(self, lag: int = 0) -> np.ndarray:
        """phi(t-lag) = (y(t-lag)..y(t-lag-n+1), u(t-lag)..u(t-lag-m-d+1))."""
        if not 0 <= lag <= self.d - 1:
            raise ValueError(f"lag must lie in [0, d-1], got {lag}")
        n, m, d = self.n, self.m, self.d
        out = np.empty(n + m + d)
        for i in range(n):
            out[i] = self.y[lag + i]
        for j in range(m + d):
            out[n + j] = self.u[lag + j]
        return out


def x0_length(n: int, m: int, d: int) -> int:
    """Initial-condition layout: n+d-1 outputs y(t0)..y(t0-n-d+2) followed by
    m+2d-2 inputs u(t0-1)..u(t0-m-2d+2)."""
    return (n + d - 1) + (m + 2 * d - 2)


@dataclass
class ControllerState:
    """Mutable controller-side state for one closed-loop run."""

    reg: Regressor
    ref: ReferenceModel
    t0: int
    gain_sign: float
    ystar_hist: deque = field(default_factory=deque)  # y*(t-1) .. y*(t-n')
    # Cache of the last reference evaluation, consumed by control_input and
    # the error bookkeeping at the same time index.
    ref_t: int | None = None
    ystar_now: float = 0.0
    ybar_star_now: float = 0.0
    ybar_star_future: float = 0.0


def init_from_x0(
    x0,
    n: int,
    m: int,
    d: int,
    ref: ReferenceModel,
    t0: int = 0,
    gain_sign: float = 1.0,
) -> tuple[ControllerState, PlantState]:
    """Populate controller and plant ring buffers from one initial-condition vector.

    x0 stacks y(t0)..y(t0-n-d+2) then u(t0-1)..u(t0-m-2d+2); u(t0) is not
    part of the initial data - the controller computes it. History beyond
    the vector is zero. The reference recursion starts at rest.
    """
    x0 = [float(v) for v in np.asarray(x0, dtype=float).ravel()]
    need = x0_length(n, m, d)
    if len(x0) != need:
        raise ValueError(
            f"x0 has {len(x0)} entries; dims (n={n}, m={m}, d={d}) need "
            f"{need} = (n+d-1) outputs + (m+2d-2) inputs"
        )
    y_part = x0[: n + d - 1]
    u_part = x0[n + d - 1 :]

    reg = Regressor(n, m, d)
    for k, v in enumerate(y_part):
        reg.y[k] = v
    for k, v in enumerate(u_part):
        reg.u[k] = v  # u(t0-1-k); slot for u(t0) opens on the first push

    ctrl = ControllerState(
        reg=reg,
        ref=ref,
        t0=t0,
        gain_sign=math.copysign(1.0, gain_sign),
        ystar_hist=deque([0.0] * ref.order, maxlen=max(ref.order, 1)),
    )
    plant = PlantState(n=n, m=m, d=d, y_init=y_part[:n], u_init=u_part[: m + d - 1])
    return ctrl, plant


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
    """Lay out x0 (see init_from_x0) and the recorded y/u columns as one History.

    The lead of x0_length + 1 samples covers the oldest value any regressor,
    weighted sum or plant recursion of the run reads.
    """
    x0 = np.asarray(x0, dtype=float)
    if len(x0) != x0_length(n, m, d):
        raise ValueError("x0 has the wrong length for these dimensions")
    ny = n + d - 1
    lead = len(x0) + 1
    y_old = x0[1:ny][::-1]  # y(t0-n-d+2) .. y(t0-1); x0[0] is the recorded y(t0)
    u_old = x0[ny:][::-1]  # u(t0-m-2d+2) .. u(t0-1)
    y_ext = np.concatenate((np.zeros(lead - len(y_old)), y_old, y))
    u_ext = np.concatenate((np.zeros(lead - len(u_old)), u_old, u))
    return History(y_ext, u_ext, lead, n, m, d)


def ybar(y_newest_first, L: PolyZ) -> float:
    """Weighted output ybar(t) = y(t) + sum_j l_j y(t-j), newest-first history."""
    coeffs = L.coeffs
    if len(y_newest_first) < len(coeffs):
        raise ValueError(
            f"history of depth {len(y_newest_first)} cannot evaluate deg-{L.degree} L"
        )
    return sum(c * y_newest_first[j] for j, c in enumerate(coeffs))


def _r_at(state: ControllerState, r: SignalSpec, t: int) -> float:
    return signal_eval(r, t) if t >= state.t0 else 0.0


def reference_outputs(state: ControllerState, t: int, r: SignalSpec) -> tuple[float, float]:
    """Advance the reference model to time t.

    Returns (y*(t), ybar*(t+d)) and caches ybar*(t) for the tracking-error
    bookkeeping; y*(t) is pushed into the recursion history. ybar*(t+d)
    depends only on r(t)..r(t-deg H), so it is available at time t even
    though it describes the target d steps ahead.
    """
    ref = state.ref
    h = ref.H.coeffs
    l = ref.L.coeffs
    d = ref.d
    s_now = sum(h[i] * _r_at(state, r, t - d - i) for i in range(len(h)))
    y_star = s_now - sum(l[j] * state.ystar_hist[j - 1] for j in range(1, len(l)))
    if ref.order:
        state.ystar_hist.appendleft(y_star)
    s_future = sum(h[i] * _r_at(state, r, t - i) for i in range(len(h)))
    state.ref_t = t
    state.ystar_now = y_star
    state.ybar_star_now = s_now
    state.ybar_star_future = s_future
    return y_star, s_future


def control_input(state: ControllerState, theta_hat, t: int) -> float:
    """Certainty-equivalence input solving phi(t)^T theta_hat = ybar*(t+d).

    Pushes the computed u(t) into the regressor, so reg.phi(0) is exactly
    the vector the equation was solved for.
    """
    if state.ref_t != t:
        raise ControlError("reference_outputs must run at time t before control_input")
    reg = state.reg
    n, m, d = reg.n, reg.m, reg.d
    theta = np.asarray(theta_hat, dtype=float)
    if theta.shape != (n + m + d,):
        raise ControlError(f"theta has shape {theta.shape}, expected ({n + m + d},)")
    b0_hat = theta[n]
    if b0_hat == 0.0 or math.copysign(1.0, b0_hat) != state.gain_sign:
        raise ControlError(
            f"estimated leading gain {b0_hat} left its admissible sign; "
            "the box must pin the sign of beta0"
        )
    acc = state.ybar_star_future
    for i in range(n):
        acc -= theta[i] * reg.y[i]
    for i in range(1, m + d):
        acc -= theta[n + i] * reg.u[i - 1]  # u(t-i) sits at index i-1 pre-push
    u_t = acc / b0_hat
    reg.push_u(u_t)
    return u_t
