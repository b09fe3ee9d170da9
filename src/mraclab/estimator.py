"""Deadzone-gated projection-algorithm estimator over a box constraint.

One update per step, driven by the d-step-ahead prediction error

    e(t+1) = ybar(t+1) - phi(t-d+1)^T theta_hat(t).

When the relative-deadzone gate opens (rho = 1) the estimate moves along
the normalized gradient with the ideal denominator ||phi||^2 - there is no
additive regularizing constant; the deadzone itself is what keeps the
division safe - and is then clamped back into the box coordinate-wise.
Projection onto a convex set never increases the distance to any point of
the set, which is what makes the parameter-error arguments go through.
The step runs on plain floats in one indexed pass over phi (pred += f * theta[i];
sq += f * f): phi^T theta_hat and ||phi||^2 are summed left to right, each from +0.0,
with no BLAS dot and no sum(), math.fsum or math.sumprod, whose bits differ on newer
Pythons. The audits' column sums take that order, so they recompute e, ||phi|| and
the gate (deadzone_flag's expression, which estimator_update carries in place with
2 ||S|| + delta formed once per state) bit for bit. A gated-on step then sets each
coordinate i, in index order, to v = theta_hat_i + phi_i (e / ||phi||^2) clamped to
the box: lo_i if v < lo_i, else hi_i if v > hi_i, else v, so a NaN passes through and
a signed zero keeps its sign. The golden traces pin these products and this order.

EstimatorState and estimator_update take a validated config's data and do
not re-check it: ExperimentConfig checks the box, theta0 (exactly inside
it) and delta > 0 once, and the projection keeps every estimate inside. The
update returns its own state, whose e_next and rho the next update overwrites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .system import ParamBox, box_norm

__all__ = [
    "deadzone_flag",
    "EstimatorState",
    "estimator_update",
]


def deadzone_flag(e_next: float, sq: float, box_norm_value: float, delta: float) -> int:
    """Relative-deadzone gate: 1 iff |e| < (2 ||S|| + delta) ||phi||, from sq = ||phi||^2.

    One formula for every delta. A zero regressor gates the update off before the
    threshold is formed, so delta = inf never meets 0 * inf and opens the gate on every
    nonzero regressor with a finite error: that disables the deadzone. A NaN error or
    regressor closes the gate at every delta. Returns the int 1 or 0. Its homes: here, in
    place in estimator_update, and over a trace in harness.check_trace_consistency.
    """
    norm = math.sqrt(sq)
    return 1 if norm != 0.0 and abs(e_next) < (2.0 * box_norm_value + delta) * norm else 0


@dataclass
class EstimatorState:
    """Estimate (a list of floats), fixed box and deadzone width, last update's e_next and rho."""

    theta_hat: list[float]
    box: ParamBox
    delta: float = math.inf
    box_norm_cached: float = field(init=False)
    lo: tuple[float, ...] = field(init=False)  # the box's bounds, read on every gated step
    hi: tuple[float, ...] = field(init=False)
    gate_scale: float = field(init=False)  # 2 ||S|| + delta, the gate's factor on ||phi||
    e_next: float = field(init=False, default=0.0)
    rho: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.theta_hat = [float(v) for v in self.theta_hat]
        self.box_norm_cached, self.lo, self.hi = box_norm(self.box), self.box.lo, self.box.hi
        self.gate_scale = 2.0 * self.box_norm_cached + self.delta


def estimator_update(state: EstimatorState, phi_lag, ybar_next: float) -> EstimatorState:
    """One projection-algorithm step; mutates state in place and returns it.

    phi_lag has the length of theta_hat. Gated off (rho = 0) the estimate is
    untouched. Gated on, it moves by phi e / ||phi||^2 and each coordinate is
    clamped back into the box. The returned state's e_next and rho are this
    update's until the next update overwrites them.
    """
    theta = state.theta_hat
    pred = sq = 0.0
    i = 0
    for f in phi_lag:
        pred += f * theta[i]
        sq += f * f
        i += 1
    e_next = float(ybar_next) - pred
    norm = math.sqrt(sq)  # deadzone_flag in place
    rho = 1 if norm != 0.0 and abs(e_next) < state.gate_scale * norm else 0
    if rho:
        g = e_next / sq
        lo, hi = state.lo, state.hi
        i = 0
        for f in phi_lag:
            v = theta[i] + f * g
            theta[i] = lo[i] if v < lo[i] else hi[i] if v > hi[i] else v  # min(max(v, lo), hi)
            i += 1
    state.e_next, state.rho = e_next, rho
    return state
