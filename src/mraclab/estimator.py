"""Deadzone-gated projection-algorithm estimator over a box constraint.

One update per step, driven by the d-step-ahead prediction error

    e(t+1) = ybar(t+1) - phi(t-d+1)^T theta_hat(t).

When the relative-deadzone gate opens (rho = 1) the estimate moves along
the normalized gradient with the ideal denominator ||phi||^2 - there is no
additive regularizing constant; the deadzone itself is what keeps the
division safe - and is then clamped back into the box coordinate-wise.
Projection onto a convex set never increases the distance to any point of
the set, which is what makes the parameter-error arguments go through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .system import ParamBox, box_norm

__all__ = [
    "project_box",
    "prediction_error",
    "deadzone_flag",
    "EstimatorState",
    "StepRecord",
    "estimator_update",
]


def project_box(x, box: ParamBox) -> np.ndarray:
    """Euclidean projection onto the box: per-coordinate clamping."""
    return box.clamp(x)


def prediction_error(ybar_next: float, phi_lag, theta_hat) -> float:
    """e(t+1) = ybar(t+1) - phi(t-d+1)^T theta_hat(t)."""
    phi = np.asarray(phi_lag, dtype=float)
    theta = np.asarray(theta_hat, dtype=float)
    if phi.shape != theta.shape:
        raise ValueError(f"regressor shape {phi.shape} != parameter shape {theta.shape}")
    return float(ybar_next) - float(phi @ theta)


def deadzone_flag(e_next: float, phi_lag, box_norm_value: float, delta: float) -> int:
    """Relative-deadzone gate: 1 iff |e| < (2 ||S|| + delta) ||phi||.

    A zero regressor always gates the update off. delta = inf disables the
    deadzone entirely: the update runs whenever ||phi|| > 0 (the infinite
    threshold never loses to a finite error).
    """
    phi = np.asarray(phi_lag, dtype=float)
    norm = math.sqrt(float(phi @ phi))
    if norm == 0.0:
        return 0
    if math.isinf(delta):
        return 1
    return 1 if abs(e_next) < (2.0 * box_norm_value + delta) * norm else 0


@dataclass
class EstimatorState:
    """Current estimate plus the fixed box and deadzone width."""

    theta_hat: np.ndarray
    box: ParamBox
    delta: float = math.inf
    box_norm_cached: float = field(init=False)

    def __post_init__(self) -> None:
        self.theta_hat = np.array(self.theta_hat, dtype=float)
        if self.theta_hat.shape != (self.box.dim,):
            raise ValueError(
                f"theta has dimension {self.theta_hat.shape}, box has {self.box.dim}"
            )
        if not self.delta > 0.0:
            raise ValueError("delta must be positive (math.inf disables the deadzone)")
        if not self.box.contains(self.theta_hat, tol=1e-12):
            raise ValueError("initial estimate must lie inside the box")
        self.box_norm_cached = box_norm(self.box)
        self._lo = np.asarray(self.box.lo)
        self._hi = np.asarray(self.box.hi)


@dataclass
class StepRecord:
    """What one update did: the prediction error and the gate."""

    e_next: float
    rho: int


def estimator_update(state: EstimatorState, phi_lag, ybar_next: float) -> StepRecord:
    """One projection-algorithm step; mutates state.theta_hat in place.

    Gated off (rho = 0) the estimate is untouched. Gated on, it moves by
    phi e / ||phi||^2 and the result is clamped back into the box.
    """
    phi = np.asarray(phi_lag, dtype=float)
    e_next = prediction_error(ybar_next, phi, state.theta_hat)
    rho = deadzone_flag(e_next, phi, state.box_norm_cached, state.delta)
    if rho:
        moved = state.theta_hat + phi * (e_next / float(phi @ phi))
        state.theta_hat = np.minimum(np.maximum(moved, state._lo), state._hi)
    return StepRecord(e_next=e_next, rho=rho)
