"""Tests for the deadzone-gated projection estimator."""

import copy
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from mraclab.estimator import EstimatorState, deadzone_flag, estimator_update
from mraclab.system import ParamBox, box_norm

UNIT_BOX = ParamBox(lo=(-1.0, -1.0), hi=(1.0, 1.0))


def _dot(a, b) -> float:
    """a^T b summed left to right from +0.0, the estimator's order."""
    acc = 0.0
    for x, y in zip(a, b):
        acc += x * y
    return acc


def prediction(ybar_next, phi, theta) -> float:
    """e(t+1) as estimator_update returns it, from an estimate inside a box around theta."""
    box = ParamBox(lo=tuple(v - 1.0 for v in theta), hi=tuple(v + 1.0 for v in theta))
    return estimator_update(EstimatorState(theta_hat=theta, box=box), phi, ybar_next).e_next


def project_box(x, box):
    """The estimator's projection of x: one update from the box midpoint
    whose unclamped move ends at x (exactly when the midpoint is 0)."""
    mid = box.midpoint().tolist()
    phi = [float(v) - c for v, c in zip(x, mid)]
    st = EstimatorState(theta_hat=mid, box=box)
    target = sum(f * c for f, c in zip(phi, mid)) + sum(f * f for f in phi)
    estimator_update(st, phi, ybar_next=target)
    return np.array(st.theta_hat)


class TestProjectBox:
    def test_interior_point_unchanged(self):
        x = np.array([0.25, -0.5])
        np.testing.assert_allclose(project_box(x, UNIT_BOX), x, rtol=0, atol=0)

    def test_clamps_coordinatewise(self):
        np.testing.assert_allclose(
            project_box(np.array([3.0, -2.0]), UNIT_BOX), [1.0, -1.0], rtol=0, atol=0
        )

    def test_non_expansive(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            dim = int(rng.integers(1, 6))
            lo = rng.uniform(-2, 0, dim)
            box = ParamBox(lo=tuple(lo), hi=tuple(lo + rng.uniform(0.1, 3, dim)))
            x = rng.uniform(-5, 5, dim)
            y = rng.uniform(-5, 5, dim)
            dist_proj = np.linalg.norm(project_box(x, box) - project_box(y, box))
            assert dist_proj <= np.linalg.norm(x - y) + 1e-12


class TestPredictionError:
    def test_known_value(self):
        e = prediction(1.0, np.array([1.0, 1.0]), np.array([0.25, 0.25]))
        assert e == pytest.approx(0.5, abs=1e-15)

    def test_exact_model_zero_error(self):
        # The target is phi^T theta summed left to right from +0.0, the order
        # the estimator uses (a BLAS dot may round differently).
        rng = np.random.default_rng(47)
        theta = rng.uniform(-2, 2, 4).tolist()
        phi = rng.uniform(-3, 3, 4).tolist()
        target = 0.0
        for f, c in zip(phi, theta):
            target += f * c
        assert prediction(target, phi, theta) == 0.0


class TestDeadzone:
    def test_zero_regressor_gates_off(self):
        phi = np.zeros(3)
        assert deadzone_flag(5.0, _dot(phi, phi), 1.0, math.inf) == 0

    def test_threshold_arithmetic(self):
        # |e| = 10 against (2 sqrt(2) + 0.1) * 1 ~= 2.93: too large, gate off.
        s_norm = box_norm(UNIT_BOX)
        phi = np.array([1.0, 0.0])
        assert deadzone_flag(10.0, _dot(phi, phi), s_norm, 0.1) == 0
        assert deadzone_flag(2.9, _dot(phi, phi), s_norm, 0.1) == 1

    def test_infinite_delta_always_updates(self):
        phi = np.array([1e-9, 0.0])
        assert deadzone_flag(1e6, _dot(phi, phi), 1.0, math.inf) == 1

    @pytest.mark.parametrize("delta", [math.inf, 1.0])
    @pytest.mark.parametrize("e_next, sq", [(math.nan, 1.0), (0.5, math.nan)],
                             ids=["nan_error", "nan_regressor"])
    def test_nan_closes_the_gate_at_every_delta(self, e_next, sq, delta):
        # One formula for every delta: |e| < NaN and NaN < threshold are both false.
        assert deadzone_flag(e_next, sq, 1.0, delta) == 0

    def test_strict_inequality_at_threshold(self):
        # Exactly on the boundary counts as outside the update region.
        phi = np.array([1.0])
        assert deadzone_flag(3.0, _dot(phi, phi), 1.0, 1.0) == 0


class TestEstimatorState:
    def test_is_plain_data_that_pickles_copies_and_compares(self):
        # ||S|| is read once, into the gate's factor. The state holds data only (the step it
        # runs is estimator_update's, compiled per length), so it survives pickle, deepcopy
        # and replace equal, and each copy's next update gives the original's bits.
        st = EstimatorState(theta_hat=[0.25, -0.5], box=UNIT_BOX, delta=0.5)
        assert st.gate_scale == pytest.approx(2.0 * math.sqrt(2.0) + 0.5, abs=1e-15)
        copies = [pickle.loads(pickle.dumps(st)), copy.deepcopy(st), replace(st)]
        assert all(other == st and other.gate_scale.hex() == st.gate_scale.hex() for other in copies)
        for state in [st, *copies]:
            estimator_update(state, [0.9, 0.2], ybar_next=-0.4)
        bits = [([v.hex() for v in s.theta_hat], s.e_next.hex(), s.rho) for s in [st, *copies]]
        assert bits[0][2] == 1 and bits == [bits[0]] * 4
        assert pickle.loads(pickle.dumps(st)) == st == copy.deepcopy(st)  # after an update too

    @pytest.mark.parametrize("delta", [math.inf, 0.5, 1e308])
    def test_gate_scale_is_the_per_step_factor(self, delta):
        # The gate's factor is formed once, to the bits the per-step product gave;
        # at delta = 1e308 it is finite and its product with ||phi|| may overflow.
        box = ParamBox(lo=(-1.5, -1.0, 0.5), hi=(1.0, 2.0, 3.0))
        st = EstimatorState(theta_hat=box.midpoint(), box=box, delta=delta)
        assert st.gate_scale.hex() == (2.0 * box_norm(box) + delta).hex()

    def test_no_update_yet(self):
        st = EstimatorState(theta_hat=np.zeros(2), box=UNIT_BOX)
        assert (st.e_next, st.rho) == (0.0, 0)


class TestEstimatorUpdate:
    def test_returns_its_state_with_the_last_step(self):
        # Gated on, then gated off (theta_hat untouched): the returned object is the
        # state itself, and its e_next and rho are those of the latest update.
        st = EstimatorState(theta_hat=np.zeros(2), box=UNIT_BOX, delta=0.5)
        assert estimator_update(st, [1.0, 0.0], ybar_next=0.5) is st
        assert (st.e_next, st.rho, st.theta_hat) == (0.5, 1, [0.5, 0.0])
        assert estimator_update(st, [0.1, 0.0], ybar_next=1.0) is st
        assert (st.e_next, st.rho, st.theta_hat) == (1.0 - 0.1 * 0.5, 0, [0.5, 0.0])

    def test_plain_gradient_move(self):
        st = EstimatorState(theta_hat=np.zeros(2), box=UNIT_BOX)
        rec = estimator_update(st, np.array([1.0, 0.0]), ybar_next=0.5)
        assert rec.e_next == pytest.approx(0.5, abs=1e-15)
        assert rec.rho == 1
        np.testing.assert_allclose(st.theta_hat, [0.5, 0.0], rtol=0, atol=1e-15)

    def test_projection_clamps_overshoot(self):
        st = EstimatorState(theta_hat=np.array([0.9, 0.0]), box=UNIT_BOX)
        rec = estimator_update(st, np.array([1.0, 0.0]), ybar_next=2.0)
        assert rec.e_next == pytest.approx(1.1, abs=1e-15)
        np.testing.assert_allclose(st.theta_hat, [1.0, 0.0], rtol=0, atol=0)

    def test_deadzone_freezes_estimate(self):
        st = EstimatorState(theta_hat=np.zeros(2), box=UNIT_BOX, delta=0.5)
        rec = estimator_update(st, np.array([0.1, 0.0]), ybar_next=1.0)
        assert rec.rho == 0
        np.testing.assert_allclose(st.theta_hat, [0.0, 0.0], rtol=0, atol=0)

    def test_zero_regressor_is_noop(self):
        st = EstimatorState(theta_hat=np.array([0.3, -0.2]), box=UNIT_BOX)
        rec = estimator_update(st, np.zeros(2), ybar_next=7.0)
        assert rec.rho == 0
        np.testing.assert_allclose(st.theta_hat, [0.3, -0.2], rtol=0, atol=0)

    def test_estimate_stays_in_box(self):
        rng = np.random.default_rng(53)
        for delta in (math.inf, 0.5):
            st = EstimatorState(theta_hat=np.zeros(2), box=UNIT_BOX, delta=delta)
            for _ in range(500):
                phi = rng.uniform(-3, 3, 2)
                estimator_update(st, phi, ybar_next=float(rng.uniform(-10, 10)))
                assert st.box.contains(st.theta_hat)

    def test_move_bounded_by_normalized_error(self):
        # ||theta_hat(t+1) - theta_hat(t)|| <= rho |e| / ||phi||.
        rng = np.random.default_rng(59)
        st = EstimatorState(theta_hat=np.zeros(2), box=UNIT_BOX, delta=2.0)
        for _ in range(1000):
            phi = rng.uniform(-2, 2, 2)
            prev = np.array(st.theta_hat)
            rec = estimator_update(st, phi, ybar_next=float(rng.uniform(-5, 5)))
            norm = np.linalg.norm(phi)
            bound = rec.rho * abs(rec.e_next) / norm if norm > 0 else 0.0
            assert np.linalg.norm(st.theta_hat - prev) <= bound + 1e-9

    def test_parameter_error_contraction(self):
        # With ybar generated by theta* in the box plus noise wbar, each
        # gated update obeys
        #   ||err(t+1)||^2 - ||err(t)||^2 <= rho (-e^2/2 + 2 wbar^2)/||phi||^2.
        rng = np.random.default_rng(61)
        for delta in (math.inf, 1.0):
            dim = 3
            box = ParamBox(lo=(-1.5, -1.0, 0.5), hi=(1.0, 2.0, 3.0))
            theta_star = box.sample(rng)
            st = EstimatorState(theta_hat=box.midpoint(), box=box, delta=delta)
            for _ in range(800):
                phi = rng.uniform(-2, 2, dim)
                wbar = float(rng.uniform(-0.3, 0.3))
                before = float(np.sum((st.theta_hat - theta_star) ** 2))
                rec = estimator_update(st, phi, ybar_next=float(phi @ theta_star) + wbar)
                after = float(np.sum((st.theta_hat - theta_star) ** 2))
                if rec.rho:
                    allowed = (-0.5 * rec.e_next**2 + 2.0 * wbar**2) / float(phi @ phi)
                else:
                    allowed = 0.0
                assert after - before <= allowed + 1e-9

    def test_infinite_delta_gate_tracks_regressor(self):
        st = EstimatorState(theta_hat=np.zeros(2), box=UNIT_BOX)
        rec = estimator_update(st, np.array([1e-12, 0.0]), ybar_next=3.0)
        assert rec.rho == 1
        rec = estimator_update(st, np.zeros(2), ybar_next=3.0)
        assert rec.rho == 0
