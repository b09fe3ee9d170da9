"""Tests for the regressor buffers, reference recursion, and control law."""

import math

import numpy as np
import pytest

from mraclab.controller import (
    ControlError,
    Regressor,
    control_input,
    history,
    init_from_x0,
    reference_outputs,
    x0_length,
    ybar,
)
from mraclab.plant_sim import constant_signal, square_wave, table_signal, white_noise
from mraclab.poly import PolyZ
from mraclab.system import ReferenceModel

REF_2 = ReferenceModel(L=PolyZ((1.0, 0.0, -0.5)), H=PolyZ((0.5,)), d=1)
REF_PASS = ReferenceModel(L=PolyZ((1.0,)), H=PolyZ((1.0,)), d=1)


class TestX0Layout:
    def test_lengths(self):
        assert x0_length(2, 1, 1) == 3
        assert x0_length(1, 0, 2) == 4
        assert x0_length(1, 0, 1) == 1

    def test_demo_buffers(self):
        ctrl, plant = init_from_x0([-1.0, -1.0, 0.0], n=2, m=1, d=1, ref=REF_2)
        assert list(ctrl.reg.y) == [-1.0, -1.0, 0.0]
        assert list(ctrl.reg.u) == [0.0, 0.0]
        assert plant.y == [-1.0, -1.0]
        assert plant.u == [0.0]

    def test_rest_state(self):
        ctrl, plant = init_from_x0(np.zeros(3), n=2, m=1, d=1, ref=REF_2)
        assert all(v == 0.0 for v in ctrl.reg.y)
        assert all(v == 0.0 for v in plant.u)

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError, match="x0 has 2 entries"):
            init_from_x0([1.0, 2.0], n=2, m=1, d=1, ref=REF_2)

    def test_prestart_regressors(self):
        # d = 2, n = 1, m = 0: phi(t0-1) = (y(t0-1), u(t0-1), u(t0-2)).
        x0 = [1.0, 2.0, 3.0, 4.0]  # y(0), y(-1), u(-1), u(-2)
        hist = history(x0, [1.0, 5.0], [6.0, 7.0], n=1, m=0, d=2)
        np.testing.assert_array_equal(hist.phi(-1, 1), [[2.0, 3.0, 4.0]])
        # history older than x0 is zero; from t0 on the recorded columns follow
        np.testing.assert_array_equal(hist.phi(-2, 1), [[0.0, 4.0, 0.0]])
        np.testing.assert_array_equal(hist.phi(0, 2), [[1.0, 6.0, 3.0], [5.0, 7.0, 6.0]])
        with pytest.raises(ValueError, match="wrong length"):
            history([0.0], [0.0], [0.0], n=1, m=0, d=2)


class TestRegressor:
    def test_phi_stacking(self):
        reg = Regressor(n=2, m=1, d=1)
        for v in (1.0, 2.0):  # y(-1), y(0)
            reg.push_y(v)
        reg.push_u(5.0)
        np.testing.assert_allclose(reg.phi(0), [2.0, 1.0, 5.0, 0.0], rtol=0, atol=0)

    def test_lagged_phi(self):
        reg = Regressor(n=1, m=0, d=2)
        for t in range(4):
            reg.push_y(float(10 + t))
            reg.push_u(float(20 + t))
        np.testing.assert_allclose(reg.phi(0), [13.0, 23.0, 22.0], rtol=0, atol=0)
        np.testing.assert_allclose(reg.phi(1), [12.0, 22.0, 21.0], rtol=0, atol=0)

    def test_lag_out_of_range(self):
        with pytest.raises(ValueError):
            Regressor(n=1, m=0, d=1).phi(1)


class TestYbar:
    def test_weighted_sum(self):
        assert ybar([2.0, 7.0, 4.0], PolyZ((1.0, 0.0, -0.5))) == 0.0

    def test_identity_weights(self):
        assert ybar([3.5], PolyZ((1.0,))) == 3.5

    def test_zero_history(self):
        assert ybar([0.0, 0.0, 0.0], PolyZ((1.0, 0.2, 0.1))) == 0.0

    def test_short_history_raises(self):
        with pytest.raises(ValueError):
            ybar([1.0, 2.0], PolyZ((1.0, 0.0, -0.5)))


class TestReferenceOutputs:
    def test_future_target_is_filtered_r(self):
        ctrl, _ = init_from_x0(np.zeros(3), n=2, m=1, d=1, ref=REF_2)
        _, target = reference_outputs(ctrl, 0, constant_signal(1.0))
        assert target == 0.5

    def test_pure_delay_tracks_r(self):
        ctrl, _ = init_from_x0(np.zeros(1), n=1, m=0, d=1, ref=REF_PASS)
        r = table_signal([5.0, 6.0, 7.0], t_start=0)
        values = [reference_outputs(ctrl, t, r)[0] for t in range(4)]
        # y*(t) = r(t-1), with r = 0 before the start time.
        assert values == [0.0, 5.0, 6.0, 7.0]

    def test_recursion_matches_direct_filter(self):
        ctrl, _ = init_from_x0(np.zeros(3), n=2, m=1, d=1, ref=REF_2)
        r = white_noise(1.0, seed=5)
        got = [reference_outputs(ctrl, t, r)[0] for t in range(60)]
        # Oracle: run the recursion directly on zero-extended histories.
        ref_vals = [0.0] * 60
        for t in range(60):
            drive = 0.5 * (signal_eval_r(r, t - 1))
            y2 = ref_vals[t - 2] if t >= 2 else 0.0
            ref_vals[t] = drive + 0.5 * y2
        np.testing.assert_allclose(got, ref_vals, rtol=0, atol=1e-12)

    def test_steady_state_gain(self):
        # L(1) = 0.5, H(1) = 0.5: unit r drives y* to 1.
        ctrl, _ = init_from_x0(np.zeros(3), n=2, m=1, d=1, ref=REF_2)
        for t in range(200):
            y_star, _ = reference_outputs(ctrl, t, constant_signal(1.0))
        assert abs(y_star - 1.0) < 1e-12


def signal_eval_r(spec, t):
    from mraclab.plant_sim import signal_eval

    return signal_eval(spec, t) if t >= 0 else 0.0


class TestControlInput:
    def test_known_value(self):
        ctrl, _ = init_from_x0([1.0], n=1, m=0, d=1, ref=REF_PASS)
        reference_outputs(ctrl, 0, constant_signal(1.0))
        u = control_input(ctrl, np.array([0.5, 2.0]), 0)
        assert u == pytest.approx(0.25, abs=1e-15)

    def test_demo_first_input_is_zero(self):
        ctrl, _ = init_from_x0([-1.0, -1.0, 0.0], n=2, m=1, d=1, ref=REF_2)
        reference_outputs(ctrl, 0, square_wave(period=200))
        u = control_input(ctrl, np.array([0.0, -0.5, 3.25, 0.0]), 0)
        assert u == 0.0

    def test_closure_identity(self):
        # After each input the freshly materialized regressor satisfies
        # phi(t)^T theta_hat = ybar*(t+d) to machine precision.
        rng = np.random.default_rng(67)
        for d in (1, 2):
            n, m = 2, 1
            ref = ReferenceModel(L=PolyZ((1.0, 0.0, -0.5)), H=PolyZ((0.5,)), d=d)
            ctrl, _ = init_from_x0(rng.uniform(-2, 2, x0_length(n, m, d)), n, m, d, ref=ref)
            r = white_noise(1.0, seed=71)
            theta = np.array([0.4, -0.2, 2.5, 0.3, 0.1])[: n + m + d]
            for t in range(40):
                reference_outputs(ctrl, t, r)
                control_input(ctrl, theta, t)
                phi = ctrl.reg.phi(0)
                scale = 1.0 + abs(ctrl.ybar_star_future) + np.linalg.norm(phi) * np.linalg.norm(theta)
                assert abs(float(phi @ theta) - ctrl.ybar_star_future) <= 1e-12 * scale
                ctrl.reg.push_y(float(rng.uniform(-3, 3)))

    def test_requires_fresh_reference(self):
        ctrl, _ = init_from_x0([1.0], n=1, m=0, d=1, ref=REF_PASS)
        with pytest.raises(ControlError):
            control_input(ctrl, np.array([0.5, 2.0]), 0)

    def test_rejects_wrong_gain_sign(self):
        ctrl, _ = init_from_x0([1.0], n=1, m=0, d=1, ref=REF_PASS, gain_sign=1.0)
        reference_outputs(ctrl, 0, constant_signal(1.0))
        with pytest.raises(ControlError):
            control_input(ctrl, np.array([0.5, -2.0]), 0)

    def test_rejects_zero_gain(self):
        ctrl, _ = init_from_x0([1.0], n=1, m=0, d=1, ref=REF_PASS)
        reference_outputs(ctrl, 0, constant_signal(1.0))
        with pytest.raises(ControlError):
            control_input(ctrl, np.array([0.5, 0.0]), 0)

    def test_rejects_wrong_theta_shape(self):
        ctrl, _ = init_from_x0([1.0], n=1, m=0, d=1, ref=REF_PASS)
        reference_outputs(ctrl, 0, constant_signal(1.0))
        with pytest.raises(ControlError):
            control_input(ctrl, np.array([0.5, 2.0, 0.0]), 0)
