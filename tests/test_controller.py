"""Tests for the history layout, reference outputs, and control law."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mraclab.controller import (
    control_input,
    history,
    loop_start,
    reference_outputs,
    x0_length,
    ybar,
)
from mraclab.plant_sim import signal_rows, square_wave, table_signal, white_noise
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
        # The closed loop starts from these lists: zeros, the part of x0
        # older than t0, then y(t0) (outputs) and u(t0-1) (inputs).
        start = loop_start([-1.0, -1.0, 0.0], n=2, m=1, d=1)
        assert start.lead == 4
        assert start.y.tolist() == [0.0, 0.0, 0.0, -1.0, -1.0]
        assert start.u.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_rest_state(self):
        start = loop_start(np.zeros(3), n=2, m=1, d=1)
        assert all(v == 0.0 for v in start.y)
        assert all(v == 0.0 for v in start.u)
        # With n + d = 1 the vector is empty and y(t0) is zero.
        start = loop_start([], n=0, m=0, d=1)
        assert start.y.tolist() == [0.0, 0.0] and start.u.tolist() == [0.0]

    def test_prestart_regressors(self):
        # d = 2, n = 1, m = 0: phi(t0-1) = (y(t0-1), u(t0-1), u(t0-2)).
        x0 = [1.0, 2.0, 3.0, 4.0]  # y(0), y(-1), u(-1), u(-2)
        hist = history(x0, [1.0, 5.0], [6.0, 7.0], n=1, m=0, d=2)
        np.testing.assert_array_equal(hist.phi(-1, 1), [[2.0, 3.0, 4.0]])
        # history older than x0 is zero; from t0 on the recorded columns follow
        np.testing.assert_array_equal(hist.phi(-2, 1), [[0.0, 4.0, 0.0]])
        np.testing.assert_array_equal(hist.phi(0, 2), [[1.0, 6.0, 3.0], [5.0, 7.0, 6.0]])


class TestRegressor:
    def test_phi_stacking(self):
        # y(-1) = 1, y(0) = 2, u(0) = 5: phi(0) = (y(0), y(-1), u(0), u(-1)).
        hist = history([2.0, 1.0, 0.0], [2.0], [5.0], n=2, m=1, d=1)
        np.testing.assert_array_equal(hist.phi(0, 1), [[2.0, 1.0, 5.0, 0.0]])

    def test_lagged_phi(self):
        hist = history(np.zeros(4), [10.0, 11.0, 12.0, 13.0], [20.0, 21.0, 22.0, 23.0], n=1, m=0, d=2)
        np.testing.assert_array_equal(hist.phi(3, 1), [[13.0, 23.0, 22.0]])
        np.testing.assert_array_equal(hist.phi(2, 1), [[12.0, 22.0, 21.0]])


def explicit_lags(x, lead: int, depth: int, first: int, count: int):
    """Lag rows by integer indexing of a padded column; None when a row reads outside it."""
    index = [[lead + first + k - j for j in range(depth)] for k in range(count)]
    if any(not 0 <= i < len(x) for row in index for i in row):
        return None
    return np.array([[x[i] for i in row] for row in index]).reshape(count, depth)


class TestLagViews:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        n=st.integers(0, 3), m=st.integers(0, 2), d=st.integers(1, 3), rows=st.integers(1, 8),
        data=st.data(),
    )
    def test_lags_and_phi_match_explicit_indexing(self, n, m, d, rows, data):
        # Distinct values everywhere but the zero padding, so a wrong index shows.
        x0 = 0.5 * np.arange(1, x0_length(n, m, d) + 1)
        hist = history(x0, 100.0 + np.arange(rows), 200.0 + np.arange(rows), n, m, d)
        first = data.draw(st.integers(-hist.lead - 2, rows + 1), label="first")
        count = data.draw(st.integers(1, hist.lead + rows + 2), label="count")
        depth = data.draw(st.integers(1, 4), label="depth")
        for x in (hist.y, hist.u):
            want = explicit_lags(x, hist.lead, depth, first, count)
            if want is None:
                with pytest.raises(ValueError, match="reach outside"):
                    hist.lags(x, depth, first, count)
            else:
                got = hist.lags(x, depth, first, count)
                assert got.shape == want.shape and np.array_equal(got, want)
        ys = explicit_lags(hist.y, hist.lead, n, first, count)
        us = explicit_lags(hist.u, hist.lead, m + d, first, count)
        if ys is None or us is None:
            with pytest.raises(ValueError, match="reach outside"):
                hist.phi(first, count)
        else:
            got = hist.phi(first, count)
            assert got.shape == (count, n + m + d) and np.array_equal(got, np.hstack((ys, us)))

    def test_lags_are_read_only_views(self):
        hist = history([1.0, 2.0, 3.0], [1.0, 4.0, 5.0], [6.0, 7.0, 8.0], n=2, m=1, d=1)
        view = hist.lags(hist.y, 2, 0, 3)
        assert np.shares_memory(view, hist.y) and not view.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0] = 9.0
        assert hist.y.tolist() == [0.0, 0.0, 0.0, 2.0, 1.0, 4.0, 5.0]
        assert view.tolist() == [[1.0, 2.0], [4.0, 1.0], [5.0, 4.0]]

    def test_phi_is_a_new_array(self):
        hist = history([1.0, 2.0, 3.0], [1.0, 4.0, 5.0], [6.0, 7.0, 8.0], n=2, m=1, d=1)
        phi = hist.phi(0, 3)
        assert phi.flags.c_contiguous and phi.flags.writeable
        assert not np.shares_memory(phi, hist.y) and not np.shares_memory(phi, hist.u)

    def test_out_of_range_rows_raise(self):
        # A window that ran off either end of the padded column used to be clipped silently.
        hist = history([1.0, 2.0, 3.0], [1.0, 4.0, 5.0], [6.0, 7.0, 8.0], n=2, m=1, d=1)
        assert hist.lead == 4 and len(hist.y) == 7
        hist.lags(hist.y, 2, -3, 6)  # y(t0-4) .. y(t0+2): the whole column
        with pytest.raises(ValueError, match=r"from t0-4 reach outside t0-4 \.\. t0\+2"):
            hist.lags(hist.y, 2, -4, 1)  # would read y(t0-5)
        with pytest.raises(ValueError, match="reach outside"):
            hist.lags(hist.y, 2, -3, 7)  # one row past y(t0+2)
        with pytest.raises(ValueError, match="reach outside"):
            hist.phi(2, 2)
        with pytest.raises(ValueError, match="reach outside"):
            hist.lags(hist.y, 2, 0, -1)


class TestYbar:
    def test_weighted_sum(self):
        assert ybar([4.0, 7.0, 2.0], PolyZ((1.0, 0.0, -0.5))) == 0.0

    def test_identity_weights(self):
        assert ybar([3.5], PolyZ((1.0,))) == 3.5

    def test_zero_history(self):
        assert ybar([0.0, 0.0, 0.0], PolyZ((1.0, 0.2, 0.1))) == 0.0


class TestReferenceOutputs:
    def test_future_target_is_filtered_r(self):
        _, _, ahead = reference_outputs(REF_2, [1.0])
        assert ahead.tolist() == [0.5]

    def test_pure_delay_tracks_r(self):
        r = signal_rows(table_signal([5.0, 6.0, 7.0], t_start=0), 0, 4)
        y_star, now, _ = reference_outputs(REF_PASS, r)
        # y*(t) = r(t-1), with r = 0 before the start time.
        assert y_star.tolist() == [0.0, 5.0, 6.0, 7.0]
        assert now.tolist() == y_star.tolist()

    def test_recursion_matches_direct_filter(self):
        r = signal_rows(white_noise(1.0, seed=5), 0, 60)
        got, _, _ = reference_outputs(REF_2, r)
        # Oracle: run the recursion directly on zero-extended histories.
        ref_vals = [0.0] * 60
        for t in range(60):
            drive = 0.5 * (r[t - 1] if t >= 1 else 0.0)
            y2 = ref_vals[t - 2] if t >= 2 else 0.0
            ref_vals[t] = drive + 0.5 * y2
        np.testing.assert_allclose(got, ref_vals, rtol=0, atol=1e-12)

    def test_steady_state_gain(self):
        # L(1) = 0.5, H(1) = 0.5: unit r drives y* to 1.
        y_star, _, _ = reference_outputs(REF_2, np.ones(200))
        assert abs(y_star[-1] - 1.0) < 1e-12


class TestControlInput:
    def test_known_value(self):
        u = control_input(np.array([0.5, 2.0]), 1.0, [1.0], [], n=1)
        assert u == pytest.approx(0.25, abs=1e-15)

    def test_demo_first_input_is_zero(self):
        start = loop_start([-1.0, -1.0, 0.0], n=2, m=1, d=1)
        _, _, ahead = reference_outputs(REF_2, signal_rows(square_wave(period=200), 0, 1))
        theta = np.array([0.0, -0.5, 3.25, 0.0])
        u = control_input(theta, ahead[0], start.y.tolist(), start.u.tolist(), n=2)
        assert u == 0.0

    def test_closure_identity(self):
        # Each input makes phi(t)^T theta_hat = ybar*(t+d) to machine
        # precision, with phi(t) read back through history().
        rng = np.random.default_rng(67)
        for d in (1, 2):
            n, m = 2, 1
            ref = ReferenceModel(L=PolyZ((1.0, 0.0, -0.5)), H=PolyZ((0.5,)), d=d)
            x0 = rng.uniform(-2, 2, x0_length(n, m, d))
            start = loop_start(x0, n, m, d)
            y, u = start.y.tolist(), start.u.tolist()
            _, _, ahead = reference_outputs(ref, signal_rows(white_noise(1.0, seed=71), 0, 40))
            theta = np.array([0.4, -0.2, 2.5, 0.3, 0.1])[: n + m + d]
            for t in range(40):
                u.append(control_input(theta, ahead[t], y, u, n))
                phi = history(x0, y[start.lead :], u[start.lead :], n, m, d).phi(t, 1)[0]
                scale = 1.0 + abs(ahead[t]) + np.linalg.norm(phi) * np.linalg.norm(theta)
                assert abs(float(phi @ theta) - ahead[t]) <= 1e-12 * scale
                y.append(float(rng.uniform(-3, 3)))
