"""Tests for delay-polynomial arithmetic, the predictor split, and stability tests."""

import math

import numpy as np
import pytest

from mraclab.poly import (
    BOUNDARY_TOL,
    PolyZ,
    max_root_modulus,
    poly_mul,
    predictor_split,
    schur_stable,
    schur_stable_rows,
)


def conv_oracle(p, q):
    """Reference convolution, written as the plain nested loop."""
    out = [0.0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def random_monic(rng, deg, scale=1.0):
    return PolyZ((1.0,) + tuple(rng.uniform(-scale, scale, deg)))


class TestPolyZ:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PolyZ(())

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PolyZ((1.0, math.inf))

    def test_coefficients_follow_the_number_rule(self):
        # A document's arrays refuse a string or a bool; a Python-built PolyZ does too.
        for bad in (("1", True), (1.0, True), ("1",), (None,), np.array([1.0, 0.5])):
            with pytest.raises(TypeError, match="expected an array of numbers"):
                PolyZ(bad)
        p = PolyZ(tuple(np.convolve([1.0, 0.5], [1.0, -0.25])))  # numpy floats, as np.convolve gives them
        assert p.coeffs == (1.0, 0.25, -0.125) and all(type(c) is float for c in p.coeffs)
        assert PolyZ([1, 2]).coeffs == (1.0, 2.0)

    def test_degree_counts_trailing_zeros(self):
        p = PolyZ((1.0, 0.0, 0.0))
        assert p.degree == 2
        assert p.trimmed().degree == 0

    def test_monic_flag_is_exact(self):
        assert PolyZ((1.0, 2.0)).is_monic()
        assert not PolyZ((1.0 + 1e-12, 2.0)).is_monic()


class TestPolyMul:
    def test_known_product(self):
        # (1 + 0.5 z^-1)(2 + z^-1) = 2 + 2 z^-1 + 0.5 z^-2
        r = poly_mul(PolyZ((1.0, 0.5)), PolyZ((2.0, 1.0)))
        assert r.coeffs == tuple(conv_oracle([1.0, 0.5], [2.0, 1.0]))
        np.testing.assert_allclose(r.coeffs, [2.0, 2.0, 0.5], rtol=0, atol=1e-15)

    def test_identity_element(self):
        p = PolyZ((3.0, -1.0, 2.0))
        assert poly_mul(p, PolyZ((1.0,))).coeffs == p.coeffs

    def test_difference_of_squares(self):
        r = poly_mul(PolyZ((1.0, -1.0)), PolyZ((1.0, 1.0)))
        np.testing.assert_allclose(r.coeffs, [1.0, 0.0, -1.0], rtol=0, atol=1e-15)

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = tuple(rng.uniform(-3, 3, rng.integers(1, 7)))
            q = tuple(rng.uniform(-3, 3, rng.integers(1, 7)))
            got = poly_mul(PolyZ(p), PolyZ(q)).coeffs
            np.testing.assert_allclose(got, conv_oracle(p, q), rtol=0, atol=1e-12)

    def test_commutative(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = PolyZ(tuple(rng.uniform(-2, 2, rng.integers(1, 6))))
            q = PolyZ(tuple(rng.uniform(-2, 2, rng.integers(1, 6))))
            np.testing.assert_allclose(
                poly_mul(p, q).coeffs, poly_mul(q, p).coeffs, rtol=0, atol=1e-12
            )

    def test_associative(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p, q, r = (
                PolyZ(tuple(rng.uniform(-2, 2, rng.integers(1, 5)))) for _ in range(3)
            )
            left = poly_mul(poly_mul(p, q), r).coeffs
            right = poly_mul(p, poly_mul(q, r)).coeffs
            np.testing.assert_allclose(left, right, rtol=0, atol=1e-12)


def split_residual(L, A, d):
    """Max |coeff| of L - (F*A + z^-d alpha) for the computed split."""
    F, alpha = predictor_split(L, A, d)
    recon = list(poly_mul(F, A).coeffs)
    width = max(len(recon), d + len(alpha.coeffs), len(L.coeffs))
    recon += [0.0] * (width - len(recon))
    for i, c in enumerate(alpha.coeffs):
        recon[d + i] += c
    padded_L = list(L.coeffs) + [0.0] * (width - len(L.coeffs))
    return max(abs(a - b) for a, b in zip(padded_L, recon))


class TestPredictorSplit:
    def test_one_step_split_is_difference(self):
        # d=1: F = 1 and alpha_i = l_i - a_i.
        L = PolyZ((1.0, 0.0, -0.5))
        A = PolyZ((1.0, 0.3, -0.1))
        F, alpha = predictor_split(L, A, 1)
        np.testing.assert_allclose(F.coeffs, [1.0], rtol=0, atol=0)
        np.testing.assert_allclose(alpha.coeffs, [-0.3, -0.4], rtol=0, atol=1e-15)

    def test_two_step_split(self):
        # L = 1, A = 1 - 0.5 z^-1, d = 2: F = 1 + 0.5 z^-1, alpha = 0.25.
        F, alpha = predictor_split(PolyZ((1.0,)), PolyZ((1.0, -0.5)), 2)
        np.testing.assert_allclose(F.coeffs, [1.0, 0.5], rtol=0, atol=1e-15)
        np.testing.assert_allclose(alpha.coeffs, [0.25], rtol=0, atol=1e-15)

    def test_constant_denominator(self):
        # A = 1: F is the leading d coefficients of L, alpha = 0.
        L = PolyZ((1.0, 0.7))
        F, alpha = predictor_split(L, PolyZ((1.0,)), 2)
        np.testing.assert_allclose(F.coeffs, [1.0, 0.7], rtol=0, atol=0)
        np.testing.assert_allclose(alpha.coeffs, [0.0], rtol=0, atol=0)

    def test_f_leading_coefficient_is_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            L = random_monic(rng, int(rng.integers(0, 4)))
            A = random_monic(rng, int(rng.integers(max(L.degree, 1), 6)))
            d = int(rng.integers(1, 5))
            F, _ = predictor_split(L, A, d)
            assert F.coeffs[0] == 1.0
            assert len(F.coeffs) == d

    def test_reconstruction_identity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            d = int(rng.integers(1, 5))
            A = random_monic(rng, n, scale=2.0)
            L = random_monic(rng, int(rng.integers(0, min(n, n + d - 1) + 1)), scale=2.0)
            assert split_residual(L, A, d) <= 1e-10
            _, alpha = predictor_split(L, A, d)
            assert len(alpha.coeffs) == max(n, 1)

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            predictor_split(PolyZ((1.0,)), PolyZ((2.0, 1.0)), 1)
        with pytest.raises(ValueError):
            predictor_split(PolyZ((0.5,)), PolyZ((1.0, 1.0)), 1)

    def test_rejects_bad_delay(self):
        with pytest.raises(ValueError):
            predictor_split(PolyZ((1.0,)), PolyZ((1.0,)), 0)

    def test_rejects_oversized_numerator(self):
        # deg L > deg A + d - 1 cannot leave a remainder of deg A coefficients.
        with pytest.raises(ValueError):
            predictor_split(PolyZ((1.0, 0.1, 0.1, 0.1)), PolyZ((1.0, 0.5)), 2)


class TestSchurStable:
    def test_known_stable(self):
        assert schur_stable(PolyZ((1.0, 0.0, -0.5)))

    def test_unit_root_unstable(self):
        assert not schur_stable(PolyZ((1.0, -1.0)))

    def test_constant_stable(self):
        assert schur_stable(PolyZ((2.0,)))

    def test_degenerate_leading_zero(self):
        with pytest.raises(ValueError):
            schur_stable(PolyZ((0.0, 1.0)))

    def test_boundary_margin(self):
        # Roots within ~1e-9 of the circle are rejected, just inside passes.
        assert not schur_stable(PolyZ((1.0, -(1.0 - 1e-12))))
        assert schur_stable(PolyZ((1.0, -(1.0 - 1e-6))))

    def test_matches_root_modulus(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 400:
            deg = int(rng.integers(1, 7))
            p = PolyZ((1.0,) + tuple(rng.uniform(-1.5, 1.5, deg)))
            mu = max_root_modulus(p)
            if abs(mu - 1.0) < 1e-6:
                continue  # stay off the decision boundary shared by both routes
            assert schur_stable(p) == (mu < 1.0 - 1e-9)
            checked += 1


def schur_stable_loop(coeffs) -> bool:
    """Reference: the Schur-Cohn reduction on one polynomial, as a scalar loop."""
    c = [float(v) for v in reversed(coeffs)]
    while len(c) > 1:
        if abs(c[0]) >= (1.0 - BOUNDARY_TOL) * abs(c[-1]):
            return False
        q0, qn = c[0], c[-1]
        m = len(c) - 1
        c = [qn * c[i + 1] - q0 * c[m - 1 - i] for i in range(m)]
        scale = max(abs(v) for v in c)
        if scale > 0.0:
            c = [v / scale for v in c]
    return True


class TestSchurStableRows:
    def test_agrees_with_scalar_loop(self):
        # Random coefficients, and polynomials built from roots near the unit
        # circle, where rounding decides the verdict.
        rng = np.random.default_rng(23)
        rows = []
        for deg in range(1, 5):
            for scale in (0.3, 1.0, 4.0):
                c = rng.normal(size=(2000, deg + 1)) * scale
                c[:, 0] += np.where(c[:, 0] >= 0.0, 1e-3, -1e-3)
                rows += list(c)
            for spread in (1e-6, 1e-9, 1e-12):
                for _ in range(800):
                    radii = 1.0 - BOUNDARY_TOL + rng.normal(scale=spread, size=deg)
                    signs = rng.choice((-1.0, 1.0), size=deg)
                    rows.append(np.poly(radii * signs) * rng.uniform(0.5, 2.0))
        assert len(rows) >= 20_000
        for deg in range(1, 5):
            block = np.array([r for r in rows if len(r) == deg + 1])
            got = schur_stable_rows(block)
            want = [schur_stable_loop(r) for r in block]
            assert got.tolist() == want
            assert 0 < np.count_nonzero(got) < len(block)

    @pytest.mark.parametrize(
        "coeffs",
        [
            (1.0, -(1.0 - 1e-12)),
            (1.0, -(1.0 - 1e-6)),
            (1.0, -1.0),
            (1.0, 0.0, -1.0),
            (1.0, 0.0, 0.0, 0.999999999),
            (2.0,),
            (1e200, 5e199),  # the first reduction overflows to inf - inf
            (1e200, 1e300, 3.0),
            (1e-300, 1e-310),  # subnormal
            (1.0, math.inf),
            (1.0, math.nan),
            (1.0, 0.5, math.nan),
        ],
    )
    def test_boundary_cases_agree(self, coeffs):
        assert schur_stable_rows(coeffs).tolist() == [schur_stable_loop(coeffs)]
        assert schur_stable_rows([coeffs, coeffs]).tolist() == [schur_stable_loop(coeffs)] * 2

    def test_degenerate_row_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            schur_stable_rows([(1.0, 0.5), (0.0, 1.0)])


class TestMaxRootModulus:
    def test_known_pair_of_roots(self):
        # 1 - 0.5 z^-2 has roots +/- 1/sqrt(2).
        assert abs(max_root_modulus(PolyZ((1.0, 0.0, -0.5))) - math.sqrt(0.5)) < 1e-6

    def test_single_root(self):
        assert abs(max_root_modulus(PolyZ((1.0, -0.25))) - 0.25) < 1e-12

    def test_constant_has_no_roots(self):
        assert max_root_modulus(PolyZ((2.0,))) == 0.0
        assert max_root_modulus(PolyZ((1.0, 0.0))) == 0.0

    def test_degenerate_leading_zero(self):
        with pytest.raises(ValueError):
            max_root_modulus(PolyZ((0.0, 1.0)))

    def test_product_takes_max(self):
        p = poly_mul(PolyZ((1.0, -0.3)), PolyZ((1.0, 0.8)))
        assert abs(max_root_modulus(p) - 0.8) < 1e-9
