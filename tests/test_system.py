"""Tests for parameter containers, the plant-to-predictor map, and box machinery."""

import math

import numpy as np
import pytest

from mraclab.poly import PolyZ, convolve, max_root_modulus, predictor_split
from mraclab.system import (
    AdmissibilityError,
    ParamBox,
    PlantParams,
    PredictorParams,
    ReferenceModel,
    box_norm,
    build_param_box,
    to_predictor_params,
)

REF_2 = ReferenceModel(L=PolyZ((1.0, 0.0, -0.5)), H=PolyZ((0.5,)), d=1)

# Plant-coefficient box of the time-varying showcase example: the envelope
# of a1 = 2 cos(t/100), a2 = -2 sin(t/300), b0 = 13/4 - 7/4 cos(t/125),
# b1 = -cos(t/50).
DEMO_S_AB = ParamBox(lo=(-2.0, -2.0, 1.5, -1.0), hi=(2.0, 2.0, 5.0, 1.0))


class TestPlantParams:
    def test_valid(self):
        p = PlantParams(a=(0.3, -0.1), b=(2.0, 1.0), d=1)
        assert p.n == 2 and p.m == 1

    def test_rejects_zero_b0(self):
        with pytest.raises(AdmissibilityError):
            PlantParams(a=(0.1,), b=(0.0, 1.0), d=1)

    def test_rejects_nonminimum_phase(self):
        with pytest.raises(AdmissibilityError):
            PlantParams(a=(), b=(1.0, 1.5), d=1)

    def test_rejects_bad_delay(self):
        with pytest.raises(AdmissibilityError):
            PlantParams(a=(), b=(1.0,), d=0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: PlantParams(a=("-0.5",), b=(True,), d=1),
            lambda: PlantParams(a=(), b=np.ones(1), d=1),
            lambda: PredictorParams(alpha=("1",), beta=(True,)),
        ],
        ids=["plant_string_and_bool", "plant_ndarray", "predictor_string_and_bool"],
    )
    def test_coefficients_are_arrays_of_numbers(self, make):
        # PlantParams(a=("-0.5",), b=(True,), d=1) built a = (-0.5,), b = (1.0,).
        with pytest.raises(TypeError, match="^expected an array of numbers$"):
            make()

    def test_ints_and_numpy_floats_are_coefficients(self):
        p = PlantParams(a=(np.float64(0.3), 0), b=[2, np.float64(1.0)], d=1)
        assert p.a == (0.3, 0.0) and p.b == (2.0, 1.0)
        assert all(type(v) is float for v in p.a + p.b)


class TestReferenceModel:
    def test_order(self):
        assert REF_2.order == 2

    def test_rejects_unstable_l(self):
        with pytest.raises(AdmissibilityError):
            ReferenceModel(L=PolyZ((1.0, -1.0)), H=PolyZ((1.0,)), d=1)

    def test_rejects_non_monic(self):
        with pytest.raises(AdmissibilityError):
            ReferenceModel(L=PolyZ((0.9, 0.0)), H=PolyZ((1.0,)), d=1)

    def test_rejects_deep_h(self):
        with pytest.raises(AdmissibilityError):
            ReferenceModel(L=PolyZ((1.0, 0.0, -0.5)), H=PolyZ((1.0, 0.5)), d=2)

    def test_pure_delay_model(self):
        # L = 1, H = 1 yields y*(t) = r(t - d); a constant H is always legal.
        ref = ReferenceModel(L=PolyZ((1.0,)), H=PolyZ((1.0,)), d=1)
        assert ref.order == 0


class TestToPredictorParams:
    def test_one_step_case(self):
        # d = 1: alpha_i = l_i - a_i, beta = b.
        plant = PlantParams(a=(0.3, -0.1), b=(2.0, 1.0), d=1)
        pp = to_predictor_params(plant, REF_2)
        np.testing.assert_allclose(pp.alpha, [-0.3, -0.4], rtol=0, atol=1e-15)
        np.testing.assert_allclose(pp.beta, [2.0, 1.0], rtol=0, atol=0)
        assert len(pp.theta_star()) == 4

    def test_pure_delay_reference(self):
        ref = ReferenceModel(L=PolyZ((1.0,)), H=PolyZ((1.0,)), d=1)
        pp = to_predictor_params(PlantParams(a=(0.5,), b=(2.0,), d=1), ref)
        np.testing.assert_allclose(pp.alpha, [-0.5], rtol=0, atol=0)
        np.testing.assert_allclose(pp.beta, [2.0], rtol=0, atol=0)

    def test_beta0_equals_b0_exactly(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(0, 3))
            d = int(rng.integers(1, 4))
            b0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 5.0))
            b_rest = rng.uniform(-0.3, 0.3, m) * abs(b0)
            plant = PlantParams(a=tuple(rng.uniform(-1, 1, n)), b=(b0, *b_rest), d=d)
            ref = ReferenceModel(L=PolyZ((1.0,)), H=PolyZ((1.0,)), d=d)
            pp = to_predictor_params(plant, ref)
            assert pp.beta[0] == b0
            assert len(pp.beta) == m + d
            assert len(pp.alpha) == n

    def test_transfer_identity(self):
        # Cross-multiplied predictor identity: L B = beta A + z^-d alpha B.
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, 4))
            d = int(rng.integers(1, 4))
            n_ref = int(rng.integers(0, n + 1))
            L = PolyZ((1.0,) + tuple(rng.uniform(-0.4, 0.4, n_ref)))
            if not max_root_modulus(L) < 1.0 - 1e-9:
                continue
            ref = ReferenceModel(L=L, H=PolyZ((1.0,)), d=d)
            b0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 4.0))
            plant = PlantParams(
                a=tuple(rng.uniform(-1.5, 1.5, n)),
                b=(b0, *(rng.uniform(-0.3, 0.3, m) * abs(b0))),
                d=d,
            )
            pp = to_predictor_params(plant, ref)
            lhs = convolve(L.coeffs, plant.b)
            rhs = convolve(pp.beta, PolyZ((1.0, *plant.a)).coeffs)
            shifted = convolve(pp.alpha or (0.0,), plant.b)
            width = max(len(lhs), len(rhs), d + len(shifted))
            lhs += [0.0] * (width - len(lhs))
            rhs += [0.0] * (width - len(rhs))
            for i, c in enumerate(shifted):
                rhs[d + i] += c
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)

    def test_delay_mismatch(self):
        with pytest.raises(AdmissibilityError):
            to_predictor_params(PlantParams(a=(0.1,), b=(1.0,), d=2), REF_2)

    def test_reference_order_exceeds_plant(self):
        with pytest.raises(AdmissibilityError):
            to_predictor_params(PlantParams(a=(0.1,), b=(1.0,), d=1), REF_2)

    def test_static_plant(self):
        # n = 0: no output feedback, alpha is empty.
        ref = ReferenceModel(L=PolyZ((1.0,)), H=PolyZ((1.0,)), d=1)
        pp = to_predictor_params(PlantParams(a=(), b=(3.0,), d=1), ref)
        assert pp.alpha == ()
        assert pp.beta == (3.0,)


class TestParamBox:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(AdmissibilityError):
            ParamBox(lo=(1.0,), hi=(0.0,))

    @pytest.mark.parametrize(
        "lo, hi",
        [((True, "1"), (2, 3)), ("12", (2.0, 3.0)), ((0.0, 1.0), (2.0, None)), (np.zeros(2), (1.0, 1.0))],
        ids=["bool_and_string", "string", "none", "ndarray"],
    )
    def test_bounds_are_arrays_of_numbers(self, lo, hi):
        # ParamBox(lo=(True, "1"), hi=(2, 3)) built lo = (1.0, 1.0).
        with pytest.raises(AdmissibilityError, match="^box bounds: expected an array of numbers$"):
            ParamBox(lo=lo, hi=hi)

    def test_ints_and_numpy_floats_are_numbers(self):
        box = ParamBox(lo=(np.float64(-1.5), 0), hi=[2, np.float64(0.25)])
        assert box.lo == (-1.5, 0.0) and box.hi == (2.0, 0.25)
        assert all(type(v) is float for v in box.lo + box.hi)

    def test_contains_and_midpoint(self):
        box = ParamBox(lo=(-1.0, 0.0), hi=(1.0, 2.0))
        assert box.contains((0.0, 1.0))
        assert not box.contains((0.0, 2.5))
        np.testing.assert_allclose(box.midpoint(), [0.0, 1.0], rtol=0, atol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ParamBox(lo=(0.0,), hi=(1.0,)).contains((0.0, 0.0))

    def test_corner_count(self):
        assert len(list(DEMO_S_AB.corners())) == 16


class TestBuildParamBox:
    def test_demo_box_is_exact(self):
        # d = 1 makes the map affine per coordinate, so corners are exact:
        # alpha0 = -a1, alpha1 = -1/2 - a2, beta = b.
        box = build_param_box(DEMO_S_AB, REF_2, n_a=2, samples=64, margin=0.0, seed=0)
        np.testing.assert_allclose(box.lo, [-2.0, -2.5, 1.5, -1.0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(box.hi, [2.0, 1.5, 5.0, 1.0], rtol=0, atol=1e-12)

    def test_point_box(self):
        s = ParamBox(lo=(0.3, -0.1, 2.0, 1.0), hi=(0.3, -0.1, 2.0, 1.0))
        box = build_param_box(s, REF_2, n_a=2, samples=8, seed=0)
        np.testing.assert_allclose(box.lo, box.hi, rtol=0, atol=0)
        np.testing.assert_allclose(box.lo, [-0.3, -0.4, 2.0, 1.0], rtol=0, atol=1e-15)

    def test_one_step_images_contained(self):
        rng = np.random.default_rng(31)
        box = build_param_box(DEMO_S_AB, REF_2, n_a=2, samples=32, margin=0.0, seed=0)
        for _ in range(1000):
            p = DEMO_S_AB.sample(rng)
            pp = to_predictor_params(PlantParams(a=tuple(p[:2]), b=tuple(p[2:]), d=1), REF_2)
            assert box.contains(pp.theta_star())

    def test_two_step_grid_containment(self):
        # d = 2 image coordinates are polynomial in a, so corners alone are
        # not exact; sampled extrema plus margin must cover a dense grid.
        s = ParamBox(lo=(-0.8, 1.0, -0.5), hi=(0.5, 2.0, 0.5))
        ref = ReferenceModel(L=PolyZ((1.0, -0.4)), H=PolyZ((1.0,)), d=2)
        box = build_param_box(s, ref, n_a=1, samples=3000, margin=0.05, seed=4)
        axes = [np.linspace(lo, hi, 22) for lo, hi in zip(s.lo, s.hi)]
        for a1 in axes[0]:
            for b0 in axes[1]:
                for b1 in axes[2]:
                    plant = PlantParams(a=(a1,), b=(b0, b1), d=2)
                    assert box.contains(to_predictor_params(plant, ref).theta_star())

    def test_margin_inflates(self):
        tight = build_param_box(DEMO_S_AB, REF_2, n_a=2, samples=16, margin=0.0, seed=0)
        loose = build_param_box(DEMO_S_AB, REF_2, n_a=2, samples=16, margin=0.25, seed=0)
        np.testing.assert_allclose(
            np.asarray(loose.lo), np.asarray(tight.lo) - 0.25, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            np.asarray(loose.hi), np.asarray(tight.hi) + 0.25, rtol=0, atol=1e-12
        )

    def test_rejects_gain_interval_through_zero(self):
        s = ParamBox(lo=(-0.5, -1.0, -0.2), hi=(0.5, 1.0, 0.2))
        with pytest.raises(AdmissibilityError):
            build_param_box(s, ReferenceModel(L=PolyZ((1.0, -0.4)), H=PolyZ((1.0,)), d=1), n_a=1,
                            seed=0)

    def test_rejects_inadmissible_corner(self):
        # b-box corner with |b1| > b0 breaks minimum phase.
        s = ParamBox(lo=(-0.5, 0.5, -2.0), hi=(0.5, 1.0, 2.0))
        with pytest.raises(AdmissibilityError):
            build_param_box(s, ReferenceModel(L=PolyZ((1.0, -0.4)), H=PolyZ((1.0,)), d=1), n_a=1,
                            seed=0)


PURE_DELAY = ReferenceModel(L=PolyZ((1.0,)), H=PolyZ((1.0,)), d=1)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: PlantParams(a=(0.5,), b=(), d=1), "b must contain at least b0"),
        (lambda: ReferenceModel(L=PolyZ((1.0,)), H=PolyZ((1.0,)), d=0),
         "reference delay d must be at least 1"),
        (lambda: PredictorParams(alpha=(0.5,), beta=()), "beta must contain at least beta0"),
        (lambda: ParamBox(lo=(0.0, 0.0), hi=(1.0,)), "box needs matching, non-empty lo/hi"),
        (lambda: ParamBox(lo=(0.0, -math.inf), hi=(1.0, 1.0)), "box bounds must be finite"),
        (lambda: build_param_box(ParamBox(lo=(0.5,), hi=(1.0,)), PURE_DELAY, n_a=1),
         "n_a = 1 incompatible with a box of dimension 1"),
        # m = 0 and b0 in [-1, 1]: every sampled b0 is nonzero, but the image straddles 0.
        (lambda: build_param_box(ParamBox(lo=(-1.0,), hi=(1.0,)), PURE_DELAY, n_a=0),
         "beta0 interval of the predictor box contains 0; the control law divides by beta0, "
         "so its sign must be fixed over the box"),
    ],
    ids=["plant_empty_b", "reference_d_zero", "predictor_empty_beta", "box_lengths",
         "box_infinite", "s_ab_too_short", "beta0_straddles_zero"],
)
def test_constructor_refuses_with_its_message(make, message):
    with pytest.raises(AdmissibilityError) as info:
        make()
    assert str(info.value) == message


def box_by_points(s_ab, ref, n_a, samples=256, margin=0.0, seed=0):
    """build_param_box with one Schur-tested PlantParams per point (the reference)."""

    def image(point):
        plant = PlantParams(a=point[:n_a], b=point[n_a:], d=ref.d)
        return to_predictor_params(plant, ref).theta_star()

    points = [image(c) for c in s_ab.corners()]
    if samples > 0:
        rng = np.random.default_rng(seed)
        points.extend(image(tuple(s_ab.sample(rng))) for _ in range(samples))
    stacked = np.vstack(points)
    return ParamBox(tuple(stacked.min(axis=0) - margin), tuple(stacked.max(axis=0) + margin))


def outcome(build, *args, **kwargs):
    try:
        box = build(*args, **kwargs)
    except AdmissibilityError as exc:
        return str(exc)
    return np.array(box.lo).tobytes(), np.array(box.hi).tobytes()


L_1 = PolyZ((1.0, -0.4))
REF_1 = ReferenceModel(L_1, PolyZ((1.0,)), 1)


class TestBuildParamBoxMatchesPointwise:
    @pytest.mark.parametrize(
        "s_ab, ref, n_a, kwargs",
        [
            (DEMO_S_AB, REF_2, 2, dict(samples=64, seed=0)),
            (ParamBox((-0.6, 1.0, -0.3), (0.2, 2.0, 0.3)), ReferenceModel(L_1, PolyZ((0.6,)), 2), 1,
             dict(samples=256, margin=0.05, seed=4)),
            (ParamBox((-0.5, 0.3, -2.0, -0.5, -0.3), (0.5, 0.6, -1.5, 0.5, 0.3)),
             ReferenceModel(PolyZ((1.0, 0.0, -0.5)), PolyZ((1.0,)), 3), 2,
             dict(samples=100, seed=7)),
            # Failures: a non-minimum-phase corner, b0 = 0 after a non-minimum-phase
            # corner, b0 = 0 first, and a reference of higher order than the plant.
            (ParamBox((-0.5, 0.5, -2.0), (0.5, 1.0, 2.0)), REF_1, 1, dict(seed=0)),
            (ParamBox((-0.5, -1.0, -2.0), (0.5, 0.0, 2.0)), REF_1, 1, dict(seed=0)),
            (ParamBox((-0.5, 0.0, -0.1), (0.5, 1.0, 0.1)), REF_1, 1, dict(seed=0)),
            (ParamBox((-0.5, 1.0), (0.5, 2.0)), REF_2, 1, dict(samples=8, seed=0)),
            (ParamBox((-0.5, 0.0), (0.5, 2.0)), REF_2, 1, dict(samples=8, seed=0)),
        ],
        ids=["demo", "d2", "d3", "nonminphase", "zero_b0_later", "zero_b0_first", "order",
             "order_b0"],
    )
    def test_same_box_or_error(self, s_ab, ref, n_a, kwargs):
        expected = outcome(box_by_points, s_ab, ref, n_a, **kwargs)
        assert outcome(build_param_box, s_ab, ref, n_a, **kwargs) == expected


class TestBoxNorm:
    def test_unit_square(self):
        assert abs(box_norm(ParamBox(lo=(-1.0, -1.0), hi=(1.0, 1.0))) - math.sqrt(2)) < 1e-15

    def test_demo_box(self):
        assert abs(box_norm(build_param_box(DEMO_S_AB, REF_2, n_a=2, samples=0, seed=0))
                   - math.sqrt(36.25)) < 1e-12

    def test_point_box(self):
        assert abs(box_norm(ParamBox(lo=(3.0, 4.0), hi=(3.0, 4.0))) - 5.0) < 1e-15

    def test_corner_enumeration_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            dim = int(rng.integers(1, 7))
            lo = rng.uniform(-3, 3, dim)
            hi = lo + rng.uniform(0, 3, dim)
            box = ParamBox(lo=tuple(lo), hi=tuple(hi))
            oracle = max(math.sqrt(sum(v * v for v in c)) for c in box.corners())
            assert abs(box_norm(box) - oracle) < 1e-12

    def test_monotone_under_inflation(self):
        box = ParamBox(lo=(-1.0, 0.5), hi=(2.0, 1.5))
        assert box_norm(ParamBox(lo=(-1.1, 0.4), hi=(2.1, 1.6))) > box_norm(box)
