import numpy as np
import pytest

from weighted_tubes import (
    CP_PLUS,
    CP_ZERO,
    NOT_CRITICAL,
    PLANE,
    SPHERE,
    CircleArcCurve,
    ConstantWeight,
    CosineWeight,
    NonUniqueFootError,
    NotCriticalFootError,
    OutOfWError,
    PolynomialWeight,
    classify_critical,
    exp_mu,
    exp_mu_batch,
    f_prime,
    f_second,
    f_second_at_offset,
    f_second_critical,
    f_value,
    fiber_geometry,
    grad_g_check,
    make_offset,
    make_offsets,
    mu_closest_point,
    normal_frame,
    w_bound,
)
from weighted_tubes.expmap import random_unit_normals


@pytest.fixture
def arc1a():
    return CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight()


@pytest.fixture
def circle_mu1():
    return CircleArcCurve(0, 2 * np.pi, closed=True), ConstantWeight(1.0)


class TestExpMap:
    def test_zero_height_is_identity(self, arc1a):
        curve, weight = arc1a
        for s in (-1.0, 0.0, 0.7):
            v = normal_frame(curve, s)[0]
            assert np.allclose(exp_mu(curve, weight, s, v, 0.0), curve.point(s))

    def test_collapse_point(self, arc1a):
        curve, weight = arc1a
        for s in np.linspace(-np.pi / 2, np.pi / 2, 50):
            p = exp_mu(curve, weight, s, -curve.point(s), 2.0)
            assert np.linalg.norm(p - [-1.0, 0.0]) <= 1e-12

    def test_constant_weight_is_affine(self, circle_mu1):
        curve, weight = circle_mu1
        p = exp_mu(curve, weight, 0.0, [-1.0, 0.0], 0.5)
        assert np.allclose(p, [0.5, 0.0], atol=1e-15)

    def test_out_of_admissible_set(self, arc1a):
        curve, weight = arc1a
        # At s = 1 the bound is 1/|mu'| = 2/sin(0.5).
        bound = float(w_bound(weight, 1.0))
        with pytest.raises(OutOfWError):
            exp_mu(curve, weight, 1.0, -curve.point(1.0), bound * 1.01)

    def test_boundary_flagged(self, arc1a):
        curve, weight = arc1a
        bound = float(w_bound(weight, 1.0))
        off = make_offset(curve, weight, 1.0, -curve.point(1.0), bound)
        assert off.boundary

    def test_tangent_direction_rejected(self, arc1a):
        curve, weight = arc1a
        with pytest.raises(OutOfWError):
            make_offset(curve, weight, 0.3, curve.tangent(0.3), 0.5)


class TestOffsetRows:
    def test_rows_match_make_offset(self, arc1a):
        curve, weight = arc1a
        s = np.linspace(-1.4, 1.4, 9)
        v = -curve.point(s) + 0.3 * curve.tangent(s)
        R = np.linspace(0.1, 1.5, 9)
        rows = make_offsets(curve, weight, s, v, R)
        for k in range(len(s)):
            assert np.array_equal(rows[k], make_offset(curve, weight, s[k], v[k], R[k]).v)

    def test_height_above_bound_rejected(self, arc1a):
        curve, weight = arc1a
        s = np.array([0.0, 1.0, -0.5])
        R = np.array([1.0, 1.01 * float(w_bound(weight, 1.0)), 1.0])
        with pytest.raises(OutOfWError, match="exceeds admissible bound"):
            make_offsets(curve, weight, s, -curve.point(s), R)

    def test_tangent_row_rejected(self, arc1a):
        curve, weight = arc1a
        s = np.array([0.2, 0.3])
        v = np.stack([-curve.point(0.2), curve.tangent(0.3)])
        with pytest.raises(OutOfWError, match="tangent"):
            make_offsets(curve, weight, s, v, np.array([0.5, 0.5]))


class TestFiberGeometry:
    def test_example_sphere(self, arc1a):
        curve, weight = arc1a
        fib = fiber_geometry(curve, weight, np.pi / 3)
        assert fib.kind == SPHERE
        assert np.allclose(fib.center, [-1.0, np.sqrt(3.0)], atol=1e-12)
        assert fib.radius == pytest.approx(np.sqrt(3.0), abs=1e-12)

    def test_plane_at_slope_zero(self, arc1a):
        curve, weight = arc1a
        fib = fiber_geometry(curve, weight, 0.0)
        assert fib.kind == PLANE
        assert np.allclose(np.abs(fib.normal), [0.0, 1.0])

    def test_constant_weight_always_plane(self, circle_mu1):
        curve, weight = circle_mu1
        for s in (0.0, 1.0, 4.0):
            assert fiber_geometry(curve, weight, s).kind == PLANE

    def test_images_lie_on_fiber(self, arc1a):
        curve, weight = arc1a
        rng = np.random.default_rng(7)
        for s in (-0.9, 0.3, 1.2):
            fib = fiber_geometry(curve, weight, s)
            bound = float(w_bound(weight, s))
            for _ in range(16):
                v = random_unit_normals(curve, [s], rng)[0]
                R = rng.uniform(0, 0.95 * min(bound, 5.0))
                p = exp_mu(curve, weight, s, v, R)
                assert fib.contains(p, tol=1e-10)


class TestDistanceFunction:
    def test_zero_at_foot(self, arc1a):
        curve, weight = arc1a
        assert f_value(curve, weight, 0.4, curve.point(0.4)) == 0.0

    def test_value_is_height_squared(self, arc1a):
        curve, weight = arc1a
        p = exp_mu(curve, weight, 0.6, -curve.point(0.6), 1.1)
        assert f_value(curve, weight, 0.6, p) == pytest.approx(1.1**2, abs=1e-12)
        assert abs(f_prime(curve, weight, 0.6, p)) <= 1e-12

    def test_center_value_constant_one(self, circle_mu1):
        curve, weight = circle_mu1
        for s in (0.0, 2.0, 5.0):
            assert f_value(curve, weight, s, [0.0, 0.0]) == pytest.approx(1.0)

    def test_closed_form_second_derivative(self, circle_mu1):
        # kappa = 1, mu = 1, cos beta = 1: F'' = 2 (1 - R).
        curve, weight = circle_mu1
        val = f_second_at_offset(curve, weight, 0.0, [-1.0, 0.0], 0.5)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_requires_critical_foot(self, arc1a):
        curve, weight = arc1a
        p = exp_mu(curve, weight, 0.6, -curve.point(0.6), 1.1)
        # Evaluating the closed form at a different foot must fail.
        with pytest.raises(NotCriticalFootError):
            f_second_critical(curve, weight, 0.2, p)

    def test_derivatives_match_fd(self, arc1a):
        curve, weight = arc1a
        rng = np.random.default_rng(3)
        h = 1e-5 * curve.length
        for _ in range(40):
            s = rng.uniform(-1.2, 1.2)
            p = curve.point(s) + rng.normal(scale=0.7, size=2)
            fp = f_value(curve, weight, s + h, p)
            fm = f_value(curve, weight, s - h, p)
            f0 = f_value(curve, weight, s, p)
            fd1 = (fp - fm) / (2 * h)
            fd2 = (fp - 2 * f0 + fm) / h**2
            d1 = f_prime(curve, weight, s, p)
            d2 = f_second(curve, weight, s, p)
            # |F| sets the roundoff floor of the second differences.
            assert abs(fd1 - d1) / max(1.0, abs(d1), f0) <= 1e-6
            assert abs(fd2 - d2) / max(1.0, abs(d2), f0) <= 1e-6


class TestClassification:
    def test_small_height_is_plus(self, arc1a):
        curve, weight = arc1a
        s = 0.4
        p = exp_mu(curve, weight, s, -curve.point(s), 0.01)
        assert classify_critical(curve, weight, s, p) == CP_PLUS

    def test_collapse_configuration_is_zero(self, arc1a):
        curve, weight = arc1a
        assert classify_critical(curve, weight, 0.0, [-1.0, 0.0]) == CP_ZERO

    def test_past_collapse_returns_plus(self, arc1a):
        # Height 3 at s = 0 lands at (-2, 0); injectivity persists there.
        curve, weight = arc1a
        assert classify_critical(curve, weight, 0.0, [-2.0, 0.0]) == CP_PLUS
        assert f_second_critical(curve, weight, 0.0, [-2.0, 0.0]) == pytest.approx(0.5)

    def test_non_critical(self, arc1a):
        curve, weight = arc1a
        assert classify_critical(curve, weight, 0.3, [5.0, 5.0]) == NOT_CRITICAL


class TestClosestPoint:
    def test_on_curve(self, circle_mu1):
        curve, weight = circle_mu1
        cp = mu_closest_point((curve, weight), curve.point(1.0))
        assert cp.s == pytest.approx(1.0, abs=1e-9)
        assert cp.value <= 1e-18

    def test_outside_circle(self, circle_mu1):
        curve, weight = circle_mu1
        cp = mu_closest_point((curve, weight), [2.0, 0.0])
        assert cp.value == pytest.approx(1.0, abs=1e-12)
        assert cp.unique

    def test_collapse_center_ties(self, arc1a):
        curve, weight = arc1a
        cp = mu_closest_point((curve, weight), [-1.0, 0.0])
        assert cp.value == pytest.approx(4.0, abs=1e-9)
        assert not cp.unique

    def test_upper_bound_by_height(self, arc1a):
        curve, weight = arc1a
        p = exp_mu(curve, weight, 0.5, -curve.point(0.5), 1.4)
        cp = mu_closest_point((curve, weight), p)
        assert cp.value <= 1.4**2 + 1e-12


class TestGradientLaw:
    def test_radial_direction_and_bound(self, circle_mu1):
        curve, weight = circle_mu1
        angle, mag, bound = grad_g_check((curve, weight), [2.0, 0.0])
        assert angle <= 1e-3
        assert bound == pytest.approx(2.0, abs=1e-9)
        assert mag >= bound - 1e-6

    def test_small_height_direction(self, arc1a):
        curve, weight = arc1a
        p = exp_mu(curve, weight, 0.5, -curve.point(0.5), 0.2)
        angle, mag, bound = grad_g_check((curve, weight), p)
        assert angle <= 1e-3
        assert mag >= bound - 1e-5

    def test_tied_feet_rejected(self, arc1a):
        curve, weight = arc1a
        with pytest.raises(NonUniqueFootError):
            grad_g_check((curve, weight), [-1.0, 0.0])

    def test_circle_center_quadratic_weight(self):
        # For 1 - s^2/8 on the arc, the center's weighted distance is
        # minimized at the single weight maximum: a unique foot, and the
        # gradient points from it.
        curve = CircleArcCurve(-1.0, 1.0)
        weight = PolynomialWeight([1.0, 0.0, -0.125])
        cp = mu_closest_point((curve, weight), [0.0, 0.0])
        assert cp.unique and abs(cp.s) <= 1e-6
        angle, mag, bound = grad_g_check((curve, weight), [0.0, 0.0])
        assert angle <= 1e-3
        assert mag >= bound - 1e-5


class TestNormalFrames:
    def test_orthonormal_and_normal(self):
        curve = CircleArcCurve(-1.2, 1.2, ambient_dim=3)
        for s in (-1.0, 0.0, 0.9):
            frame = normal_frame(curve, s)
            t = curve.tangent(s)
            assert frame.shape == (2, 3)
            assert np.allclose(frame @ frame.T, np.eye(2), atol=1e-12)
            assert np.allclose(frame @ t, 0.0, atol=1e-12)

    def test_batch_map_matches_scalar(self, arc1a):
        curve, weight = arc1a
        rng = np.random.default_rng(11)
        s = rng.uniform(-1.2, 1.2, size=8)
        v = random_unit_normals(curve, s, rng)
        R = rng.uniform(0.0, 1.0, size=8)
        batch = exp_mu_batch(curve, weight, s, v, R)
        for k in range(8):
            assert np.allclose(batch[k], exp_mu(curve, weight, s[k], v[k], R[k]))


class TestScalarMapRows:
    def test_scalar_map_is_the_batch_row_bit_for_bit(self, scenes):
        # At this singular-graph foot of example1b, squaring mu' R through
        # C pow() (a NumPy scalar ** 2) lands one ulp away from the array
        # square; the scalar map is the one-row batch, so they agree.
        from weighted_tubes.singular import _graph_height

        curve, weight = scenes["example1b"].pairs[0]
        s = 0.67428571428571438
        R = float(_graph_height(curve, weight, s))
        off = make_offset(curve, weight, s, curve.frame(s).principal_normal, R)
        x = np.float64(float(weight.d1(s)) * R)
        assert x**2 != x * x
        batch = exp_mu_batch(curve, weight, np.array([s]), off.v[None, :], np.array([R]))
        np.testing.assert_array_equal(exp_mu(curve, weight, s, off.v, R), batch[0])
        heights = np.array([0.25 * R, 0.5 * R, R])
        rows = exp_mu_batch(curve, weight, np.full(3, s), np.tile(off.v, (3, 1)), heights)
        np.testing.assert_array_equal(exp_mu(curve, weight, s, off.v, heights), rows)
