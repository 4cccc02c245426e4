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
    g_potential,
    grad_g_check,
    make_offset,
    make_offsets,
    mu_closest_point,
    normal_frame,
    normal_frames,
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
        R = float(_graph_height(weight.jet(s, 2)))
        off = make_offset(curve, weight, s, curve.frame(s).principal_normal, R)
        x = np.float64(float(weight.d1(s)) * R)
        assert x**2 != x * x
        batch = exp_mu_batch(curve, weight, np.array([s]), off.v[None, :], np.array([R]))
        np.testing.assert_array_equal(exp_mu(curve, weight, s, off.v, R), batch[0])
        heights = np.array([0.25 * R, 0.5 * R, R])
        rows = exp_mu_batch(curve, weight, np.full(3, s), np.tile(off.v, (3, 1)), heights)
        np.testing.assert_array_equal(exp_mu(curve, weight, s, off.v, heights), rows)


# ---------------------------------------------------------------------------
# Oracles: the earlier dense-grid G and the scalar standard-basis frame
# ---------------------------------------------------------------------------


def dense_grid_argmin(pts, gp, mug):
    """The whole (points x samples) grid at once, as G used to build it."""
    return np.argmin(((pts[:, None, :] - gp[None, :, :]) ** 2).sum(axis=2) / mug[None, :] ** 2,
                     axis=1)


def g_potential_two_point(pairs, pts, samples=2048, refine_iters=40):
    """G with a dense grid and a golden loop that evaluates both interior
    points on every iteration and reports the bracket midpoint."""
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    best_v = np.full(len(pts), np.inf)
    best_c = np.zeros(len(pts), dtype=int)
    best_s = np.zeros(len(pts))
    for ci, (curve, weight) in enumerate(pairs):
        sg = curve.grid(samples)
        idx = dense_grid_argmin(pts, curve.point(sg), np.asarray(weight.mu(sg), dtype=float))
        step = curve.length / samples
        lo, hi = sg[idx] - step, sg[idx] + step
        if not curve.closed:
            lo = np.clip(lo, curve.s_min, curve.s_max)
            hi = np.clip(hi, curve.s_min, curve.s_max)
        for _ in range(refine_iters):
            x1 = hi - golden * (hi - lo)
            x2 = lo + golden * (hi - lo)
            take1 = f_value(curve, weight, x1, pts) <= f_value(curve, weight, x2, pts)
            hi = np.where(take1, x2, hi)
            lo = np.where(take1, lo, x1)
        smid = 0.5 * (lo + hi)
        vmid = f_value(curve, weight, smid, pts)
        better = vmid < best_v
        best_v = np.where(better, vmid, best_v)
        best_c = np.where(better, ci, best_c)
        best_s = np.where(better, smid, best_s)
    return best_v, best_c, best_s


def scalar_gram_schmidt(t, rows, threshold):
    """Sequential Gram-Schmidt of the given rows against the unit tangent t."""
    frame = []
    for row in rows:
        w = row - (row @ t) * t
        for b in frame:
            w = w - (w @ b) * b
        norm = np.linalg.norm(w)
        if norm > threshold:
            frame.append(w / norm)
        if len(frame) == t.size - 1:
            break
    return np.array(frame)


def scalar_frame(t, reference=None):
    """The per-foot frame: the standard basis (residuals above 0.5 join) or
    a reference frame (above 1e-8), redone from the standard basis with
    unconditional pivoting (above 1e-10) when it comes out short."""
    n = t.size
    rows, threshold = (np.eye(n), 0.5) if reference is None else (reference, 1e-8)
    frame = scalar_gram_schmidt(t, rows, threshold)
    if len(frame) < n - 1:
        frame = scalar_gram_schmidt(t, np.eye(n), 1e-10)
    return frame


def scalar_normal_frame(curve, s):
    """The per-foot standard-basis Gram-Schmidt with its fallback."""
    return scalar_frame(curve.tangent(s))


def fourier_3d():
    from weighted_tubes import FourierCurve

    return FourierCurve([[0.0, 1.0, 0.0, 0.2, 0.1], [0.0, 0.0, 1.0, -0.1, 0.2],
                         [0.0, 0.3, 0.1, 0.0, 0.25]])


def fourier_4d():
    from weighted_tubes import FourierCurve

    return FourierCurve([[0.0, 1.0, 0.0, 0.1, 0.0], [0.0, 0.0, 1.0, 0.0, 0.1],
                         [0.2, 0.3, 0.1], [0.0, 0.0, 0.4, 0.2, 0.0]])


def points_near(curve, rng, m, spread):
    s = rng.uniform(curve.s_min, curve.s_max, m)
    return curve.point(s) + rng.normal(0.0, spread, (m, curve.ambient_dim))


class StubTangents:
    """Stand-in curve whose tangent at s = k is the k-th given row."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)

    def tangent(self, s):
        return self.rows[np.asarray(s, dtype=int)]


class TestGPotentialAgainstDenseGrid:
    @pytest.mark.parametrize("name", ["ellipse_mu1", "example1b"])
    def test_blocked_grid_argmin_is_the_dense_one(self, scenes, name):
        from weighted_tubes.expmap import _G_BLOCK_CELLS, _grid_argmin

        curve, weight = scenes[name].pairs[0]
        sg = curve.grid(2048)
        gp, mug = curve.point(sg), np.asarray(weight.mu(sg), dtype=float)
        pts = points_near(curve, np.random.default_rng(5), 700, 0.4)
        assert len(pts) * len(sg) > 2 * _G_BLOCK_CELLS  # three blocks, the last one short
        np.testing.assert_array_equal(_grid_argmin(pts, gp, mug), dense_grid_argmin(pts, gp, mug))

    @staticmethod
    def assert_close_to_the_two_point_loop(pairs, pts, vtol):
        # Values agree to rounding. A smooth minimum fixes its foot only to
        # about sqrt(eps) relative, since F is flat to rounding there; a foot
        # at an open arc's end is now the end itself, with a value no larger
        # than at the old bracket midpoint.
        v, c, s = g_potential(pairs, pts)
        v0, c0, s0 = g_potential_two_point(pairs, pts)
        np.testing.assert_array_equal(c, c0)
        lengths = np.array([max(1.0, curve.length) for curve, _ in pairs])[c]
        assert np.all(np.abs(s - s0) <= np.sqrt(np.finfo(float).eps) * lengths)
        ends = np.array([
            not pairs[ci][0].closed and sk in (pairs[ci][0].s_min, pairs[ci][0].s_max)
            for ci, sk in zip(c, s)
        ], dtype=bool)
        assert np.all(np.abs(v - v0)[~ends] <= vtol * np.fmax(1.0, np.abs(v0[~ends])))
        assert np.all(v[ends] <= v0[ends])
        return ends

    @pytest.mark.parametrize("name, vtol", [
        ("ellipse_mu1", 1e-14), ("example1b", 1e-14), ("circle_mu1", 1e-14),
        # The stadium's piecewise arclength evaluation rounds F at ~1e-14.
        ("example2_stadium", 2e-13),
    ])
    def test_values_and_feet_match_the_two_point_loop(self, scenes, name, vtol):
        pairs = scenes[name].pairs
        pts = points_near(pairs[0][0], np.random.default_rng(9), 300, 0.3)
        self.assert_close_to_the_two_point_loop(pairs, pts, vtol)

    def test_fourier_3d(self):
        pairs = [(fourier_3d(), ConstantWeight(1.0))]
        pts = points_near(pairs[0][0], np.random.default_rng(4), 300, 0.3)
        self.assert_close_to_the_two_point_loop(pairs, pts, 1e-14)

    def test_endpoint_minimum_of_an_open_arc(self, arc1a):
        curve, weight = arc1a
        # Beyond each end along the tangent line: F_p decreases up to the end.
        ends = np.array([curve.s_min, curve.s_max])
        pts = curve.point(ends) + np.array([-1.0, 1.0])[:, None] * 0.5 * curve.tangent(ends)
        v, _, s = g_potential([arc1a], pts)
        np.testing.assert_array_equal(s, ends)
        np.testing.assert_array_equal(v, f_value(curve, weight, ends, pts))
        at_ends = self.assert_close_to_the_two_point_loop([arc1a], pts, 1e-14)
        assert np.all(at_ends)

    def test_two_components_pick_the_same_component(self):
        from weighted_tubes import FourierCurve

        pairs = [
            (CircleArcCurve(0, 2 * np.pi, closed=True), ConstantWeight(1.0)),
            (FourierCurve([[2.5, 0.6, 0.0], [0.3, 0.0, 0.6]]), PolynomialWeight([0.7])),
        ]
        pts = np.random.default_rng(3).uniform([-1.5, -1.5], [3.5, 1.5], (400, 2))
        _, c, _ = g_potential(pairs, pts)
        assert set(c) == {0, 1}
        self.assert_close_to_the_two_point_loop(pairs, pts, 1e-14)


class TestNormalFrameRows:
    def assert_rows_are_the_scalar_frames(self, curve, s):
        from weighted_tubes import normal_frames

        rows = normal_frames(curve, s)
        for k, sk in enumerate(s):
            ref = scalar_normal_frame(curve, sk)
            assert rows[k].tobytes() == ref.tobytes()
            frame = normal_frame(curve, sk)
            assert frame.shape == ref.shape and frame.tobytes() == ref.tobytes()

    def test_curves(self, scenes):
        rng = np.random.default_rng(21)
        for curve in (scenes["ellipse_mu1"].pairs[0][0], scenes["example1b"].pairs[0][0],
                      fourier_3d(), fourier_4d()):
            s = np.concatenate([curve.grid(64), rng.uniform(curve.s_min, curve.s_max, 64)])
            self.assert_rows_are_the_scalar_frames(curve, s)

    def test_axis_aligned_tangents_skip_pivots(self):
        # A tangent of length 2 fills its frame before the unit ones in the
        # same call, so later basis vectors must not join it.
        rows = []
        for n in (2, 3, 4):
            rows += list(np.eye(n)) + list(-np.eye(n)) + [2.0 * np.eye(n)[0]]
            rows += [np.r_[1.0, 1.0, np.zeros(n - 2)] / np.sqrt(2.0)]
        for n in (2, 3, 4):
            stub = StubTangents([r for r in rows if r.size == n])
            self.assert_rows_are_the_scalar_frames(stub, np.arange(len(stub.rows)))

    def test_fallback_on_a_tangent_no_pivot_can_span(self):
        # A nan tangent leaves the 0.5-threshold pass short; the
        # unconditional fallback runs and finds no frame vector either.
        from weighted_tubes import normal_frames

        stub = StubTangents([[np.nan, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert scalar_normal_frame(stub, 0).size == 0
        assert normal_frame(stub, 0).size == 0
        rows = normal_frames(stub, np.arange(2))
        assert np.all(np.isnan(rows[0]))
        assert rows[1].tobytes() == scalar_normal_frame(stub, 1).tobytes()

    def test_reference_fallback_uses_the_standard_basis(self):
        # A reference frame along the tangent leaves no residual above 1e-8.
        curve = StubTangents([[0.0, 0.0, 1.0]])
        reference = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        frame = normal_frame(curve, 0, reference=reference)
        assert frame.tobytes() == np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]).tobytes()

    def test_reference_rows_are_the_scalar_loop(self, scenes):
        # Frames transported from a base frame to nearby and distant feet,
        # with a row whose reference lies close to the tangent, and rows whose
        # reference runs along the tangent or is too short to span the normal
        # space, which fall back to the standard basis.
        from weighted_tubes.expmap import _frames

        rng = np.random.default_rng(8)
        for curve in (scenes["ellipse_mu1"].pairs[0][0], scenes["example1b"].pairs[0][0],
                      fourier_3d(), fourier_4d()):
            n = curve.ambient_dim
            s = rng.uniform(curve.s_min + 0.3, curve.s_max - 0.3, 48)
            base = normal_frames(curve, s)
            feet = np.concatenate([s + 1e-6, s - 1e-6, s + 0.3, s])
            reference = np.concatenate([base] * 4)
            tangents = curve.tangent(feet)
            reference[-1] = tangents[-1]  # every reference row along the tangent
            reference[-3] = tangents[-3] + 0.01 * reference[-3]  # small residuals still join
            if n > 2:
                reference[-2, 1:] = np.nan  # a short reference frame
            frames, count = _frames(tangents, reference)
            fell_back = 0
            for k in range(len(feet)):
                ref = reference[k][np.isfinite(reference[k]).all(axis=1)]
                expected = scalar_frame(tangents[k], ref)
                fell_back += len(scalar_gram_schmidt(tangents[k], ref, 1e-8)) < n - 1
                assert count[k] == n - 1
                assert frames[k].tobytes() == expected.tobytes()
                one = normal_frame(curve, feet[k], reference=ref)
                assert one.tobytes() == expected.tobytes()
            assert fell_back == (2 if n > 2 else 1)
