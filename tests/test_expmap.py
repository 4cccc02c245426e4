import numpy as np
import pytest

from weighted_tubes import (
    PLANE,
    SPHERE,
    CircleArcCurve,
    ConstantWeight,
    CosineWeight,
    NotCriticalFootError,
    NumericError,
    OutOfWError,
    PolynomialWeight,
    exp_mu,
    f_prime,
    f_second,
    f_second_critical,
    f_value,
    fiber_geometry,
    g_potential,
    normal_frames,
    w_bound,
)
from weighted_tubes.expmap import _exp_rows

from oracles import (
    CP_PLUS,
    CP_ZERO,
    NOT_CRITICAL,
    NonUniqueFootError,
    classify_critical,
    dense_grid_argmin,
    fiber_contains,
    g_potential_two_point,
    grad_g_check,
    make_offset,
    mu_closest_point,
    random_unit_normals,
)


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
            v = normal_frames(curve, [s])[0, 0]
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
        # exp_mu projects and normalizes each direction as the make_offset
        # oracle does, then maps that normal.
        curve, weight = arc1a
        s = np.linspace(-1.4, 1.4, 9)
        v = -curve.point(s) + 0.3 * curve.tangent(s)
        R = np.linspace(0.1, 1.5, 9)
        rows = exp_mu(curve, weight, s, v, R)
        for k in range(len(s)):
            foot = s[k:k + 1]
            off = make_offset(curve, weight, s[k], v[k], R[k])
            jets = (curve.jet(foot, 1), weight.jet(foot, 1))
            np.testing.assert_array_equal(rows[k], _exp_rows(jets, off.v[None, :], R[k:k + 1])[0])

    def test_height_above_bound_rejected(self, arc1a):
        curve, weight = arc1a
        s = np.array([0.0, 1.0, -0.5])
        R = np.array([1.0, 1.01 * float(w_bound(weight, 1.0)), 1.0])
        with pytest.raises(OutOfWError, match="exceeds admissible bound .* at s=1.0"):
            exp_mu(curve, weight, s, -curve.point(s), R)

    def test_tangent_row_rejected(self, arc1a):
        curve, weight = arc1a
        s = np.array([0.2, 0.3])
        v = np.stack([-curve.point(0.2), curve.tangent(0.3)])
        with pytest.raises(OutOfWError, match="tangent"):
            exp_mu(curve, weight, s, v, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
    @pytest.mark.parametrize("where", [0, 4, 8])
    def test_height_not_finite_or_negative_rejected(self, arc1a, bad, where):
        # One bad height anywhere in the array fails the whole call; the old
        # one-foot map checked only the largest height.
        curve, weight = arc1a
        s = np.linspace(-1.4, 1.4, 9)
        R = np.full(9, 0.5)
        R[where] = bad
        with pytest.raises(OutOfWError, match="finite and nonnegative"):
            exp_mu(curve, weight, s, -curve.point(s), R)
        with pytest.raises(OutOfWError, match="finite and nonnegative"):
            exp_mu(curve, weight, 0.3, -curve.point(0.3), R)

    def test_first_failing_row_in_c_order(self, arc1a):
        curve, weight = arc1a
        s = np.array([0.2, 1.0])
        R = np.array([[0.5, 1.01 * float(w_bound(weight, 1.0))], [np.nan, 0.5]])
        with pytest.raises(OutOfWError, match="exceeds admissible bound"):
            exp_mu(curve, weight, s, -curve.point(s), R)

    def test_image_not_finite(self, circle_mu1):
        # mu' = 0 bounds no height, but R^2 overflows at 1e200.
        curve, weight = circle_mu1
        with pytest.raises(NumericError, match="not finite"):
            exp_mu(curve, weight, 0.5, -curve.point(0.5), np.array([1.0, 1e200]))
        assert np.all(np.isfinite(exp_mu(curve, weight, 0.5, -curve.point(0.5), 1e100)))


class TestBroadcastRows:
    def test_feet_by_directions(self):
        curve = CircleArcCurve(-1.2, 1.2, ambient_dim=3)
        weight = CosineWeight()
        feet = np.linspace(-1.0, 1.0, 5)
        dirs = np.stack([normal_frames(curve, feet)[:, 0], normal_frames(curve, feet)[:, 1],
                         -curve.point(feet)], axis=1)
        rows = exp_mu(curve, weight, feet[:, None], dirs, 0.7)
        assert rows.shape == (5, 3, 3)
        for i in range(5):
            for j in range(3):
                np.testing.assert_array_equal(rows[i, j], exp_mu(curve, weight, feet[i], dirs[i, j], 0.7))

    def test_one_foot_many_heights(self, scenes):
        curve, weight = scenes["example1b"].pairs[0]
        s = 0.5
        d2 = curve.second_derivative(s)
        v = d2 / np.linalg.norm(d2)
        heights = np.linspace(0.0, 0.9 * float(w_bound(weight, s)), 7).reshape(7, 1)
        rows = exp_mu(curve, weight, s, v, heights)
        assert rows.shape == (7, 1, 3)
        for k in range(7):
            np.testing.assert_array_equal(rows[k, 0], exp_mu(curve, weight, s, v, float(heights[k, 0])))

    @pytest.mark.parametrize("fn", [exp_mu, f_second_critical])
    def test_one_jet_each_on_the_feet_as_given(self, monkeypatch, fn):
        curve = CircleArcCurve(-1.2, 1.2, ambient_dim=3)
        weight = CosineWeight()
        feet = np.linspace(-1.0, 1.0, 5)
        dirs = np.stack([-curve.point(feet)] * 4, axis=1)
        heights = np.array([0.1, 0.2, 0.3, 0.4])
        # f_second_critical reads the images, each critical at its foot.
        args = (dirs, heights) if fn is exp_mu else (exp_mu(curve, weight, feet[:, None], dirs, heights),)
        calls = []
        for obj in (curve, weight):
            jet = obj.jet
            monkeypatch.setattr(obj, "jet", lambda s, order, jet=jet, obj=obj: (
                calls.append((obj, np.array(s))) or jet(s, order)))
        assert fn(curve, weight, feet[:, None], *args).shape[:2] == (5, 4)
        assert [obj for obj, _ in calls] == [curve, weight]
        for _, s in calls:
            np.testing.assert_array_equal(s, feet)


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
                assert fiber_contains(fib, p, tol=1e-10)


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
        # kappa = 1, mu = 1, v . gamma'' = 1: F'' = 2 (1 - R) at the image
        # (0.5, 0) of height R = 0.5 inward from gamma(0) = (1, 0).
        curve, weight = circle_mu1
        val = f_second_critical(curve, weight, 0.0, [0.5, 0.0])
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
            frame = normal_frames(curve, [s])[0]
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
        batch = exp_mu(curve, weight, s, v, R)
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
        d2 = curve.second_derivative(s)
        off = make_offset(curve, weight, s, d2 / np.linalg.norm(d2), R)
        x = np.float64(float(weight.d1(s)) * R)
        assert x**2 != x * x
        batch = exp_mu(curve, weight, np.array([s]), off.v[None, :], np.array([R]))
        np.testing.assert_array_equal(exp_mu(curve, weight, s, off.v, R), batch[0])
        heights = np.array([0.25 * R, 0.5 * R, R])
        rows = exp_mu(curve, weight, np.full(3, s), np.tile(off.v, (3, 1)), heights)
        np.testing.assert_array_equal(exp_mu(curve, weight, s, off.v, heights), rows)


# ---------------------------------------------------------------------------
# Oracles: the scalar standard-basis frame (the dense-grid G is in oracles.py)
# ---------------------------------------------------------------------------


def scalar_gram_schmidt(t, threshold):
    """Sequential Gram-Schmidt of the standard basis against the unit tangent t."""
    frame = []
    for row in np.eye(t.size):
        w = row - (row @ t) * t
        for b in frame:
            w = w - (w @ b) * b
        norm = np.linalg.norm(w)
        if norm > threshold:
            frame.append(w / norm)
        if len(frame) == t.size - 1:
            break
    return np.array(frame)


def scalar_normal_frame(curve, s):
    """The per-foot frame: residuals above 0.5 join, redone with
    unconditional pivoting (above 1e-10) when it comes out short."""
    t = curve.tangent(s)
    frame = scalar_gram_schmidt(t, 0.5)
    if len(frame) < t.size - 1:
        frame = scalar_gram_schmidt(t, 1e-10)
    return frame


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


def seeded_fourier_3d_scene(seed=31):
    """A closed 3D Fourier curve with a Fourier weight drawn from one seed,
    like the generated 3D scene of the benchmark's geometry workload."""
    from weighted_tubes import parse_scene

    rng = np.random.default_rng(seed)
    cx, cy = [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]
    for k in (2, 3, 4):
        px, py = rng.uniform(0.0, 2.0 * np.pi, 2)
        cx += [0.04 / k**2 * np.cos(px), 0.04 / k**2 * np.sin(px)]
        cy += [0.04 / k**2 * np.cos(py), 0.04 / k**2 * np.sin(py)]
    ph, lift = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.1, 0.2)
    cz = [0.0, 0.0, 0.0, lift * np.cos(ph), lift * np.sin(ph)]
    w = [1.0]
    for k in (1, 2):
        ph = rng.uniform(0.0, 2.0 * np.pi)
        w += [0.1 / k * np.cos(ph), 0.1 / k * np.sin(ph)]
    return parse_scene({
        "ambient_dim": 3,
        "components": [{"kind": "fourier", "params": {"coefficients": [cx, cy, cz]}}],
        "weights": [{"kind": "fourier", "params": {"coefficients": w}}],
    })


def dense_in_chunks(pts, gp, mug, chunk=64):
    """oracles.dense_grid_argmin a few points at a time, to bound its memory;
    overflow and invalid values are the cases under test, not failures."""
    with np.errstate(all="ignore"):
        parts = [dense_grid_argmin(pts[k:k + chunk], gp, mug) for k in range(0, len(pts), chunk)]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.intp)


def grid_argmin_quietly(pts, gp, mug):
    from weighted_tubes.expmap import _grid_argmin

    with np.errstate(all="ignore"):
        return _grid_argmin(pts, gp, mug)


def assert_dense_indices(pts, gp, mug):
    np.testing.assert_array_equal(grid_argmin_quietly(pts, gp, mug), dense_in_chunks(pts, gp, mug))


class StubTangents:
    """Stand-in curve whose tangent at s = k is the k-th given row."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)

    def tangent(self, s):
        return self.rows[np.asarray(s, dtype=int)]


BUNDLED = ["circle_mu1", "ellipse_mu1", "example1a", "example1b", "example2_stadium",
           "example3_family", "example4", "example6_family"]


class TestGPotentialAgainstDenseGrid:
    @pytest.mark.parametrize("name", BUNDLED + ["fourier_3d_seeded"])
    def test_blocked_grid_argmin_is_the_dense_one(self, scenes, monkeypatch, name):
        from weighted_tubes import radii_report, sweeps, tube_boundary
        from weighted_tubes.expmap import _G_BLOCK_CELLS, _grid_argmin

        scene = scenes[name] if name in scenes else seeded_fourier_3d_scene()
        curve, weight = scene.pairs[0]
        sg = curve.grid(2048)
        gp, mug = curve.point(sg), np.asarray(weight.mu(sg), dtype=float)
        pts = points_near(curve, np.random.default_rng(5), 700, 0.4)
        rows = _G_BLOCK_CELLS // len(sg)  # points per block
        assert len(pts) > 2 * rows and len(pts) % rows  # three blocks or more, the last one short
        np.testing.assert_array_equal(_grid_argmin(pts, gp, mug), dense_grid_argmin(pts, gp, mug))
        # The candidate points of the tube calls below and above air.
        mapped = []
        g_potential = sweeps.g_potential
        monkeypatch.setattr(sweeps, "g_potential",
                            lambda pairs, p: mapped.append(p) or g_potential(pairs, p))
        air = radii_report(scene.pairs, scene.tolerances).air
        for factor in (0.6, 1.3):
            tube_boundary(scene.pairs, factor * air)
        assert len(mapped) == 2 and all(len(p) > 2 * rows for p in mapped)
        for p in mapped:
            np.testing.assert_array_equal(_grid_argmin(p, gp, mug), dense_in_chunks(p, gp, mug))

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


def loop_grid(rng, n, N, scale, shift=0.0):
    """N samples of a closed loop in R^n with bumps, scaled and shifted."""
    t = np.linspace(0.0, 2.0 * np.pi, N, endpoint=False)
    bumps = [0.3 * np.sin((k + 2) * t + k) for k in range(n - 2)]
    loop = np.stack([np.cos(t), np.sin(t)] + bumps, axis=1)
    return shift + scale * (loop + 0.01 * rng.normal(size=(N, n)))


def hard_points(rng, gp, scale, shift=0.0):
    """Points near the grid, on grid samples, far off, at the centroid, and
    with nan or inf coordinates."""
    n = gp.shape[1]
    near = gp[rng.integers(0, len(gp), 40)] + scale * rng.normal(0.0, 0.05, (40, n))
    on = gp[rng.integers(0, len(gp), 8)]
    far = shift + scale * rng.normal(0.0, 10.0, (8, n))
    bad = np.full((4, n), shift + scale)
    bad[0, 0], bad[1, -1], bad[2, 0], bad[3] = np.nan, np.inf, -np.inf, np.nan
    return np.concatenate([near, on, far, gp.mean(axis=0)[None], bad])


def near_tie_rows(rng, m=200, N=512):
    """Points within 1e-16 of the centre of the unit circle, mu = 1: every
    dense value is 1 to within a few ulp, and the least ones tie or lie one
    ulp apart."""
    t = np.linspace(0.0, 2.0 * np.pi, N, endpoint=False)
    gp = np.stack([np.cos(t), np.sin(t)], axis=1)
    return rng.normal(0.0, 1e-16, (m, 2)), gp, np.ones(N)


class TestGridArgminCertificate:
    """`_grid_argmin`'s certified filter returns the dense oracle's indices
    where rounding, scale, ties and non-finite values make that hardest."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("N", [1, 2, 7, 2048])
    @pytest.mark.parametrize("scale, shift", [
        (1.0, 0.0), (1.0, 1e8), (1e-150, 0.0), (1e-170, 0.0), (1e150, 0.0), (1e200, 0.0),
    ])
    def test_scales_and_sizes(self, n, N, scale, shift):
        rng = np.random.default_rng([n, N, int(np.log10(scale)) + 200])
        gp = loop_grid(rng, n, N, scale, shift)
        pts = hard_points(rng, gp, scale, shift)
        # mu spanning e^-3..1, and mu at the grid's own scale.
        for mug in (np.exp(rng.uniform(-3.0, 0.0, N)), scale * np.exp(rng.uniform(-3.0, 0.0, N))):
            assert_dense_indices(pts, gp, mug)

    @pytest.fixture
    def dense_rows(self, monkeypatch):
        """The points each call of the dense rule receives."""
        from weighted_tubes import expmap

        seen = []
        dense = expmap._dense_grid_argmin
        monkeypatch.setattr(expmap, "_dense_grid_argmin",
                            lambda p, gp, mu2: seen.append(p.copy()) or dense(p, gp, mu2))
        return seen

    def test_exact_ties_take_the_dense_rule(self, dense_rows):
        # At the centre of the unit circle with mu = 1 the dense values tie
        # exactly, and the first least one is the answer.
        t = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
        gp, mug = np.stack([np.cos(t), np.sin(t)], axis=1), np.ones(2048)
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.3, -0.2]])
        with np.errstate(all="ignore"):
            values = ((pts[0] - gp) ** 2).sum(axis=1)
        assert np.sum(values == values.min()) > 1
        assert_dense_indices(pts, gp, mug)
        assert len(dense_rows) == 1 and dense_rows[0].tobytes() == pts[:1].tobytes()

    def test_near_ties_take_the_dense_rule(self, dense_rows):
        pts, gp, mug = near_tie_rows(np.random.default_rng(8))
        values = ((pts[:, None, :] - gp) ** 2).sum(axis=2) / mug**2
        least = values.min(axis=1)
        above = np.where(values > least[:, None], values, np.inf).min(axis=1)
        assert np.all(above == np.nextafter(least, 2.0))  # one ulp apart
        assert np.any(np.sum(values == least[:, None], axis=1) == 1)  # some rows have no tie
        assert_dense_indices(pts, gp, mug)
        assert sum(len(p) for p in dense_rows) == len(pts)

    def test_without_its_band_the_filter_fails(self, monkeypatch):
        # Mutation check: with band 0 the near-tie rows come out wrong, and
        # without the underflow term so do rows whose squared distances
        # underflow while w = 1/mu^2 is large (mu = 1e-50 at 1e-170): the
        # dense values there all round to 0, so the first index wins.
        from weighted_tubes import expmap

        pts, gp, mug = near_tie_rows(np.random.default_rng(8))
        tiny = (np.array([[1e-170, 0.0], [2e-170, 0.0], [5e-171, 1e-171]]),
                np.array([[-1e-170, 0.0]] * 3 + [[3e-170, 0.0]]), np.full(4, 1e-50))
        for case in ((pts, gp, mug), tiny):
            assert_dense_indices(*case)
        monkeypatch.setattr(expmap, "_G_BAND_UNDERFLOW", 0.0)
        assert np.all(grid_argmin_quietly(*tiny) == 3)
        assert np.all(dense_in_chunks(*tiny) == 0)
        monkeypatch.setattr(expmap, "_G_BAND_ROUNDING", 0.0)
        assert np.any(grid_argmin_quietly(pts, gp, mug) != dense_in_chunks(pts, gp, mug))

    @pytest.mark.parametrize("signs", ["widening the gap", "random"])
    def test_any_product_within_the_rounding_bound(self, monkeypatch, signs):
        # A matrix product that errs by up to gamma_{n+2} sum |x_i y_i| per
        # cell, as a BLAS with another summation order may: lowered on each
        # row's least cell and raised elsewhere, so that a wrong j0 looks
        # certain, or random.
        rng = np.random.default_rng(21)
        matmul = np.matmul

        def erring(x, y, out):
            k = x.shape[1]
            bound = k * 2.0**-53 / (1.0 - k * 2.0**-53) * matmul(np.abs(x), np.abs(y))
            exact = matmul(x, y)
            if signs == "random":
                sign = rng.choice([-1.0, 1.0], size=exact.shape)
            else:
                sign = np.ones(exact.shape)
                sign[np.arange(len(exact)), np.argmin(exact, axis=1)] = -1.0
            out[...] = exact + sign * bound
            return out

        cases = [near_tie_rows(rng)]
        for n in (2, 3, 4):
            for scale, shift in ((1.0, 0.0), (1.0, 1e8), (1e-150, 0.0)):
                gp = loop_grid(rng, n, 2048, scale, shift)
                mug = np.exp(rng.uniform(-3.0, 0.0, 2048))
                cases.append((hard_points(rng, gp, scale, shift), gp, mug))
        want = [dense_in_chunks(*case) for case in cases]
        monkeypatch.setattr(np, "matmul", erring)
        for case, ref in zip(cases, want):
            np.testing.assert_array_equal(grid_argmin_quietly(*case), ref)

    @pytest.mark.parametrize("n, rows", [(2, 32), (3, 32), (8, 25), (12, 18)])
    def test_blocks_stay_within_the_multiply_add_budget(self, monkeypatch, n, rows):
        # At most 2^16 cells and 2^19 multiply-adds per block product, so that
        # BLAS keeps it on one thread in every dimension; rows is the points
        # per block on a 2,048-sample grid.
        from weighted_tubes.expmap import _dense_grid_argmin

        rng = np.random.default_rng(n)
        gp = loop_grid(rng, n, 2048, 1.0)
        mug = np.exp(rng.uniform(-3.0, 0.0, 2048))
        pts = np.concatenate([hard_points(rng, gp, 1.0) for _ in range(3)])
        shapes = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", lambda x, y, out: (
            shapes.append(x.shape + y.shape) or matmul(x, y, out=out)))
        idx = grid_argmin_quietly(pts, gp, mug)
        monkeypatch.undo()
        assert [shape[0] for shape in shapes] == [rows] * (len(pts) // rows) + [len(pts) % rows]
        for m, k, k2, N in shapes:
            assert k == k2 == n + 2 and N == 2048
            assert m * N <= 2**16 and m * N * (n + 2) <= 2**19
        with np.errstate(all="ignore"):
            np.testing.assert_array_equal(idx, _dense_grid_argmin(pts, gp, mug**2))
        np.testing.assert_array_equal(idx, dense_in_chunks(pts, gp, mug))

    @pytest.mark.parametrize("bad", ["zero mu", "inf mu", "nan mu", "inf grid", "nan grid"])
    def test_a_grid_the_filter_cannot_take_is_dense(self, dense_rows, bad):
        rng = np.random.default_rng(4)
        gp = loop_grid(rng, 2, 64, 1.0)
        mug = np.exp(rng.uniform(-3.0, 0.0, 64))
        if bad.endswith("mu"):
            mug[5] = {"zero": 0.0, "inf": np.inf, "nan": np.nan}[bad.split()[0]]
        else:
            gp[9, 1] = {"inf": np.inf, "nan": np.nan}[bad.split()[0]]
        pts = hard_points(rng, gp, 1.0)
        assert_dense_indices(pts, gp, mug)
        assert len(dense_rows) == 1 and len(dense_rows[0]) == len(pts)


class TestNewtonRefinement:
    """The safeguarded Newton behind G: degenerate rows, row independence
    and the number of feet it evaluates."""

    @staticmethod
    def grid_minimum(pairs, pts):
        """(foot, F there, grid step) of one component's grid minimum."""
        from weighted_tubes.expmap import _grid_argmin

        curve, weight = pairs[0]
        sg = curve.grid(2048)
        s0 = sg[_grid_argmin(pts, curve.point(sg), np.asarray(weight.mu(sg), dtype=float))]
        return s0, f_value(curve, weight, s0, pts), curve.length / 2048

    def assert_no_worse_than_the_grid(self, pairs, pts):
        v, _, s = g_potential(pairs, pts)
        s0, f0, h = self.grid_minimum(pairs, pts)
        assert np.all(np.isfinite(v)) and np.all(np.isfinite(s))
        assert np.all(v <= f0)
        assert np.all(np.abs(s - s0) <= h)  # inside the bracket
        return v, s, s0

    def test_constant_f_at_the_circle_centre(self, circle_mu1):
        v, _, _ = self.assert_no_worse_than_the_grid([circle_mu1], np.zeros((1, 2)))
        assert abs(v[0] - 1.0) <= 1e-15

    def test_flat_feet_on_the_ellipse_evolute(self, scenes):
        # Each point is the centre of curvature gamma + gamma'' / kappa^2 of
        # its foot s, where F' = F'' = 0.
        pairs = scenes["ellipse_mu1"].pairs
        curve, weight = pairs[0]
        s = np.linspace(0.0, curve.length, 24, endpoint=False)
        g, _, g2 = curve.jet(s, 2)
        pts = g + g2 / np.sum(g2 * g2, axis=1, keepdims=True)
        assert np.max(np.abs(f_second(curve, weight, s, pts))) <= 1e-12
        self.assert_no_worse_than_the_grid(pairs, pts)

    def test_past_the_focal_distance(self, scenes):
        # Just past the centres of curvature (+-1.5, 0) of the major
        # vertices, F has two wells narrower than one grid step around the
        # vertex, so the grid minimum is the vertex sample: a local maximum.
        pairs = scenes["ellipse_mu1"].pairs
        curve, weight = pairs[0]
        x = 1.5 - np.array([1e-9, 1e-8, 1e-7, 1e-6])
        pts = np.stack([np.r_[x, -x], np.zeros(8)], axis=1)
        s0, _, _ = self.grid_minimum(pairs, pts)
        assert np.all(f_second(curve, weight, s0, pts) < 0)
        _, s, _ = self.assert_no_worse_than_the_grid(pairs, pts)
        assert np.all(s != s0)  # every row left the maximum for a well

    def test_open_arc_end_reached_from_inside(self, arc1a):
        # With one grid sample, an open arc's bracket is the whole arc and
        # the seed is its start; beyond the far end F falls all the way, and
        # the row stops on that end itself.
        curve, weight = arc1a
        ends = np.array([curve.s_min, curve.s_max])
        pts = curve.point(ends) + np.array([-1.0, 1.0])[:, None] * 0.5 * curve.tangent(ends)
        v, _, s = g_potential([arc1a], pts, samples=1)
        np.testing.assert_array_equal(s, ends)
        np.testing.assert_array_equal(v, f_value(curve, weight, ends, pts))

    @staticmethod
    def pairs_named(scenes, name):
        return scenes[name].pairs if name in scenes else [(fourier_3d(), ConstantWeight(1.0))]

    @pytest.mark.parametrize(
        "name", ["ellipse_mu1", "example1a", "example1b", "example2_stadium", "fourier_3d"]
    )
    def test_a_point_alone_is_its_batch_row(self, scenes, name):
        pairs = self.pairs_named(scenes, name)
        pts = points_near(pairs[0][0], np.random.default_rng(12), 40, 0.5)
        batch = g_potential(pairs, pts)
        for k in range(len(pts)):
            alone = g_potential(pairs, pts[k:k + 1])
            for col, one in zip(batch, alone):
                assert col[k:k + 1].tobytes() == one.tobytes()

    @pytest.mark.parametrize("name", ["ellipse_mu1", "fourier_3d"])
    def test_arclength_inversions_per_point(self, scenes, monkeypatch, name):
        from weighted_tubes import curves

        pairs = self.pairs_named(scenes, name)
        pts = points_near(pairs[0][0], np.random.default_rng(2), 512, 0.3)
        feet = []
        t_of_s = curves._RawCurve.t_of_s

        def counted(self, s):
            feet.append(np.size(s))
            return t_of_s(self, s)

        monkeypatch.setattr(curves._RawCurve, "t_of_s", counted)
        g_potential(pairs, pts)
        # The grid's 2048 samples make 4 feet per point; a 40-iteration
        # golden section took 42 more.
        assert sum(feet) <= 10 * len(pts)


class TestNormalFrameRows:
    def assert_rows_are_the_scalar_frames(self, curve, s):
        from weighted_tubes import normal_frames

        rows = normal_frames(curve, s)
        for k, sk in enumerate(s):
            ref = scalar_normal_frame(curve, sk)
            assert rows[k].tobytes() == ref.tobytes()

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
        rows = normal_frames(stub, np.arange(2))
        assert np.all(np.isnan(rows[0]))
        assert rows[1].tobytes() == scalar_normal_frame(stub, 1).tobytes()
