import re

import numpy as np
import pytest

from weighted_tubes import (
    BUNDLED_SCENES,
    CircleArcCurve,
    ConstantWeight,
    CosineWeight,
    EllipseCurve,
    NotCriticalFootError,
    NumericError,
    OffsetWeight,
    OutOfWError,
    PolynomialWeight,
    detect_collapse_arcs,
    differential,
    exp_mu,
    f_second_critical,
    is_singular,
    jacobian_determinant,
    make_stadium,
    normal_frames,
    parse_scene,
    radii_report,
    singular_set,
    transversality_check,
)
from test_acceptance import random_offsets
from weighted_tubes import singular
from weighted_tubes.config import DEFAULT_TOLERANCES
from weighted_tubes.expmap import _hess_rows, w_bound
from weighted_tubes.singular import (
    _TOL_HESS_FACTOR,
    _runs,
    dense_grid,
    g_slope,
    g_zero_set,
)
from weighted_tubes.util import brent_rows
from weighted_tubes.weights import SymmetricPiecewiseWeight

from oracles import fd_differential, f_second_at_offset, g_band, random_unit_normals, runs_loop


@pytest.fixture(scope="module")
def stadium_pair():
    curve = make_stadium()
    return curve, SymmetricPiecewiseWeight(curve.length, 0.4, 0.8, 6.0, 0.2)


class TestSingularSet:
    # Rows of the table are (component, s, R, residual, x1..xn).
    def test_constant_weight_empty(self):
        pairs = [(CircleArcCurve(0, 2 * np.pi, closed=True), ConstantWeight(1.0))]
        assert singular_set(pairs, 1.0).shape == (0, 6)
        pairs = [(EllipseCurve(2, 1), ConstantWeight(1.0))]
        assert singular_set(pairs, 0.5).shape == (0, 6)

    def test_half_circle_continuum(self):
        pairs = [(CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight())]
        pts = singular_set(pairs, 2 * np.sqrt(2.0))
        assert len(pts) > 1000  # a whole flat run of samples
        assert np.max(np.abs(pts[:, 2] - 2.0)) <= 1e-9
        assert np.max(np.linalg.norm(pts[:, 4:] - [-1.0, 0.0], axis=1)) <= 1e-9

    def test_example4_single_point(self):
        pairs = [(CircleArcCurve(-1, 1), PolynomialWeight([1.0, 0.0, -0.125]))]
        pts = singular_set(pairs, 4.0)
        assert len(pts) == 1
        assert abs(pts[0, 1]) <= 1e-6
        assert pts[0, 2] == pytest.approx(2.0, abs=1e-6)

    def test_height_cutoff_filters(self):
        pairs = [(CircleArcCurve(-1, 1), PolynomialWeight([1.0, 0.0, -0.125]))]
        assert singular_set(pairs, 1.5).shape == (0, 6)

    @pytest.mark.parametrize("c, ur", [(1.0, 1e300), (1e-4, 4e4)])
    def test_graph_rows_take_is_singulars_band(self, c, ur):
        # example4's weight times c: the graph heights at s = 0, 0.5 and -0.7
        # are all below ur, but only s = 0 is singular. A band widened by
        # ur^2 (void where it overflows) or not scaled with the weight kept
        # all three rows; is_singular's band keeps only s = 0.
        curve, weight = CircleArcCurve(-1, 1), PolynomialWeight([c, 0.0, -0.125 * c])
        feet = np.array([0.0, 0.5, -0.7])
        rows = singular._graph_points(curve, weight, 0, feet, ur)
        assert rows[:, 1].tolist() == [0.0]
        heights = singular._graph_height(weight.jet(feet, 2))
        assert np.all(heights < ur)
        flags, _ = is_singular(curve, weight, feet, curve.second_derivative(feet), heights)
        assert flags.tolist() == [True, False, False]

    def test_principal_normal_is_the_worst_direction(self):
        # Re-testing the graph point with non-principal directions must give
        # a strictly positive second derivative.
        curve = CircleArcCurve(-1.2, 1.2, ambient_dim=3)
        weight = PolynomialWeight([1.0, 0.0, -0.125])
        pts = singular_set([(curve, weight)], 4.0)
        assert pts.shape == (1, 7)
        s, height = pts[0, 1], pts[0, 2]
        rng = np.random.default_rng(5)
        d2 = curve.second_derivative(s)
        principal = d2 / np.linalg.norm(d2)
        for _ in range(8):
            v = random_unit_normals(curve, [s], rng)[0]
            if abs(float(v @ principal)) > 0.99:
                v = normal_frames(curve, [s])[0, 1]
            _, val = is_singular(curve, weight, s, v, height)
            assert val > 1e-6


@pytest.mark.parametrize("name", ["example1a", "example1b", "example4", "example2_stadium"])
def test_graph_points_match_the_scalar_map(scenes, name):
    """Each batched point agrees with the map and the closed-form second
    derivative evaluated at its foot along the principal normal, all feet of
    a component in one row-wise call (exp_mu, expmap._hess_rows);
    is_singular gives the same value, and flags it, on a sample of them."""
    scene = scenes[name]
    tol = scene.tolerances
    ur = radii_report(scene.pairs, tol).ur
    points = singular_set(scene.pairs, ur, tol)
    assert len(points)
    for ci, (curve, weight) in enumerate(scene.pairs):
        rows = points[points[:, 0] == ci]
        if not len(rows):
            continue
        s, R = rows[:, 1], rows[:, 2]
        jets = (curve.jet(s, 2), weight.jet(s, 2))
        normal = jets[0][2] / np.linalg.norm(jets[0][2], axis=-1)[:, None]
        images = exp_mu(curve, weight, s, normal, R)
        assert np.max(np.abs(images - rows[:, 4:])) <= 1e-12
        _, hess, scale, _, checks = _hess_rows(jets, s, normal, R)
        assert not any(mask.any() for mask, _ in checks)
        assert np.all(np.abs(hess) <= _TOL_HESS_FACTOR * scale)
        assert np.all((0.0 < R) & (R < ur))
        # is_singular gives the same second derivative at the same offset
        # and, in the same band, flags it.
        for k in range(0, len(s), 97):
            flag, value = is_singular(curve, weight, s[k], normal[k], R[k])
            assert flag and value == hess[k]


def test_hess_rows_projects_and_maps_each_row_once(monkeypatch):
    from weighted_tubes import expmap

    calls = []
    for name in ("_offset_rows", "_exp_rows"):
        monkeypatch.setattr(expmap, name, lambda *args, f=getattr(expmap, name), name=name: (
            calls.append(name) or f(*args)))
    curve, weight = CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight()
    s = np.linspace(-1.2, 1.2, 5)
    images, hess, _, _, checks = _hess_rows((curve.jet(s, 2), weight.jet(s, 2)), s, -curve.point(s),
                                            np.full(5, 2.0))
    assert sorted(calls) == ["_exp_rows", "_offset_rows"]
    assert not any(mask.any() for mask, _ in checks) and np.max(np.abs(hess)) <= 1e-12
    # The collapse: every foot's image at height 2 is (-1, 0).
    np.testing.assert_allclose(images, np.tile([-1.0, 0.0], (5, 1)), rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", BUNDLED_SCENES)
def test_table_is_sorted_and_spaced(scenes, name):
    """The table has one row (component, s, R, residual, x1..xn) per point,
    sorted by (component, s); within a component consecutive rows are more
    than half a grid step apart."""
    scene = scenes[name]
    tol = scene.tolerances
    table = singular_set(scene.pairs, radii_report(scene.pairs, tol).ur, tol)
    assert table.ndim == 2 and table.shape[1] == scene.ambient_dim + 4
    comp, s = table[:, 0], table[:, 1]
    assert np.all(np.diff(comp) >= 0)
    assert np.all((np.diff(comp) > 0) | (np.diff(s) >= 0))
    for ci, (curve, weight) in enumerate(scene.pairs):
        rows = table[comp == ci]
        gap = 0.5 * curve.length / tol.grid_samples
        assert np.all(curve.periodic_distance(rows[:-1, 1], rows[1:, 1]) > gap)
        np.testing.assert_allclose(
            rows[:, 3], np.abs(g_slope(curve, weight, rows[:, 1])[1]), rtol=0, atol=1e-15
        )


def test_dedup_compares_each_row_with_the_one_before(monkeypatch):
    # Feed the dedup step chosen feet: a chain of three, each within the gap
    # of the next but spanning more than it, keeps its first row only; a far
    # foot is kept; component 1's smaller s still sorts after component 0.
    curve = CircleArcCurve(0, 2 * np.pi, closed=True)
    gap = 0.5 * curve.length / DEFAULT_TOLERANCES.grid_samples
    feet = {0: [3.0, 1.0 + 1.4 * gap, 1.0, 1.0 + 0.7 * gap], 1: [0.5]}

    def graph_points(curve, weight, ci, s, ur):
        s = np.array(feet[ci])
        return np.column_stack([np.full(len(s), ci), s, np.ones_like(s), np.zeros_like(s),
                                np.cos(s), np.sin(s)])

    monkeypatch.setattr(singular, "_graph_points", graph_points)
    table = singular_set([(curve, ConstantWeight(1.0))] * 2, 1.0)
    np.testing.assert_array_equal(table[:, :2], [[0, 1.0], [0, 3.0], [1, 0.5]])


class TestIsSingular:
    def test_half_circle_collapse_height(self):
        curve, weight = CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight()
        flag, resid = is_singular(curve, weight, 0.3, -curve.point(0.3), 2.0)
        assert flag and abs(resid) <= 1e-12

    def test_small_heights_regular(self):
        curve, weight = CircleArcCurve(0, 2 * np.pi, closed=True), ConstantWeight(1.0)
        flag, resid = is_singular(curve, weight, 1.0, -curve.point(1.0), 0.5)
        assert not flag
        assert resid == pytest.approx(1.0)

    def test_residual_shrinks_toward_focal_height(self):
        curve, weight = CircleArcCurve(0, 2 * np.pi, closed=True), ConstantWeight(1.0)
        vals = []
        for R in (0.5, 0.9, 0.99, 0.999):
            _, resid = is_singular(curve, weight, 0.0, [-1.0, 0.0], R)
            vals.append(abs(resid))
        assert vals == sorted(vals, reverse=True)

    def test_boundary_rejected(self):
        curve, weight = CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight()
        bound = float(w_bound(weight, 1.0))
        with pytest.raises(OutOfWError):
            is_singular(curve, weight, 1.0, -curve.point(1.0), bound)

    @pytest.mark.parametrize("c", [1e-8, 1e-4, 1.0, 1e4])
    def test_band_scales_with_the_weight(self, scenes, c):
        # On the unit circle with constant mu the map is singular only at
        # mu R = 1 along the inward normal. The terms of F'' scale like mu R,
        # and so does the band, so (mu, R) -> (c mu, R / c) keeps every flag.
        curve = scenes["circle_mu1"].pairs[0][0]
        feet = np.linspace(0.0, 6.0, 7)
        inward = -curve.point(feet)
        dirs = np.stack([inward, -inward], axis=1)[:, :, None, :]
        heights = np.array([0.5, 0.9, 1.0, 1.1, 2.0, 10.0, 1e3, 1e8])  # mu R
        flags, _ = is_singular(curve, ConstantWeight(c), feet[:, None, None], dirs, heights / c)
        expected = np.array([True, False])[:, None] & (heights == 1.0)
        np.testing.assert_array_equal(flags, np.broadcast_to(expected, flags.shape))

    def test_huge_heights_are_regular_until_f_second_overflows(self, scenes):
        curve, weight = scenes["circle_mu1"].pairs[0]
        outward = curve.point(0.3)
        heights = 10.0 ** np.arange(1, 151, 7)
        for v in (outward, -outward):
            flags, values = is_singular(curve, weight, 0.3, v, heights)
            assert not flags.any() and np.all(np.isfinite(values))
        # R^2 overflows from about 1.3e154: the row raises, after the
        # earlier rows' own checks.
        with pytest.raises(NumericError, match="not finite"):
            is_singular(curve, weight, 0.3, outward, [1.0, 1e155])
        with pytest.raises(OutOfWError, match="tangent"):
            is_singular(curve, weight, 0.3, np.stack([curve.tangent(0.3), outward]), [1.0, 1e155])

    def test_differential_and_f_second_raise_where_not_finite(self, scenes):
        # On circle_mu1 (mu' = mu'' = 0) along the outward normal the image
        # is finite at R = 1e110, but the differential's mu mu' mu'' R^3 / rho
        # term is inf times 0 from about 5.6e102; at (1 + 1e155) gamma(0.3)
        # the recovered R^2 of f_second_critical overflows. Each raises
        # NumericError for its first such row, after the earlier rows' own
        # checks, and no warning escapes (the suite makes them errors).
        curve, weight = scenes["circle_mu1"].pairs[0]
        outward = curve.point(0.3)
        assert np.all(np.isfinite(exp_mu(curve, weight, 0.3, outward, 1e110)))
        for R in (1e110, 1e155):
            for call in (differential, jacobian_determinant):
                with pytest.raises(NumericError, match=re.escape(f"differential at R={R!r}, s=0.3 is not finite")):
                    call(curve, weight, 0.3, outward, [1.0, R, R])
                with pytest.raises(OutOfWError, match="tangent"):
                    call(curve, weight, 0.3, np.stack([outward, curve.tangent(0.3), outward]), [1.0, 1.0, R])
        with pytest.raises(NumericError, match="F'' at R=inf, s=0.3 is not finite"):
            f_second_critical(curve, weight, 0.3, np.stack([2.0 * outward, (1.0 + 1e155) * outward]))
        with pytest.raises(NotCriticalFootError):
            f_second_critical(curve, weight, 0.3, np.stack([curve.point(0.5), (1.0 + 1e155) * outward]))
        # In four dimensions the determinant of finite columns overflows.
        arc = CircleArcCurve(-1.2, 1.2, ambient_dim=4)
        assert np.all(np.isfinite(differential(arc, ConstantWeight(1.0), 0.3, arc.point(0.3), 1e80)))
        with pytest.raises(NumericError, match="determinant at R=1e\\+80, s=0.3 is not finite"):
            jacobian_determinant(arc, ConstantWeight(1.0), 0.3, arc.point(0.3), 1e80)

    def test_jacobian_agrees_across_scenes(self, scenes):
        # Independent cross-check: the determinant of the map's differential
        # must flag exactly the points the second-derivative criterion flags.
        for name in ("circle_mu1", "example1a", "example4", "ellipse_mu1", "example1b"):
            scene = scenes[name]
            rng = np.random.default_rng(scene.seed)
            curve, weight = scene.pairs[0]
            disagreements = 0
            for _ in range(100):
                s = rng.uniform(curve.s_min, curve.s_max)
                v = random_unit_normals(curve, [s], rng)[0]
                bound = float(w_bound(weight, s))
                cap = min(0.9 * bound, 4.0)
                R = rng.uniform(1e-3, cap)
                flag, resid = is_singular(curve, weight, s, v, R)
                det = jacobian_determinant(curve, weight, s, v, R)
                mu = float(weight.mu(s))
                det_scale = mu**curve.ambient_dim
                near_zero_det = abs(det) <= 1e-4 * det_scale
                hess_scale = 2.0 / mu**2 * max(1.0, R**2)
                near_zero_hess = abs(resid) <= 1e-4 * hess_scale
                gray = (1e-6 * hess_scale < abs(resid) < 1e-2 * hess_scale) or (
                    1e-6 * det_scale < abs(det) < 1e-2 * det_scale
                )
                if not gray and near_zero_det != near_zero_hess:
                    disagreements += 1
            assert disagreements == 0, name

    @pytest.mark.parametrize("name", BUNDLED_SCENES)
    def test_value_is_the_scalar_chain(self, scenes, name):
        # The oracle is the chain the jets' closed form replaced: project the
        # offset, map it, recover R from the image and take the angle
        # formula there. is_singular reads (2/mu^2) A from the jets, and
        # f_second_critical reads it at the image.
        scene = scenes[name]
        curve, weight = scene.pairs[0]
        s, v, R = (x[:300] for x in random_offsets(scene, 1000, r_cap=4.0, margin=0.1))
        expected = f_second_at_offset(curve, weight, s, v, R)
        images = exp_mu(curve, weight, s, v, R)
        values = is_singular(curve, weight, s, v, R)[1], f_second_critical(curve, weight, s, images)
        # Both sides evaluate (2/mu^2) (1 - X - Y), X = (mu'^2 + mu mu'') R^2
        # and Y = mu R rho (v . gamma''), from the same jets. At these heights
        # (R <= 0.9 / |mu'|) rho's radicand is at least 0.19, so rho carries
        # at most 10 u (u = EPS / 2), and each side is within 16 u of each
        # term's size: 16 EPS (1 + |X| + |Y|) covers both. Recovering R and v
        # from the image adds EPS (|gamma| + mu R) / mu to R (and as much to
        # v, against its normal part mu R rho); A moves by at most
        # 2 |mu'^2 + mu mu''| R + mu kappa / rho per unit of R.
        (gamma, _, g2), (mu, d1, d2) = curve.jet(s, 2), weight.jet(s, 2)
        kap, rho, c1 = np.linalg.norm(g2, axis=1), np.sqrt(1.0 - (d1 * R) ** 2), d1**2 + mu * d2
        terms = 1.0 + np.abs(c1) * R**2 + mu * R * rho * kap
        recovery = (2.0 * np.abs(c1) * R + mu * kap / rho) * (np.linalg.norm(gamma, axis=1) + mu * R) / mu
        band = 2.0 / mu**2 * EPS * (16.0 * terms + 2.0 * recovery)
        for value in values:
            assert np.all(np.abs(value - expected) <= band)

    def test_jacobian_vanishes_at_collapse(self):
        curve, weight = CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight()
        det = jacobian_determinant(curve, weight, 0.3, -curve.point(0.3), 2.0)
        # Rounding level: a few roundings in each column, of size mu each.
        assert abs(det) <= 32 * EPS * float(weight.mu(0.3)) ** curve.ambient_dim


def _same_bits(scalar, row):
    return np.float64(scalar).tobytes() == np.float64(row).tobytes()


class TestIsSingularRows:
    """is_singular and f_second_critical take exp_mu's broadcast rows."""

    @pytest.fixture
    def arc(self):
        return CircleArcCurve(-np.pi / 2, np.pi / 2, ambient_dim=3), CosineWeight()

    def test_feet_by_directions_are_the_scalar_calls(self, arc, monkeypatch):
        curve, weight = arc
        feet = np.linspace(-1.2, 1.2, 5)
        # The inward normal (singular at height 2) and the two frame vectors.
        dirs = np.concatenate([-curve.point(feet)[:, None], normal_frames(curve, feet)], axis=1)
        sizes = []
        with monkeypatch.context() as patch:
            for obj in (curve, weight):
                jet = obj.jet
                patch.setattr(obj, "jet", lambda s, order, jet=jet: (
                    sizes.append(np.size(s)) or jet(s, order)))
            flags, values = is_singular(curve, weight, feet[:, None], dirs, 2.0)
        assert sizes == [5, 5]
        assert flags.shape == values.shape == (5, 3)
        assert flags[:, 0].all() and not flags.all()
        for i, j in np.ndindex(flags.shape):
            flag, value = is_singular(curve, weight, feet[i], dirs[i, j], 2.0)
            assert type(flag) is bool and type(value) is float
            assert flag == flags[i, j] and _same_bits(value, values[i, j])

    def test_one_foot_by_heights_are_the_scalar_calls(self, arc):
        curve, weight = arc
        s, v = 0.3, -curve.point(0.3)
        heights = np.linspace(0.25, 3.0, 12).reshape(12, 1)
        flags, values = is_singular(curve, weight, s, v, heights)
        assert flags.shape == values.shape == (12, 1)
        assert flags[:, 0].tolist() == (heights[:, 0] == 2.0).tolist()
        for k in range(12):
            flag, value = is_singular(curve, weight, s, v, float(heights[k, 0]))
            assert flag == flags[k, 0] and _same_bits(value, values[k, 0])

    def test_f_second_critical_rows_are_the_scalar_calls(self, arc):
        curve, weight = arc
        feet = np.linspace(-1.2, 1.2, 5)
        pts = exp_mu(curve, weight, feet[:, None], normal_frames(curve, feet), 1.5)
        rows = f_second_critical(curve, weight, feet[:, None], pts)
        assert rows.shape == (5, 2)
        for i, j in np.ndindex(rows.shape):
            assert _same_bits(f_second_critical(curve, weight, feet[i], pts[i, j]), rows[i, j])
        heights = np.linspace(0.25, 3.0, 12)
        pts = exp_mu(curve, weight, 0.3, -curve.point(0.3), heights)
        rows = f_second_critical(curve, weight, 0.3, pts)
        assert rows.shape == (12,)
        for k in range(12):
            one = f_second_critical(curve, weight, 0.3, pts[k])
            assert type(one) is float and _same_bits(one, rows[k])

    def test_f_second_critical_first_failing_row(self, arc):
        curve, weight = arc
        far = exp_mu(curve, weight, 0.6, -curve.point(0.6), 1.1)
        pts = np.stack([exp_mu(curve, weight, 0.2, -curve.point(0.2), 1.0), far, far])
        # Row 1 is the first whose foot is not critical for its point.
        with pytest.raises(NotCriticalFootError, match="foot not critical"):
            f_second_critical(curve, weight, 0.2, pts)

    def test_first_failing_row_wins(self, arc):
        curve, weight = arc
        s = np.array([0.0, 1.0, 1.0])
        bound = float(w_bound(weight, 1.0))
        inward, tangent = -curve.point(s), curve.tangent(1.0)
        # Row 1 is at the bound, row 2 tangent: the earlier row's error.
        with pytest.raises(OutOfWError, match="strictly inside"):
            is_singular(curve, weight, s, np.stack([inward[0], inward[1], tangent]), [1.0, bound, 1.0])
        # Row 1 is tangent and at the bound: the offset check comes first.
        with pytest.raises(OutOfWError, match="tangent"):
            is_singular(curve, weight, s, np.stack([inward[0], tangent, inward[2]]), [1.0, bound, bound])
        with pytest.raises(OutOfWError, match="finite and nonnegative"):
            is_singular(curve, weight, s, inward, [1.0, np.nan, bound])


EPS = np.finfo(float).eps


def offsets_named(scenes, name, count):
    """Deterministic in-range offsets (s, v, R) on a bundled scene, or on
    `test_expmap.fourier_3d` with a linear weight, and the (curve, weight)."""
    if name != "fourier_3d":
        scene = scenes[name]
        return scene.pairs[0], random_offsets(scene, count, r_cap=4.0, margin=0.1)
    from test_expmap import fourier_3d

    curve, weight = fourier_3d(), PolynomialWeight([1.0, 0.05])
    rng = np.random.default_rng(2)
    s = rng.uniform(curve.s_min, curve.s_max, count)
    return (curve, weight), (s, random_unit_normals(curve, s, rng), rng.uniform(0.05, 1.0, count))


def oracle_band(curve, weight, s, v, R, cols):
    """Per row and column, a bound on |FD oracle - exact| for the oracle's
    step h = 1e-6 max(1, L / 2 pi).

    Truncation is c h^2 per column; Richardson's difference of the oracle at
    2h and h, (D_2h - D_h) / 3, estimates it. Rounding is delta / h, delta
    bounding the error of one chart point: the arclength inversion's foot
    error of 4e-16 L moves the image along d/ds, and each of the map's three
    terms carries a few roundings (8 eps of its size). D_2h's rounding is
    half of D_h's, so |D_h - exact| <= |D_2h - D_h| / 3 + 1.5 delta / h;
    the band takes 2 delta / h.
    """
    h = 1e-6 * max(1.0, curve.length / (2.0 * np.pi))
    fd_h, fd_2h = fd_differential(curve, weight, s, v, R), fd_differential(curve, weight, s, v, R, 2 * h)
    mu, d1 = (np.asarray(x, dtype=float) for x in weight.jet(s, 1))
    terms = np.linalg.norm(curve.point(s), axis=-1) + np.abs(mu * d1) * R**2 + mu * R
    delta = 4e-16 * curve.length * np.linalg.norm(cols[:, :, :1], axis=1) + 8 * EPS * terms[:, None]
    return fd_h, np.linalg.norm(fd_2h - fd_h, axis=1) / 3 + 2 * delta / h


class TestDifferential:
    """The closed-form differential against the finite-difference oracle, and
    its kernel on the singular graph."""

    @pytest.mark.parametrize("name", [
        "circle_mu1", "ellipse_mu1", "example1a", "example1b", "example2_stadium",
        "example3_family", "example4", "example6_family", "fourier_3d",
    ])
    def test_matches_the_fd_oracle(self, scenes, name):
        (curve, weight), (s, v, R) = offsets_named(scenes, name, 1000)
        cols = differential(curve, weight, s, v, R)
        fd, band = oracle_band(curve, weight, s, v, R, cols)
        assert np.all(np.linalg.norm(cols - fd, axis=1) <= band)
        # The determinants to first order in the column errors (Hadamard).
        norms = np.linalg.norm(cols, axis=1) + band
        det_band = np.sum(band * np.prod(norms, axis=1)[:, None] / norms, axis=1)
        assert np.all(np.abs(np.linalg.det(cols) - np.linalg.det(fd)) <= det_band)

    @pytest.mark.parametrize("name", ["example1a", "example1b", "example2_stadium", "example4"])
    def test_singular_rows_have_one_kernel_direction_along_d_ds(self, scenes, name):
        # On the graph dE/ds vanishes exactly where g = 0; its T part is
        # -mu R^2 g to first order, so a row's residual g adds |mu R^2 g| to
        # rounding (16 eps of the largest singular value). By Wedin's
        # theorem the kernel then leans off d/ds by at most that band over
        # the next singular value.
        scene = scenes[name]
        air = radii_report(scene.pairs, scene.tolerances).air
        rows = singular_set(scene.pairs, air, scene.tolerances)
        assert len(rows)
        for ci, (curve, weight) in enumerate(scene.pairs):
            ci_rows = rows[rows[:, 0] == ci]
            s, R, resid = ci_rows[:, 1], ci_rows[:, 2], ci_rows[:, 3]
            d2 = curve.second_derivative(s)
            cols = differential(curve, weight, s, d2, R)
            _, sigma, vt = np.linalg.svd(cols)
            mu = np.asarray(weight.mu(s), dtype=float)
            band = 16 * EPS * sigma[:, 0] + np.abs(mu * R**2 * resid)
            assert np.all(sigma[:, -1] <= band)
            assert np.all(sigma[:, -2] > 1e-2 * sigma[:, 0])
            assert np.all(np.linalg.norm(vt[:, -1, 1:], axis=1) <= band / sigma[:, -2])

    @pytest.mark.parametrize("name", [*BUNDLED_SCENES, "circle_arc_3d"])
    def test_singular_rows_below_air_collapse_horizontally(self, scenes, name):
        # The Horizontal Collapsing Property at every singular-graph row
        # below air. The row was admitted by is_singular's band: F'' =
        # (2/mu^2) A within _TOL_HESS_FACTOR of its scale, so |A| <=
        # _TOL_HESS_FACTOR (1 + |mu'^2 + mu mu''| R^2 + mu R rho kappa). Along
        # the principal normal v the d/ds column is A (T + (mu' R / rho) v),
        # of norm |A| / rho, so the whole column lies in that band over rho.
        # The c-columns over R have the singular values mu rho (n - 2 of
        # them) and mu / rho, so with rho > 0 they have rank n - 1 and the
        # kernel is horizontal.
        if name == "circle_arc_3d":
            pairs = [(CircleArcCurve(-1.2, 1.2, ambient_dim=3), PolynomialWeight([1.0, 0.0, -0.125]))]
            tol = DEFAULT_TOLERANCES
        else:
            pairs, tol = scenes[name].pairs, scenes[name].tolerances
        air = radii_report(pairs, tol).air
        rows = singular_set(pairs, air, tol)
        rows = rows[rows[:, 2] < air]
        for ci, (curve, weight) in enumerate(pairs):
            s, R = rows[rows[:, 0] == ci, 1], rows[rows[:, 0] == ci, 2]
            d2 = curve.second_derivative(s)
            cols = differential(curve, weight, s, d2, R)
            mu, d1, dd1 = (np.asarray(x, dtype=float) for x in weight.jet(s, 2))
            rho = np.sqrt(1.0 - (d1 * R) ** 2)
            size = 1.0 + np.abs(d1**2 + mu * dd1) * R**2 + mu * R * rho * np.linalg.norm(d2, axis=1)
            assert np.all(np.linalg.norm(cols[:, :, 0], axis=1) <= _TOL_HESS_FACTOR * size / rho)
            sigma = np.linalg.svd(cols[:, :, 1:] / R[:, None, None], compute_uv=False)
            assert np.all(sigma[:, -1] >= (1.0 - 16 * curve.ambient_dim * EPS) * mu * rho)

    @pytest.mark.parametrize("name", [
        "circle_mu1", "ellipse_mu1", "example1a", "example1b", "example2_stadium",
        "example3_family", "example4", "example6_family",
    ])
    def test_off_the_singular_graph_the_determinant_is_nonzero(self, scenes, name):
        # Rows whose second derivative is well away from zero (outside
        # criterion 09's gray band) are regular: their determinant is above
        # the rounding of an n x n determinant of these columns.
        (curve, weight), (s, v, R) = offsets_named(scenes, name, 1000)
        _, hess = is_singular(curve, weight, s, v, R)
        mu = np.asarray(weight.mu(s), dtype=float)
        regular = np.abs(hess) >= 1e-2 * 2.0 / mu**2 * np.maximum(1.0, R**2)
        assert regular.sum() >= len(s) // 2
        cols = differential(curve, weight, s[regular], v[regular], R[regular])
        rounding = 16 * curve.ambient_dim * EPS * np.prod(np.linalg.norm(cols, axis=1), axis=1)
        assert np.all(np.abs(np.linalg.det(cols)) > rounding)


class TestJacobianRows:
    @pytest.mark.parametrize("name", [
        "circle_mu1", "ellipse_mu1", "example1a", "example1b", "example2_stadium",
        "example3_family", "example4", "example6_family",
    ])
    def test_rows_are_the_scalar_determinants(self, scenes, name):
        scene = scenes[name]
        curve, weight = scene.pairs[0]
        s, v, R = (x[:300] for x in random_offsets(scene, 1000, r_cap=4.0, margin=0.1))
        rows = jacobian_determinant(curve, weight, s, v, R)
        np.testing.assert_array_equal(rows, np.linalg.det(differential(curve, weight, s, v, R)))
        for k in range(300):
            one = jacobian_determinant(curve, weight, s[k], v[k], R[k])
            assert type(one) is float and _same_bits(one, rows[k])

    def test_fourier_3d_with_a_tilted_direction(self, scenes):
        # A direction with a tangent part is projected first, as in exp_mu.
        (curve, weight), (s, v, R) = offsets_named(scenes, "fourier_3d", 40)
        tilted = v + 0.3 * curve.tangent(s)
        cols = differential(curve, weight, s, tilted, R)
        fd, band = oracle_band(curve, weight, s, v, R, cols)
        assert np.all(np.linalg.norm(cols - fd, axis=1) <= band)
        np.testing.assert_array_equal(np.linalg.det(cols), jacobian_determinant(curve, weight, s, tilted, R))

    def test_one_curve_jet_and_one_weight_jet_per_call(self, monkeypatch):
        curve, weight = CircleArcCurve(-np.pi / 2, np.pi / 2, ambient_dim=3), CosineWeight()
        calls = []
        for obj, name in ((curve, "curve"), (weight, "weight")):
            jet = obj.jet
            monkeypatch.setattr(obj, "jet", lambda s, order, jet=jet, name=name: (
                calls.append(name), jet(s, order))[1])
        jacobian_determinant(curve, weight, 0.3, [-1.0, 0.0, 0.5], 1.5)
        assert sorted(calls) == ["curve", "weight"]

    def test_broadcast_offsets_are_the_scalar_determinants(self, monkeypatch):
        curve, weight = CircleArcCurve(-np.pi / 2, np.pi / 2, ambient_dim=3), CosineWeight()
        feet = np.array([-0.4, 0.3])
        dirs = normal_frames(curve, feet)
        heights = np.array([0.5, 1.5, 2.0])
        sizes = []
        with monkeypatch.context() as patch:
            for obj in (curve, weight):
                jet = obj.jet
                patch.setattr(obj, "jet", lambda s, order, jet=jet: (
                    sizes.append(np.size(s)) or jet(s, order)))
            rows = jacobian_determinant(curve, weight, feet[:, None, None], dirs[:, :, None], heights)
            cols = differential(curve, weight, feet[:, None, None], dirs[:, :, None], heights)
        # Each jet is evaluated on the two feet as given.
        assert rows.shape == (2, 2, 3) and sizes == [2, 2, 2, 2]
        assert cols.shape == (2, 2, 3, 3, 3)
        for i, j, k in np.ndindex(rows.shape):
            one = jacobian_determinant(curve, weight, feet[i], dirs[i, j], heights[k])
            assert type(one) is float and rows[i, j, k] == one
            np.testing.assert_array_equal(differential(curve, weight, feet[i], dirs[i, j], heights[k]),
                                          cols[i, j, k])

    def test_no_rows(self, scenes):
        curve, weight = scenes["ellipse_mu1"].pairs[0]
        assert jacobian_determinant(curve, weight, np.zeros(0), np.zeros((0, 2)), np.zeros(0)).shape == (0,)

    @pytest.mark.parametrize("rows", [jacobian_determinant, differential, is_singular])
    def test_offset_checks_come_first(self, rows):
        curve, weight = CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight()
        s = np.array([0.2, 0.5, 0.5])
        v = -curve.point(s)
        bound = np.asarray(w_bound(weight, s), dtype=float)
        with pytest.raises(OutOfWError, match="exceeds admissible bound"):
            rows(curve, weight, s, v, np.array([0.5, 1.01 * bound[1], bound[2]]))
        with pytest.raises(OutOfWError, match="tangent"):
            rows(curve, weight, s, curve.tangent(s), np.array([0.5, 0.5, 0.5]))
        # At the bound rho = 0: the earlier row's error, although the later
        # row fails an earlier-listed check, and within a row the offset
        # check before "strictly inside".
        with pytest.raises(OutOfWError, match="strictly inside"):
            rows(curve, weight, s, v, np.array([0.5, bound[1], 2.0 * bound[2]]))
        with pytest.raises(OutOfWError, match="tangent"):
            rows(curve, weight, s, np.stack([v[0], curve.tangent(0.5), v[2]]),
                 np.array([0.5, bound[1], bound[2]]))


class TestCollapseArcs:
    def test_half_circle_whole_domain(self):
        curve, weight = CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight()
        arcs = detect_collapse_arcs([(curve, weight)], 2 * np.sqrt(2.0))
        assert len(arcs) == 1
        arc = arcs[0]
        assert arc.kappa == pytest.approx(1.0, abs=1e-12)
        assert arc.r == pytest.approx(2.0, abs=1e-9)
        assert abs(arc.phase) <= 1e-9
        assert np.linalg.norm(arc.p0 - [-1.0, 0.0]) <= 1e-9
        assert arc.residuals["mu_fit"] <= 1e-6
        assert arc.s_start == pytest.approx(-np.pi / 2, abs=1e-9)
        assert arc.s_end == pytest.approx(np.pi / 2, abs=1e-9)

    def test_space_arc(self):
        curve = CircleArcCurve(-1.2, 1.2, ambient_dim=3)
        weight = CosineWeight()
        arcs = detect_collapse_arcs([(curve, weight)], 3.0)
        assert len(arcs) == 1
        assert arcs[0].r == pytest.approx(2.0, abs=1e-9)
        assert np.linalg.norm(arcs[0].p0 - [-1.0, 0.0, 0.0]) <= 1e-9

    def test_isolated_singularity_is_not_an_arc(self):
        pairs = [(CircleArcCurve(-1, 1), PolynomialWeight([1.0, 0.0, -0.125]))]
        assert detect_collapse_arcs(pairs, 4.0) == []

    def test_constant_weight_no_arcs(self):
        pairs = [(EllipseCurve(2, 1), ConstantWeight(1.0))]
        assert detect_collapse_arcs(pairs, 0.5) == []

    def test_fiber_spheres_meet_only_at_p0(self):
        # Within a detected arc, fibers at distinct feet share exactly the
        # collapse image.
        from weighted_tubes import fiber_geometry

        curve, weight = CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight()
        arcs = detect_collapse_arcs([(curve, weight)], 2 * np.sqrt(2.0))
        arc = arcs[0]
        feet = np.linspace(arc.s_start + 0.1, arc.s_end - 0.1, 5)
        shapes = [fiber_geometry(curve, weight, s) for s in feet]
        for i in range(len(shapes)):
            for j in range(i + 1, len(shapes)):
                a, b = shapes[i], shapes[j]
                if a.kind == "PLANE" or b.kind == "PLANE":
                    continue
                d = np.linalg.norm(a.center - b.center)
                # Tangent circles: centers separated by |r1 - r2| (nested)
                # or r1 + r2 (external, feet on opposite sides of s = 0).
                internal = abs(d - abs(a.radius - b.radius))
                external = abs(d - (a.radius + b.radius))
                assert min(internal, external) <= 1e-9
                u = (b.center - a.center) / d
                if external <= internal:
                    touch = a.center + u * a.radius
                else:
                    touch = a.center + u * a.radius * np.sign(a.radius - b.radius)
                assert np.linalg.norm(touch - arc.p0) <= 1e-8


def arc_fields(arcs):
    """Every field of each arc, floats by repr and arrays by bytes."""
    return [
        tuple(
            (name, value.tobytes() if isinstance(value, np.ndarray) else repr(value))
            for name, value in vars(arc).items()
        )
        for arc in arcs
    ]


@pytest.mark.parametrize("name, ts, with_arcs", [
    ("example3_family", [-0.02, -0.005, 0.0, 0.005, 0.02], [0.0]),
    ("example6_family", [-0.05, -0.01, 0.0, 0.01, 0.05], []),
    ("half_circle", [-0.02, 0.0, 0.03], [0.03]),
])
def test_offset_arcs_are_the_arcs_of_each_offset(scenes, name, ts, with_arcs):
    if name == "half_circle":  # mu = cos(s / 2) - 0.03 collapses at t = 0.03
        pairs = [(CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight(offset=-0.03))]
        tol = scenes["example1a"].tolerances
    else:
        pairs, tol = scenes[name].pairs, scenes[name].tolerances
    urs = [rep.ur for rep in radii_report(pairs, tol, ts)]
    batch = detect_collapse_arcs(pairs, urs, tol, offsets=ts)
    assert len(batch) == len(ts)
    for t, ur, arcs in zip(ts, urs, batch):
        alone = detect_collapse_arcs([(c, OffsetWeight(w, t)) for c, w in pairs], ur, tol)
        assert arc_fields(arcs) == arc_fields(alone), t
        assert len(arcs) == (1 if t in with_arcs else 0), t


def test_offset_arcs_evaluate_each_jet_once(scenes, monkeypatch):
    curve, weight = scenes["example3_family"].pairs[0]
    calls = []
    for obj in (curve, weight):
        def counting(self, s, order, jet=type(obj).jet):
            calls.append((type(self).__name__, order))
            return jet(self, s, order)

        monkeypatch.setattr(type(obj), "jet", counting)
    arcs = detect_collapse_arcs([(curve, weight)], [4.2] * 41, offsets=np.linspace(-0.05, 0.05, 41))
    assert sum(map(len, arcs)) == 1
    assert calls == [(type(curve).__name__, 3), (type(weight).__name__, 2)]


class TestTir:
    def test_stadium_tir_two(self, stadium_pair):
        curve, weight = stadium_pair
        arcs = detect_collapse_arcs([(curve, weight)], 4.14)
        assert len(arcs) == 1
        assert arcs[0].r == pytest.approx(2.0, abs=1e-9)
        rep = radii_report([(curve, weight)])
        assert rep.witnesses["tir_attained"]
        assert rep.tir == min(arc.r for arc in rep.witnesses["collapse_arcs"])
        assert rep.tir == pytest.approx(2.0, abs=1e-9)

    def test_no_arcs_returns_ur(self):
        pairs = [(CircleArcCurve(0, 2 * np.pi, closed=True), ConstantWeight(1.0))]
        rep = radii_report(pairs)
        assert rep.witnesses["collapse_arcs"] == [] and not rep.witnesses["tir_attained"]
        assert rep.tir == rep.ur == pytest.approx(1.0, abs=1e-8)

    def test_example6_negative_offset(self):
        pairs = [(CircleArcCurve(-1, 1), PolynomialWeight([0.95, 0.0, -0.125]))]
        assert detect_collapse_arcs(pairs, 4.0) == []
        rep = radii_report(pairs)
        assert rep.witnesses["collapse_arcs"] == [] and not rep.witnesses["tir_attained"]
        assert rep.tir == rep.ur


class TestTransversality:
    def test_flat_condition_fails(self):
        ok, witnesses = transversality_check(
            [(CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight())]
        )
        assert not ok
        assert any(w[1] is None for w in witnesses)  # whole-domain flat run

    def test_positive_curvature_constant_weight_passes(self):
        ok, witnesses = transversality_check(
            [(CircleArcCurve(0, 2 * np.pi, closed=True), ConstantWeight(1.0))]
        )
        assert ok and witnesses == []

    def test_generic_family_member_passes(self, stadium_pair):
        curve, weight = stadium_pair
        ok, witnesses = transversality_check([(curve, OffsetWeight(weight, 0.05))])
        assert ok, witnesses

    def test_touching_zero_is_a_witness(self):
        # The isolated touching zero separates the two focal radii, so the
        # diagnostic must flag it.
        ok, witnesses = transversality_check(
            [(CircleArcCurve(-1, 1), PolynomialWeight([1.0, 0.0, -0.125]))]
        )
        assert not ok
        assert any(w[1] is not None and abs(w[1]) <= 1e-6 for w in witnesses)

    @pytest.mark.parametrize("name", ["example4", "example6_family"])
    def test_touching_zero_witness_has_the_exact_slope(self, scenes, name):
        # On the unit arc with mu = 1 - s^2 / 8, g = -s^2 / 32 touches zero
        # at s = 0. Both touching-zero rows (the grid nodes either side of
        # 0) refine to within 1e-15 of it, where the exact slope is
        # |g'| = |s| / 16; golden section left the feet 1e-8 off, where the
        # central difference read 6.9e-10 and 1.1e-9.
        scene = scenes[name]
        ok, witnesses = transversality_check(scene.pairs, scene.tolerances)
        assert not ok and len(witnesses) == 2
        for ci, s, slope in witnesses:
            assert ci == 0 and abs(s) <= 1e-15 and slope <= 1e-15


def test_no_singular_stage_calls_golden_section(scenes, monkeypatch):
    # The zero set of g is found by Brent's method alone: golden_min, at
    # util and at every module that binds it, sees no call from
    # singular_set, transversality_check or detect_collapse_arcs, but does
    # from the focal radii (the |mu'| maxima).
    import weighted_tubes
    from weighted_tubes import focal_radii, util

    calls = []
    golden_min = util.golden_min

    def counting(*args, **kwargs):
        calls.append(1)
        return golden_min(*args, **kwargs)

    for scene in scenes.values():
        ur = radii_report(scene.pairs, scene.tolerances).ur
        with monkeypatch.context() as patch:
            for module in [util] + [m for m in vars(weighted_tubes).values() if hasattr(m, "golden_min")]:
                patch.setattr(module, "golden_min", counting)
            singular_set(scene.pairs, ur, scene.tolerances)
            transversality_check(scene.pairs, scene.tolerances)
            detect_collapse_arcs(scene.pairs, ur, scene.tolerances)
            assert calls == []
            focal_radii(scene.pairs, scene.tolerances)
            assert calls
            calls.clear()


class TestGZeroSet:
    def test_roots_equal_brentq_on_bundled_scenes(self, scenes):
        # Every refined sign change of g on the bundled scenes and the other
        # dense-grid scenes, refined in one row-wise call, equals a scalar
        # brentq over its grid bracket. No bundled scene keeps a sign change
        # where the curve bends; the seeded Fourier scenes hold them.
        optimize = pytest.importorskip("scipy.optimize")
        count = 0
        for name in DENSE_GRID_SCENES:
            scene = _dense_grid_scene(scenes, name)
            for curve, weight in scene.pairs:
                z = g_zero_set(curve, weight, scene.tolerances)
                n = len(z.sg)
                for k, root in zip(z.cross, z.cross_s):
                    b = z.sg[k] + curve.length / n if curve.closed else z.sg[k + 1]
                    oracle = optimize.brentq(
                        lambda s: float(g_slope(curve, weight, s)[1]),
                        float(z.sg[k]), float(b), xtol=1e-14,
                    )
                    assert root == oracle
                    assert z.g[k] * z.g[(k + 1) % n] < 0.0
                count += len(z.cross)
        assert count >= 4

    @pytest.mark.parametrize("kind, seed", [("planar", 1), ("two_component", 2)])
    def test_sign_changes_survive_a_tiny_weight(self, kind, seed):
        # Scaling the weight by 2^-565 scales g exactly, to |g| ~ 1e-170; a
        # product of neighbours would underflow to 0 and hide the change.
        # The loader refuses such a weight (its square underflows), so it is
        # built on the loaded curve without the loader.
        from test_radii import _seeded_fourier_scene
        from weighted_tubes import build_weight, load_scene

        doc = _seeded_fourier_scene(kind, seed)
        count = 0
        for (curve, weight), w in zip(load_scene(doc).pairs, doc["weights"]):
            params = dict(w["params"], coefficients=[c * 2.0**-565 for c in w["params"]["coefficients"]])
            small = build_weight(w["kind"], curve=curve, **params)
            z, zt = (g_zero_set(curve, w) for w in (weight, small))
            assert 1e-172 < np.max(np.abs(zt.g)) < 1e-169
            assert zt.cross.tolist() == z.cross.tolist()
            count += len(z.cross)
        assert count >= 2

    def test_grid_curvature_is_carried(self, scenes):
        # transversality_check reads the grid's curvature from the zero set
        # instead of evaluating it again on the same feet.
        for scene in scenes.values():
            for curve, weight in scene.pairs:
                z = g_zero_set(curve, weight, scene.tolerances)
                np.testing.assert_array_equal(z.kap, curve.curvature(z.sg))
                np.testing.assert_array_equal(z.g, g_slope(curve, weight, z.sg)[1])

    def test_touching_zero_of_example4(self, scenes):
        curve, weight = scenes["example4"].pairs[0]
        z = g_zero_set(curve, weight, scenes["example4"].tolerances)
        assert len(z.touch_s) >= 1
        g, band = g_band(curve, weight, z.touch_s)
        assert np.all(np.abs(g) <= band)
        assert not np.any(z.flat[z.touch])

    def test_straight_touching_zeros_are_not_refined(self, scenes):
        # The stadium's |g| has four touching-zero candidates on its
        # straight sides, two of them at sign changes of g where Brent's
        # method on the slope of |g| bisected a jump for about 50 passes.
        # Both callers drop a zero where kappa <= kappa_tol, so none of them
        # is refined: every touching zero has a bend at its node or beside it.
        from weighted_tubes.util import _extrema_indices

        curve, weight = scenes["example2_stadium"].pairs[0]
        z = g_zero_set(curve, weight, scenes["example2_stadium"].tolerances)
        near_bend = (z.kap > curve.kappa_tol) | (np.roll(z.kap, 1) > curve.kappa_tol) \
            | (np.roll(z.kap, -1) > curve.kappa_tol)
        k = np.array(_extrema_indices(np.abs(z.g), curve.closed, "min", 64))
        bend = np.abs(np.roll(z.g, -1) - 2.0 * z.g + np.roll(z.g, 1))[k]
        band = g_band(curve, weight, z.sg)[1][k]
        straight = k[(np.abs(z.g[k]) <= band + bend) & ~near_bend[k]]
        assert len(straight) == 4 and not np.any(np.isin(straight, z.touch))
        assert np.all(near_bend[z.touch]) and len(z.touch) == len(z.touch_s) == 17

    @pytest.mark.parametrize("name", ["example4", "example6_family"])
    def test_touching_zeros_refine_to_the_zero(self, scenes, name):
        # The touching zero of g = -s^2 / 32 at s = 0 is refined as the root
        # of the slope of |g|, to within 1e-15 from both grid nodes beside
        # it; golden section on |g| stopped about 1e-8 off.
        curve, weight = scenes[name].pairs[0]
        z = g_zero_set(curve, weight, scenes[name].tolerances)
        assert len(z.touch_s) == 2
        assert np.max(np.abs(z.touch_s)) <= 1e-15

    def test_flat_sign_change_converges(self):
        # The stadium's blend with cos_end 4e-6 has four sign changes of g.
        # The two on the straight sides (kappa = 0), where g is flat and
        # Brent's method needed more than 100 iterations, are not refined;
        # the two where the curve bends converge within 6 iterations. Each
        # root lies in its bracket, and g changes sign within the solver's
        # stopping width of it, where |g| is at least |g(root)|.
        import json
        from importlib import resources

        doc = json.loads(resources.files("weighted_tubes.scenes").joinpath(
            "example2_stadium.json").read_text())
        doc["weights"][0]["params"]["cos_end"] = 4e-6
        scene = parse_scene(doc)
        (curve, weight), = scene.pairs
        z = g_zero_set(curve, weight, scene.tolerances)
        assert np.count_nonzero(z.g * np.roll(z.g, -1) < 0.0) == 4
        np.testing.assert_allclose(z.cross_s, [0.33298, 128.74709], rtol=0, atol=1e-5)
        lo = z.sg[z.cross]
        step = curve.length / len(z.sg)
        assert np.all((lo <= z.cross_s) & (z.cross_s <= lo + step))
        fast = brent_rows(lambda s: g_slope(curve, weight, s)[1], lo, lo + step, 1e-14, maxiter=6)
        assert fast.tobytes() == z.cross_s.tobytes()
        width = 1e-14 + 4 * np.finfo(float).eps * np.abs(z.cross_s)
        g_lo, g_hi = (g_slope(curve, weight, z.cross_s + d)[1] for d in (-width, width))
        assert np.all(g_lo * g_hi <= 0.0)
        assert np.all(np.abs(g_slope(curve, weight, z.cross_s)[1])
                      <= np.maximum(np.abs(g_lo), np.abs(g_hi)))

    @pytest.mark.parametrize("cos_end, refined", [(None, 0), (4e-6, 2)])
    def test_straight_brackets_are_not_refined(self, monkeypatch, cos_end, refined):
        # The stadium's sign changes of g on its straight sides (its only
        # two; with cos_end 4e-6 two more where it bends) reach brent_rows
        # in no bracket whose two grid ends both have kappa <= kappa_tol.
        import json
        from importlib import resources

        doc = json.loads(resources.files("weighted_tubes.scenes").joinpath(
            "example2_stadium.json").read_text())
        if cos_end is not None:
            doc["weights"][0]["params"]["cos_end"] = cos_end
        scene = parse_scene(doc)
        (curve, weight), = scene.pairs
        brackets = []

        def recording(f, a, b, *args, **kwargs):
            brackets.append((a, b))
            return brent_rows(f, a, b, *args, **kwargs)

        monkeypatch.setattr(singular, "brent_rows", recording)
        z = g_zero_set(curve, weight, scene.tolerances)
        n = len(z.sg)
        straight = z.kap <= curve.kappa_tol
        signs = np.nonzero(z.g * np.roll(z.g, -1) < 0.0)[0]
        assert np.count_nonzero(straight[signs] & straight[(signs + 1) % n]) == 2
        (a, b), = brackets
        assert len(a) == refined
        assert not np.any((curve.curvature(a) <= curve.kappa_tol)
                          & (curve.curvature(curve.wrap(b)) <= curve.kappa_tol))
        assert len(z.cross) == len(z.cross_s) == refined

    def test_unrefined_sign_change_is_a_numeric_failure(self, monkeypatch):
        def brent_rows(*args, **kwargs):
            raise RuntimeError("Failed to converge after 100 iterations")

        monkeypatch.setattr(singular, "brent_rows", brent_rows)
        curve, weight = CircleArcCurve(-2, 2), PolynomialWeight([1.0, 0.0, -0.1])
        with pytest.raises(NumericError, match="sign change of g not refined: Failed to converge"):
            g_zero_set(curve, weight)


# The bundled scenes, the seeded Fourier scenes of test_radii (one planar
# loop, one loop in 3D, two planar loops) and the sweep tests' two-component
# and Chebyshev scenes.
DENSE_GRID_SCENES = [
    "circle_mu1", "ellipse_mu1", "example1a", "example1b", "example2_stadium",
    "example3_family", "example4", "example6_family", "two_component", "chebyshev_arc",
] + [f"fourier_{kind}-{seed}" for kind in ("planar", "3d", "two_component") for seed in (1, 2, 3)]


def _dense_grid_scene(scenes, name):
    from test_radii import _seeded_fourier_scene
    from test_sweeps import CHEBYSHEV_ARC, TWO_COMPONENT
    from weighted_tubes import load_scene

    if name.startswith("fourier_"):
        kind, seed = name[len("fourier_"):].split("-")
        return load_scene(_seeded_fourier_scene(kind, int(seed)))
    doc = {"two_component": TWO_COMPONENT, "chebyshev_arc": CHEBYSHEV_ARC}.get(name)
    return load_scene(doc) if doc else scenes[name]


@pytest.mark.parametrize("n", [300, 4096, 8192])
@pytest.mark.parametrize("name", DENSE_GRID_SCENES)
def test_dense_grid_is_the_order_two_evaluation(scenes, name, n):
    # The focal profiles and g's zero set evaluated an order-2 jet and the
    # curvature on their grid; the one dense grid they now read evaluates
    # order 3, which must give them the same bits.
    for curve, weight in _dense_grid_scene(scenes, name).pairs:
        sg, jet, weight_jet, kap = dense_grid(curve, weight, n)
        assert sg.tobytes() == curve.grid(n).tobytes()
        for got, want in zip(jet[:3], curve.jet(sg, 2)):
            assert got.tobytes() == want.tobytes()
        assert kap.tobytes() == curve.curvature(sg).tobytes()
        for got, want in zip(weight_jet, weight.jet(sg, 2)):
            assert got.tobytes() == np.asarray(want, dtype=float).tobytes()


def test_dense_grid_is_shared_and_read_only(scenes):
    curve, weight = scenes["example1a"].pairs[0]
    grid = dense_grid(curve, weight, 300)
    assert dense_grid(curve, weight, 300) is grid
    sg, jet, weight_jet, kap = grid
    for array in (sg, *jet, *weight_jet, kap):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_dense_grid_lives_while_its_weight_does(scenes):
    # A caller that loops over fresh offset weights (check --t) keeps no grid.
    import gc
    import weakref

    curve, base = scenes["example1a"].pairs[0]
    weight = OffsetWeight(base, 0.5)
    sg = weakref.ref(dense_grid(curve, weight, 300)[0])
    gc.collect()
    assert sg() is not None
    del weight
    gc.collect()
    assert sg() is None


def test_dense_grid_that_overflows_is_not_kept():
    # mu = 1e300 x 1e10 overflows: the build raises under its own guard, or
    # under the report's, whose message wins, and keeps nothing.
    class Scaled(ConstantWeight):
        scale = 1e10

        def jet(self, s, order):
            return tuple(x * self.scale for x in super().jet(s, order))

    curve, weight = CircleArcCurve(0, 2 * np.pi, closed=True), Scaled(1e300)
    with pytest.raises(NumericError, match="dense grid overflowed"):
        dense_grid(curve, weight, 300)
    with pytest.raises(NumericError, match="radii report overflowed"):
        radii_report([(curve, weight)])
    weight.scale = 1.0
    assert np.all(dense_grid(curve, weight, 300)[2][0] == 1e300)


def test_runs_equal_the_loop():
    # Random masks of every short length, periodic and open, all-true and
    # all-false included, and one 4,094-sample run in an 8,192-sample mask.
    rng = np.random.default_rng(23)
    masks = [np.ones(n, dtype=bool) for n in (1, 2, 7)] + [np.zeros(5, dtype=bool)]
    masks += [rng.random(n) < p for n in range(1, 40) for p in (0.2, 0.5, 0.8) for _ in range(20)]
    long = np.zeros(8192, dtype=bool)
    long[1000:5094] = True
    masks += [long, np.roll(long, -2000)]
    merged = 0
    for mask in masks:
        for periodic in (False, True):
            got = _runs(mask, periodic)
            assert got == [(int(lo), int(hi)) for lo, hi in runs_loop(mask, periodic)]
            merged += any(hi > len(mask) for _, hi in got)
    assert merged > 100
