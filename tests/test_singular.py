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
from test_expmap import scalar_frame
from weighted_tubes import singular
from weighted_tubes.config import DEFAULT_TOLERANCES
from weighted_tubes.expmap import _hess_rows, w_bound
from weighted_tubes.singular import (
    _TOL_HESS_FACTOR,
    _TOL_SNG,
    _runs,
    _sng_condition,
    dense_grid,
    g_zero_set,
)
from weighted_tubes.util import brent_rows
from weighted_tubes.weights import SymmetricPiecewiseWeight

from oracles import f_second_at_offset, make_offset, random_unit_normals, runs_loop


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
            val = f_second_at_offset(curve, weight, s, v, height)
            assert val > 1e-6


@pytest.mark.parametrize("name", ["example1a", "example1b", "example4", "example2_stadium"])
def test_graph_points_match_the_scalar_map(scenes, name):
    """Each batched point agrees with the map and the closed-form second
    derivative evaluated at its foot along the principal normal, all feet of
    a component in one row-wise call (exp_mu, expmap._hess_rows);
    is_singular gives the same value on a sample of them."""
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
        _, hess, _, faults = _hess_rows(curve, jets, s, normal, R)
        assert faults == (None, None)
        band = _TOL_HESS_FACTOR * 2.0 / np.asarray(jets[1][0]) ** 2 * max(1.0, ur**2)
        assert np.all(np.abs(hess) <= band + 1e-12)
        assert np.all((0.0 < R) & (R < ur))
        # is_singular gives the same second derivative at the same offset.
        for k in range(0, len(s), 97):
            _, value = is_singular(curve, weight, s[k], normal[k], R[k])
            assert value == hess[k] and abs(value) <= band[k]


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
            rows[:, 3], np.abs(_sng_condition(curve, weight, rows[:, 1])), rtol=0, atol=1e-15
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

    def test_jacobian_agrees_across_scenes(self, scenes):
        # Independent cross-check: the finite-difference determinant of the
        # map must flag exactly the points the closed form flags.
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

    @pytest.mark.parametrize("name", ["ellipse_mu1", "example1b", "example4", "example2_stadium"])
    def test_value_is_the_scalar_chain(self, scenes, name):
        # Project the offset, map its normal (exp_mu projects it again) and
        # take the closed form at the image.
        scene = scenes[name]
        curve, weight = scene.pairs[0]
        s, v, R = (x[:300] for x in random_offsets(scene, 1000, r_cap=4.0, margin=0.1))
        for k in range(300):
            off = make_offset(curve, weight, s[k], v[k], R[k])
            p = exp_mu(curve, weight, off.s, off.v, off.R)
            expected = f_second_critical(curve, weight, off.s, p)
            assert is_singular(curve, weight, s[k], v[k], R[k])[1] == expected

    def test_jacobian_vanishes_at_collapse(self):
        curve, weight = CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight()
        det = jacobian_determinant(curve, weight, 0.3, -curve.point(0.3), 2.0)
        assert abs(det) <= 1e-8


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

    def test_criterion_error_comes_last_within_a_row(self, arc, monkeypatch):
        from weighted_tubes import expmap

        curve, weight = arc
        criterion = expmap._f_second_critical_rows

        def failing_row_one(curve, jets, p):
            values, _ = criterion(curve, jets, p)
            return values, (1, NotCriticalFootError("row 1 is not critical"))

        monkeypatch.setattr(expmap, "_f_second_critical_rows", failing_row_one)
        s = np.array([0.0, 1.0, 1.0])
        bound = float(w_bound(weight, 1.0))
        inward = -curve.point(s)
        with pytest.raises(NotCriticalFootError, match="row 1"):
            is_singular(curve, weight, s, inward, 1.0)
        with pytest.raises(NotCriticalFootError, match="row 1"):
            is_singular(curve, weight, s, inward, [1.0, 1.0, bound])
        with pytest.raises(OutOfWError, match="strictly inside"):
            is_singular(curve, weight, s, inward, [1.0, bound, 1.0])

def scalar_jacobian_determinant(curve, weight, s, v, R, h=None):
    """The determinant one offset at a time: per-foot frames, and every chart
    point mapped through the scalar exp_mu."""
    off = make_offset(curve, weight, s, v, R)
    if h is None:
        h = 1e-6 * max(1.0, curve.length / (2.0 * np.pi))
    n = curve.ambient_dim
    feet = np.array([off.s, off.s + h, off.s - h])
    tangents = curve.tangent(feet)
    base_frame = scalar_frame(tangents[0])
    coeffs = base_frame @ off.v

    def chart(k, cc):
        vec = scalar_frame(tangents[k], reference=base_frame).T @ cc
        norm = np.linalg.norm(vec)
        return exp_mu(curve, weight, feet[k], vec / norm, off.R * norm)

    cols = [(chart(1, coeffs) - chart(2, coeffs)) / (2 * h)]
    for k in range(n - 1):
        dc = np.zeros(n - 1)
        dc[k] = h
        cols.append((chart(0, coeffs + dc) - chart(0, coeffs - dc)) / (2 * h))
    return float(np.linalg.det(np.stack(cols, axis=1)))


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
        expected = [scalar_jacobian_determinant(curve, weight, s[k], v[k], R[k]) for k in range(300)]
        np.testing.assert_array_equal(rows, expected)
        assert jacobian_determinant(curve, weight, s[7], v[7], R[7]) == expected[7]

    def test_fourier_3d_with_a_tilted_direction(self):
        from test_expmap import fourier_3d

        curve, weight = fourier_3d(), PolynomialWeight([1.0, 0.05])
        rng = np.random.default_rng(2)
        s = rng.uniform(curve.s_min, curve.s_max, 40)
        v = random_unit_normals(curve, s, rng) + 0.3 * curve.tangent(s)
        R = rng.uniform(0.05, 1.0, 40)
        expected = [scalar_jacobian_determinant(curve, weight, s[k], v[k], R[k]) for k in range(40)]
        np.testing.assert_array_equal(jacobian_determinant(curve, weight, s, v, R), expected)

    def test_one_curve_jet_and_one_weight_jet_per_call(self, monkeypatch):
        curve, weight = CircleArcCurve(-np.pi / 2, np.pi / 2, ambient_dim=3), CosineWeight()
        calls = []
        for obj, name in ((curve, "curve"), (weight, "weight")):
            jet = obj.jet
            monkeypatch.setattr(obj, "jet", lambda s, order, jet=jet, name=name: (
                calls.append(name), jet(s, order))[1])
        jacobian_determinant(curve, weight, 0.3, [-1.0, 0.0, 0.5], 1.5)
        assert sorted(calls) == ["curve", "weight"]

    def test_broadcast_rows_are_the_scalar_determinants(self, monkeypatch):
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
        # Each jet is evaluated on the two feet as given, each moved by +-h.
        assert rows.shape == (2, 2, 3) and sizes == [6, 6]
        for i, j, k in np.ndindex(rows.shape):
            one = jacobian_determinant(curve, weight, feet[i], dirs[i, j], heights[k])
            assert type(one) is float and rows[i, j, k] == one

    def test_no_rows(self, scenes):
        curve, weight = scenes["ellipse_mu1"].pairs[0]
        assert jacobian_determinant(curve, weight, np.zeros(0), np.zeros((0, 2)), np.zeros(0)).shape == (0,)

    def test_offset_checks_come_first(self):
        curve, weight = CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight()
        s = np.array([0.2, 0.5])
        v = -curve.point(s)
        bound = np.asarray(w_bound(weight, s), dtype=float)
        with pytest.raises(OutOfWError, match="exceeds admissible bound"):
            jacobian_determinant(curve, weight, s, v, np.array([0.5, 1.01 * bound[1]]))
        with pytest.raises(OutOfWError, match="tangent"):
            jacobian_determinant(curve, weight, s, curve.tangent(s), np.array([0.5, 0.5]))


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
                        lambda s: float(_sng_condition(curve, weight, s)),
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
        import copy

        from test_radii import _seeded_fourier_scene
        from weighted_tubes import load_scene

        doc = _seeded_fourier_scene(kind, seed)
        tiny = copy.deepcopy(doc)
        for w in tiny["weights"]:
            w["params"]["coefficients"] = [c * 2.0**-565 for c in w["params"]["coefficients"]]
        count = 0
        for (curve, weight), (_, small) in zip(load_scene(doc).pairs, load_scene(tiny).pairs):
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
                np.testing.assert_array_equal(z.g, _sng_condition(curve, weight, z.sg))

    def test_touching_zero_of_example4(self, scenes):
        curve, weight = scenes["example4"].pairs[0]
        z = g_zero_set(curve, weight, scenes["example4"].tolerances)
        assert len(z.touch_s) >= 1
        assert np.all(np.abs(_sng_condition(curve, weight, z.touch_s)) <= _TOL_SNG)
        assert not np.any(z.flat[z.touch])

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
        fast = brent_rows(lambda s: _sng_condition(curve, weight, s), lo, lo + step, 1e-14, maxiter=6)
        assert fast.tobytes() == z.cross_s.tobytes()
        width = 1e-14 + 4 * np.finfo(float).eps * np.abs(z.cross_s)
        g_lo, g_hi = (_sng_condition(curve, weight, z.cross_s + d) for d in (-width, width))
        assert np.all(g_lo * g_hi <= 0.0)
        assert np.all(np.abs(_sng_condition(curve, weight, z.cross_s))
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
