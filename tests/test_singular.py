import numpy as np
import pytest

from weighted_tubes import (
    CircleArcCurve,
    ConstantWeight,
    CosineWeight,
    EllipseCurve,
    OffsetWeight,
    OutOfWError,
    PolynomialWeight,
    detect_collapse_arcs,
    exp_mu,
    is_singular,
    jacobian_determinant,
    make_stadium,
    normal_frame,
    radii_report,
    singular_set,
    transversality_check,
)
from test_acceptance import random_offsets
from test_expmap import scalar_frame
from weighted_tubes.expmap import _hess_rows, exp_mu_batch, random_unit_normals, w_bound
from weighted_tubes.singular import _TOL_HESS_FACTOR, _TOL_SNG, _sng_condition, g_zero_set, jacobian_rows
from weighted_tubes.weights import SymmetricPiecewiseWeight

from oracles import f_second_at_offset, make_offset


@pytest.fixture(scope="module")
def stadium_pair():
    curve, _ = make_stadium()
    return curve, SymmetricPiecewiseWeight(curve.length, 0.4, 0.8, 6.0, 0.2)


class TestSingularSet:
    def test_constant_weight_empty(self):
        pairs = [(CircleArcCurve(0, 2 * np.pi, closed=True), ConstantWeight(1.0))]
        assert singular_set(pairs, 1.0) == []
        pairs = [(EllipseCurve(2, 1), ConstantWeight(1.0))]
        assert singular_set(pairs, 0.5) == []

    def test_half_circle_continuum(self):
        pairs = [(CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight())]
        pts = singular_set(pairs, 2 * np.sqrt(2.0))
        assert len(pts) > 1000  # a whole flat run of samples
        heights = np.array([p.R for p in pts])
        assert np.max(np.abs(heights - 2.0)) <= 1e-9
        locs = np.array([p.location for p in pts])
        assert np.max(np.linalg.norm(locs - [-1.0, 0.0], axis=1)) <= 1e-9

    def test_example4_single_point(self):
        pairs = [(CircleArcCurve(-1, 1), PolynomialWeight([1.0, 0.0, -0.125]))]
        pts = singular_set(pairs, 4.0)
        assert len(pts) == 1
        assert abs(pts[0].s) <= 1e-6
        assert pts[0].R == pytest.approx(2.0, abs=1e-6)

    def test_height_cutoff_filters(self):
        pairs = [(CircleArcCurve(-1, 1), PolynomialWeight([1.0, 0.0, -0.125]))]
        assert singular_set(pairs, 1.5) == []

    def test_principal_normal_is_the_worst_direction(self):
        # Re-testing the graph point with non-principal directions must give
        # a strictly positive second derivative.
        curve = CircleArcCurve(-1.2, 1.2, ambient_dim=3)
        weight = PolynomialWeight([1.0, 0.0, -0.125])
        pts = singular_set([(curve, weight)], 4.0)
        assert len(pts) == 1
        s, height = pts[0].s, pts[0].R
        rng = np.random.default_rng(5)
        frame = curve.frame(s)
        for _ in range(8):
            v = random_unit_normals(curve, [s], rng)[0]
            if abs(float(v @ frame.principal_normal)) > 0.99:
                v = normal_frame(curve, s)[1]
            val = f_second_at_offset(curve, weight, s, v, height)
            assert val > 1e-6


@pytest.mark.parametrize("name", ["example1a", "example1b", "example4", "example2_stadium"])
def test_graph_points_match_the_scalar_map(scenes, name):
    """Each batched point agrees with the map and the closed-form second
    derivative evaluated at its foot along the principal normal, all feet of
    a component in one row-wise call (exp_mu_batch, expmap._hess_rows);
    is_singular gives the same value on a sample of them."""
    scene = scenes[name]
    tol = scene.tolerances
    ur = radii_report(scene.pairs, tol).ur
    points = singular_set(scene.pairs, ur, tol)
    assert points
    for ci, (curve, weight) in enumerate(scene.pairs):
        rows = [p for p in points if p.component == ci]
        if not rows:
            continue
        s, R = np.array([p.s for p in rows]), np.array([p.R for p in rows])
        jets = (curve.jet(s, 2), weight.jet(s, 2))
        normal = jets[0][2] / np.linalg.norm(jets[0][2], axis=-1)[:, None]
        images = exp_mu_batch(curve, weight, s, normal, R)
        assert np.max(np.abs(images - np.array([p.location for p in rows]))) <= 1e-12
        _, hess, _, faults = _hess_rows(curve, jets, s, normal, R)
        assert faults == (None, None)
        band = _TOL_HESS_FACTOR * 2.0 / np.asarray(jets[1][0]) ** 2 * max(1.0, ur**2)
        assert np.all(np.abs(hess) <= band + 1e-12)
        assert np.all((0.0 < R) & (R < ur))
        # is_singular applies the same criterion to the same offset.
        for k in range(0, len(s), 97):
            _, value = is_singular(curve, weight, s[k], normal[k], R[k])
            assert value == hess[k] and abs(value) <= band[k]


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
        from weighted_tubes import f_second_critical

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
        rows = jacobian_rows(curve, weight, s, v, R)
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
        np.testing.assert_array_equal(jacobian_rows(curve, weight, s, v, R), expected)

    def test_one_curve_jet_and_one_weight_jet_per_call(self, monkeypatch):
        curve, weight = CircleArcCurve(-np.pi / 2, np.pi / 2, ambient_dim=3), CosineWeight()
        calls = []
        for obj, name in ((curve, "curve"), (weight, "weight")):
            jet = obj.jet
            monkeypatch.setattr(obj, "jet", lambda s, order, jet=jet, name=name: (
                calls.append(name), jet(s, order))[1])
        jacobian_determinant(curve, weight, 0.3, [-1.0, 0.0, 0.5], 1.5)
        assert sorted(calls) == ["curve", "weight"]

    def test_no_rows(self, scenes):
        curve, weight = scenes["ellipse_mu1"].pairs[0]
        assert jacobian_rows(curve, weight, np.zeros(0), np.zeros((0, 2)), np.zeros(0)).shape == (0,)

    def test_offset_checks_come_first(self):
        curve, weight = CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight()
        s = np.array([0.2, 0.5])
        v = -curve.point(s)
        bound = np.asarray(w_bound(weight, s), dtype=float)
        with pytest.raises(OutOfWError, match="exceeds admissible bound"):
            jacobian_rows(curve, weight, s, v, np.array([0.5, 1.01 * bound[1]]))
        with pytest.raises(OutOfWError, match="tangent"):
            jacobian_rows(curve, weight, s, curve.tangent(s), np.array([0.5, 0.5]))


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
        # Every sign change of g on every bundled scene, refined in one
        # row-wise call, equals a scalar brentq over its grid bracket.
        optimize = pytest.importorskip("scipy.optimize")
        count = 0
        for scene in scenes.values():
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

    def test_touching_zero_of_example4(self, scenes):
        curve, weight = scenes["example4"].pairs[0]
        z = g_zero_set(curve, weight, scenes["example4"].tolerances)
        assert len(z.touch_s) >= 1
        assert np.all(np.abs(_sng_condition(curve, weight, z.touch_s)) <= _TOL_SNG)
        assert not np.any(z.flat[z.touch])
