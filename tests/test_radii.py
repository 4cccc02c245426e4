import collections
import dataclasses
import functools

import numpy as np
import pytest

from weighted_tubes import (
    CircleArcCurve,
    ConstantWeight,
    CosineWeight,
    EllipseCurve,
    FourierCurve,
    NumericError,
    OffsetWeight,
    PolynomialWeight,
    dcsd_half,
    find_double_critical_pairs,
    focal_radii,
    radii_report,
)
from weighted_tubes import radii
from weighted_tubes.config import DEFAULT_TOLERANCES
from weighted_tubes.radii import PAIR_COLUMNS, FocalWitness
from weighted_tubes.util import as_pairs, golden_min
from weighted_tubes.weights import FourierWeight

import oracles
from oracles import delta_lambda, golden_max, lemma3_roots


def scan_roots(a, b, c, n=1_000_000, t_hi=None):
    """Sign-scan oracle for 1 - (c/2) t^2 - a t sqrt(1 - b^2 t^2) = 0."""
    if b > 0:
        hi = 1.0 / b
    else:
        hi = t_hi if t_hi is not None else 10.0
    t = np.linspace(0.0, hi, n)
    with np.errstate(invalid="ignore"):
        f = 1.0 - 0.5 * c * t * t - a * t * np.sqrt(np.clip(1.0 - b * b * t * t, 0.0, None))
    sign_change = np.nonzero(f[:-1] * f[1:] < 0)[0]
    roots = []
    for k in sign_change:
        lo_t, hi_t = t[k], t[k + 1]
        for _ in range(80):
            mid = 0.5 * (lo_t + hi_t)
            fm = 1.0 - 0.5 * c * mid * mid - a * mid * np.sqrt(max(0.0, 1.0 - b * b * mid * mid))
            if f[k] * fm <= 0:
                hi_t = mid
            else:
                lo_t = mid
        roots.append(0.5 * (lo_t + hi_t))
    # Endpoint root at t = 1/b (f can vanish without a sign change there).
    if b > 0:
        f_end = 1.0 - 0.5 * c / b**2
        if abs(f_end) <= 1e-12 and not any(abs(r - 1.0 / b) < 1e-9 for r in roots):
            roots.append(1.0 / b)
    return sorted(roots)


class TestRootAlgebra:
    def test_single_root_linear_case(self):
        assert lemma3_roots(1.0, 0.0, 0.0) == (1.0,)

    def test_boundary_double_root(self):
        # 2 b^2 = c with a = 0 puts the only root at t = 1/b.
        assert lemma3_roots(0.0, 1.0, 2.0) == (1.0,)

    def test_mixed_case_against_scan(self):
        roots = lemma3_roots(1.0, 0.5, 1.0)
        oracle = scan_roots(1.0, 0.5, 1.0)
        assert len(roots) == len(oracle)
        for r, o in zip(roots, oracle):
            assert r == pytest.approx(o, abs=1e-9)

    def test_no_solution_cases(self):
        with pytest.raises(NumericError):
            lemma3_roots(0.0, 0.0, 0.0)
        with pytest.raises(NumericError):
            lemma3_roots(1.0, 2.0, 0.1)

    def test_random_triples_against_scan(self):
        # Acceptance-level oracle: no missed roots, no spurious roots.
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(100):
            a = abs(rng.normal())
            b = abs(rng.normal())
            c = rng.normal(scale=2.0)
            try:
                roots = lemma3_roots(a, b, c)
            except NumericError:
                roots = ()
            oracle = scan_roots(a, b, c, n=100_000, t_hi=12.0)
            if b == 0:
                # Unbounded interval: compare only within the scan window.
                roots = tuple(r for r in roots if r <= 12.0)
            assert len(roots) == len(oracle), (a, b, c, roots, oracle)
            for r, o in zip(roots, oracle):
                assert r == pytest.approx(o, abs=1e-7), (a, b, c)
            checked += 1
        assert checked == 100

    def test_residuals_are_tiny(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b, c = abs(rng.normal()), abs(rng.normal()), rng.normal(scale=2.0)
            try:
                roots = lemma3_roots(a, b, c)
            except NumericError:
                continue
            for t in roots:
                val = 1.0 - 0.5 * c * t * t - a * t * np.sqrt(max(0.0, 1.0 - b * b * t * t))
                assert abs(val) <= 1e-12


    def test_focal_terms_give_the_smallest_root(self):
        # With mu = 1, kappa = a, mu' = b and mu'' = c/2 - b^2, the report's
        # lam is the oracle's w_plus, so lam^-1/2 is its smallest root.
        rng = np.random.default_rng(11)
        a, b = np.abs(rng.normal(size=(2, 2000)))
        c = rng.normal(scale=2.0, size=2000)
        lam = radii._focal_terms(a, np.ones_like(a), b, 0.5 * c - b**2)[4]
        checked = 0
        for k in range(len(a)):
            try:
                roots = lemma3_roots(a[k], b[k], c[k])
            except NumericError:
                continue
            if roots:
                assert lam[k] ** -0.5 == pytest.approx(roots[0], rel=1e-12), (a[k], b[k], c[k])
                checked += 1
        assert checked > 500

class TestPointwiseFocal:
    def test_flat_discriminant_arc(self):
        curve, weight = CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight()
        for s in (-1.2, 0.0, 0.9):
            pf = delta_lambda(curve, weight, s)
            assert pf.delta == pytest.approx(0.0, abs=1e-15)
            assert pf.lambda_val == pytest.approx(0.25, abs=1e-14)
            assert pf.focrad0_pt == pytest.approx(2.0, abs=1e-12)
            if s != 0.0:
                assert pf.focradminus_pt == pytest.approx(2.0 / abs(np.sin(s / 2)), abs=1e-10)

    def test_constant_weight_circle(self):
        curve, weight = CircleArcCurve(0, 2 * np.pi, closed=True), ConstantWeight(0.5)
        pf = delta_lambda(curve, weight, 1.0)
        assert pf.delta == pytest.approx(0.0625)
        assert pf.lambda_val == pytest.approx(0.25)
        assert pf.focrad0_pt == pytest.approx(2.0)
        assert pf.focradminus_pt == pytest.approx(2.0)

    def test_example4_direct_evaluation(self):
        # Direct evaluation of mu (mu'' + kappa^2 mu / 4); the value at
        # s = 0.5 is exactly dyadic.
        curve, weight = CircleArcCurve(-1, 1), PolynomialWeight([1.0, 0.0, -0.125])
        pf = delta_lambda(curve, weight, 0.5)
        assert pf.delta == -0.007568359375
        assert pf.lambda_val is None
        assert pf.focrad0_pt == pytest.approx(8.0)  # 1/|mu'| = 4/|s|

    def test_ordering_focradminus_ge_focrad0(self):
        curve, weight = CircleArcCurve(-1, 1), PolynomialWeight([1.0, 0.0, -0.125])
        for s in np.linspace(-1, 1, 21):
            pf = delta_lambda(curve, weight, float(s))
            assert pf.focradminus_pt >= pf.focrad0_pt - 1e-12


class TestLambdaPositivity:
    def test_positive_wherever_defined(self, scenes):
        # Wherever the discriminant is nonnegative and the coefficient pair
        # does not vanish, the first-height expression is positive.
        from weighted_tubes.radii import _abc

        for name, scene in scenes.items():
            curve, weight = scene.pairs[0]
            sg = curve.grid(1024)
            a, b, c, disc, lam = _abc(curve, weight, sg)
            mask = (disc >= 0) & (a**2 + c**2 > 1e-20)
            if np.any(mask):
                assert float(np.min(lam[mask])) > 0.0, name


class TestFocalRadii:
    def test_half_circle_cosine(self):
        curve, weight = CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight()
        f0, fm, wit = focal_radii([(curve, weight)])
        assert f0 == pytest.approx(2.0, abs=1e-6)
        assert fm == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-6)
        # The open-band value is attained at the arc endpoints.
        assert abs(abs(wit["focradminus"].s) - np.pi / 2) <= 1e-9

    def test_example4_isolated_touching_zero(self):
        curve, weight = CircleArcCurve(-1, 1), PolynomialWeight([1.0, 0.0, -0.125])
        f0, fm, wit = focal_radii([(curve, weight)])
        assert f0 == pytest.approx(2.0, abs=1e-6)
        assert fm == pytest.approx(4.0, abs=1e-6)
        assert abs(wit["focrad0"].s) <= 1e-6

    def test_uniform_reduction(self):
        # Constant weight recovers 1 / (c0 max kappa) for both radii.
        curve = EllipseCurve(2, 1)
        f0, fm, _ = focal_radii([(curve, ConstantWeight(1.0))])
        assert f0 == pytest.approx(0.5, abs=1e-8)
        assert fm == pytest.approx(0.5, abs=1e-8)
        f0, fm, _ = focal_radii([(CircleArcCurve(0, 2 * np.pi, closed=True), ConstantWeight(2.0))])
        assert f0 == pytest.approx(0.5, abs=1e-10)

    def test_stability_under_density_doubling(self):
        curve, weight = CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight()
        coarse = focal_radii([(curve, weight)], DEFAULT_TOLERANCES)
        dense = focal_radii(
            [(curve, weight)], DEFAULT_TOLERANCES.with_overrides({"grid_samples": 8192}, 2)
        )
        assert abs(coarse[0] - dense[0]) <= 1e-8 * coarse[0]
        assert abs(coarse[1] - dense[1]) <= 1e-8 * coarse[1]


# Column index of each name of the pair table.
COL = {name: k for k, name in enumerate(PAIR_COLUMNS)}


class TestDoubleCriticalPairs:
    def test_unit_circle_antipodal(self):
        curve, weight = CircleArcCurve(0, 2 * np.pi, closed=True), ConstantWeight(1.0)
        table = find_double_critical_pairs([(curve, weight)])
        assert len(table)
        for row in table:
            assert row[COL["ratio"]] == pytest.approx(1.0, abs=1e-9)
            assert curve.periodic_distance(row[COL["s1"]], row[COL["s2"]]) == pytest.approx(np.pi, abs=1e-6)
        assert dcsd_half(table) == pytest.approx(1.0, abs=1e-9)

    def test_ellipse_axes(self):
        table = find_double_critical_pairs([(EllipseCurve(2, 1), ConstantWeight(1.0))])
        ratios = sorted(table[:, COL["ratio"]])
        assert ratios[0] == pytest.approx(1.0, abs=1e-8)  # minor axis
        assert ratios[-1] == pytest.approx(2.0, abs=1e-8)  # major axis

    def test_angle_law_residuals(self):
        table = find_double_critical_pairs([(EllipseCurve(2, 1), ConstantWeight(1.0))])
        assert len(table)
        assert np.all(table[:, [COL["angle_1"], COL["angle_2"]]] <= 1e-6)

    def test_half_circle_cosine_has_none(self):
        table = find_double_critical_pairs(
            [(CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight())]
        )
        assert table.shape == (0, 9 + 2)
        assert dcsd_half(table) == np.inf

    def test_example6_negative_offset_has_none(self):
        table = find_double_critical_pairs(
            [(CircleArcCurve(-1, 1), PolynomialWeight([0.95, 0.0, -0.125]))]
        )
        assert table.shape == (0, 9 + 2)

    def test_two_far_circles(self):
        one = ConstantWeight(1.0)
        near = CircleArcCurve(0, 2 * np.pi, closed=True)
        far = FourierCurve([[10.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        table = find_double_critical_pairs([(near, one), (far, one)])
        inter = table[table[:, COL["component_1"]] != table[:, COL["component_2"]]]
        assert np.min(inter[:, COL["ratio"]]) == pytest.approx(4.0, abs=1e-7)
        assert dcsd_half(table) == pytest.approx(1.0, abs=1e-9)


class TestReports:
    def test_unit_circle_all_one(self):
        rep = radii_report([(CircleArcCurve(0, 2 * np.pi, closed=True), ConstantWeight(1.0))])
        for value in (rep.dir, rep.tir, rep.air):
            assert value == pytest.approx(1.0, abs=1e-8)

    def test_overflow_is_a_numeric_failure(self):
        # Every radius would be 1e-160, but the squares of mu overflow; an
        # offset batch fails as a whole, so the sweep retries row by row.
        circle = CircleArcCurve(0, 2 * np.pi, closed=True)
        with pytest.raises(NumericError, match="overflow"):
            radii_report([(circle, ConstantWeight(1e160))])
        with pytest.raises(NumericError, match="overflow"):
            radii_report([(circle, ConstantWeight(1.0))], offsets=[0.0, 1e160])
        rep = radii_report([(circle, ConstantWeight(1e150))])
        assert rep.dir == pytest.approx(1e-150, rel=1e-8)
        # 1/|mu'| overflowing for a subnormal mu' means no slope bound (+inf),
        # which is not a failure.
        rep = radii_report([(circle, PolynomialWeight([1.0, 1e-310]))])
        assert rep.focrad0 == rep.focradminus == 1.0
        assert rep.dir == pytest.approx(1.0, abs=1e-8)

    def test_half_circle_report(self):
        rep = radii_report([(CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight())])
        assert rep.dir == pytest.approx(2.0, abs=1e-6)
        assert rep.air == pytest.approx(2 * np.sqrt(2.0), abs=1e-6)
        assert rep.dcsd_half == np.inf

    def test_open_unit_arc_reaches_its_endpoints(self):
        # Pair seeds at the ends of an open arc longer than pi: the Newton
        # stencil is clipped into the domain instead of leaving it.
        rep = radii_report([(CircleArcCurve(0.0, 5.0), ConstantWeight(1.0))])
        assert rep.dir == pytest.approx(1.0, abs=1e-6)
        assert rep.air == pytest.approx(1.0, abs=1e-6)

    def test_newton_stencil_clipped_on_open_arcs(self):
        from weighted_tubes.radii import _stencil

        h = 1e-3
        s = np.array([0.0, 2.5, 5.0 - 0.5 * h])
        hi, lo, spread = _stencil(CircleArcCurve(0.0, 5.0), s, h)
        assert np.array_equal(hi, [h, 2.5 + h, 5.0])
        assert np.array_equal(lo, [0.0, 2.5 - h, 5.0 - 1.5 * h])
        assert np.array_equal(spread, [h, 2 * h, 5.0 - (5.0 - 1.5 * h)])
        hi, lo, spread = _stencil(CircleArcCurve(0.0, 2 * np.pi, closed=True), s, h)
        assert np.array_equal(hi, s + h) and np.array_equal(lo, s - h) and spread == 2 * h

    def test_ordering_invariant(self, scenes):
        for name, scene in scenes.items():
            if "family" in name:
                continue
            rep = radii_report(scene.pairs, scene.tolerances)
            assert rep.dir <= rep.tir <= rep.air, name
            assert rep.lr == min(rep.dcsd_half, rep.focrad0)
            assert rep.ur == min(rep.dcsd_half, rep.focradminus)
            assert rep.dir == rep.lr and rep.air == rep.ur


# Values computed by the scalar golden-section refinement and the pair
# search before they were batched; the batched code must reproduce them.
# focal_radii per bundled scene: (focrad0, focradminus, focrad0 witness
# (component, s, value), focradminus witness), 17 digits.
FOCAL_PINS = {
    "circle_mu1": (1.0, 1.0, (0, 0.0, 1.0), (0, 0.0, 1.0)),
    "ellipse_mu1": (0.5, 0.5, (0, 0.0, 0.5), (0, 0.0, 0.5)),
    "example1a": (2.0, 2.8284271247461903, (0, -1.5707963267948966, 2.0), (0, -1.5707963267948966, 2.8284271247461903)),
    "example1b": (2.0, 3.5420643933754508, (0, -1.2, 2.0), (0, -1.2, 3.5420643933754508)),
    "example2_stadium": (2.0, 4.140313876743611, (0, 0.0, 2.0), (0, 2.131129589929578, 4.140313876743611)),
    "example3_family": (2.0, 4.140313876743611, (0, 0.0, 2.0), (0, 2.131129589929578, 4.140313876743611)),
    "example4": (2.0, 4.0, (0, -1.0536623757080799e-08, 2.0), (0, -1.0, 4.0)),
    "example6_family": (2.0, 4.0, (0, -1.0536623757080799e-08, 2.0), (0, -1.0, 4.0)),
}
STADIUM_PAIRS = (  # (s1, s2, ratio)
    (0.0, 64.54003177342173, 33.50279546973922),
    (15.631682785001745, 79.87946054797717, 79.17414234541558),
    (20.061471027790684, 84.30924879082461, 79.17414234541558),
    (20.459714929497984, 84.70749269255981, 79.17414234541558),
    (22.690476440498113, 86.93825420346617, 79.17414234541558),
    (23.656020794857433, 87.90379855783657, 79.17414234541558),
    (25.62189941340677, 89.86967717634592, 79.17414234541558),
    (26.65192415260038, 90.89970191558668, 79.17414234541558),
    (26.805384631193185, 91.0531623940894, 79.17414234541558),
    (28.154434807541925, 92.40221257060341, 79.17414234541558),
    (29.855013318245437, 94.1027910811947, 79.17414234541558),
    (30.130036739446883, 94.37781450262891, 79.17414234541558),
    (32.189091303822124, 96.43686906667902, 79.17414234541558),
    (33.11492926671147, 97.36270702962834, 79.17414234541558),
    (35.59821487292615, 99.84599263596596, 79.17414234541558),
    (36.68904214935565, 100.93681991258875, 79.17414234541558),
    (38.178302913483776, 102.42608067647006, 79.17414234541558),
    (41.176431894107175, 105.4242096570787, 79.17414234541558),
    (42.83169503119488, 107.07947279311416, 79.17414234541558),
    (43.972568871698726, 108.22034663466847, 79.17414234541558),
    (45.886515454301865, 110.13429321727628, 79.17414234541558),
    (46.172490017764495, 110.42026778076341, 79.17414234541558),
    (51.72056670835395, 115.96834447134113, 79.17414234541558),
    (56.262293655567355, 120.51007141857454, 79.17414234541558),
    (13.110691906357111, 77.3584696693744, 79.17414234541559),
    (14.116472778007402, 78.36425054097924, 79.17414234541559),
    (17.7551930125386, 82.00297077550852, 79.17414234541559),
    (18.442169095776347, 82.6899468587373, 79.17414234541559),
    (24.08563898952296, 88.33341675247978, 79.17414234541559),
    (40.78125355414173, 105.02903131714207, 79.17414234541559),
    (48.62159636078551, 112.86937412377065, 79.17414234541559),
    (49.200007400677805, 113.44778516366651, 79.17414234541559),
    (50.716457702168114, 114.96423546511438, 79.17414234541559),
    (57.33395685487286, 121.58173461784746, 79.1741423454162),
    (7.49797743112588, 71.7457551941005, 79.17414234541715),
    (6.902082957824493, 71.14999200224872, 79.18509467691345),
    (57.93007154459472, 122.17798058901897, 79.18509467691345),
)
ELLIPSE_MU1_PAIRS = (  # (s1, s2, ratio)
    (2.422112055136919, 7.266336165410756, 1.0),
    (0.0, 4.844224110273838, 2.0),
)


class TestPinnedRefinement:
    @pytest.mark.parametrize("name", sorted(FOCAL_PINS))
    def test_focal_radii_and_witnesses(self, scenes, name):
        scene = scenes[name]
        f0, fm, wit = focal_radii(scene.pairs, scene.tolerances)
        got = [(w.component, w.s, w.value) for w in (wit["focrad0"], wit["focradminus"])]
        assert (f0, fm, *got) == FOCAL_PINS[name]

    @pytest.mark.parametrize("lift, expected", [
        (None, (0.8917639782626274, 4.38593406057843)),
        ([0.0, 0.0, 0.0, 0.12, 0.05], (0.8368238170713791, 0.21003493140273505)),
    ])
    def test_focal_radii_refined_minimum_on_fourier_curves(self, lift, expected):
        coeffs = [[0.0, 1.0, 0.0, 0.01, 0.005], [0.0, 0.0, 1.0, 0.004, -0.008]]
        curve = FourierCurve(coeffs + ([lift] if lift else []))
        weight = FourierWeight([1.0, 0.05, 0.03, 0.02, -0.01], period=curve.length)
        f0, fm, wit = focal_radii([(curve, weight)])
        assert (f0, wit["focrad0"].s) == expected
        assert (fm, wit["focradminus"].s) == expected

    @pytest.mark.parametrize("name, expected", [
        ("example2_stadium", STADIUM_PAIRS), ("ellipse_mu1", ELLIPSE_MU1_PAIRS),
    ])
    def test_double_critical_pairs(self, scenes, name, expected):
        scene = scenes[name]
        table = find_double_critical_pairs(scene.pairs, scene.tolerances)
        got = table[:, [COL["s1"], COL["s2"], COL["ratio"]]].tolist()
        assert [tuple(row) for row in got] == list(expected)


# The scalar pair verification and deduplication the search once ran on each
# Newton survivor (oracles for the row path). A pair is a record of the
# table's columns and its midpoint.
ScalarPair = collections.namedtuple("ScalarPair", PAIR_COLUMNS + ("midpoint",))


def _verify_pair(pairs, i, j, s1, s2, residual):
    c1, w1 = pairs[i]
    c2, w2 = pairs[j]
    if i == j:
        if c1.periodic_distance(s1, s2) < radii._DELTA_MIN_FACTOR * c1.length:
            return None
    (q1, t1), (q2, t2) = c1.jet(s1, 1), c2.jet(s2, 1)
    (m1, d1_1), (m2, d1_2) = w1.jet(s1, 1), w2.jet(s2, 1)
    m1, m2 = float(m1), float(m2)
    dist = float(np.linalg.norm(q1 - q2))
    if dist <= 0:
        return None
    ratio = dist / (m1 + m2)
    u = (q2 - q1) / dist
    midpoint = q1 + ratio * m1 * u
    ang = []
    for tan, d1, uu in ((t1, d1_1, u), (t2, d1_2, -u)):
        d1 = float(d1)
        if abs(d1) == 0.0:
            # alpha is pi/2 by convention; the chord must be normal here.
            ang.append(abs(float(uu @ tan)))
            continue
        grad_dir = np.sign(d1) * tan
        cosa = float(uu @ grad_dir)
        ang.append(abs(cosa + ratio * abs(d1)))
    if max(ang) > 1e-6:
        return None
    return ScalarPair(0.0, i, j, s1, s2, ratio, residual, *ang, midpoint)


def _dedup_pairs(pairs, found):
    kept = []
    for cand in sorted(found, key=lambda p: (p.ratio, p.component_1, p.component_2, p.s1, p.s2)):
        dup = False
        for prev in kept:
            if (cand.component_1, cand.component_2) != (prev.component_1, prev.component_2):
                continue
            c1 = pairs[cand.component_1][0]
            c2 = pairs[cand.component_2][0]
            d_a = c1.periodic_distance(cand.s1, prev.s1) + c2.periodic_distance(cand.s2, prev.s2)
            d_b = np.inf
            if cand.component_1 == cand.component_2:
                d_b = c1.periodic_distance(cand.s1, prev.s2) + c2.periodic_distance(
                    cand.s2, prev.s1
                )
            scale = 1e-5 * (c1.length + c2.length)
            if min(d_a, d_b) < scale:
                dup = True
                break
        if not dup:
            kept.append(cand)
    return kept


def scalar_pairs(pairs, ts, newton_runs):
    """The pairs the scalar path made of the recorded Newton runs, one per
    component pair (i, j) in search order."""
    found = [[] for _ in ts]
    runs = iter(newton_runs)
    for i in range(len(pairs)):
        for j in range(i, len(pairs)):
            grp, (s, t, res, alive) = next(runs)
            for k in np.nonzero(alive & ~(res > radii._TOL_DC))[0]:
                off = float(ts[grp[k]])
                shifted = [(c, OffsetWeight(w, off)) for c, w in pairs]
                cand = _verify_pair(shifted, i, j, float(s[k]), float(t[k]), float(res[k]))
                if cand is not None:
                    found[grp[k]].append(cand._replace(t=off))
    return [p for cands in found for p in _dedup_pairs(pairs, cands)]


def pair_row(p):
    """The table row of a scalar pair: its columns, then its midpoint."""
    return np.array([*p[:-1], *p.midpoint], dtype=float)


class TestPairRows:
    """The row verification and deduplication return the scalar path's pairs."""

    @pytest.mark.parametrize("name, offsets", [
        ("circle_mu1", None), ("ellipse_mu1", None), ("example1a", None), ("example1b", None),
        ("example2_stadium", None), ("example3_family", None), ("example4", None),
        ("example6_family", None), ("two_component", None), ("chebyshev_arc", None),
        ("example3_family", list(np.linspace(-0.05, 0.05, 41))),
    ])
    def test_rows_are_the_scalar_pairs(self, scenes, monkeypatch, name, offsets):
        from test_sweeps import CHEBYSHEV_ARC, TWO_COMPONENT
        from weighted_tubes import load_scene

        doc = {"two_component": TWO_COMPONENT, "chebyshev_arc": CHEBYSHEV_ARC}.get(name)
        scene = load_scene(doc) if doc else scenes[name]
        runs = []
        newton = radii._newton

        def recording(c1, w1, c2, w2, seeds, grp, ts, tol):
            out = newton(c1, w1, c2, w2, seeds, grp, ts, tol)
            runs.append((grp, out))
            return out

        monkeypatch.setattr(radii, "_newton", recording)
        rows = find_double_critical_pairs(scene.pairs, scene.tolerances, offsets)
        ts = radii._offset_array(offsets)
        oracle = scalar_pairs(scene.pairs, ts, runs)
        # Every scene has Newton survivors for the verification to judge.
        assert sum(int(np.sum(alive)) for _, (_, _, _, alive) in runs) > 0
        assert [row.tobytes() for row in rows] == [pair_row(p).tobytes() for p in oracle]

    @pytest.mark.parametrize("weight, band, least", [
        (ConstantWeight(1.0), 1e-3, 3),
        (ConstantWeight(1.0), 0.6, 1),  # the band now holds the antipodal rows
        (FourierWeight([1.0, 0.1, 0.05], 2 * np.pi), 1e-3, 1),
    ])
    def test_crafted_rows_are_the_scalar_verdicts(self, monkeypatch, weight, band, least):
        # Antipodal feet (the law holds for mu = 1), a row inside the diagonal
        # band, a zero chord, a nan foot (the scalar path keeps it) and
        # random feet, for two offsets.
        # The row path and its oracle both read radii's diagonal-band constant.
        monkeypatch.setattr(radii, "_DELTA_MIN_FACTOR", band)
        pairs = [(CircleArcCurve(0, 2 * np.pi, closed=True), weight)]
        rng = np.random.default_rng(3)
        s1 = np.r_[0.0, 1.0, 2.0, np.nan, 0.5, rng.uniform(0, 2 * np.pi, 40)]
        s2 = np.r_[np.pi, 1.0 + 1e-4, 2.0, 1.0, 0.5 + np.pi, rng.uniform(0, 2 * np.pi, 40)]
        ts = np.array([0.0, 0.1])
        grp = np.arange(len(s1)) % 2
        res = rng.uniform(0, 1e-10, len(s1))
        rows = radii._verify_rows(pairs, 0, 0, s1, s2, ts, grp, res)
        got = [
            (float(rows["s1"][k]), float(rows["s2"][k]), float(rows["ratio"][k]),
             rows["midpoint"][k].tobytes(), (float(rows["angle_1"][k]), float(rows["angle_2"][k])),
             float(rows["residual"][k]), float(rows["t"][k]))
            for k in range(len(rows["s1"]))
        ]
        oracle = []
        for k in range(len(s1)):
            shifted = [(c, OffsetWeight(w, ts[grp[k]])) for c, w in pairs]
            p = _verify_pair(shifted, 0, 0, s1[k], s2[k], res[k])
            if p is not None:
                oracle.append((float(p.s1), float(p.s2), p.ratio, p.midpoint.tobytes(),
                               (p.angle_1, p.angle_2), float(p.residual), float(ts[grp[k]])))
        assert repr(got) == repr(oracle)
        assert len(oracle) >= least

    def test_dedup_keeps_the_first_of_each_cluster(self):
        # On one circle (scale 1e-5 (L + L)): B is within the scale of A and
        # dropped; C is within it of B but not of A, so it stays; D is A
        # with its feet swapped; E repeats A for another offset.
        curve = CircleArcCurve(0, 2 * np.pi, closed=True)
        pairs = [(curve, ConstantWeight(1.0))]
        scale = 1e-5 * 2 * curve.length
        feet = [(1.0, 1.0 + np.pi), (1.0 + 0.7 * scale, 1.0 + np.pi),
                (1.0 + 1.4 * scale, 1.0 + np.pi), (1.0 + np.pi, 1.0), (1.0, 1.0 + np.pi)]
        ratio = [1.0, 1.0 + 1e-16, 1.0 + 3e-16, 1.0 + 2e-16, 1.0]
        grp = [0, 0, 0, 0, 1]
        rows = {
            "grp": np.array(grp),
            "component_1": np.zeros(5, dtype=int), "component_2": np.zeros(5, dtype=int),
            "s1": np.array([f[0] for f in feet]), "s2": np.array([f[1] for f in feet]),
            "ratio": np.array(ratio),
        }
        found = [[], []]
        for k in range(5):  # t carries the row's index
            found[grp[k]].append(ScalarPair(k, 0, 0, *feet[k], ratio[k], 0.0, 0.0, 0.0, None))
        oracle = [p.t for cands in found for p in _dedup_pairs(pairs, cands)]
        assert list(radii._dedup_rows(pairs, rows)) == oracle == [0, 2, 4]


class TestPairTable:
    """find_double_critical_pairs returns one float table: the columns
    PAIR_COLUMNS and the midpoint, the offsets in the order given, each
    offset's rows sorted by (ratio, component_1, component_2, s1, s2)."""

    def test_columns_and_row_order(self):
        from test_sweeps import TWO_COMPONENT
        from weighted_tubes import load_scene

        assert PAIR_COLUMNS == (
            "t", "component_1", "component_2", "s1", "s2", "ratio", "residual", "angle_1", "angle_2",
        )
        scene = load_scene(TWO_COMPONENT)
        offsets = [0.02, -0.03, 0.0]
        table = find_double_critical_pairs(scene.pairs, scene.tolerances, offsets)
        assert table.dtype == float and table.shape[1] == 9 + 2
        t = table[:, COL["t"]]
        assert [x for k, x in enumerate(t) if k == 0 or t[k - 1] != x] == offsets
        key = [COL[c] for c in ("ratio", "component_1", "component_2", "s1", "s2")]
        for off in offsets:
            rows = [tuple(r) for r in table[t == off][:, key].tolist()]
            assert rows == sorted(rows)
        # Both components, and pairs between them, are in the table.
        pair_kinds = {tuple(r) for r in table[:, [COL["component_1"], COL["component_2"]]].tolist()}
        assert pair_kinds == {(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)}
        assert np.all(table[:, COL["residual"]] <= radii._TOL_DC)
        for row in table:
            (q1, _), (q2, _) = (scene.pairs[int(row[COL[c]])][0].jet(row[COL[s]], 1)
                                for c, s in (("component_1", "s1"), ("component_2", "s2")))
            mu1 = scene.pairs[int(row[COL["component_1"]])][1].mu(row[COL["s1"]]) + row[COL["t"]]
            midpoint = q1 + row[COL["ratio"]] * mu1 * (q2 - q1) / np.linalg.norm(q2 - q1)
            np.testing.assert_allclose(row[9:], midpoint, rtol=0, atol=1e-12)

    def test_no_pairs_is_an_empty_table(self):
        pairs = [(CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight())]
        assert find_double_critical_pairs(pairs).shape == (0, 9 + 2)
        assert find_double_critical_pairs(pairs, offsets=[0.0, -0.1]).shape == (0, 9 + 2)

    @pytest.mark.parametrize("name, offsets", [
        ("two_component", [0.02, -0.0, 0.03]), ("example3_family", [-0.02, 0.0, 0.02]),
    ])
    def test_batched_rows_are_the_calls_alone(self, scenes, name, offsets):
        from test_sweeps import TWO_COMPONENT
        from weighted_tubes import load_scene

        scene = load_scene(TWO_COMPONENT) if name == "two_component" else scenes[name]
        table = find_double_critical_pairs(scene.pairs, scene.tolerances, offsets)
        for off in offsets:
            rows = table[table[:, COL["t"]] == off]
            alone = find_double_critical_pairs(
                [(c, OffsetWeight(w, off)) for c, w in scene.pairs], scene.tolerances
            )
            assert len(alone)
            assert rows[:, 0].tobytes() == np.full(len(rows), off).tobytes()
            assert alone[:, 0].tobytes() == np.zeros(len(alone)).tobytes()
            assert rows[:, 1:].tobytes() == alone[:, 1:].tobytes()


def _seeded_fourier_scene(kind, seed):
    """A random Fourier perturbation of circles: one planar loop, one loop
    lifted into 3D, or two planar loops side by side, with a Fourier weight
    near 1 on each."""
    rng = np.random.default_rng(seed)

    def loop(x0, radius, dim):
        amp = 0.03 * radius
        coords = [[x0, radius, 0.0], [0.0, 0.0, radius]] + [[0.0, 0.0, 0.0]] * (dim - 2)
        return [c + list(rng.uniform(-amp, amp, 4)) for c in coords]

    def weight():
        return {"kind": "fourier", "params": {"coefficients": [1.0] + list(rng.uniform(-0.05, 0.05, 4))}}

    if kind == "two_component":
        loops = [loop(-1.0, 0.6, 2), loop(1.0, 0.6, 2)]
    else:
        loops = [loop(0.0, 1.0, 3 if kind == "3d" else 2)]
    return {
        "ambient_dim": len(loops[0]),
        "components": [{"kind": "fourier", "params": {"coefficients": c}} for c in loops],
        "weights": [weight() for _ in loops],
    }


NEWTON_SCENES = {
    **{name: (name, None) for name in (
        "circle_mu1", "ellipse_mu1", "example1a", "example1b", "example2_stadium",
        "example3_family", "example4", "example6_family")},
    "two_component": ("two_component", None),
    "chebyshev_arc": ("chebyshev_arc", None),
    "example3_family-41": ("example3_family", tuple(np.linspace(-0.05, 0.05, 41))),
    "example6_family-20": ("example6_family", tuple(np.linspace(-0.05, 0.05, 20))),
    **{f"fourier_{kind}-{seed}": (("fourier", kind, seed), None)
       for kind in ("planar", "3d", "two_component") for seed in (1, 2)},
}


def _record_newton_calls(key):
    """The arguments of every _newton call of the pair search on one scene."""
    from test_sweeps import CHEBYSHEV_ARC, TWO_COMPONENT
    from weighted_tubes import load_scene

    source, offsets = NEWTON_SCENES[key]
    if isinstance(source, tuple):
        scene = load_scene(_seeded_fourier_scene(*source[1:]))
    else:
        scene = load_scene({"two_component": TWO_COMPONENT, "chebyshev_arc": CHEBYSHEV_ARC}.get(source, source))
    calls = []
    newton = radii._newton

    def recording(*args):
        calls.append(args)
        return newton(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radii, "_newton", recording)
        find_double_critical_pairs(scene.pairs, scene.tolerances, offsets)
    return calls


@pytest.fixture(scope="module")
def newton_calls():
    """_record_newton_calls, run once per scene for the whole module."""
    return functools.cache(_record_newton_calls)


class TestNewtonSettle:
    """Settling rows that return to an earlier state changes no byte of the
    search that runs every active row to the last pass."""

    @pytest.mark.parametrize("max_iter", [49, 50])  # both parities of a two-state cycle
    @pytest.mark.parametrize("key", list(NEWTON_SCENES))
    def test_same_bytes_as_every_pass(self, newton_calls, monkeypatch, key, max_iter):
        calls = newton_calls(key)
        monkeypatch.setattr(radii, "_NEWTON_MAX_ITER", max_iter)
        monkeypatch.setattr(oracles, "_NEWTON_MAX_ITER", max_iter)
        assert calls
        for args in calls:
            got = radii._newton(*args)
            want = oracles.newton_every_pass(*args)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want]

    @pytest.mark.parametrize("name, most", [
        ("circle_mu1", 6), ("ellipse_mu1", 6), ("example2_stadium", 14),
    ])
    def test_cycling_rows_settle_early(self, scenes, monkeypatch, name, most):
        # Every pass builds two stencils and, on one component, evaluates
        # all six foot arrays in one call. Running every row to the last
        # pass took 51 passes on each of these scenes.
        counts = {"_stencil": 0, "_feet_rows": 0}
        for fn in counts:
            def counting(*args, _fn=getattr(radii, fn), _name=fn):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(radii, fn, counting)
        scene = scenes[name]
        find_double_critical_pairs(scene.pairs, scene.tolerances)
        passes = counts["_stencil"] // 2
        assert 1 <= passes <= most
        assert counts["_feet_rows"] == passes


def _offsets_21(half):
    """21 offsets in [-half, half]: 0.0 among them, and the fourth repeated last."""
    ts = [*np.linspace(-half, -half / 10, 10), 0.0, *np.linspace(half / 10, half, 9)]
    return ts + [ts[3]]


class TestSeedGrid:
    """The seed grid's offset-free products and the minima search's pad,
    built once per component pair, give the seeds and the table of the
    per-offset loop bit for bit."""

    @pytest.mark.parametrize("name, offsets", [
        ("circle_mu1", None), ("ellipse_mu1", None), ("example1a", None), ("example1b", None),
        ("example2_stadium", None), ("example3_family", None), ("example4", None),
        ("example6_family", None), ("two_component", None),
        ("example3_family", _offsets_21(0.05)), ("example6_family", _offsets_21(0.1)),
    ])
    def test_seeds_and_table_are_the_per_offset_loop(self, scenes, monkeypatch, name, offsets):
        from test_sweeps import TWO_COMPONENT
        from weighted_tubes import load_scene

        scene = load_scene(TWO_COMPONENT) if name == "two_component" else scenes[name]
        runs = []
        newton = radii._newton

        def recording(c1, w1, c2, w2, seeds, grp, ts, tol):
            runs.append((seeds.tobytes(), grp.tobytes(), ts.tobytes()))
            return newton(c1, w1, c2, w2, seeds, grp, ts, tol)

        monkeypatch.setattr(radii, "_newton", recording)
        table = find_double_critical_pairs(scene.pairs, scene.tolerances, offsets)
        got = runs[:]
        runs.clear()
        monkeypatch.setattr(radii, "_search_component_pair", oracles.per_offset_pair_search)
        want = find_double_critical_pairs(scene.pairs, scene.tolerances, offsets)
        n = len(scene.pairs)
        assert len(got) == n * (n + 1) // 2 and got == runs
        assert table.shape == want.shape and table.tobytes() == want.tobytes()


# The focal refinement as it ran before its families shared one call: four
# row-wise golden-section calls per component, each paying its own _abc
# evaluations (oracle for the merged call).
def four_call_focal_radii(pairs, tol=DEFAULT_TOLERANCES, offsets=None):
    pairs = as_pairs(pairs)
    ts = radii._offset_array(offsets)
    best = [[(np.inf, None), (np.inf, None)] for _ in ts]
    for ci, (curve, weight) in enumerate(pairs):
        sg = curve.grid(tol.grid_samples)
        kap = curve.curvature(sg)
        mu, d1, d2 = (np.asarray(x, dtype=float) for x in weight.jet(sg, 2))
        a, b, _, disc, lam = radii._focal_terms(kap, mu + ts[:, None], d1, d2)
        band = np.array([radii._band(np.max(row**2)) for row in a])
        r0, rm = radii._radius_profiles(b, disc, lam, band[:, None])

        def radius(s, t, bd, which):
            _, bb, _, dd, ll = radii._abc(curve, weight, s, t)
            return radii._radius_profiles(bb, dd, ll, bd)[which]

        lo, hi, rd = radii._bracket_rows(
            curve, sg, [radii._extrema_indices(d, curve.closed, "max", 8) for d in disc]
        )
        s_d, d_val = golden_max(
            lambda s, t: radii._abc(curve, weight, s, t)[3], lo, hi, tol=1e-13, args=(ts[rd],)
        )
        lam_d = radii._abc(curve, weight, s_d, ts[rd])[4]
        s_b, b_val = golden_max(
            lambda s: np.abs(weight.d1(s)),
            *radii._bracket(curve, sg, radii._extrema_indices(b, curve.closed, "max", 4)),
            tol=1e-13,
        )
        slope = [(1.0 / float(v), float(x)) for v, x in zip(b_val, s_b) if v > 0]
        disc_rows = radii._split_rows(rd, len(ts), s_d, d_val, lam_d)
        for which, profile in ((0, r0), (1, rm)):
            i_min = [int(np.argmin(p)) for p in profile]
            lo, hi, rp = radii._bracket_rows(curve, sg, [
                [i] + radii._extrema_indices(p, curve.closed, "min", 8) for i, p in zip(i_min, profile)
            ])
            s_ref, v_ref = golden_min(
                lambda s, t, bd, which=which: radius(s, t, bd, which),
                lo, hi, tol=1e-12, args=(ts[rp], band[rp]),
            )
            ref_rows = radii._split_rows(rp, len(ts), s_ref, v_ref)
            for k, ((xs, vs), (xd, dv, ld)) in enumerate(zip(ref_rows, disc_rows)):
                in_band = dv >= -band[k] if which == 0 else dv > band[k]
                cands = [(float(profile[k, i_min[k]]), float(sg[i_min[k]]))]
                cands += [(float(v), float(x)) for v, x in zip(vs, xs)]
                cands += [
                    (float(1.0 / np.sqrt(lv)), float(x))
                    for ok, lv, x in zip(in_band, ld, xd)
                    if ok and lv > 0
                ]
                cands += slope
                v_best, s_best = min(cands, key=lambda c: c[0])
                if v_best < best[k][which][0]:
                    best[k][which] = (v_best, FocalWitness(ci, s_best, v_best))
    out = [(f0, max(fm, f0), {"focrad0": w0, "focradminus": wm}) for (f0, w0), (fm, wm) in best]
    return out[0] if offsets is None else out


def typed(obj):
    """A focal result as nested tuples of (type name, repr) leaves."""
    if isinstance(obj, FocalWitness):
        return ("FocalWitness",) + tuple(typed(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return tuple((key, typed(v)) for key, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return tuple(typed(v) for v in obj)
    return (type(obj).__name__, repr(obj))


DYADIC = [2.0**-k for k in range(4, 21)]


class TestMergedFocalRefinement:
    """The one merged refinement call returns the four calls' radii."""

    @pytest.mark.parametrize("name, offsets", [
        ("circle_mu1", None), ("ellipse_mu1", None), ("example1a", None), ("example1b", None),
        ("example2_stadium", None), ("example3_family", None), ("example4", None),
        ("example6_family", None), ("two_component", None), ("chebyshev_arc", None),
        ("example3_family", list(np.linspace(-0.05, 0.05, 41))),
        ("example6_family", list(np.linspace(-0.1, 0.1, 20))),
        ("example3_family", [-t for t in DYADIC] + [0.0] + DYADIC),
        ("example6_family", [-t for t in DYADIC] + [0.0] + DYADIC),
    ])
    def test_values_and_witnesses_are_the_four_calls(self, scenes, name, offsets):
        from test_sweeps import CHEBYSHEV_ARC, TWO_COMPONENT
        from weighted_tubes import load_scene

        doc = {"two_component": TWO_COMPONENT, "chebyshev_arc": CHEBYSHEV_ARC}.get(name)
        scene = load_scene(doc) if doc else scenes[name]
        got = focal_radii(scene.pairs, scene.tolerances, offsets)
        oracle = four_call_focal_radii(scene.pairs, scene.tolerances, offsets)
        assert typed(got) == typed(oracle)

    @pytest.mark.parametrize("name", ["two_component", "chebyshev_arc", "example2_stadium"])
    def test_abc_of_each_foot_alone_equals_its_batch_value(self, scenes, name):
        # The merged objective evaluates every row's feet in one call; that
        # is exact only if no foot's values depend on the other feet
        # evaluated with it (Fourier, Chebyshev and stadium curves, with
        # their weights, at several offsets).
        from test_sweeps import CHEBYSHEV_ARC, TWO_COMPONENT
        from weighted_tubes import load_scene

        doc = {"two_component": TWO_COMPONENT, "chebyshev_arc": CHEBYSHEV_ARC}.get(name)
        scene = load_scene(doc) if doc else scenes[name]
        rng = np.random.default_rng(13)
        for curve, weight in scene.pairs:
            grid = curve.grid(64)
            s = np.concatenate([rng.uniform(curve.s_min, curve.s_max, 200), grid, grid * (1.0 + 1e-13)])
            t = rng.choice([0.0, -0.03, 0.02, 2.0**-20], len(s))
            batch = radii._abc(curve, weight, s, t)
            alone = [radii._abc(curve, weight, s[k:k + 1], t[k:k + 1]) for k in range(len(s))]
            for i, values in enumerate(batch):
                assert values.tobytes() == np.concatenate([x[i] for x in alone]).tobytes()

    # Every row of the merged call follows its own golden-section sequence,
    # so the call evaluates exactly the feet of the four calls (ellipse 404,
    # stadium 1,422, two_component 1,017), duplicates included.
    @pytest.mark.parametrize("name", ["ellipse_mu1", "example2_stadium", "two_component"])
    def test_one_report_evaluates_the_four_calls_feet(self, scenes, monkeypatch, name):
        from test_sweeps import TWO_COMPONENT
        from weighted_tubes import load_scene

        scene = load_scene(TWO_COMPONENT) if name == "two_component" else scenes[name]
        feet = []
        abc = radii._abc

        def counting(curve, weight, s, t=0.0):
            feet.append(np.size(s))
            return abc(curve, weight, s, t)

        monkeypatch.setattr(radii, "_abc", counting)
        radii_report(scene.pairs, scene.tolerances)
        merged = sum(feet)
        feet.clear()
        four_call_focal_radii(scene.pairs, scene.tolerances)
        assert merged == sum(feet) > 0


class TestOneDenseGrid:
    """Each call builds each component's dense grid once: one
    `curve.grid(grid_samples)` and one order-3 jet of its feet, which the
    focal and collapse stages, a sweep batch and the zero set of g share.
    Every scene is loaded fresh, so no earlier test has built its grids."""

    @staticmethod
    def assert_built_once(monkeypatch, scene, run):
        from weighted_tubes.curves import ArclengthCurve

        gridded, jets = [], []
        grid, jet = ArclengthCurve.grid, ArclengthCurve.jet

        def counting_grid(curve, n):
            gridded.append((id(curve), n))
            return grid(curve, n)

        def counting_jet(curve, s, order):
            if order == 3:
                jets.append((id(curve), np.size(s)))
            return jet(curve, s, order)

        monkeypatch.setattr(ArclengthCurve, "grid", counting_grid)
        monkeypatch.setattr(ArclengthCurve, "jet", counting_jet)
        run()
        n = scene.tolerances.grid_samples
        ids = sorted(id(curve) for curve, _ in scene.pairs)
        assert sorted(c for c, m in gridded if m == n) == ids
        assert sorted(c for c, _ in jets) == ids and {m for _, m in jets} == {n}

    @pytest.mark.parametrize("name, offsets", [
        ("example2_stadium", None), ("two_component", None), ("example1a", None),
        ("example3_family", [-0.01, 0.0, 0.01]),
    ])
    def test_report(self, monkeypatch, name, offsets):
        from test_sweeps import TWO_COMPONENT
        from weighted_tubes import load_scene

        scene = load_scene(TWO_COMPONENT if name == "two_component" else name)
        self.assert_built_once(
            monkeypatch, scene, lambda: radii_report(scene.pairs, scene.tolerances, offsets)
        )

    def test_sweep_batch(self, monkeypatch):
        from weighted_tubes import load_scene, radii_sweep

        # grid_samples is 8192 here, so the weight checks' 4096-foot grids
        # are told apart from the dense one.
        scene = load_scene("example3_family")
        rows = []
        self.assert_built_once(monkeypatch, scene, lambda: rows.extend(radii_sweep(
            scene.pairs, np.linspace(-0.05, 0.05, 11), scene.tolerances
        )))
        assert len(rows) == 11 and all(row.status == "ok" for row in rows)

    def test_singular_without_ur(self, monkeypatch, tmp_path):
        # The report behind the computed ur and the zero set of g share one
        # grid per component.
        from test_sweeps import TWO_COMPONENT
        from weighted_tubes import cli, load_scene

        scene = load_scene(TWO_COMPONENT)
        monkeypatch.setattr(cli, "load_scene", lambda source: scene)
        codes = []
        self.assert_built_once(monkeypatch, scene, lambda: codes.append(cli.main(
            ["singular", "--scene", "two_component", "--out", str(tmp_path / "sing.csv")]
        )))
        assert codes == [0]


# The grid seeding before the 3x3 minimum filter: eight rolled copies of the
# matrix, their wrapped rows and columns set to +inf on open axes (oracle).
def rolled_grid_local_minima(mat, per_rows, per_cols):
    best = np.ones_like(mat, dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            shifted = np.roll(np.roll(mat, dr, axis=0), dc, axis=1)
            if not per_rows:
                if dr == 1:
                    shifted[0, :] = np.inf
                elif dr == -1:
                    shifted[-1, :] = np.inf
            if not per_cols:
                if dc == 1:
                    shifted[:, 0] = np.inf
                elif dc == -1:
                    shifted[:, -1] = np.inf
            best &= mat <= shifted
    best &= np.isfinite(mat)
    return list(zip(*np.nonzero(best)))


@pytest.mark.parametrize("per_rows", [False, True])
@pytest.mark.parametrize("per_cols", [False, True])
def test_grid_minima_equal_the_rolled_neighbours(per_rows, per_cols):
    # Small integers make ties; +-inf and nan are sprinkled in.
    rng = np.random.default_rng(21)
    found = 0
    for n in range(1, 13):
        for m in range(1, 13):
            pad = np.full((n + 2, m + 2), np.inf)  # reused by the three draws
            for _ in range(3):
                mat = rng.integers(0, 4, (n, m)).astype(float)
                u = rng.random((n, m))
                mat[u < 0.08] = np.inf
                mat[(u >= 0.08) & (u < 0.14)] = -np.inf
                mat[(u >= 0.14) & (u < 0.2)] = np.nan
                got = radii._grid_local_minima(mat, per_rows, per_cols).tolist()
                want = rolled_grid_local_minima(mat, per_rows, per_cols)
                assert got == [a * m + b for a, b in want], (n, m)
                assert radii._grid_local_minima(mat, per_rows, per_cols, pad).tolist() == got
                found += len(got)
    assert found > 1000
