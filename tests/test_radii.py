import collections
import dataclasses
import decimal
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
    is_singular,
    radii_report,
)
from weighted_tubes import radii, singular
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
        lam = radii._focal_terms(a, np.ones_like(a), b, 0.5 * c - b**2)[-1]
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
        for name, scene in scenes.items():
            curve, weight = scene.pairs[0]
            sg = curve.grid(1024)
            a, b, c, disc, lam = oracles.abc(curve, weight, sg)
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


# A closed Fourier ellipse with semi-axes 2.7007931887265513 and 1, far from
# the origin, whose Fourier weight (period L) makes g touch zero from below
# at both vertices on the major axis.
TOUCHING_ELLIPSE = {
    "ambient_dim": 2,
    "components": [{"kind": "fourier", "params": {"coefficients": [[200.0, 2.7007931887265513, 0.0],
                                                                   [0.0, 0.0, 1.0]]}}],
    "weights": [{"kind": "fourier", "params": {"coefficients": [
        0.17936067821354346, 0, 0, 0.08935979745955897, 0, 0, 0, 0.14072656404633993, 0, 0, 0,
        0.007861789928376217, 0]}}],
}


def unit_circle_scene(coefficients):
    """The unit circle with the Fourier weight of `coefficients`."""
    from weighted_tubes import load_scene

    return load_scene({
        "ambient_dim": 2,
        "components": [{"kind": "preset", "preset": "unit_circle", "params": {}}],
        "weights": [{"kind": "fourier", "params": {"coefficients": coefficients}}],
    })


def touching_offsets(curve, weight, samples=4096):
    """(s0, t) per local maximum of g on `samples` feet of a closed curve:
    s0 refined as a root of g', and the offset t that makes g_t(s0) =
    g(s0) + kappa(s0)^2 t / 4 zero."""
    from weighted_tubes.util import _extrema_indices, brent_rows

    sg = curve.grid(samples)
    g = singular.g_slope(curve, weight, sg)[1]
    h = curve.length / samples
    out = []
    for m in _extrema_indices(g, True, "max", 8):
        s0 = brent_rows(lambda s: singular.g_slope(curve, weight, s)[2], sg[m] - h, sg[m] + h, 1e-15)
        kap0, g0 = singular.g_slope(curve, weight, s0)[:2]
        out.append((s0, float(-g0[0] / (kap0[0] ** 2 / 4.0))))
    return out


class TestClosedCurveSeparation:
    def test_touching_ellipse_separates_the_radii_and_breaks_semicontinuity(self):
        # The abstract's distinction on a closed curve: focrad0 comes from the
        # touching zero at s = 0, which only the closed band sees, so
        # dir < tir there. In the offset family mu + t, dir jumps up on the
        # left of t = 0 (not upper semicontinuous) and air jumps down on its
        # right (not lower semicontinuous), by more than 0.1 while t moves
        # by 1e-9.
        from weighted_tubes import load_scene

        scene = load_scene(TOUCHING_ELLIPSE)
        f0, fm, wit = focal_radii(scene.pairs, scene.tolerances)
        assert (f0, fm) == (1.7745207541065005, 2.356413330849016)
        assert wit["focrad0"].s == 0.0
        below, at, above = radii_report(scene.pairs, scene.tolerances, offsets=[-1e-9, 0.0, 1e-9])
        assert [(r.dir, r.tir, r.air) for r in (below, at, above)] == [
            (2.3564133330917785, 2.3564133330917785, 2.3564133330917785),
            (1.7745207541065005, 2.356413330849016, 2.356413330849016),
            (1.774433924723859, 1.774433924723859, 1.774433924723859),
        ]
        assert at.dir < at.tir
        assert below.dir - at.dir > 0.1
        assert at.air - above.air > 0.1

    def test_bundled_scene_separates_all_three_radii(self, scenes):
        # example_separation puts the touching ellipse beside the stadium, so
        # dir < tir < air with closed components only: dir is the ellipse's
        # touching zero (its s = 0), tir the stadium's collapse arc and air
        # the ellipse's open band.
        scene = scenes["example_separation"]
        rep = radii_report(scene.pairs, scene.tolerances)
        assert (rep.focrad0, rep.dir, rep.tir, rep.air) == (
            1.7745207541065005, 1.7745207541065005, 2.0, 2.356413330849016)
        assert rep.dir < rep.tir < rep.air
        assert rep.air == rep.focradminus < rep.dcsd_half
        wit = rep.witnesses
        assert (wit["focrad0"].component, wit["focrad0"].s) == (1, 0.0)
        assert wit["focradminus"].component == 1
        assert [(arc.component, arc.r) for arc in wit["collapse_arcs"]] == [(0, 2.0)]
        # The map is singular at the dir witness along the principal normal,
        # and regular 1% below and above it.
        curve, weight = scene.pairs[1]
        v = curve.second_derivative(0.0)
        flags = [is_singular(curve, weight, 0.0, v, f * rep.dir)[0] for f in (0.99, 1.0, 1.01)]
        assert flags == [False, True, False]
        # The touching zero is not transversal.
        ok, witnesses = singular.transversality_check(scene.pairs, scene.tolerances)
        assert not ok and any(ci == 1 and abs(s) < 1e-8 for ci, s, _ in witnesses)

    def test_bundled_scene_breaks_semicontinuity(self, scenes):
        # The offset family of example_separation (what `sweep --family
        # offset --t-values=-1e-9,0,1e-9` prints): the strict order holds at
        # t = 0 only. dir jumps up on the left (not upper semicontinuous) and
        # air down on the right (not lower semicontinuous), each by more than
        # 0.5 while t moves by 1e-9.
        scene = scenes["example_separation"]
        reps = radii_report(scene.pairs, scene.tolerances, offsets=[-1e-9, 0.0, 1e-9])
        assert [(r.dir, r.tir, r.air, len(r.witnesses["collapse_arcs"])) for r in reps] == [
            (2.3564133330917785, 2.3564133330917785, 2.3564133330917785, 0),
            (1.7745207541065005, 2.0, 2.356413330849016, 1),
            (1.774433924723859, 1.774433924723859, 1.774433924723859, 0),
        ]
        below, at, above = reps
        assert at.dir < at.tir < at.air
        assert below.dir - at.dir > 0.5
        assert at.air - above.air > 0.5

    def test_circle_with_a_touching_zero_keeps_one_focal_radius(self):
        # On a closed curve of constant curvature focrad0 = focradminus for
        # every weight: a touching zero s0 of g from below has mu' monotone
        # through it, so H = mu'^2 + kappa^2 mu^2 / 4 grows on one side
        # toward the open band, whose radius 1 / sqrt(H) is then no larger.
        # The weight is offset so that a non-global local maximum of g is 0.
        scene = unit_circle_scene([1.0, 0.029, -0.02, 0.027, 0.003, -0.035, 0.046, -0.01, -0.02])
        (curve, weight), = scene.pairs
        _, g, _, _, (mu, _, _) = singular.g_slope(curve, weight, curve.grid(4096))
        touching = touching_offsets(curve, weight)
        assert len(touching) == 4
        s0, t = touching[-1]
        assert singular.g_slope(curve, weight, s0, t)[1][0] == 0.0
        assert np.min(mu) + t > 0.1 and np.max(g) + 0.25 * t > 0.1
        (f0, fm, _), = focal_radii(scene.pairs, scene.tolerances, offsets=[t])
        assert f0 == fm == 2.089269733672531

    def test_circle_with_seeded_weights_keeps_one_focal_radius(self):
        # The identity above, bit for bit, on 12 seeded weights of 3 modes
        # with amplitudes up to 0.3, and on every touching offset of theirs
        # that keeps mu > 0 (one: a local maximum of seed 8's g). The
        # touching ellipse above is the contrast, with focrad0 < focradminus.
        cases = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            amp, phase = rng.uniform(0.0, 0.3, 3), rng.uniform(0.0, 2.0 * np.pi, 3)
            modes = np.stack([amp * np.cos(phase), amp * np.sin(phase)], axis=1).ravel()
            scene = unit_circle_scene([1.0] + modes.tolist())
            (curve, weight), = scene.pairs
            mu_min = np.min(weight.mu(curve.grid(4096)))
            offsets = [0.0]
            for s0, t in touching_offsets(curve, weight):
                if mu_min + t > 0.0:
                    assert singular.g_slope(curve, weight, s0, t)[1][0] == 0.0
                    offsets.append(t)
            for f0, fm, _ in focal_radii(scene.pairs, scene.tolerances, offsets=offsets):
                assert f0 == fm, (seed, offsets)
            cases += len(offsets)
        assert cases == 13


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

    @pytest.mark.parametrize("name, half", [
        ("circle_mu1", 0.9999999999999999), ("ellipse_mu1", 1.0), ("example2_stadium", 33.50279546973922),
    ])
    def test_dcsd_half_does_not_depend_on_the_pair_grid(self, scenes, name, half):
        # The seeds, and so pair_count, grow with the grid on continua of
        # pairs; the least ratio does not move by a bit.
        scene = scenes[name]
        for n in (128, 256, 512, 1024):
            tol = dataclasses.replace(scene.tolerances, pair_grid=n)
            assert dcsd_half(find_double_critical_pairs(scene.pairs, tol)) == half, n

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


FOURIER_FOCAL_CURVE = ([0.0, 1.0, 0.0, 0.01, 0.005], [0.0, 0.0, 1.0, 0.004, -0.008])
FOURIER_FOCAL_WEIGHT = [1.0, 0.05, 0.03, 0.02, -0.01]


def fourier_focal_pair(lift):
    """A planar Fourier curve (or its 3D lift) with a Fourier weight of its period."""
    curve = FourierCurve(list(FOURIER_FOCAL_CURVE) + ([lift] if lift else []))
    return curve, FourierWeight(FOURIER_FOCAL_WEIGHT, period=curve.length)


def mp_focal_minimum(coeffs, weight_coeffs, period, theta0):
    """The local minimum of lam^{-1/2} near the raw parameter theta0 and its
    arclength foot, at 40 digits with mpmath. It reads nothing from the
    library: the raw derivatives come from the coefficients, the arclength
    from quadrature of the speed, and the minimum is the root of the
    profile's numerical derivative."""
    mp = pytest.importorskip("mpmath").mp

    def series(c, x, n, w):
        """n-th derivative of c[0] + sum c[2k-1] cos(k w x) + c[2k] sin(k w x)."""
        total = mp.mpf(c[0]) if n == 0 else mp.mpf(0)
        for k in range(1, len(c) // 2 + 1):
            ph = k * w * x + n * mp.pi / 2
            total += (k * w) ** n * (c[2 * k - 1] * mp.cos(ph) + c[2 * k] * mp.sin(ph))
        return total

    with mp.workdps(40):
        def raw(th, n):
            return [series(c, th, n, 1) for c in coeffs]

        def speed(th):
            return mp.sqrt(mp.fsum(x * x for x in raw(th, 1)))

        th0 = mp.mpf(theta0)
        s_th0 = mp.quad(speed, [0, th0], method="gauss-legendre")

        def foot(th):
            return s_th0 + mp.quad(speed, [th0, th], method="gauss-legendre")

        def radius(th):
            p, q = raw(th, 1), raw(th, 2)
            pp, qq, pq = (mp.fsum(x * y for x, y in zip(u, v)) for u, v in ((p, p), (q, q), (p, q)))
            kappa = mp.sqrt(pp * qq - pq * pq) / pp ** 1.5
            w = 2 * mp.pi / mp.mpf(period)
            mu, d1, d2 = (series(weight_coeffs, foot(th), n, w) for n in range(3))
            disc = mu * (d2 + kappa**2 * mu / 4)
            assert disc > 0  # both bands read lam^{-1/2} here
            return 1 / mp.sqrt(d1**2 + (mp.sqrt(disc) + kappa * mu / 2) ** 2)

        th = mp.findroot(lambda x: mp.diff(radius, x), th0)
        return radius(th), foot(th)


# Values computed by the scalar golden-section refinement and the pair
# search before they were batched; the batched code must reproduce them.
# focal_radii per bundled scene: (focrad0, focradminus, focrad0 witness
# (component, s, value), focradminus witness), 17 digits. The witness feet
# of the stadium's focradminus and of example4's focrad0 (whose true foot
# is 0) are roots of the profile slopes.
FOCAL_PINS = {
    "circle_mu1": (1.0, 1.0, (0, 0.0, 1.0), (0, 0.0, 1.0)),
    "ellipse_mu1": (0.5, 0.5, (0, 0.0, 0.5), (0, 0.0, 0.5)),
    "example1a": (2.0, 2.8284271247461903, (0, -1.5707963267948966, 2.0), (0, -1.5707963267948966, 2.8284271247461903)),
    "example1b": (2.0, 3.5420643933754508, (0, -1.2, 2.0), (0, -1.2, 3.5420643933754508)),
    "example2_stadium": (2.0, 4.140313876743611, (0, 0.0, 2.0), (0, 2.1311296085252267, 4.140313876743611)),
    "example3_family": (2.0, 4.140313876743611, (0, 0.0, 2.0), (0, 2.1311296085252267, 4.140313876743611)),
    "example4": (2.0, 4.0, (0, 3.256580054012322e-19, 2.0), (0, -1.0, 4.0)),
    "example6_family": (2.0, 4.0, (0, 3.256580054012322e-19, 2.0), (0, -1.0, 4.0)),
    "example_separation": (1.7745207541065005, 2.356413330849016, (1, 0.0, 1.7745207541065005),
                           (1, 11.336304289922417, 2.356413330849016)),
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
        (None, (0.8917639782626275, 4.385934047528658)),
        ([0.0, 0.0, 0.0, 0.12, 0.05], (0.8368238170713798, 0.2100349389484993)),
    ])
    def test_focal_radii_refined_minimum_on_fourier_curves(self, lift, expected):
        f0, fm, wit = focal_radii([fourier_focal_pair(lift)])
        assert (f0, wit["focrad0"].s) == expected
        assert (fm, wit["focradminus"].s) == expected

    @pytest.mark.parametrize("lift", [None, [0.0, 0.0, 0.0, 0.12, 0.05]])
    def test_focal_radii_against_a_40_digit_minimum(self, lift):
        # The refined focrad0 of the two Fourier scenes above, against the
        # profile's minimum at 40 digits: the radius to 8 ulp, its witness
        # foot to 1e-12 max(1, L).
        mpmath = pytest.importorskip("mpmath")
        curve, weight = fourier_focal_pair(lift)
        f0, _, wit = focal_radii([(curve, weight)])
        s = wit["focrad0"].s
        value, foot = mp_focal_minimum(
            list(FOURIER_FOCAL_CURVE) + ([lift] if lift else []),
            FOURIER_FOCAL_WEIGHT, curve.length, float(curve.t_of_s(np.array([s]))[0]),
        )
        with mpmath.workdps(40):
            ulps = float(abs(f0 - value)) / np.spacing(float(value))
            gap = float(abs(s - foot))
        assert ulps <= 8
        assert gap <= 1e-12 * max(1.0, curve.length)

    @pytest.mark.parametrize("name, expected", [
        ("example2_stadium", STADIUM_PAIRS), ("ellipse_mu1", ELLIPSE_MU1_PAIRS),
    ])
    def test_double_critical_pairs(self, scenes, name, expected):
        scene = scenes[name]
        table = find_double_critical_pairs(scene.pairs, scene.tolerances)
        got = table[:, [COL["s1"], COL["s2"], COL["ratio"]]].tolist()
        assert [tuple(row) for row in got] == list(expected)


class TestFocalTable:
    def test_an_infinite_radius_has_no_witness(self):
        # A straight segment of constant weight: lam = 0 and mu' = 0 at every
        # foot, so every candidate reads +inf.
        from weighted_tubes import load_scene

        scene = load_scene({
            "ambient_dim": 2,
            "components": [{"kind": "chebyshev", "params": {
                "coefficients": [[0.0, 1.0], [0.0, 0.0]], "raw_domain": [-1.0, 1.0]}}],
            "weights": [{"kind": "constant", "params": {"value": 1.0}}],
        })
        nowhere = (np.inf, np.inf, {"focrad0": None, "focradminus": None})
        assert focal_radii(scene.pairs, scene.tolerances) == nowhere
        assert focal_radii(scene.pairs, scene.tolerances, [0.0, 1.0]) == [nowhere] * 2

    @pytest.mark.parametrize("x0", [(0.0, 16.0), (0.0, -16.0)])
    def test_a_tie_across_components_goes_to_the_first(self, x0):
        # Two copies of one Fourier curve and weight, translated to each x0.
        # A translation changes no candidate's bits, so every candidate of
        # the second copy ties with the first's; each copy alone has the
        # same radii and feet.
        from weighted_tubes import load_scene

        scene = load_scene({
            "ambient_dim": 2,
            "components": [{"kind": "fourier", "params": {"coefficients": [
                [x, 2.0, 0.0, 0.1, 0.0], [0.0, 0.0, 1.0, 0.0, 0.05]]}} for x in x0],
            "weights": [{"kind": "fourier", "params": {"coefficients": [1.0, 0.1, 0.05]}}] * 2,
        })
        pinned = (0.462794781921752, 0.0028973992364389003)
        for pairs in (scene.pairs[:1], scene.pairs[1:]):
            f0, fm, wit = focal_radii(pairs, scene.tolerances)
            assert [(w.value, w.s) for w in wit.values()] == [pinned, pinned]
        f0, fm, wit = focal_radii(scene.pairs, scene.tolerances)
        assert (f0, fm) == (pinned[0], pinned[0])
        assert [(w.component, w.s, w.value) for w in wit.values()] == [(0, pinned[1], pinned[0])] * 2


# Offsets t = +-2^-k, k = 20..45, batched in one report per scene.
DYADIC_ROWS = [(name, sign, k) for name in ("example3_family", "example_separation")
               for k in range(20, 46) for sign in (1, -1)]


@functools.cache
def dyadic_reports(name):
    from weighted_tubes import load_scene

    scene = load_scene(name)
    ts = [sign * 2.0**-k for n, sign, k in DYADIC_ROWS if n == name]
    return dict(zip(ts, radii_report(scene.pairs, scene.tolerances, ts)))


def dyadic_row(name, sign, k):
    return pytest.param(name, sign * 2.0**-k, id=f"{name}-{'+-'[sign < 0]}2^-{k}")


class TestDyadicSelfConsistency:
    @pytest.mark.parametrize("name, t", [dyadic_row(*row) for row in DYADIC_ROWS])
    def test_ordering_and_tir_is_the_least_arc_radius(self, name, t):
        r = dyadic_reports(name)[t]
        arcs = r.witnesses["collapse_arcs"]
        assert r.dir <= r.tir <= r.air
        if arcs:
            assert r.tir == min(arc.r for arc in arcs)


@functools.cache
def radius_jumps(name, span=2.0**-36, rounds=4):
    """The jumps of dir, tir and air of the offset family of a bundled scene
    on [-span, span]: per jump (radius, t*, component, foot), with t* the
    middle of a bracket narrowed 16-fold per round from a 32-step grid, and
    the foot the witness of the radius on the bracket's smaller side (the
    least arc's middle for tir with an arc). A jump is a step above 0.01
    between neighbouring offsets."""
    from weighted_tubes import load_scene

    scene = load_scene(name)
    reports = {}

    def run(ts):
        new = list(dict.fromkeys(t for t in map(float, ts) if t not in reports))
        reports.update(zip(new, radii_report(scene.pairs, scene.tolerances, new)))

    def steps(key, ts):
        return [(lo, hi) for lo, hi in zip(ts[:-1], ts[1:])
                if abs(getattr(reports[hi], key) - getattr(reports[lo], key)) > 0.01]

    grid = np.linspace(-span, span, 33).tolist()
    run(grid)
    brackets = [(key, lo, hi) for key in ("dir", "tir", "air") for lo, hi in steps(key, grid)]
    for _ in range(rounds):
        run([t for _, lo, hi in brackets for t in np.linspace(lo, hi, 17)])
        brackets = [(key, *b) for key, lo, hi in brackets for b in steps(key, np.linspace(lo, hi, 17).tolist())]
    jumps = []
    for key, lo, hi in brackets:
        small = min(reports[lo], reports[hi], key=lambda r: getattr(r, key))
        arcs = small.witnesses["collapse_arcs"]
        if key == "tir" and arcs:
            arc = min(arcs, key=lambda a: a.r)
            ci, s, value = arc.component, 0.5 * (arc.s_start + arc.s_end), arc.r
        else:
            w = small.witnesses["focrad0" if key == "dir" else "focradminus"]
            ci, s, value = w.component, w.s, w.value
        assert getattr(small, key) == value
        jumps.append((key, 0.5 * (lo + hi), ci, scene.pairs[ci][0].wrap(s)))
    return scene, jumps


class TestJumpsNearZero:
    @pytest.mark.parametrize("name, pinned", [
        ("example3_family", [("dir", -1.8189e-12), ("tir", -1.8180e-12), ("air", 1.7986e-12)]),
        ("example_separation", [("dir", -1.8189e-12), ("dir", -7.5931e-13), ("tir", -1.8180e-12),
                                ("tir", 7.5892e-13), ("air", 7.5892e-13)]),
    ])
    def test_each_jump_lies_within_the_band_of_its_witness(self, name, pinned):
        # g_t = g + kappa^2 t / 4, so a foot where g = 0 leaves the band of
        # "g = 0" once |t| passes 4 band / kappa^2 there: every jump of a
        # radius near t = 0 lies within twice that of its witness foot, and
        # nowhere else on [-2^-36, 2^-36]. On example_separation dir jumps
        # twice, first where the ellipse's touching zero leaves the closed
        # band, then where the stadium's collapse arc does.
        scene, jumps = radius_jumps(name)
        assert [key for key, *_ in jumps] == [key for key, _ in pinned]
        for (key, t, ci, s), (_, t_pin) in zip(jumps, pinned):
            assert t == pytest.approx(t_pin, rel=1e-4), key
            curve, weight = scene.pairs[ci]
            _, band = oracles.g_band(curve, weight, s, t)
            assert abs(t) <= 2.0 * 4.0 * band / curve.curvature(s) ** 2, key


class TestArcBelowLr:
    def test_an_arc_below_lr_raises_naming_both_stages(self, monkeypatch, scenes, tmp_path, capsys):
        # tir is the least arc radius with no clamp; an arc below lr, which
        # the shared band of "g = 0" rules out, is a numeric failure.
        from weighted_tubes import cli

        scene = scenes["example3_family"]
        lr = radii_report(scene.pairs, scene.tolerances).lr
        arc = singular.CollapseArc(0, 0.0, 1.0, 1.0, 0.5 * lr, 0.0, np.zeros(2), {})
        monkeypatch.setattr(singular, "detect_collapse_arcs",
                            lambda pairs, ur, tol, offsets: [[arc] for _ in offsets])
        with pytest.raises(NumericError, match="collapse arcs and the focal and pair radii"):
            radii_report(scene.pairs, scene.tolerances)
        assert cli.main(["report", "--scene", "example3_family", "--out", str(tmp_path / "out")]) == 3
        assert "collapse arcs and the focal and pair radii" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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
            (float(row[COL["s1"]]), float(row[COL["s2"]]), float(row[COL["ratio"]]),
             row[len(PAIR_COLUMNS):-1].tobytes(), (float(row[COL["angle_1"]]), float(row[COL["angle_2"]])),
             float(row[COL["residual"]]), float(row[COL["t"]]))
            for row in rows
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
        # _verify_rows' table: PAIR_COLUMNS, the midpoint x1, x2, then grp.
        rows = np.zeros((5, len(PAIR_COLUMNS) + 3))
        rows[:, -1] = grp
        rows[:, [COL["s1"], COL["s2"]]] = feet
        rows[:, COL["ratio"]] = ratio
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

    def test_no_offsets(self, scenes):
        # An empty offset list has no radii and no pair rows, as
        # radii_report has no reports.
        pairs = scenes["example4"].pairs
        assert focal_radii(pairs, DEFAULT_TOLERANCES, offsets=[]) == []
        table = find_double_critical_pairs(pairs, DEFAULT_TOLERANCES, offsets=[])
        assert table.shape == (0, len(PAIR_COLUMNS) + 2) and table.dtype == float
        assert radii_report(pairs, DEFAULT_TOLERANCES, offsets=[]) == []

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
        # Every pass builds two stencils, evaluates its six foot arrays into
        # one table and reads sigma from it in at most two calls; the
        # verification takes one more table. Running every row to the last
        # pass took 51 passes on each of these scenes.
        counts = {"_stencil": 0, "_pair_feet": 0, "_sigma_and_grad": 0}
        for fn in counts:
            def counting(*args, _fn=getattr(radii, fn), _name=fn):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(radii, fn, counting)
        scene = scenes[name]
        find_double_critical_pairs(scene.pairs, scene.tolerances)
        passes = counts["_stencil"] // 2
        assert 1 <= passes <= most
        assert counts["_pair_feet"] == passes + 1
        assert passes <= counts["_sigma_and_grad"] <= 2 * passes


def _offsets_21(half):
    """21 offsets in [-half, half]: 0.0 among them, and the fourth repeated last."""
    ts = [*np.linspace(-half, -half / 10, 10), 0.0, *np.linspace(half / 10, half, 9)]
    return ts + [ts[3]]


# The seed grid's scenes: the bundled ones, two_component, scenes like the
# benchmark's generated fourier_3d, chebyshev_arc and circle_arc_mu1 ones,
# and circle arcs far from s = 0, where band cells lie far off the diagonal.
SEED_SCENES = ("circle_mu1", "ellipse_mu1", "example1a", "example1b", "example2_stadium",
               "example3_family", "example4", "example6_family", "two_component", "fourier_3d",
               "chebyshev_arc", "circle_arc_mu1", "arc_at_1e6_closed", "arc_at_1e9", "arc_at_1e15")


def seed_grid_pairs(scenes, name):
    """The (curve, weight) pairs and tolerances of a bundled or an extra scene."""
    from test_expmap import seeded_fourier_3d_scene
    from test_sweeps import CHEBYSHEV_ARC, TWO_COMPONENT
    from weighted_tubes import load_scene

    docs = {"two_component": TWO_COMPONENT, "chebyshev_arc": CHEBYSHEV_ARC}
    if name in scenes or name in docs:
        scene = scenes[name] if name in scenes else load_scene(docs[name])
    elif name == "fourier_3d":
        scene = seeded_fourier_3d_scene()
    else:
        curve = {
            "circle_arc_mu1": CircleArcCurve(0.7, 0.7 + 4.5),
            "arc_at_1e6_closed": CircleArcCurve(1e6, 1e6 + 2.0 * np.pi, closed=True),
            "arc_at_1e9": CircleArcCurve(1e9, 1e9 + 3.0),
            "arc_at_1e15": CircleArcCurve(1e15, 1e15 + 3.0),
        }[name]
        weight = ConstantWeight(1.0) if name == "circle_arc_mu1" else CosineWeight(0.2, 1.0, 0.3, 1.0)
        return [(curve, weight)], DEFAULT_TOLERANCES
    return scene.pairs, scene.tolerances


class TestSeedGrid:
    """The seed grid's offset-free products and diagonal band, built once
    per component pair, its circulant layout on one component, and its
    minima searches (hypot only around candidate cells) give the seeds and
    the table of the per-offset loop bit for bit."""

    @pytest.mark.parametrize("name, offsets, pair_grid", [
        *[pytest.param(name, None, None, id=f"{name}-None") for name in SEED_SCENES],
        pytest.param("example3_family", _offsets_21(0.05), None, id="example3_family-offsets9"),
        pytest.param("example6_family", _offsets_21(0.1), None, id="example6_family-offsets10"),
        *[pytest.param(name, None, n, id=f"{name}-pair_grid{n}")
          for n in (3, 4, 5, 7, 8, 9, 255) for name in SEED_SCENES],
        pytest.param("example6_family", _offsets_21(0.1), 7, id="example6_family-offsets-pair_grid7"),
        pytest.param("chebyshev_arc", [-0.04, 0.0, 0.05], 8, id="chebyshev_arc-offsets-pair_grid8"),
    ])
    def test_seeds_and_table_are_the_per_offset_loop(self, scenes, monkeypatch, name, offsets, pair_grid):
        pairs, tol = seed_grid_pairs(scenes, name)
        if pair_grid is not None:
            tol = dataclasses.replace(tol, pair_grid=pair_grid)
        runs = []
        newton = radii._newton

        def recording(c1, w1, c2, w2, seeds, grp, ts, tol):
            runs.append((seeds.tobytes(), grp.tobytes(), ts.tobytes()))
            return newton(c1, w1, c2, w2, seeds, grp, ts, tol)

        monkeypatch.setattr(radii, "_newton", recording)
        table = find_double_critical_pairs(pairs, tol, offsets)
        got = runs[:]
        runs.clear()
        monkeypatch.setattr(radii, "_search_component_pair", oracles.per_offset_pair_search)
        want = find_double_critical_pairs(pairs, tol, offsets)
        n = len(pairs)
        assert len(got) == n * (n + 1) // 2 and got == runs
        assert table.shape == want.shape and table.tobytes() == want.tobytes()


def bracket_rows(curve, sg, index_lists):
    """Brackets around the grid indices of every row, stacked in row order,
    and the row number of each bracket."""
    idx, row = radii._stack_rows(index_lists)
    return (*radii._bracket(curve, sg, idx), row)


def split_rows(row, n_rows, *arrays):
    """Per row number in range(n_rows), the slices of arrays stacked in row order."""
    cuts = np.searchsorted(row, np.arange(1, n_rows))
    return list(zip(*(np.split(a, cuts) for a in arrays)))


# The focal refinement by golden section, as it ran before its families
# shared one call: four row-wise golden-section calls per component, each
# paying its own order-2 evaluations, and per (profile, t) the first
# smallest of a Python list of candidates, a later component winning only
# when strictly smaller (oracle for the slope-root refinement and for the
# candidate table).
def four_call_focal_radii(pairs, tol=DEFAULT_TOLERANCES, offsets=None):
    pairs = as_pairs(pairs)
    ts = radii._offset_array(offsets)
    best = [[(np.inf, None), (np.inf, None)] for _ in ts]
    for ci, (curve, weight) in enumerate(pairs):
        sg = curve.grid(tol.grid_samples)
        kap = curve.curvature(sg)
        mu, d1, d2 = (np.asarray(x, dtype=float) for x in weight.jet(sg, 2))
        _, b, _, _, disc, lam = radii._focal_terms(kap, mu + ts[:, None], d1, d2)
        r0, rm = oracles.radius_profiles(b, *oracles.g_band(curve, weight, sg, ts[:, None]), lam)

        def radius(s, t, which):
            _, bb, _, _, ll = oracles.abc(curve, weight, s, t)
            return oracles.radius_profiles(bb, *oracles.g_band(curve, weight, s, t), ll)[which]

        lo, hi, rd = bracket_rows(
            curve, sg, [radii._extrema_indices(d, curve.closed, "max", 8) for d in disc]
        )
        s_d, _ = golden_max(
            lambda s, t: oracles.abc(curve, weight, s, t)[3], lo, hi, tol=1e-13, args=(ts[rd],)
        )
        lam_d = oracles.abc(curve, weight, s_d, ts[rd])[4]
        g_d, band_d = oracles.g_band(curve, weight, s_d, ts[rd])
        s_b, b_val = golden_max(
            lambda s: np.abs(weight.d1(s)),
            *radii._bracket(curve, sg, radii._extrema_indices(b, curve.closed, "max", 4)),
            tol=1e-13,
        )
        slope = [(1.0 / float(v), float(x)) for v, x in zip(b_val, s_b) if v > 0]
        disc_rows = split_rows(rd, len(ts), s_d, lam_d, g_d, band_d)
        for which, profile in ((0, r0), (1, rm)):
            i_min = [int(np.argmin(p)) for p in profile]
            lo, hi, rp = bracket_rows(curve, sg, [
                np.r_[i, radii._extrema_indices(p, curve.closed, "min", 8)] for i, p in zip(i_min, profile)
            ])
            s_ref, v_ref = golden_min(
                lambda s, t, which=which: radius(s, t, which),
                lo, hi, tol=1e-12, args=(ts[rp],),
            )
            ref_rows = split_rows(rp, len(ts), s_ref, v_ref)
            for k, ((xs, vs), (xd, ld, gd, bd)) in enumerate(zip(ref_rows, disc_rows)):
                in_band = gd >= -bd if which == 0 else gd > bd
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


DYADIC = [2.0**-k for k in range(4, 21)]
# Twice the largest witness gap to the golden-section oracle over the
# parameter sets below (4.7e-8, example6_family with offsets); golden
# section's own witnesses are off by about 1e-8 (see the 40-digit test).
WITNESS_BAND = 1e-7


def stadium_arc_focal(t):
    """example3_family's focal radii for t > 0, to 40 digits: on the
    collapse arc through s = 0 (kappa = 1, mu = 1, mu' = 0, mu'' = -1/4)
    disc = (1 + t) t / 4, so lam^{-1/2} = 2 / (1 + t + sqrt((1 + t) t))."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        t = decimal.Decimal(t)
        return float(2 / (1 + t + ((1 + t) * t).sqrt()))


class TestMergedFocalRefinement:
    """The slope-root refinement returns the golden-section radii and
    witnesses of the four calls."""

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
        # Radii within 8 ulp, witness feet within WITNESS_BAND. On
        # example3_family, for t > 0, g cancels on the collapse arc and the
        # computed profile carries rounding noise of up to about 500 ulp;
        # golden section ends on its lowest sample, below the true minimum,
        # so there the reference is the closed form at s = 0. The stadium
        # is symmetric under s -> L - s, so for t < 0 its two mirror minima
        # tie to the last bits and either foot may win.
        from test_sweeps import CHEBYSHEV_ARC, TWO_COMPONENT
        from weighted_tubes import load_scene

        doc = {"two_component": TWO_COMPONENT, "chebyshev_arc": CHEBYSHEV_ARC}.get(name)
        scene = load_scene(doc) if doc else scenes[name]
        got = focal_radii(scene.pairs, scene.tolerances, offsets)
        oracle = four_call_focal_radii(scene.pairs, scene.tolerances, offsets)
        if offsets is None:
            got, oracle, offsets = [got], [oracle], [0.0]
        for t, (f0, fm, wit), (o0, om, owit) in zip(offsets, got, oracle):
            for key, value, ref in (("focrad0", f0, o0), ("focradminus", fm, om)):
                w, ow = wit[key], owit[key]
                foot = ow.s
                if name == "example3_family" and t > 0:
                    ref, foot = stadium_arc_focal(t), 0.0
                assert w.component == ow.component
                assert abs(value - ref) <= 8 * np.spacing(ref), (t, key)
                curve = scene.pairs[w.component][0]
                gap = curve.periodic_distance(w.s, foot)
                if name == "example3_family":
                    gap = min(gap, curve.periodic_distance(w.s, curve.length - foot))
                assert gap <= WITNESS_BAND, (t, key)

    @pytest.mark.parametrize("name", ["two_component", "chebyshev_arc", "example2_stadium"])
    def test_abc_of_each_foot_alone_equals_its_batch_value(self, scenes, name):
        # One `_focal_slopes` call evaluates the bracket ends of every row,
        # and one per Brent pass the rows still active; each row follows its
        # own sequence only if no foot's focal terms and slopes depend on
        # the other feet evaluated with it (Fourier, Chebyshev and stadium
        # curves, with their weights, at several families and offsets).
        from test_sweeps import CHEBYSHEV_ARC, TWO_COMPONENT
        from weighted_tubes import load_scene

        doc = {"two_component": TWO_COMPONENT, "chebyshev_arc": CHEBYSHEV_ARC}.get(name)
        scene = load_scene(doc) if doc else scenes[name]
        rng = np.random.default_rng(13)
        for curve, weight in scene.pairs:
            grid = curve.grid(64)
            s = np.concatenate([rng.uniform(curve.s_min, curve.s_max, 200), grid, grid * (1.0 + 1e-13)])
            t = rng.choice([0.0, -0.03, 0.02, 2.0**-20], len(s))
            fam = rng.integers(0, 3, len(s))
            batch = radii._focal_slopes(curve, weight, s, fam, t)
            alone = [radii._focal_slopes(curve, weight, s[k:k + 1], fam[k:k + 1], t[k:k + 1])
                     for k in range(len(s))]
            for i, values in enumerate(batch):
                assert values.tobytes() == np.concatenate([x[i] for x in alone], axis=-1).tobytes()

    # Outside the dense grid, a component's refinement evaluates the curve
    # on the bracket ends, once on each pass of the one Brent call (which
    # takes the end slopes it already has) and on the roots: 6 or 7 jets on
    # these scenes, where golden section took about 52.
    @pytest.mark.parametrize("name", ["3d", "planar", "two_component"])
    def test_focal_stage_curve_jets_per_component(self, monkeypatch, name):
        from test_cli import FOURIER_REPORT_SCENES
        from weighted_tubes import load_scene
        from weighted_tubes.curves import ArclengthCurve

        scene = load_scene(FOURIER_REPORT_SCENES[name][0])
        for curve, weight in scene.pairs:
            singular.dense_grid(curve, weight, scene.tolerances.grid_samples)
        evaluated = []
        jet = ArclengthCurve.jet

        def counting(curve, s, order):
            evaluated.append(curve)
            return jet(curve, s, order)

        monkeypatch.setattr(ArclengthCurve, "jet", counting)
        focal_radii(scene.pairs, scene.tolerances)
        counts = [sum(c is curve for c in evaluated) for curve, _ in scene.pairs]
        assert counts == {"3d": [6], "planar": [6], "two_component": [6, 7]}[name]


class TestOneDenseGrid:
    """Each call builds each component's dense grid once: one
    `curve.grid(grid_samples)` and one order-3 jet of its feet, which the
    focal and collapse stages, a sweep batch and the zero set of g share.
    The focal refinement's order-3 jets, on its bracket ends and roots, are
    of other sizes. Every scene is loaded fresh, so no earlier test has
    built its grids."""

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
        assert sorted(c for c, m in jets if m == n) == ids

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


def _pair_grid_scenes():
    """The bundled scenes, the two-component scene, a Chebyshev arc and
    seeded planar and 3D Fourier loops, by name."""
    from test_sweeps import CHEBYSHEV_ARC, TWO_COMPONENT
    from weighted_tubes.scene import BUNDLED_SCENES

    return {
        **{name: name for name in BUNDLED_SCENES},
        "two_component": TWO_COMPONENT,
        "chebyshev_arc": CHEBYSHEV_ARC,
        **{f"fourier_{kind}-{seed}": _seeded_fourier_scene(kind, seed)
           for kind in ("planar", "3d") for seed in (1, 2)},
    }


def _bits(arrays):
    return [(x.dtype, x.shape, x.flags.c_contiguous, x.tobytes()) for x in arrays]


class TestPairGridFeet:
    """A closed component's pair grid reads its feet and their jets from the
    dense grid's every r-th row when r = grid_samples / pair_grid is a
    power of two, with the bits of evaluating them afresh; other counts
    and open arcs evaluate their own. Every scene is loaded fresh."""

    @staticmethod
    def load(name):
        from weighted_tubes import load_scene

        return load_scene(_pair_grid_scenes()[name])

    @pytest.mark.parametrize("name", sorted(_pair_grid_scenes()))
    def test_dense_rows_are_the_evaluated_feet(self, name):
        # Open components take the own evaluation (see below), so every
        # component is checked.
        scene = self.load(name)
        for n in (128, 256, 1024):
            tol = dataclasses.replace(DEFAULT_TOLERANCES, grid_samples=4096, pair_grid=n)
            for curve, weight in scene.pairs:
                sg = curve.grid(n)
                assert _bits(radii._grid_feet(curve, weight, tol)) == _bits((sg, *radii._feet(curve, weight, sg)))

    @pytest.mark.parametrize("name", ["ellipse_mu1", "example2_stadium", "two_component", "fourier_3d-1"])
    def test_no_grid_evaluation_once_the_dense_grid_is_cached(self, monkeypatch, name):
        from weighted_tubes.curves import ArclengthCurve

        scene = self.load(name)
        tol = scene.tolerances
        for curve, weight in scene.pairs:
            singular.dense_grid(curve, weight, tol.grid_samples)
        grids = {id(c): c.grid(tol.pair_grid) for c, _ in scene.pairs}
        seen = []
        jet = ArclengthCurve.jet

        def spying_jet(curve, s, order):
            sg = grids[id(curve)]
            seen.append(np.shape(s) == sg.shape and np.array_equal(s, sg))
            return jet(curve, s, order)

        monkeypatch.setattr(ArclengthCurve, "jet", spying_jet)
        monkeypatch.setattr(radii, "_feet", lambda *args: pytest.fail("the pair grid evaluated its feet"))
        for curve, weight in scene.pairs:
            radii._grid_feet(curve, weight, tol)
        assert seen == []
        monkeypatch.undo()
        monkeypatch.setattr(ArclengthCurve, "jet", spying_jet)
        assert len(find_double_critical_pairs(scene.pairs, tol))
        assert seen and not any(seen)

    @pytest.mark.parametrize("name, counts", [
        ("ellipse_mu1", (3072, 1024)), ("example2_stadium", (3072, 1024)), ("chebyshev_arc", (4096, 256)),
    ])
    def test_counts_that_do_not_nest_and_open_arcs_evaluate_their_own(self, monkeypatch, name, counts):
        scene = self.load(name)
        tol = dataclasses.replace(DEFAULT_TOLERANCES, grid_samples=counts[0], pair_grid=counts[1])
        (curve, weight), = scene.pairs
        singular.dense_grid(curve, weight, tol.grid_samples)
        calls = []
        feet = radii._feet

        def spying_feet(c, w, s, t=0.0):
            calls.append(np.array_equal(s, c.grid(tol.pair_grid)))
            return feet(c, w, s, t)

        monkeypatch.setattr(radii, "_feet", spying_feet)
        got = radii._grid_feet(curve, weight, tol)
        assert calls == [True]
        sg = curve.grid(tol.pair_grid)
        assert _bits(got) == _bits((sg, *feet(curve, weight, sg)))
        if curve.closed:  # some dense feet are not the pair grid's
            assert not np.array_equal(singular.dense_grid(curve, weight, counts[0])[0][::3], sg)

    @pytest.mark.parametrize("name", sorted(_pair_grid_scenes()))
    @pytest.mark.parametrize("pair_grid", [128, 256])
    def test_pair_table_is_the_own_grid_search(self, monkeypatch, name, pair_grid):
        scene = self.load(name)
        tol = dataclasses.replace(scene.tolerances, pair_grid=pair_grid)
        got = find_double_critical_pairs(scene.pairs, tol)
        monkeypatch.setattr(radii, "_grid_feet", oracles.own_grid_feet)
        want = find_double_critical_pairs(scene.pairs, tol)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestGridProducts:
    @pytest.mark.parametrize("name", ["fourier_planar-1", "fourier_3d-1", "two_component", "fourier_9d"])
    def test_products_are_the_einsum_stack_bit_for_bit(self, monkeypatch, name):
        # Every component pair's grid products, per coordinate, against one
        # einsum over the (n, w, d) stack; nine coordinates take einsum itself.
        if name == "fourier_9d":
            from weighted_tubes import ConstantWeight

            from test_jets import fourier_9d

            pairs = [(fourier_9d(), ConstantWeight(1.0))]
        else:
            pairs = TestPairGridFeet.load(name).pairs
        calls = []
        products = radii._grid_products

        def checked(g1, t1, g2, t2, cols):
            got = products(g1, t1, g2, t2, cols)
            want = oracles.grid_products_by_einsum(g1, t1, g2, t2, cols)
            calls.append(all(x.tobytes() == y.tobytes() for x, y in zip(got, want)))
            return got

        monkeypatch.setattr(radii, "_grid_products", checked)
        find_double_critical_pairs(pairs, DEFAULT_TOLERANCES)
        assert calls == [True] * (len(pairs) * (len(pairs) + 1) // 2)


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
            low = np.empty((n, m))  # reused by the three draws
            for _ in range(3):
                mat = rng.integers(0, 4, (n, m)).astype(float)
                u = rng.random((n, m))
                mat[u < 0.08] = np.inf
                mat[(u >= 0.08) & (u < 0.14)] = -np.inf
                mat[(u >= 0.14) & (u < 0.2)] = np.nan
                got = radii._grid_local_minima(mat, per_rows, per_cols).tolist()
                want = rolled_grid_local_minima(mat, per_rows, per_cols)
                assert got == [a * m + b for a, b in want], (n, m)
                assert radii._grid_local_minima(mat, per_rows, per_cols, low).tolist() == got
                found += len(got)
    assert found > 1000


# Magnitudes of the gradient components in
# test_circulant_hypot_minima_are_the_full_grid_minima: plain, large (1e200),
# tiny (1e-170, 1.6e-162) and subnormal (5e-324).
HYPOT_SCALES = (1.0, 1e200, 1e-170, 1.6e-162, 5e-324)


def hypot_test_grids(rng, n, m, scale):
    """a and b with exact ties (small multiples, swapped pairs), 1-ulp near
    ties, nan, +-inf and, sometimes, an inf band row in a."""
    mults = np.array([0.0, 0.6, 0.8, 0.98, 1.0, 1.4, 2.0])
    a = scale * rng.choice(mults, (n, m))
    b = scale * rng.choice(mults, (n, m))
    swap = rng.random((n, m)) < 0.3
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    u = rng.random((n, m))
    a = np.where(u < 0.25, np.nextafter(a, np.inf), a)
    b = np.where((u >= 0.25) & (u < 0.4), np.nextafter(b, -np.inf), b)
    for mat in (a, b):
        v = rng.random((n, m))
        mat[v < 0.03] = np.nan
        mat[(v >= 0.03) & (v < 0.05)] = np.inf
        mat[(v >= 0.05) & (v < 0.06)] = -np.inf
    # Cells where hypot is inf although b is nan.
    w = rng.random((n, m)) < 0.1
    a[w], b[w] = np.inf, np.nan
    if rng.random() < 0.3:
        a[rng.integers(n)] = np.inf
    return a, b


def circulant_cells(mat):
    """The n x (n // 2 + 4) circulant layout of util._layout of an n x n grid."""
    n = len(mat)
    p, k = np.indices((n, n // 2 + 4))
    return np.ascontiguousarray(mat[p, (p + k - 1) % n])


def mirrored_cells(cells, n):
    """The full grid's linear indices of the circulant cells and of their mirrors."""
    p, k = np.divmod(cells, n // 2 + 4)
    q = (p + k - 1) % n
    return np.unique(np.concatenate([p * n + q, q * n + p])).tolist()


def with_inf_band(mat, closed, rng):
    """mat with +inf on the cells within 0, 1 or 2 of the diagonal (cyclically
    on a closed grid), as the diagonal band sets sigma and a."""
    n = len(mat)
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    d = np.minimum(d, n - d) if closed else d
    return np.where(d <= rng.integers(3), np.inf, mat)


@pytest.mark.parametrize("closed", [False, True])
def test_circulant_minima_are_the_full_grid_minima(closed):
    # Symmetric grids with ties, +-inf and nan off an inf diagonal band: the
    # minima found in the owned columns, mirrored, are the full grid's.
    rng = np.random.default_rng(32)
    found = 0
    for n in range(3, 14):
        w = n // 2 + 4
        low = np.empty((n, w))  # reused by every draw
        for _ in range(20):
            mat = rng.integers(0, 4, (n, n)).astype(float)
            u = rng.random((n, n))
            mat[u < 0.08] = np.inf
            mat[(u >= 0.08) & (u < 0.14)] = -np.inf
            mat[(u >= 0.14) & (u < 0.2)] = np.nan
            mat = with_inf_band(np.triu(mat) + np.triu(mat, 1).T, closed, rng)
            want = radii._grid_local_minima(mat, closed, closed).tolist()
            got = radii._grid_local_minima(circulant_cells(mat), closed, closed, circulant=True)
            assert mirrored_cells(got, n) == want, (n, mat)
            got = radii._grid_local_minima(circulant_cells(mat), closed, closed, low, True)
            assert mirrored_cells(got, n) == want
            found += len(want)
    assert found > 500


@pytest.mark.parametrize("closed", [False, True])
def test_circulant_hypot_minima_are_the_full_grid_minima(closed):
    # b = a^T, as the gradient's components are on one component, so hypot(a, b)
    # is symmetric; a's diagonal band is +inf. As the pair search does, hypot
    # is written into a reused buffer of the circulant layout and searched
    # there: the minima, mirrored, are the full grid's and the rolled oracle's.
    rng = np.random.default_rng(33)
    found = 0
    for n in range(3, 14):
        w = n // 2 + 4
        bufs = (np.empty((n, w)), np.empty((n, w)))  # reused by every draw
        for scale in HYPOT_SCALES:
            for _ in range(4):
                a = with_inf_band(hypot_test_grids(rng, n, n, scale)[0], closed, rng)
                mat = np.hypot(a, a.T)
                want = radii._grid_local_minima(mat, closed, closed).tolist()
                assert want == [p * n + q for p, q in rolled_grid_local_minima(mat, closed, closed)]
                hyp = np.hypot(circulant_cells(a), circulant_cells(a.T), out=bufs[0])
                got = radii._grid_local_minima(hyp, closed, closed, circulant=True)
                assert mirrored_cells(got, n) == want, (n, scale)
                got = radii._grid_local_minima(hyp, closed, closed, bufs[1], True)
                assert mirrored_cells(got, n) == want
                found += len(want)
    assert found > 500


def meshgrid_band_cells(curve, sg, rows=256):
    """The linear indices of the band of oracles.per_offset_pair_search,
    its meshgrid expression evaluated `rows` grid rows at a time (every
    cell's value is its own)."""
    width = radii._DELTA_MIN_FACTOR * curve.length
    cells = []
    for k in range(0, len(sg), rows):
        S, T = np.meshgrid(sg[k:k + rows], sg, indexing="ij")
        cells.append(k * len(sg) + np.flatnonzero(curve.periodic_distance(S, T) < width))
    return np.concatenate(cells)


@pytest.mark.parametrize("n", [3, 4, 5, 256, 4096])
def test_diagonal_band_is_the_meshgrid_band(scenes, n):
    # Closed and open curves, some starting far from s = 0; at n = 4096 the
    # band is several diagonals wide.
    from test_sweeps import CHEBYSHEV_ARC
    from weighted_tubes import load_scene

    curves = [
        scenes["ellipse_mu1"].pairs[0][0],
        scenes["example2_stadium"].pairs[0][0],
        CircleArcCurve(1.0, 1.0 + 2.0 * np.pi),
        CircleArcCurve(1e6, 1e6 + 2.0 * np.pi, closed=True),
        load_scene(CHEBYSHEV_ARC).pairs[0][0],
        CircleArcCurve(-1.0, 2.5),
        CircleArcCurve(1e9, 1e9 + 3.0),
        CircleArcCurve(1e15, 1e15 + 3.0),  # feet rounded to 1/8: equal feet far off the diagonal
    ]
    # The layout band is the meshgrid band mapped into the circulant layout
    # of the pair search: full-grid cell (a, b) lies in column b - a + 1
    # (mod n), and once more n columns on where the layout is that wide.
    w = n // 2 + 4
    widths = []
    for curve in curves:
        sg = curve.grid(n)
        r, q = np.divmod(meshgrid_band_cells(curve, sg), n)
        k = np.concatenate([(q - r + 1) % n, (q - r + 1) % n + n])
        band = radii._diagonal_band(curve, sg, w)
        assert band.tolist() == np.sort((np.tile(r, 2) * w + k)[k < w]).tolist(), (curve, n)
        a, k = np.divmod(band, w)
        d = np.abs(a - (a + k - 1) % n)
        widths.append(int(np.max(np.minimum(d, n - d) if curve.closed else d)))
    if n == 4096:
        assert min(widths) >= 4


# Two open arcs: example4 (A), and the unit-circle arc on [1.2, 2.0] with
# mu = (2/3) cos(s / 2 - 0.8) (B). The inward fibres of A at s = 0 and of B
# at s = 1.6 both reach the origin, at heights 1 and 1.5.
TWO_ARCS = {
    "ambient_dim": 2,
    "components": [
        {"kind": "preset", "preset": "circle_arc", "params": {"s_start": -1.0, "s_end": 1.0}},
        {"kind": "preset", "preset": "circle_arc", "params": {"s_start": 1.2, "s_end": 2.0}},
    ],
    "weights": [
        {"kind": "polynomial", "params": {"coefficients": [1.0, 0.0, -0.125]}},
        {"kind": "cosine", "params": {"amplitude": 2.0 / 3.0, "frequency": 0.5, "phase": -0.8}},
    ],
}


class TestTwoArcs:
    def test_two_interior_fibres_meet_at_the_origin(self):
        from weighted_tubes import exp_mu, load_scene

        (a, mu_a), (b, mu_b) = load_scene(TWO_ARCS).pairs
        for curve, weight, s, height in ((a, mu_a, 0.0, 1.0), (b, mu_b, 1.6, 1.5)):
            inward = -curve.point(np.array([s]))[0]
            assert np.max(np.abs(exp_mu(curve, weight, s, inward, height))) <= 2e-16

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the radii ignore the arc ends, so this "
                                           "scene reports dir 2, tir 3 and air 4")
    def test_air_is_at_most_the_height_of_a_second_preimage(self):
        from weighted_tubes import load_scene

        scene = load_scene(TWO_ARCS)
        assert radii_report(scene.pairs, scene.tolerances).air <= 1.5


# Scenes of the invariance tests: seeded planar Fourier loops, and the bundled
# scenes whose weights scale linearly through their parameters.
INVARIANCE_FOURIER = tuple(f"fourier-{seed}" for seed in (1, 2, 3, 4))
INVARIANCE_3D = tuple(f"fourier_3d-{seed}" for seed in (1, 2, 3, 4))
LINEAR_WEIGHTS = ("circle_mu1", "ellipse_mu1", "example1a", "example1b", "example4")
RADII = ("focrad0", "focradminus", "dcsd_half", "lr", "ur", "dir", "tir", "air")
EPS = np.finfo(float).eps
# A radius recomputed from rounded inputs: the scaled or moved coefficients
# round once each (EPS / 2 of their size), and the radius, the value of a
# closed form at feet where it is stationary, adds a few roundings in each
# of the two runs. 4 EPS covers both; a shift adds its size to every
# point's coordinates, so a moved scene's band is 4 EPS (1 + |shift|).
INVARIANCE_BAND = 4 * EPS


class TestInvariances:
    @staticmethod
    def doc(name):
        from test_scene import bundled_doc

        if name.startswith("fourier"):
            return _seeded_fourier_scene("3d" if name.startswith("fourier_3d") else "planar", int(name.split("-")[1]))
        return bundled_doc(name)

    @staticmethod
    def report(doc):
        from weighted_tubes import load_scene

        scene = load_scene(doc)
        return radii_report(scene.pairs, scene.tolerances)

    @classmethod
    def radii(cls, doc):
        rep = cls.report(doc)
        return np.array([getattr(rep, k) for k in RADII])

    @staticmethod
    def rotated(row, angle):
        """The Fourier row [a0, a1, b1, ...] of x(t + angle / w) for the row
        of x(t): mode k turns by k angle."""
        row = np.array(row, dtype=float)
        k = np.arange(1, len(row) // 2 + 1)
        a, b = row[1::2], row[2::2]
        cos, sin = np.cos(k * angle), np.sin(k * angle)
        row[1::2], row[2::2] = a * cos + b * sin, b * cos - a * sin
        return row.tolist()

    @staticmethod
    def reflected(row):
        """The Fourier row of x(-t) for the row of x(t): every b_k changes sign."""
        return [-x if i > 0 and i % 2 == 0 else x for i, x in enumerate(row)]

    def assert_same_report(self, doc, name):
        got, want = self.report(doc), self.report(self.doc(name))
        np.testing.assert_allclose([getattr(got, k) for k in RADII], [getattr(want, k) for k in RADII],
                                   rtol=INVARIANCE_BAND, atol=0)
        assert got.witnesses["pair_count"] == want.witnesses["pair_count"] == 4

    @staticmethod
    def scale_weights(doc, c):
        for w in doc["weights"]:
            params = w["params"]
            if w["kind"] == "constant":
                params["value"] *= c
            elif w["kind"] == "cosine":
                params["amplitude"] *= c
                params["offset"] = c * params.get("offset", 0.0)
            else:
                params["coefficients"] = [c * x for x in params["coefficients"]]
        return doc

    @pytest.mark.parametrize("name", INVARIANCE_FOURIER + LINEAR_WEIGHTS)
    def test_weight_scale_divides_every_radius(self, name):
        # mu -> c mu divides every radius by c. A power of two scales the
        # closed forms' values exactly, but pair Newton stops on an absolute
        # residual, |grad sigma| / max(1, sigma) <= 0.1 _TOL_DC, which scales
        # by 1/c^2: it can stop after another number of passes, and dcsd_half
        # then moves by a few ulps (3D seed 1: 5 passes at c = 1 and 4 at
        # c = 2, 2 ulps; also planar seeds 5 and 6). On these scenes every
        # pass count agrees, so c = 2 and c = 0.5 agree bit for bit.
        base = self.radii(self.doc(name))
        for c in (2.0, 0.5, 3.0):
            scaled = self.radii(self.scale_weights(self.doc(name), c))
            if c != 3.0:
                assert (scaled * c).tobytes() == base.tobytes(), c
                continue
            finite = np.isfinite(base)
            assert np.array_equal(np.isfinite(scaled), finite)
            np.testing.assert_allclose(scaled[finite] * c, base[finite], rtol=INVARIANCE_BAND, atol=0)

    @pytest.mark.parametrize("name", INVARIANCE_FOURIER)
    def test_curve_and_weight_scale_keep_every_radius(self, name):
        # (gamma, mu) -> (c gamma, c mu): heights are ratios |p - gamma| / mu.
        doc = self.scale_weights(self.doc(name), 3.0)
        for comp in doc["components"]:
            comp["params"]["coefficients"] = [[3.0 * x for x in row] for row in comp["params"]["coefficients"]]
        np.testing.assert_allclose(self.radii(doc), self.radii(self.doc(name)), rtol=INVARIANCE_BAND, atol=0)

    @pytest.mark.parametrize("name", INVARIANCE_FOURIER)
    def test_rigid_motion_keeps_every_radius(self, name):
        # A rotation by 0.7 and a shift by (5, -3), applied to the
        # coefficients of every coordinate row.
        doc = self.doc(name)
        shift = np.array([5.0, -3.0])
        rot = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
        for comp in doc["components"]:
            rows = rot @ np.array(comp["params"]["coefficients"])
            rows[:, 0] += shift
            comp["params"]["coefficients"] = rows.tolist()
        band = INVARIANCE_BAND * (1.0 + np.linalg.norm(shift))
        np.testing.assert_allclose(self.radii(doc), self.radii(self.doc(name)), rtol=band, atol=0)

    @pytest.mark.parametrize("name", INVARIANCE_FOURIER)
    def test_reversed_orientation_keeps_every_radius(self, name):
        # gamma(-t) with mu(-s). Measured: at most 2 EPS.
        doc = self.doc(name)
        for comp, w in zip(doc["components"], doc["weights"]):
            comp["params"]["coefficients"] = [self.reflected(row) for row in comp["params"]["coefficients"]]
            w["params"]["coefficients"] = self.reflected(w["params"]["coefficients"])
        self.assert_same_report(doc, name)

    @pytest.mark.parametrize("name", INVARIANCE_FOURIER)
    def test_shifted_start_keeps_every_radius(self, name):
        # gamma(t + 0.37) with mu(s + s(0.37)), s(t) the arclength from t = 0.
        # Measured: at most 2.5 EPS.
        from weighted_tubes import load_scene

        doc, delta = self.doc(name), 0.37
        for (curve, _), comp, w in zip(load_scene(doc).pairs, doc["components"], doc["weights"]):
            sigma = float(curve._s_of_t(np.array([delta]))[0][0])
            comp["params"]["coefficients"] = [self.rotated(row, delta) for row in comp["params"]["coefficients"]]
            w["params"]["coefficients"] = self.rotated(w["params"]["coefficients"],
                                                       2.0 * np.pi / curve.length * sigma)
        self.assert_same_report(doc, name)

    @pytest.mark.parametrize("name", INVARIANCE_FOURIER)
    def test_unit_weight_gives_classical_thickness(self, name):
        # With mu = 1 the radii are classical thickness (Litherland, Simon,
        # Durumeric and Rawdon 1999; Gonzalez and Maddocks 1999): focrad0 =
        # focradminus = 1 / max kappa, and dir = air = min(focrad0, dcsd_half).
        # 2^18 samples miss max kappa by at most max|kappa''| h^2 / 8, as
        # kappa' = 0 at the maximum and a sample lies within h / 2 of it;
        # max|kappa''| is read from differences of the exact kappa'.
        from weighted_tubes import load_scene
        from weighted_tubes.curves import _kappa_rate

        doc = self.doc(name)
        doc["weights"] = [{"kind": "constant", "params": {"value": 1.0}} for _ in doc["weights"]]
        rep = self.report(doc)
        assert rep.focrad0 == rep.focradminus
        assert rep.dir == rep.air == min(rep.focrad0, rep.dcsd_half)
        (curve, _), = load_scene(doc).pairs
        n = 2**18
        h = curve.length / n
        jet = curve.jet(curve.grid(n), 3)
        kappa_max = np.max(np.linalg.norm(jet[2], axis=-1))
        rate = _kappa_rate(jet, curve.kappa_tol)
        kappa2_max = np.max(np.abs(np.diff(rate, append=rate[:1]))) / h
        gap = 1.0 / kappa_max - rep.focrad0
        assert 0.0 <= gap <= rep.focrad0 * kappa2_max * h**2 / 8.0 / kappa_max

    # The seeded 3D loops: (c gamma, c mu), rigid motions and reversed
    # orientation keep every radius within the band and the pair count.
    # Measured on seeds 1-4: scale 2.6 EPS, rigid motion 3.9 EPS and reversal
    # 3.9 EPS at most (seed 4), against bands of 4 EPS and 4 EPS (1 + |shift|).

    def assert_same_radii_and_pairs(self, doc, name, band=INVARIANCE_BAND):
        got, want = self.report(doc), self.report(self.doc(name))
        np.testing.assert_allclose([getattr(got, k) for k in RADII], [getattr(want, k) for k in RADII],
                                   rtol=band, atol=0)
        assert got.witnesses["pair_count"] == want.witnesses["pair_count"]

    @pytest.mark.parametrize("name", INVARIANCE_3D)
    def test_3d_weight_scale_divides_every_radius(self, name):
        # The focal radii scale bit for bit at c = 2 and 0.5; dcsd_half may
        # move by a few ulps, as pair Newton's stop is absolute (seeds 1, 3
        # and 4 at c = 2).
        base = self.radii(self.doc(name))
        for c in (2.0, 0.5):
            scaled = self.radii(self.scale_weights(self.doc(name), c))
            assert (scaled[:2] * c).tobytes() == base[:2].tobytes(), c
            np.testing.assert_allclose(scaled * c, base, rtol=INVARIANCE_BAND, atol=0)

    @pytest.mark.parametrize("name", INVARIANCE_3D)
    def test_3d_curve_and_weight_scale_keep_every_radius(self, name):
        doc = self.scale_weights(self.doc(name), 3.0)
        for comp in doc["components"]:
            comp["params"]["coefficients"] = [[3.0 * x for x in row] for row in comp["params"]["coefficients"]]
        self.assert_same_radii_and_pairs(doc, name)

    @pytest.mark.parametrize("name", INVARIANCE_3D)
    def test_3d_rigid_motion_keeps_every_radius(self, name):
        # A rotation by 0.7 about the axis (1, 2, 3) (Rodrigues) and a shift
        # by (5, -3, 2), applied to the coefficients of every coordinate row.
        doc = self.doc(name)
        axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
        cross = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
        rot = np.eye(3) + np.sin(0.7) * cross + (1.0 - np.cos(0.7)) * cross @ cross
        shift = np.array([5.0, -3.0, 2.0])
        for comp in doc["components"]:
            rows = rot @ np.array(comp["params"]["coefficients"])
            rows[:, 0] += shift
            comp["params"]["coefficients"] = rows.tolist()
        self.assert_same_radii_and_pairs(doc, name, INVARIANCE_BAND * (1.0 + np.linalg.norm(shift)))

    @pytest.mark.parametrize("name", INVARIANCE_3D)
    def test_3d_reversed_orientation_keeps_every_radius(self, name):
        doc = self.doc(name)
        for comp, w in zip(doc["components"], doc["weights"]):
            comp["params"]["coefficients"] = [self.reflected(row) for row in comp["params"]["coefficients"]]
            w["params"]["coefficients"] = self.reflected(w["params"]["coefficients"])
        self.assert_same_radii_and_pairs(doc, name)
