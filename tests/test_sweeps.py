import dataclasses
import re

import numpy as np
import pytest

from weighted_tubes import (
    CircleArcCurve,
    ConstantWeight,
    CosineWeight,
    NonpositiveWeightError,
    NumericError,
    OffsetWeight,
    OutOfWError,
    PolynomialWeight,
    SceneError,
    exp_mu,
    family_weights,
    fiber_geometry,
    fiber_trace,
    load_scene,
    normal_frames,
    radii_report,
    radii_sweep,
    tube_boundary,
)
from weighted_tubes import sweeps
from weighted_tubes.expmap import g_potential, w_bound

from oracles import fiber_contains, g_potential_two_point, random_unit_normals


@pytest.fixture
def example6():
    return [(CircleArcCurve(-1.0, 1.0), PolynomialWeight([1.0, 0.0, -0.125]))]


class TestFamilies:
    def test_offset_family(self, example6):
        shifted = family_weights(example6, 0.05)
        assert shifted[0][1].mu(0.0) == pytest.approx(1.05)


class TestRadiiSweep:
    def test_example6_rows(self, example6):
        rows = radii_sweep(example6, [-0.05, 0.0, 0.05])
        by_t = {round(r.t, 3): r for r in rows}
        assert by_t[-0.05].tir == pytest.approx(4.0, abs=1e-3)
        assert by_t[0.0].tir == pytest.approx(4.0, abs=1e-3)
        assert by_t[0.05].tir < 2.0
        for r in rows:
            assert r.status == "ok"
            assert r.dir <= r.tir <= r.air + 1e-12

    def test_constant_family_rows(self):
        # On the unit circle the weight 1 + t scales every radius to 1 / (1 + t).
        pairs = [(CircleArcCurve(0, 2 * np.pi, closed=True), ConstantWeight(1.0))]
        ts = [0.0, 0.3, 0.9]
        rows = radii_sweep(pairs, ts)
        assert [r.t for r in rows] == ts
        for t, r in zip(ts, rows):
            assert r.status == "ok"
            for radius in (r.dir, r.tir, r.air):
                assert radius == pytest.approx(1.0 / (1.0 + t), abs=1e-8)

    def test_failed_rows_continue(self, example6):
        # t = -2 makes the weight non-positive: the row fails, the sweep
        # proceeds.
        rows = radii_sweep(example6, [-2.0, 0.0])
        assert rows[0].status.startswith("failed")
        assert np.isnan(rows[0].dir)
        assert rows[1].status == "ok"

    def test_determinism(self, example6):
        a = radii_sweep(example6, [-0.02, 0.02])
        b = radii_sweep(example6, [-0.02, 0.02])
        assert a == b


def _value(obj):
    """A report as nested tuples, floats by repr, so == compares every bit."""
    if dataclasses.is_dataclass(obj):
        return tuple((f.name, _value(getattr(obj, f.name))) for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return tuple((k, _value(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return tuple(_value(v) for v in obj)
    if isinstance(obj, np.ndarray):
        return tuple(repr(float(v)) for v in obj.ravel())
    if isinstance(obj, (float, np.floating)):
        return repr(float(obj))
    return obj


TWO_COMPONENT = {
    "ambient_dim": 2,
    "components": [
        {"kind": "fourier", "params": {"coefficients": [
            [-1.0, 0.6, 0.0, 0.004, -0.003, 0.001, 0.002],
            [0.02, 0.0, 0.6, -0.002, 0.005, 0.002, -0.001]]}},
        {"kind": "fourier", "params": {"coefficients": [
            [1.0, 0.6, 0.0, -0.003, 0.004],
            [-0.03, 0.0, 0.6, 0.005, 0.002]]}},
    ],
    "weights": [
        {"kind": "fourier", "params": {"coefficients": [1.0, 0.06, -0.05, 0.02, 0.03]}},
        {"kind": "constant", "params": {"value": 0.8}},
    ],
}
CHEBYSHEV_ARC = {
    "ambient_dim": 2,
    "components": [{"kind": "chebyshev", "params": {
        "coefficients": [[0.1, 1.2, -0.1, 0.05], [-0.2, 0.1, 0.6, -0.1]],
        "raw_domain": [-1.0, 1.0]}}],
    "weights": [{"kind": "chebyshev", "params": {"coefficients": [1.0, 0.06, -0.03]}}],
}


class TestBatchedSweep:
    """Each row of a batched sweep equals the report computed for its t alone."""

    @pytest.mark.parametrize("name, ts", [
        ("example6_family", [k / 100 for k in range(-10, 11)]),
        ("example3_family", [-0.02, 0.0, 0.02]),
        ("two_component", [-0.05, 0.0, 0.03]),
        ("chebyshev_arc", [-0.04, 0.0, 0.05]),
        # A repeated value and both zeros: the witness row carries no t.
        ("two_component", [0.02, -0.0, 0.02, 0.0]),
    ])
    def test_rows_equal_reports_alone(self, name, ts):
        doc = {"two_component": TWO_COMPONENT, "chebyshev_arc": CHEBYSHEV_ARC}.get(name, name)
        scene = load_scene(doc)
        batch = radii_report(scene.pairs, scene.tolerances, ts)
        assert len(batch) == len(ts)
        for t, rep in zip(ts, batch):
            shifted = [(c, OffsetWeight(w, t)) for c, w in scene.pairs]
            alone = radii_report(shifted, scene.tolerances)
            assert _value(rep) == _value(alone), t
        rows = radii_sweep(scene.pairs, ts, scene.tolerances)
        assert [(r.t, r.dir, r.tir, r.air, r.collapse_count, r.status) for r in rows] == [
            (t, rep.dir, rep.tir, rep.air, len(rep.witnesses["collapse_arcs"]), "ok")
            for t, rep in zip(ts, batch)
        ]

    def test_plain_report_is_the_zero_offset_row(self, scenes):
        scene = scenes["example2_stadium"]
        (batched,) = radii_report(scene.pairs, scene.tolerances, [0.0])
        assert _value(radii_report(scene.pairs, scene.tolerances)) == _value(batched)
        assert batched.witnesses["pair_count"] == 37

    def test_failing_rows_keep_status_and_position(self, example6):
        ts = [-0.05, -2.0, 0.0, 0.05]
        rows = radii_sweep(example6, ts)
        curve, weight = example6[0]
        with pytest.raises(NonpositiveWeightError) as exc:
            OffsetWeight(weight, -2.0).validate_on(curve)
        assert [r.t for r in rows] == ts
        assert rows[1].status == f"failed: {exc.value}"
        assert np.isnan(rows[1].dir) and rows[1].collapse_count == 0
        for k in (0, 2, 3):
            rep = radii_report([(curve, OffsetWeight(weight, ts[k]))])
            assert rows[k].status == "ok"
            assert (rows[k].dir, rows[k].tir, rows[k].air) == (rep.dir, rep.tir, rep.air)

    def test_failed_batch_reruns_rows_alone(self, example6, monkeypatch):
        # A numeric failure in the batch must not fail every row: the rows
        # are recomputed one at a time and only the failing t is marked.
        real = sweeps.radii_report
        calls = []

        def flaky(pairs, tol, offsets):
            calls.append(list(offsets))
            if len(offsets) > 1 or offsets == [0.02]:
                raise NumericError("boom")
            return real(pairs, tol, offsets)

        monkeypatch.setattr(sweeps, "radii_report", flaky)
        rows = radii_sweep(example6, [-0.02, 0.02, 0.04])
        assert calls == [[-0.02, 0.02, 0.04], [-0.02], [0.02], [0.04]]
        assert [r.status for r in rows] == ["ok", "failed: boom", "ok"]
        monkeypatch.setattr(sweeps, "radii_report", real)
        assert rows[0] == radii_sweep(example6, [-0.02])[0]
        assert rows[2] == radii_sweep(example6, [0.04])[0]

    def test_repeated_values_share_one_report(self, example6):
        a, b, c = radii_report(example6, offsets=[0.01, -0.01, 0.01])
        assert a is c and _value(a) != _value(b)


class TestSweepValidation:
    """A sweep validates each t from one sample jet of each base weight,
    shifted by t, with the rows and messages of `family_weights` per t."""

    @staticmethod
    def pairs(name):
        if name == "tiny_weight":  # mu = 2^-600 + s on [0, 1]: mu + 0 underflows when squared
            return [(CircleArcCurve(0.0, 1.0), PolynomialWeight([2.0**-600, 1.0]))], sweeps.DEFAULT_TOLERANCES
        scene = load_scene(name)
        return scene.pairs, scene.tolerances

    @pytest.mark.parametrize("name, ts", [
        ("example6_family", [-0.05, -2.0, 0.0, -0.875, 0.05]),
        ("example3_family", [-3.0, 0.02, -0.02, -1.0]),
        ("tiny_weight", [0.0, 0.5, -0.25, 2.0**-600]),
    ])
    def test_rows_are_the_per_t_validation(self, monkeypatch, name, ts):
        from weighted_tubes import weights

        pairs, tol = self.pairs(name)
        sampled = []
        sample_jet = weights.WeightFunction._sample_jet

        def spy(weight, curve):
            sampled.append(weight)
            return sample_jet(weight, curve)

        monkeypatch.setattr(weights.WeightFunction, "_sample_jet", spy)
        rows = radii_sweep(pairs, ts, tol)
        assert sampled == [w for _, w in pairs]
        monkeypatch.undo()
        want, passing = {}, []
        for t in ts:
            try:
                family_weights(pairs, t)
            except NonpositiveWeightError as exc:
                want[t] = f"failed: {exc}"
            else:
                passing.append(t)
        assert want and passing
        for t, rep in zip(passing, radii_report(pairs, tol, passing)):
            want[t] = (rep.dir, rep.tir, rep.air, len(rep.witnesses["collapse_arcs"]), "ok")
        for row in rows:
            got = row.status if row.status != "ok" else (row.dir, row.tir, row.air, row.collapse_count, "ok")
            assert got == want[row.t], row.t
        messages = " ".join(x for x in want.values() if isinstance(x, str))
        assert ("below 2^-511" in messages) == (name == "tiny_weight")


DYADIC = [2.0**-k for k in range(4, 21)]
EPS = np.finfo(float).eps
AIR_AT_ZERO = {"example3_family": 4.140313876743611, "example6_family": 4.0}


class TestSemicontinuityJump:
    def test_dense_stadium_family_sweep(self, scenes):
        # Example 3: the radius jumps down at t = 0 from the left. Below 0
        # every row stays above 4.1; at 0 the collapse arc over the circle
        # section sets dir = tir = 2; above 0 the rows start below 2 and
        # fall further as t grows.
        scene = scenes["example3_family"]
        ts = [k / 400 for k in range(-20, 21)]
        rows = radii_sweep(scene.pairs, ts, scene.tolerances)
        assert all(r.status == "ok" for r in rows)
        below = [r for r in rows if r.t < 0]
        above = [r for r in rows if r.t > 0]
        (zero,) = [r for r in rows if r.t == 0]
        assert len(below) == len(above) == 20
        assert all(r.dir > 4.1 for r in below)
        assert zero.dir == zero.tir == 2.0 and zero.collapse_count == 1
        assert all(r.dir < 1.93 for r in above)
        assert all(r.dir < 1.8 for r in above if r.t > 0.01)
        dirs = [r.dir for r in above]
        assert dirs == sorted(dirs, reverse=True)


    @pytest.mark.parametrize("name", ["example3_family", "example6_family"])
    def test_dyadic_one_sided_limits(self, scenes, name):
        # t = +-2^-k, k = 4..20, and t = 0 in one batch. dir(0) = 2, while
        # the limit from the left is air(0), so dir is not upper
        # semicontinuous at 0; from the right it is continuous.
        scene = scenes[name]
        ts = [-t for t in DYADIC] + [0.0] + DYADIC
        rows = {r.t: r for r in radii_sweep(scene.pairs, ts, scene.tolerances)}
        assert all(r.status == "ok" for r in rows.values())
        air0 = AIR_AT_ZERO[name]
        assert rows[0.0].dir == 2.0 and rows[0.0].air == air0
        for t in DYADIC:
            # From the right, on both families dir is the focal radius
            # 1 / (sqrt(disc) + a / 2) at the top of mu on the unit-curvature
            # arc, with a = 1 + t and disc = (1 + t) t / 4:
            #   dir = 2 / (1 + t + sqrt(t (1 + t))) = 2 - 2 sqrt(t) + t^1.5 - 3/4 t^2.5 + ...
            # The numeric floor: disc is (1 + t) g, and g = mu'' + kappa^2 mu / 4
            # = t / 4 is a cancellation of terms of size 1/4, so disc carries a
            # relative error of a few eps / t and dir an absolute one of a
            # few eps / sqrt(t) (at most 0.6 eps / sqrt(t) measured). The band
            # is 4 eps / sqrt(t).
            floor = 4 * EPS / np.sqrt(t)
            right = rows[t].dir
            assert abs(right - 2.0 / (1.0 + t + np.sqrt(t * (1.0 + t)))) <= floor, t
            # So the rate (dir - (2 - 2 sqrt t)) / t^1.5 = 1 - 3/4 t + ... lies
            # in [1 - t, 1] up to floor / t^1.5.
            rate = (right - (2.0 - 2.0 * np.sqrt(t))) / t**1.5
            assert 1.0 - t - floor / t**1.5 <= rate <= 1.0 + floor / t**1.5, t
        left = [rows[-t].dir for t in DYADIC]
        if name == "example6_family":
            # From the left, dir = 1 / |mu'| at the arc's ends, mu' = -s / 4:
            # computed without rounding.
            assert left == [4.0] * len(DYADIC)
            return
        # From the left, dir(-t) = F(-t) with F smooth and F(0) = air(0): the
        # focal radius near s = 2.13 that sets air at t = 0. The rates
        # (dir - air(0)) / t run 1.368 at k = 4 down to 1.336, so
        # F(-t) = F(0) + 1.336 t + c t^2 with c = (1.368 - 1.336) / 2^-4 = 0.51,
        # and the rates fall strictly, by c t / 2 per halving (5e-7 at
        # k = 20, far above their floor 16 eps / t = 4e-9: dir is about 4
        # and comes from terms without cancellation, a few ulps each).
        rates = [(d - air0) / t for d, t in zip(left, DYADIC)]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert 1.336 < rates[-1] and rates[0] < 1.369
        # The Richardson step 2 F(-t/2) - F(-t) = F(0) - c t^2 / 2 + ... removes
        # the linear term: the left limit is air(0), within t^2 / 2 (c < 1)
        # plus three values' floor, 3 x 16 eps.
        for t, far, near in zip(DYADIC, left, left[1:]):
            assert abs(2.0 * near - far - air0) <= t * t / 2 + 48 * EPS, t


class TestFiberTrace:
    def test_straight_fiber_at_slope_zero(self):
        curve, weight = CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight()
        rr, pts = fiber_trace(curve, weight, 0.0, [-1.0, 0.0], 3.0, samples=21)
        assert np.max(np.abs(pts[:, 1])) <= 1e-14  # the x-axis
        assert np.allclose(pts[:, 0], 1.0 - rr, atol=1e-12)

    def test_points_lie_on_fiber_shape(self):
        curve, weight = CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight()
        s = np.pi / 3
        fib = fiber_geometry(curve, weight, s)
        rr, pts = fiber_trace(curve, weight, s, -curve.point(s), 2.5, samples=33)
        assert fiber_contains(fib, pts, tol=1e-10)

    def test_distance_law_along_trace(self):
        curve, weight = CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight()
        s = 0.8
        mu = float(weight.mu(s))
        rr, pts = fiber_trace(curve, weight, s, -curve.point(s), 2.0, samples=41)
        dists = np.linalg.norm(pts - curve.point(s), axis=1)
        assert np.max(np.abs(dists - np.abs(rr) * mu)) <= 1e-10

    def test_out_of_range_rejected(self):
        curve, weight = CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight()
        with pytest.raises(OutOfWError, match="R=100.0 exceeds admissible bound .* at s=1.0"):
            fiber_trace(curve, weight, 1.0, -curve.point(1.0), 100.0)

    @pytest.mark.parametrize("r_max", [1e308, [1.0, 9e307], np.inf, np.nan])
    def test_a_grid_wider_than_the_float_range_is_a_numeric_failure(self, r_max):
        # 2 r_max overflows (or is not finite): no overflow warning, no
        # complaint about a height the caller never gave.
        curve, weight = CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight()
        bad = np.broadcast_to(r_max, 2)[-1]
        with pytest.raises(NumericError, match=re.escape(f"fiber half-width {float(bad)!r}: the grid's width")):
            fiber_trace(curve, weight, [0.0, 0.5], [[-1.0, 0.0], [-1.0, 0.0]], r_max, samples=5)

    @pytest.mark.parametrize("name", [
        "circle_mu1", "ellipse_mu1", "example1a", "example1b", "example2_stadium",
        "example3_family", "example4", "example6_family", "fourier_3d",
    ])
    def test_the_two_half_fibres_of_the_scalar_map(self, scenes, name):
        # The trace once mapped each half-fibre through its own exp_mu call.
        from weighted_tubes import exp_mu, w_bound

        if name == "fourier_3d":
            from test_expmap import fourier_3d

            curve, weight = fourier_3d(), PolynomialWeight([1.0, 0.05])
        else:
            curve, weight = scenes[name].pairs[0]
        rng = np.random.default_rng(12)
        s = rng.uniform(curve.s_min, curve.s_max, 4)
        # Tilted directions, so both halves are projected.
        v = random_unit_normals(curve, s, rng) + 0.2 * curve.tangent(s)
        for k in range(4):
            r_max = min(0.9 * float(w_bound(weight, s[k])), 3.0)
            for samples in (2, 33, 40):
                rr, pts = fiber_trace(curve, weight, s[k], v[k], r_max, samples=samples)
                assert rr.tobytes() == np.linspace(-r_max, r_max, samples).tobytes()
                pos = exp_mu(curve, weight, s[k], v[k], np.abs(rr[rr >= 0]))
                neg = exp_mu(curve, weight, s[k], -v[k], np.abs(rr[rr < 0]))
                assert pts.tobytes() == np.concatenate([neg, pos]).tobytes()

    def test_rows_are_the_one_foot_traces(self, scenes, monkeypatch):
        from weighted_tubes import sweeps, w_bound

        curve, weight = scenes["example1b"].pairs[0]
        rng = np.random.default_rng(4)
        s = rng.uniform(curve.s_min, curve.s_max, 5)
        v = random_unit_normals(curve, s, rng) + 0.2 * curve.tangent(s)
        r_max = np.minimum(0.9 * w_bound(weight, s), 3.0)
        calls = []
        exp_mu = sweeps.exp_mu
        with monkeypatch.context() as patch:
            patch.setattr(sweeps, "exp_mu", lambda *a: calls.append(a) or exp_mu(*a))
            rr, pts = fiber_trace(curve, weight, s, v, r_max, samples=17)
        assert len(calls) == 1
        assert rr.shape == (5, 17) and pts.shape == (5, 17, 3)
        for k in range(5):
            one_rr, one_pts = fiber_trace(curve, weight, s[k], v[k], r_max[k], samples=17)
            assert one_rr.shape == (17,) and one_pts.shape == (17, 3)
            assert rr[k].tobytes() == one_rr.tobytes() and pts[k].tobytes() == one_pts.tobytes()
        # One half-width serves every foot.
        rr, pts = fiber_trace(curve, weight, s, v, 0.5, samples=17)
        assert rr.shape == (5, 17) and pts.shape == (5, 17, 3)
        for k in range(5):
            one_rr, one_pts = fiber_trace(curve, weight, s[k], v[k], 0.5, samples=17)
            assert rr[k].tobytes() == one_rr.tobytes() and pts[k].tobytes() == one_pts.tobytes()

    def test_an_underflowing_step_leaves_the_other_rows(self, scenes):
        # np.linspace takes its denormal path for every row once one row's
        # step is 0; that row's neighbour must still equal its one-foot call.
        curve, weight = scenes["circle_mu1"].pairs[0]
        s = np.array([0.0, 1.0])
        v = curve.second_derivative(s)
        rr, pts = fiber_trace(curve, weight, s, v, [5e-324, 0.3], samples=7)
        for k, r_max in enumerate([5e-324, 0.3]):
            one_rr, one_pts = fiber_trace(curve, weight, s[k], v[k], r_max, samples=7)
            assert rr[k].tobytes() == one_rr.tobytes() and pts[k].tobytes() == one_pts.tobytes()

    def test_constant_weight_straight_normals(self):
        curve, weight = CircleArcCurve(0, 2 * np.pi, closed=True), ConstantWeight(1.0)
        rr, pts = fiber_trace(curve, weight, 1.0, -curve.point(1.0), 0.9, samples=11)
        g = curve.point(1.0)
        directions = (pts - g)[np.abs(rr) > 1e-9]
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        assert np.max(np.abs(np.abs(directions @ (-g)) - 1.0)) <= 1e-12


def directions_of_one_foot(frame, ambient_dim, dir_samples):
    """The per-foot direction list tube_boundary used to build (oracle)."""
    if ambient_dim == 2:
        e = frame[0]
        return [e, -e]
    if ambient_dim == 3:
        angles = 2.0 * np.pi * np.arange(dir_samples) / dir_samples
        return [np.cos(a) * frame[0] + np.sin(a) * frame[1] for a in angles]
    rng = np.random.default_rng(1234)
    raw = rng.standard_normal((dir_samples, frame.shape[0]))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return list(raw @ frame)


# (boundary, overlap) counts of tube_boundary at 256 feet, taken before the
# tube potential was blocked; air as radii_report gives it.
TUBE_COUNTS = {
    "circle_mu1": (0.9999999999999999, (512, 0), (256, 256)),
    "ellipse_mu1": (0.5, (512, 0), (454, 58)),
    "example1a": (2.8284271247461903, (512, 0), (372, 0)),
    "example1b": (3.5420643933754508, (4096, 0), (3040, 0)),
    "example2_stadium": (4.140313876743611, (512, 0), (480, 20)),
    "example3_family": (4.140313876743611, (512, 0), (480, 20)),
    "example4": (4.0, (512, 0), (392, 0)),
    "example6_family": (4.0, (512, 0), (392, 0)),
    # Counted when the scene was added; its two components give twice the feet.
    "example_separation": (2.356413330849016, (1024, 0), (868, 76)),
}


class TestTubeBoundary:
    @pytest.mark.parametrize("name", sorted(TUBE_COUNTS))
    def test_pinned_counts_below_and_above_air(self, scenes, name):
        scene = scenes[name]
        air, below, above = TUBE_COUNTS[name]
        for factor, counts in ((0.6, below), (1.3, above)):
            boundary, overlap = tube_boundary(scene.pairs, factor * air)
            assert (len(boundary), len(overlap)) == counts, factor

    @pytest.mark.parametrize("name", sorted(TUBE_COUNTS))
    def test_split_is_the_golden_oracle_split(self, scenes, monkeypatch, name):
        # The same candidate rows split by the golden-section G.
        scene = scenes[name]
        air = TUBE_COUNTS[name][0]
        for factor in (0.6, 1.3):
            got = tube_boundary(scene.pairs, factor * air)
            with monkeypatch.context() as patch:
                patch.setattr(sweeps, "g_potential", g_potential_two_point)
                want = tube_boundary(scene.pairs, factor * air)
            for rows, ref in zip(got, want):
                # Component, foot and point; G differs between the two.
                assert rows.shape == ref.shape, factor
                assert rows[:, [0, 1]].tobytes() == ref[:, [0, 1]].tobytes(), factor
                assert rows[:, 3:].tobytes() == ref[:, 3:].tobytes(), factor

    def test_directions_match_the_per_foot_lists(self, scenes):
        from weighted_tubes import FourierCurve, normal_frames

        curves = [
            scenes["ellipse_mu1"].pairs[0][0],
            scenes["example1b"].pairs[0][0],
            FourierCurve([[0.0, 1.0, 0.0, 0.2, 0.1], [0.0, 0.0, 1.0, -0.1, 0.2],
                          [0.0, 0.3, 0.1, 0.0, 0.25]]),
            FourierCurve([[0.0, 1.0, 0.0, 0.1, 0.0], [0.0, 0.0, 1.0, 0.0, 0.1],
                          [0.2, 0.3, 0.1], [0.0, 0.0, 0.4, 0.2, 0.0]]),
        ]
        for curve in curves:
            n = curve.ambient_dim
            frames = normal_frames(curve, curve.grid(40))
            dirs = sweeps._directions(frames, n, 16)
            assert dirs.shape == (40, 2 if n == 2 else 16, n)
            for k in range(40):
                ref = np.array(directions_of_one_foot(frames[k], n, 16))
                assert dirs[k].tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name", ["two_component", "example1b"])
    def test_rows_are_arrays_split_by_the_potential(self, scenes, name):
        # One (m, n + 3) array per list, columns component, s, G, x1..xn,
        # cut from the same (foot, direction) rows by the G test.
        from weighted_tubes import g_potential, load_scene

        scene = load_scene(TWO_COMPONENT) if name == "two_component" else scenes[name]
        n = scene.ambient_dim
        for R in (0.3, 3.0):
            boundary, overlap = tube_boundary(scene.pairs, R, s_samples=16)
            assert boundary.shape[1] == overlap.shape[1] == n + 3
            rows = np.concatenate([boundary, overlap])
            vals, _, _ = g_potential(scene.pairs, rows[:, 3:])
            assert rows[:, 2].tobytes() == vals.tobytes()
            inside = rows[:, 2] >= R * R - sweeps._TUBE_TOL_FACTOR * R * R
            assert inside[:len(boundary)].all() and not inside[len(boundary):].any()
            assert set(rows[:, 0]) <= set(range(len(scene.pairs)))
            assert np.all(np.diff(boundary[:, 0]) >= 0) and np.all(np.diff(overlap[:, 0]) >= 0)

    def test_one_potential_call_is_the_per_component_calls(self, monkeypatch):
        # G is taken once over the rows of both components; per component,
        # as tube_boundary used to, it gives the same arrays bit for bit.
        from weighted_tubes import exp_mu, g_potential, normal_frames
        from weighted_tubes.expmap import w_bound

        pairs = load_scene(TWO_COMPONENT).pairs
        calls = []
        monkeypatch.setattr(sweeps, "g_potential", lambda p, pts: calls.append(len(pts)) or g_potential(p, pts))
        for R in (0.3, 1.0):
            calls.clear()
            got = tube_boundary(pairs, R, s_samples=64)
            boundary, overlap = [], []
            for ci, (curve, weight) in enumerate(pairs):
                sg = curve.grid(64)
                feet = sg[w_bound(weight, sg) * (1.0 - sweeps._W_MARGIN) > R]
                dirs = sweeps._directions(normal_frames(curve, feet), 2, sweeps._DIR_SAMPLES)
                pts = exp_mu(curve, weight, feet[:, None], dirs, R).reshape(-1, 2)
                vals, _, _ = g_potential(pairs, pts)
                inside = vals >= R * R - sweeps._TUBE_TOL_FACTOR * R * R
                rows = np.column_stack([np.full(len(pts), ci), np.repeat(feet, 2), vals, pts])
                boundary.append(rows[inside])
                overlap.append(rows[~inside])
            assert calls == [len(got[0]) + len(got[1])] == [256]
            assert set(got[0][:, 0]) == {0.0, 1.0}
            for rows, ref in zip(got, (np.concatenate(boundary), np.concatenate(overlap))):
                assert rows.shape == ref.shape and rows.tobytes() == ref.tobytes()

    def test_maps_the_distinct_feet_once(self, scenes, monkeypatch):
        # Sixteen (foot, direction) rows per foot share their foot's jets:
        # no first-order jet is evaluated on a repeated foot.
        curve, weight = scenes["example1b"].pairs[0]
        calls = []
        for obj in (curve, weight):
            jet = obj.jet
            monkeypatch.setattr(obj, "jet", lambda s, order, jet=jet, obj=obj: (
                calls.append((obj, order, np.array(s))) or jet(s, order)))
        boundary, overlap = tube_boundary([(curve, weight)], 0.5, s_samples=24)
        assert len(boundary) + len(overlap) == 16 * 24
        first = [(obj, s) for obj, order, s in calls if order == 1]
        assert {id(obj) for obj, _ in first} == {id(curve), id(weight)}
        for _, s in first:
            assert len(np.unique(s)) == len(s) <= 24

    def test_oversized_row_array_rejected(self):
        pairs = [(CircleArcCurve(0, 2 * np.pi, closed=True), ConstantWeight(1.0))]
        with pytest.raises(SceneError, match="budget"):
            tube_boundary(pairs, 0.5, s_samples=10**9)

    def test_uniform_annulus(self):
        pairs = [(CircleArcCurve(0, 2 * np.pi, closed=True), ConstantWeight(1.0))]
        boundary, overlap = tube_boundary(pairs, 0.5, s_samples=64)
        assert len(overlap) == 0
        radii = sorted({round(float(np.linalg.norm(p)), 6) for p in boundary[:, 3:]})
        assert radii == [0.5, 1.5]

    def test_no_overlap_below_dir(self):
        pairs = [(CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight())]
        boundary, overlap = tube_boundary(pairs, 1.0, s_samples=64)
        assert len(overlap) == 0
        assert len(boundary)
        # Independent potential oracle on every reported boundary point.
        grid = np.linspace(-np.pi / 2, np.pi / 2, 8192)
        gp = pairs[0][0].point(grid)
        mu = pairs[0][1].mu(grid)
        for val, p in zip(boundary[:, 2], boundary[:, 3:]):
            oracle = float(np.min(((p - gp) ** 2).sum(axis=1) / mu**2))
            assert oracle >= 1.0 - 1e-6
            assert val == pytest.approx(oracle, abs=1e-6)

    def test_half_circle_boundary_persists_below_air(self):
        # Boundary membership holds for every sampled height below the
        # almost-injectivity radius (2 sqrt 2 here); the lone collapse point
        # at height 2 is measure zero and never breaks the potential test.
        pairs = [(CircleArcCurve(-np.pi / 2, np.pi / 2), CosineWeight())]
        for R in (1.0, 2.2, 2.5):
            _, overlap = tube_boundary(pairs, R, s_samples=64)
            assert len(overlap) == 0

    @pytest.mark.parametrize("name", ["ellipse_mu1", "example1b"])
    def test_rows_match_the_scalar_map(self, scenes, name):
        from weighted_tubes import exp_mu, normal_frames, radii_report

        scene = scenes[name]
        curve, weight = scene.pairs[0]
        R = 0.5 * radii_report(scene.pairs, scene.tolerances).dir
        boundary, overlap = tube_boundary(scene.pairs, R, s_samples=32)
        assert len(overlap) == 0
        expected = [
            (float(s), exp_mu(curve, weight, float(s), v, R))
            for s in curve.grid(32)
            for v in directions_of_one_foot(normal_frames(curve, [s])[0], curve.ambient_dim, 16)
        ]
        assert len(boundary) == len(expected)
        for (s, p), (s_ref, p_ref) in zip(zip(boundary[:, 1], boundary[:, 3:]), expected):
            assert s == s_ref
            assert np.max(np.abs(p - p_ref)) <= 1e-12

    def test_overlap_empty_below_dir_on_all_scenes(self, scenes):
        from weighted_tubes import radii_report

        for name, scene in scenes.items():
            if "family" in name:
                continue
            rep = radii_report(scene.pairs, scene.tolerances)
            _, overlap = tube_boundary(scene.pairs, 0.5 * rep.dir, s_samples=48)
            assert len(overlap) == 0, name

    def test_overlap_past_air(self):
        from weighted_tubes import make_stadium
        from weighted_tubes.weights import SymmetricPiecewiseWeight

        curve = make_stadium()
        weight = SymmetricPiecewiseWeight(curve.length, 0.4, 0.8, 6.0, 0.2)
        pairs = [(curve, weight)]
        _, overlap = tube_boundary(pairs, 4.0, s_samples=128)  # below air = 4.14
        assert len(overlap) == 0
        _, overlap = tube_boundary(pairs, 4.5, s_samples=128)  # above air
        assert len(overlap)


def interior_overlap(pairs, R):
    """The overlap points of tube_boundary at 1,024 feet whose weighted-nearest
    foot (g_potential's) is not an end of an open arc."""
    _, overlap = tube_boundary(pairs, R, s_samples=1024)
    _, comp, s = g_potential(pairs, overlap[:, 3:])
    curves = [pairs[c][0] for c in comp]
    end = np.array([not c.closed and x in (c.s_min, c.s_max) for c, x in zip(curves, s)], dtype=bool)
    return overlap[~end]


# Where air is the least admissible bound 1/|mu'| (the domain bounds the
# tube); elsewhere a double-critical pair or a focal radius sets it.
DOMAIN_BOUND = ("example1a", "example1b", "example4", "example6_family")


@pytest.mark.parametrize("name", sorted(TUBE_COUNTS) + [
    pytest.param(("3d", seed), id=f"seeded_3d_{seed}") for seed in (1, 2)
])
def test_air_measured_from_outside(scenes, name):
    # air from the outside: bisect R over [0.5, 2] air, 34 halvings, for the
    # onset of interior overlap. The tube's membership band (1e-8 R^2) and
    # its foot grid only delay the onset past air, so the first R seen to
    # overlap may lie below air only by rounding: a few units of the
    # rounding of air and of the overlap points' G, which 64 eps covers.
    # Measured onsets: R/air - 1 = 2.5e-9 (circle_mu1), 8.7e-5 (ellipse_mu1),
    # 7.6e-5 (the stadium scenes), 2.8e-5 (example_separation), and on the
    # seeded 3D Fourier loops 1.2e-4 (seed 1) and 1.4e-2 (seed 2).
    if isinstance(name, tuple):
        from test_radii import _seeded_fourier_scene

        scene = load_scene(_seeded_fourier_scene(*name))
    else:
        scene = scenes[name]
    air = radii_report(scene.pairs, scene.tolerances).air
    if name in DOMAIN_BOUND:
        bound = min(float(np.min(w_bound(w, c.grid(scene.tolerances.grid_samples)))) for c, w in scene.pairs)
        assert air == bound
        for factor in (0.5, 0.9, 0.999):
            assert len(tube_boundary(scene.pairs, factor * air, s_samples=1024)[1]) == 0, factor
        return
    lo, hi = 0.5 * air, 2.0 * air
    assert not len(interior_overlap(scene.pairs, lo)) and len(interior_overlap(scene.pairs, hi))
    for _ in range(34):
        mid = 0.5 * (lo + hi)
        if len(interior_overlap(scene.pairs, mid)):
            hi = mid
        else:
            lo = mid
    assert hi >= air * (1.0 - 64 * np.finfo(float).eps), hi / air - 1.0


def least_fibre_gap(pairs, n, R):
    """The least distance between the images at height R of (foot, +-frame
    vector) rows over n feet per component, taken over distant feet: feet of
    two components, or two or more grid steps apart on one (periodically on
    a closed curve). Also returns the largest |coordinate| of the images."""
    pts, comp, idx = [], [], []
    for ci, (curve, weight) in enumerate(pairs):
        s = curve.grid(n)
        for v in np.moveaxis(normal_frames(curve, s), 1, 0):
            for sign in (1.0, -1.0):
                pts.append(exp_mu(curve, weight, s, sign * v, R))
                comp.append(np.full(n, ci))
                idx.append(np.arange(n))
    pts, comp, idx = np.concatenate(pts), np.concatenate(comp), np.concatenate(idx)
    gap = np.abs(idx[:, None] - idx)
    closed = np.array([curve.closed for curve, _ in pairs])[comp]
    gap = np.where(closed[:, None], np.minimum(gap, n - gap), gap)
    sq = sum(np.subtract.outer(x, x) ** 2 for x in pts.T)
    sq[(comp[:, None] == comp) & (gap < 2)] = np.inf
    return float(np.sqrt(np.min(sq))), float(np.max(np.abs(pts)))


@pytest.mark.parametrize("name", ["example1a", "example1b", "example2_stadium", "example4", "example_separation"] + [
    pytest.param(("3d", seed), id=f"seeded_3d_{seed}") for seed in (1, 2)
])
def test_tir_measured_from_outside(scenes, name):
    # tir from coincident images, without the paper's formulas: 2,048 rows
    # per scene (1,024 feet with +-normal in the plane, 512 feet with both
    # frame vectors' +-directions in 3D). A zero is a gap within 64 ulps of
    # the largest coordinate. On a collapse arc the images of distant feet
    # coincide exactly at R = tir, and nowhere below tir (1 - delta) or at
    # tir (1 + delta), delta the relative foot spacing; the smallest such
    # gap measured is 5.9e-9 (example1a at tir (1 +- delta)). example4 has
    # no collapse arc: no zero below air, with its least gap 1.1e-9, at its
    # touching zero (dir = 2), where neighbouring images nearly meet.
    # example_separation's two components give dir 1.7745 < tir 2 < air
    # 2.3564: its gap is 1.1e-17 at tir (the zero band is 1.8e-12), 2.4e-7
    # at tir (1 +- delta), 2.0e-5 at dir (the ellipse's touching zero) and
    # at least 5.9e-4 at tir (1 - delta) k/4 for k < 4. The seeded 3D
    # Fourier loops have no collapse arc either: a focal radius sets dir =
    # tir = air, and their least gaps fall from 2.2e-2 at air / 8 to 5.6e-5
    # (seed 1) and 6.8e-4 (seed 2) at air, where fibres of feet two steps
    # apart close at the focal foot.
    if isinstance(name, tuple):
        from test_radii import _seeded_fourier_scene

        scene = load_scene(_seeded_fourier_scene(*name))
    else:
        scene = scenes[name]
    rep = radii_report(scene.pairs, scene.tolerances)
    n = 2048 // (2 * (scene.ambient_dim - 1))
    delta = max(1.0 / (n if curve.closed else n - 1) for curve, _ in scene.pairs)

    def zero(R):
        gap, size = least_fibre_gap(scene.pairs, n, R)
        return gap <= 64 * np.spacing(size)

    if name == "example4" or isinstance(name, tuple):
        assert not rep.witnesses["collapse_arcs"] and rep.tir == rep.air
        assert not any(zero(rep.air * k / 8) for k in range(1, 9))
        return
    assert zero(rep.tir)
    assert not zero(rep.tir * (1.0 + delta))
    assert not any(zero(rep.tir * (1.0 - delta) * k / 4) for k in range(1, 5))
