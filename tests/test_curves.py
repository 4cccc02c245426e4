import copy

import numpy as np
import pytest

from weighted_tubes import (
    ChebyshevCurve,
    CircleArcCurve,
    EllipseCurve,
    FourierCurve,
    NonRegularCurveError,
    OutOfDomainError,
    QuadratureFailureError,
    SegmentCurve,
    build_arclength_curve,
    collapse_ode_residual,
    make_stadium,
)

from conftest import adaptive_simpson
from oracles import stadium_by_full_builds


def wobbly_fourier():
    return FourierCurve([[0.0, 1.0, 0.0, 0.3, 0.0], [0.0, 0.0, 1.0, 0.0, 0.2]])


def cheb_half_circle(order=24):
    # Chebyshev fit of (cos t, sin t) on [-pi/2, pi/2]; coefficients decay
    # fast enough that the arc is exact to machine precision.
    t = np.cos(np.pi * (np.arange(order + 1) + 0.5) / (order + 1))
    tt = t * np.pi / 2
    cx = np.polynomial.chebyshev.chebfit(t, np.cos(tt), order)
    cy = np.polynomial.chebyshev.chebfit(t, np.sin(tt), order)
    return ChebyshevCurve([cx, cy], (-np.pi / 2, np.pi / 2))


ALL_CURVES = [
    ("circle", lambda: CircleArcCurve(0, 2 * np.pi, closed=True)),
    ("arc1a", lambda: CircleArcCurve(-np.pi / 2, np.pi / 2)),
    ("ellipse", lambda: EllipseCurve(2, 1)),
    ("fourier", wobbly_fourier),
    ("cheb", cheb_half_circle),
    ("stadium", lambda: make_stadium()),
]


class TestPresets:
    def test_unit_circle_length_and_start(self):
        c = build_arclength_curve("unit_circle")
        assert c.length == pytest.approx(2 * np.pi, abs=1e-12)
        assert np.allclose(c.point(0.0), [1.0, 0.0], atol=1e-14)

    def test_unit_circle_frame_matches_analytics(self):
        c = build_arclength_curve("unit_circle")
        for s in np.linspace(0, 2 * np.pi, 17):
            assert np.allclose(c.point(s), [np.cos(s), np.sin(s)], atol=1e-12)
            assert np.allclose(c.tangent(s), [-np.sin(s), np.cos(s)], atol=1e-12)

    def test_half_circle_arc_length(self):
        c = build_arclength_curve("circle_arc", s_start=-np.pi / 2, s_end=np.pi / 2)
        assert c.length == pytest.approx(np.pi, abs=1e-14)
        assert not c.closed

    def test_ellipse_length_against_simpson_oracle(self):
        # Oracle: adaptive Simpson of the speed, independent of the library.
        oracle = adaptive_simpson(
            lambda t: np.sqrt(4 * np.sin(t) ** 2 + np.cos(t) ** 2), 0.0, 2 * np.pi
        )
        assert oracle == pytest.approx(9.688448220547675, abs=1e-9)
        c = EllipseCurve(2, 1)
        assert c.length == pytest.approx(oracle, abs=1e-10)

    def test_ellipse_curvature_at_vertex(self):
        # kappa = a b / (a^2 sin^2 t + b^2 cos^2 t)^{3/2} -> a / b^2 at t = 0.
        c = EllipseCurve(2, 1)
        assert c.curvature(0.0) == pytest.approx(2.0, abs=1e-10)
        assert np.allclose(c.point(0.0), [2.0, 0.0], atol=1e-10)

    def test_segment_frame(self):
        c = SegmentCurve([0.0, 0.0], [3.0, 4.0])
        assert c.length == pytest.approx(5.0)
        assert c.curvature(2.5) == 0.0
        assert np.allclose(c.jet(2.0, 3)[3], 0.0)


class TestArclengthInvariants:
    @pytest.mark.parametrize("name,make", ALL_CURVES)
    def test_unit_speed(self, name, make):
        c = make()
        s = c.grid(257)
        speeds = np.linalg.norm(c.tangent(s), axis=-1)
        assert np.max(np.abs(speeds - 1.0)) <= 1e-8

    @pytest.mark.parametrize("name,make", ALL_CURVES)
    def test_second_derivative_orthogonal(self, name, make):
        c = make()
        s = c.grid(257)
        dots = np.sum(c.tangent(s) * c.second_derivative(s), axis=-1)
        assert np.max(np.abs(dots)) <= 1e-8

    @pytest.mark.parametrize(
        "name,make", [t for t in ALL_CURVES if t[0] in ("circle", "ellipse", "fourier")]
    )
    def test_periodicity(self, name, make):
        c = make()
        s = np.linspace(0, c.length, 11)
        for order in range(4):
            a = c.jet(s, order)[order]
            b = c.jet(s + c.length, order)[order]
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, float(np.max(np.abs(a))))

    @pytest.mark.parametrize(
        "name,make", [t for t in ALL_CURVES if t[0] != "stadium"]
    )
    def test_derivatives_match_finite_differences(self, name, make):
        c = make()
        h = 1e-5 * c.length
        s = c.grid(64)
        if not c.closed:
            s = s[2:-2]
        for order in (1, 2, 3):
            hi = c.jet(s + h, order - 1)[order - 1]
            lo = c.jet(s - h, order - 1)[order - 1]
            fd = (hi - lo) / (2 * h)
            exact = c.jet(s, order)[order]
            scale = max(1.0, float(np.max(np.abs(exact))))
            assert np.max(np.abs(fd - exact)) / scale <= 1e-6, (name, order)

    def test_stadium_derivatives_match_fd_within_pieces(self):
        # Transition pieces have a large fourth derivative; sample away from
        # the joints and shrink the step accordingly.
        c = make_stadium()
        h = 1e-6
        s = np.linspace(0.01, c.length - 0.01, 400)
        for order in (1, 2, 3):
            hi = c.jet(s + h, order - 1)[order - 1]
            lo = c.jet(s - h, order - 1)[order - 1]
            fd = (hi - lo) / (2 * h)
            exact = c.jet(s, order)[order]
            gap = np.max(np.linalg.norm(fd - exact, axis=-1))
            assert gap <= 2e-4, order


class TestThirdDerivative:
    def test_circle_satisfies_collapse_ode(self):
        c = CircleArcCurve(0, 2 * np.pi, closed=True)
        s = c.grid(33)
        assert np.max(collapse_ode_residual(c.jet(s, 3))) <= 1e-12

    def test_segment_third_derivative_zero(self):
        c = SegmentCurve([0, 0], [1, 1])
        assert np.allclose(c.jet(0.5, 3)[3], 0.0)

    def test_ellipse_violates_collapse_ode(self):
        # At the vertices the curvature rate vanishes and the identity holds
        # pointwise; a generic foot shows the violation.
        c = EllipseCurve(2, 1)
        assert float(collapse_ode_residual(c.jet(0.4, 3))) > 0.1


class TestFrames:
    def test_circle_frame(self):
        c = CircleArcCurve(0, 2 * np.pi, closed=True)
        d2 = c.second_derivative(np.pi / 3)
        kappa = np.linalg.norm(d2)
        assert kappa == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(d2 / kappa, -c.point(np.pi / 3), atol=1e-14)

    def test_out_of_domain_raises(self):
        c = CircleArcCurve(-1.0, 1.0)
        with pytest.raises(OutOfDomainError):
            c.point(1.5)

    def test_stadium_circle_section_is_exact(self):
        c = make_stadium()
        s = np.linspace(-0.3, 0.3, 41)  # the default circle_turn
        assert np.max(np.abs(c.curvature(s) - 1.0)) <= 1e-13
        assert np.max(collapse_ode_residual(c.jet(s, 3))) <= 1e-13
        assert np.max(np.abs(np.linalg.norm(c.point(s), axis=-1) - 1.0)) <= 1e-12

    def test_stadium_closes(self):
        c = make_stadium()
        gap = np.linalg.norm(c.point(0.0) - c.point(c.length * (1 - 1e-15)))
        assert gap <= 1e-10


class TestStadiumSolve:
    def test_kappa2_bits(self):
        # The defaults are the bundled example2_stadium's parameters.
        assert make_stadium()._pieces[4].k0.hex() == "0x1.9092b21a6a587p-5"

    @pytest.mark.parametrize("params", [
        {},
        {"circle_turn": 0.5, "transition": 0.1, "line_length": 3.0},
        {"circle_turn": 1.0, "transition": 0.02, "line_length": 10.0},
        # The cap turn is non-positive at the first trial, and only at the second.
        {"circle_turn": 4.0},
        {"circle_turn": 3.07, "transition": 0.05},
        # A zero-width down-transition, and a zero-width straight side.
        {"transition": 1e-19},
        {"line_length": 1e-18},
        # Bracket ends of one sign.
        {"circle_turn": 3.1, "transition": 0.01},
    ])
    def test_curve_or_error_of_the_full_build_solve(self, params):
        def outcome(make):
            try:
                c = make(**params)
            except NonRegularCurveError as exc:
                return type(exc), str(exc)
            except ValueError as exc:  # the oracle's unsolved cap, as make_stadium reports it
                return NonRegularCurveError, f"stadium cap curvature not solved on [0.001, 0.9]: {exc}"
            s = np.linspace(0.0, c.length, 1001)
            return c._pieces[4].k0.hex(), c.length.hex(), b"".join(x.tobytes() for x in c.jet(s, 3))

        assert outcome(make_stadium) == outcome(stadium_by_full_builds)

    def test_two_full_builds(self, monkeypatch):
        # The first trial and the result; the other trials walk the cap only.
        from weighted_tubes.curves import CurvatureProfileCurve

        builds = []
        init = CurvatureProfileCurve.__init__
        monkeypatch.setattr(CurvatureProfileCurve, "__init__",
                            lambda self, pieces: builds.append(len(pieces)) or init(self, pieces))
        make_stadium()
        assert builds == [5, 5]


class TestFactories:
    def test_non_regular_rejected(self):
        with pytest.raises(NonRegularCurveError):
            # Degenerate: both coordinates constant.
            FourierCurve([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    def test_fourier_matches_circle(self):
        f = FourierCurve([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        c = CircleArcCurve(0, 2 * np.pi, closed=True)
        s = np.linspace(0, 2 * np.pi, 33)
        assert np.max(np.abs(f.point(s) - c.point(s))) <= 1e-9

    def test_chebyshev_matches_circle_arc(self):
        ch = cheb_half_circle()
        arc = CircleArcCurve(-np.pi / 2, np.pi / 2)
        assert ch.length == pytest.approx(arc.length, abs=1e-10)
        s = np.linspace(-np.pi / 2, np.pi / 2, 21)
        pts = ch.point(s - (-np.pi / 2) + ch.s_min)
        assert np.max(np.abs(pts - arc.point(s))) <= 1e-8


class TestArclengthInversionPerFoot:
    @pytest.mark.parametrize(
        "curve",
        [
            EllipseCurve(2.0, 1.0),
            FourierCurve(
                [[0.0, 1.0, 0.0, 0.05, 0.02], [0.0, 0.0, 1.0, -0.03, 0.04], [0.0, 0.0, 0.0, 0.15, 0.1]]
            ),
        ],
        ids=["ellipse", "fourier_3d"],
    )
    def test_each_foot_alone_equals_its_batch_value(self, curve):
        # Each foot stops Newton on its own residual, so no foot depends on
        # the others evaluated with it. Feet just off the table's knots start
        # within tolerance but off zero residual, so they need no step when
        # alone and would move under a step taken for the random feet.
        rng = np.random.default_rng(5)
        knots = curve._s_grid[1:-1]
        near = knots[:: len(knots) // 128] * (1.0 + 1e-13)
        s = np.concatenate([rng.uniform(0.0, curve.length, 1024 - len(near)), near])
        batch = curve.t_of_s(s)
        alone = np.array([curve.t_of_s(np.array([x]))[0] for x in s])
        np.testing.assert_array_equal(alone, batch)


class TestArclengthInversionBlocks:
    def test_no_raw_pass_takes_more_than_one_block(self, monkeypatch):
        # A Newton pass over every foot used to evaluate all N x (_cell_n + 1)
        # raw nodes at once; 2^16 feet now take two blocks of 2^15.
        curve = wobbly_fourier()
        sizes = []
        raw = curve._raw
        monkeypatch.setattr(curve, "_raw", lambda t, order: sizes.append(len(t)) or raw(t, order))
        curve.t_of_s(np.linspace(0.0, curve.length, 2**16))
        assert sizes and max(sizes) <= 2**15 * (curve._cell_n + 1)

    def test_jet_equals_its_halves_joined(self):
        curve = wobbly_fourier()
        s = curve.grid(2**16)
        halves = [curve.jet(part, 3) for part in np.split(s, 2)]
        for whole, *parts in zip(curve.jet(s, 3), *halves):
            assert whole.tobytes() == np.concatenate(parts).tobytes()


def perfbench_style_fourier(seed):
    """A closed planar curve as the benchmark draws them: the unit circle
    plus modes 2-4 of amplitude 0.04 / k^2 at seeded phases."""
    rng = np.random.default_rng(seed)
    cx, cy = [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]
    for k in (2, 3, 4):
        a = 0.04 / k**2
        px, py = rng.uniform(0.0, 2.0 * np.pi, 2)
        cx += [a * np.cos(px), a * np.sin(px)]
        cy += [a * np.cos(py), a * np.sin(py)]
    return FourierCurve([cx, cy])


def near_cusp(d):
    """(2 cos t - (1 - d) cos 2t, 2 sin t - (1 - d) sin 2t), whose speed
    falls to 2 d at t = 0."""
    return FourierCurve([[0.0, 2.0, 0.0, -(1.0 - d), 0.0], [0.0, 0.0, 2.0, 0.0, -(1.0 - d)]])


class TestCellNodeCount:
    def test_smooth_curves_take_at_most_eight_nodes(self, scenes):
        for curve in (scenes["ellipse_mu1"].pairs[0][0], perfbench_style_fourier(5)):
            assert curve._cell_n <= 8

    def test_ellipse_build_sums_its_table_cells_once(self, monkeypatch):
        # Fewer nodes match the 2,048-cell table, so its cells sum to the
        # length (the bits of the length check the table once stood in for).
        sums = self.record_cell_sums(monkeypatch)
        curve = EllipseCurve(2, 1)
        assert [m for m in sums if m[1] == 16] == [(2048, 16)]
        monkeypatch.undo()
        fresh = curve._cell_sums(np.linspace(curve._t0, curve._t1, 2049), 16)
        assert curve.length == float(fresh.sum())

    @staticmethod
    def record_cell_sums(monkeypatch):
        """The (cells, nodes) of every `_cell_sums` call from now on."""
        from weighted_tubes.curves import _RawCurve

        sums = []
        cell_sums = _RawCurve._cell_sums
        monkeypatch.setattr(_RawCurve, "_cell_sums", lambda self, tg, n: (
            sums.append((len(tg) - 1, n)) or cell_sums(self, tg, n)))
        return sums

    def test_series_table_certifies_its_length(self, monkeypatch):
        # Four nodes match the table on every cell, so the length is the sum
        # of the table's own cells and no 2,048-cell check runs.
        sums = self.record_cell_sums(monkeypatch)
        curve = perfbench_style_fourier(5)
        assert curve._cell_n == 4
        assert sums == [(1024, 16), (1024, 4)]
        monkeypatch.undo()
        assert curve.length == float(curve._cell_sums(curve._t_grid, 16).sum())

    def test_near_cusp_keeps_sixteen_nodes(self, monkeypatch):
        # No lower node count matches, so the doubling rule checks the length.
        sums = self.record_cell_sums(monkeypatch)
        curve = near_cusp(5e-4)
        assert np.min(np.linalg.norm(curve._raw(curve._t_grid, 1), axis=-1)) == pytest.approx(1e-3)
        assert curve._cell_n == 16
        assert (2048, 16) in sums

    def test_a_length_that_never_stabilizes_exits_2(self, monkeypatch, tmp_path):
        # Pass k of the quadrature scales its cells by 1 + k 1e-8, so no node
        # count matches the table and no two successive length checks agree;
        # the loader refuses the scene.
        import itertools
        import json

        from weighted_tubes import cli
        from weighted_tubes.curves import _RawCurve

        passes = itertools.count()
        cell_sums = _RawCurve._cell_sums
        monkeypatch.setattr(_RawCurve, "_cell_sums", lambda self, tg, n: (
            cell_sums(self, tg, n) * (1.0 + 1e-8 * next(passes))))
        d = 5e-4
        coeffs = [[0.0, 2.0, 0.0, -(1.0 - d), 0.0], [0.0, 0.0, 2.0, 0.0, -(1.0 - d)]]
        with pytest.raises(QuadratureFailureError, match="did not stabilize"):
            FourierCurve(coeffs)
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps({
            "ambient_dim": 2,
            "components": [{"kind": "fourier", "params": {"coefficients": coeffs}}],
            "weights": [{"kind": "constant", "params": {"value": 1.0}}],
        }))
        assert cli.main(["check", "--scene", str(path), "--out", str(tmp_path / "out.json")]) == 2

    @pytest.mark.parametrize(
        "make",
        [
            lambda scenes: scenes["ellipse_mu1"].pairs[0][0],
            lambda scenes: perfbench_style_fourier(5),
            lambda scenes: near_cusp(5e-3),
            lambda scenes: cheb_half_circle(),
        ],
        ids=["ellipse_mu1", "perfbench_style", "near_cusp_5e-3", "chebyshev"],
    )
    def test_partial_cells_match_sixteen_nodes(self, scenes, make):
        # At the chosen node count, s(t) stays within 2 ulp of L of the
        # 16-node value, the table's own rule.
        curve = make(scenes)
        ref = copy.copy(curve)
        ref._cell_n = 16
        t = np.random.default_rng(13).uniform(curve._t0, curve._t1, 20_000)
        gap = np.max(np.abs(curve._s_of_t(t)[0] - ref._s_of_t(t)[0]))
        assert gap <= 2.0 * np.spacing(curve.length)


def _table_sized(cls, n):
    """cls with an n-cell arclength table, or cls itself when n is None."""
    return cls if n is None else type(cls.__name__, (cls,), {"_TABLE_N": n})


class TestPchipStart:
    @pytest.mark.parametrize(
        "make",
        [
            lambda n: _table_sized(EllipseCurve, n)(2.0, 1.0),
            lambda n: _table_sized(FourierCurve, n)(
                [[0.0, 1.0, 0.0, 0.05, 0.02], [0.0, 0.0, 1.0, -0.03, 0.04], [0.0, 0.0, 0.0, 0.15, 0.1]],
            ),
            lambda n: _table_sized(ChebyshevCurve, n)(
                [[0.0, 1.0, 0.1, 0.02], [0.0, 0.2, 0.5, 0.03]], (-1.0, 2.0)
            ),
        ],
        ids=["ellipse", "fourier_3d", "chebyshev"],
    )
    @pytest.mark.parametrize("table_n", [None, 1, 2, 3])
    def test_start_equals_pchip_interpolator(self, make, table_n):
        # The arclength tables' monotone start, coefficients and values,
        # bit for bit against the reference PCHIP (two knots are a line).
        interpolate = pytest.importorskip("scipy.interpolate")
        from weighted_tubes.curves import _pchip_eval

        c = make(table_n)
        ref = interpolate.PchipInterpolator(c._s_grid, c._t_grid)
        np.testing.assert_array_equal(c._pchip, ref.c)
        rng = np.random.default_rng(3)
        s = np.concatenate([
            rng.uniform(-0.01 * c.length, 1.01 * c.length, 4000), c._s_grid, [0.0, c.length],
        ])
        np.testing.assert_array_equal(_pchip_eval(c._s_grid, c._pchip, s), ref(s))
