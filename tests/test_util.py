import numpy as np
import pytest

from weighted_tubes import util
from weighted_tubes.util import _bracket, brent_rows, float17, golden_min, refine_minima

from oracles import golden_max

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def scalar_golden_min(f, a, b, tol=1e-12, maxiter=200):
    """One-bracket golden-section oracle; returns (x, f(x), iterations, the
    number of ends the bracket never moved off). It evaluates f afresh at
    both ends for the final pick."""
    a = float(a)
    b = float(b)
    if b < a:
        a, b = b, a
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    it = 0
    moved_a = moved_b = False
    while (b - a) > tol and it < maxiter:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
            moved_b = True
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
            moved_a = True
        it += 1
    cands = [(a, f(a)), (b, f(b)), (x1, f1), (x2, f2)]
    x, fx = min(cands, key=lambda p: p[1])
    return x, fx, it, (not moved_a) + (not moved_b)


def double_well(x):
    # Products only: `** 2` on a Python float goes through C pow(), which
    # can round differently from the array path's square.
    y = x * x - 1.0
    return y * y + 0.3 * x


def plateaus(x):
    # Piecewise constant: f1 == f2 whenever both points share a step.
    return np.floor(np.asarray(x) * 4.0) / 4.0 + 0.0 * x


def monotone(x):
    return 3.0 * x + 1.0


def falling(x):
    return 1.0 - 3.0 * x


def holes(x):
    # A minimum at 0.2 and nan above 0.5.
    x = np.asarray(x, dtype=float)
    return np.where(x > 0.5, np.nan, (x - 0.2) ** 2)


def cliff(x):
    # Decreasing up to a nan wall at x = 1.
    x = np.asarray(x, dtype=float)
    return np.where(x >= 1.0, np.nan, -x)


def counted(f):
    sizes = []

    def g(x):
        sizes.append(np.size(x))
        return f(x)

    return g, sizes


def random_brackets(rng, m):
    a = rng.uniform(-2.0, 2.0, m)
    width = 10.0 ** rng.uniform(-13.0, 0.5, m)
    b = a + width
    flip = rng.random(m) < 0.3  # reversed brackets
    return np.where(flip, b, a), np.where(flip, a, b)


@pytest.mark.parametrize("f", [double_well, plateaus, monotone, falling, holes, cliff])
@pytest.mark.parametrize("tol, maxiter", [(1e-12, 200), (1e-6, 200), (1e-14, 7), ("rows", 200)])
def test_rows_follow_the_scalar_sequence(f, tol, maxiter):
    rng = np.random.default_rng(7)
    a, b = random_brackets(rng, 200)
    if tol == "rows":  # one tolerance per row
        tol = rng.choice([0.0, 1e-14, 1e-12, 1e-6, 1e-3], len(a))
    tols = np.broadcast_to(tol, a.shape)
    g, sizes = counted(f)
    with np.errstate(invalid="ignore"):
        x, fx = golden_min(g, a, b, tol=tol, maxiter=maxiter)
        oracle = [scalar_golden_min(f, ai, bi, tol=ti, maxiter=maxiter) for ai, bi, ti in zip(a, b, tols)]
    np.testing.assert_array_equal(x, [o[0] for o in oracle])
    np.testing.assert_array_equal(fx, [o[1] for o in oracle])
    # One call for the start, one per iteration on the active rows, and one
    # for both ends of every row.
    iters = np.array([o[2] for o in oracle])
    assert len(set(iters)) > 1 or maxiter == 7
    assert sizes[0] == 2 * len(a)
    assert len(sizes) == int(iters.max()) + 2
    assert sizes[1:-1] == [int(np.sum(iters > k)) for k in range(int(iters.max()))]
    assert sizes[-1] == 2 * len(a)


def test_endpoint_minimum_is_the_boundary():
    # The minimum sits at one end of every bracket (reversed ones included),
    # which the bracket never leaves; the last call takes both ends.
    a, b = np.array([-1.0, 2.0, 0.0]), np.array([1.0, 0.5, 1e-3])
    for f, ends in ((monotone, np.minimum(a, b)), (falling, np.maximum(a, b))):
        g, sizes = counted(f)
        x, fx = golden_min(g, a, b)
        assert x.tolist() == ends.tolist()
        assert fx.tolist() == [f(e) for e in ends]
        assert sizes[-1] == 6
        oracle = [scalar_golden_min(f, ai, bi) for ai, bi in zip(a, b)]
        assert [(o[0], o[1], o[3]) for o in oracle] == [(xi, fi, 1) for xi, fi in zip(x, fx)]


def test_ties_keep_the_first_candidate():
    # On a plateau every candidate ties, so the left end a wins as in min().
    x, fx = golden_min(lambda s: np.zeros_like(s), [0.0, 3.0], [1.0, 2.0])
    assert x.tolist() == [0.0, 2.0]
    assert fx.tolist() == [0.0, 0.0]


def test_nan_candidates_resolve_like_python_min():
    # tol above every width: no iteration, so the final pick alone decides.
    # Row 0 has f(b) nan after a finite f(a) (np.argmin would return b),
    # row 1 is nan throughout (a is kept), row 2 is nan at b and x2 only.
    a, b = np.array([0.0, 1.0, 0.0]), np.array([1.0, 2.0, 2.0])
    with np.errstate(invalid="ignore"):
        x, fx = golden_min(cliff, a, b, tol=10.0)
        oracle = [scalar_golden_min(cliff, ai, bi, tol=10.0) for ai, bi in zip(a, b)]
    np.testing.assert_array_equal(x, [o[0] for o in oracle])
    np.testing.assert_array_equal(fx, [o[1] for o in oracle])
    assert np.isfinite(fx[0]) and x[1] == 1.0


def test_scalar_brackets_give_one_row_and_empty_brackets_none():
    x, fx = golden_min(double_well, -1.5, 0.0)
    ox, ofx, _, _ = scalar_golden_min(double_well, -1.5, 0.0)
    assert x.shape == fx.shape == (1,)
    assert (x[0], fx[0]) == (ox, ofx)
    calls = []
    x, fx = golden_min(lambda s: calls.append(s), [], [])
    assert x.shape == fx.shape == (0,) and not calls


def test_golden_max_rows():
    rng = np.random.default_rng(3)
    a, b = random_brackets(rng, 50)
    x, fx = golden_max(double_well, a, b, tol=1e-13)
    for k in range(len(a)):
        ox, ofx, _, _ = scalar_golden_min(lambda s: -double_well(s), a[k], b[k], tol=1e-13)
        assert (x[k], fx[k]) == (ox, -ofx)


def test_golden_args_rows_equal_one_parameter_calls():
    # Per-row parameters passed through args give, bit for bit, the rows of
    # separate calls whose objective closes over each row's parameter.
    rng = np.random.default_rng(11)
    a = rng.uniform(-2.0, 0.0, 60)
    b = a + rng.uniform(1e-6, 3.0, 60)
    p = rng.uniform(-1.0, 1.0, 60)
    q = rng.uniform(0.5, 2.0, 60)

    def f(s, p, q):
        return (s - p) ** 2 * q + 0.3 * np.sin(5.0 * s * q)

    for solver in (golden_min, golden_max):
        x, fx = solver(f, a, b, tol=1e-12, args=(p, q))
        for k in range(len(a)):
            xk, fk = solver(lambda s: f(s, p[k], q[k]), a[k], b[k], tol=1e-12)
            assert (x[k], fx[k]) == (xk[0], fk[0])


def test_golden_args_slices_to_active_rows():
    seen = []

    def f(s, p):
        seen.append((len(s), len(p)))
        return (s - p) ** 2

    golden_min(f, [0.0, 0.0], [1.0, 1e-3], tol=1e-2, args=(np.array([0.3, 0.0]),))
    assert all(n == m for n, m in seen)
    # The last call takes the ends of both rows.
    assert seen[0] == (4, 4) and seen[-1] == (4, 4)
    assert (1, 1) in seen


def test_golden_args_pass_uncopied_while_every_row_runs():
    # No row stops before the last iteration here, so every call gets the
    # caller's arrays themselves, not per-iteration copies.
    p = np.array([0.3, 0.6])
    passed = []

    def f(s, q):
        passed.append(q)
        return (s - q) ** 2

    golden_min(f, [0.0, 0.0], [1.0, 1.0], tol=0.0, maxiter=20, args=(p,))
    inner = passed[1:21]
    assert len(inner) == 20 and all(q is p for q in inner)


def float17_with_branches(x):
    """The earlier float17, with explicit non-finite branches (oracle)."""
    x = float(x)
    if np.isinf(x):
        return "inf" if x > 0 else "-inf"
    if np.isnan(x):
        return "nan"
    return format(x, ".17g")


def test_float17_matches_the_branching_form():
    rng = np.random.default_rng(17)
    tiny = np.finfo(float).tiny
    specials = [np.inf, -np.inf, np.nan, -np.nan, np.copysign(np.nan, -1.0), 0.0, -0.0,
                1.0, -1.0, tiny, -tiny, tiny / 2.0, 5e-324, -5e-324, np.finfo(float).max,
                np.float64(0.1), np.float32(0.1), 7, True]
    mags = 10.0 ** rng.uniform(-300.0, 300.0, 10_000)
    values = specials + list(mags * rng.choice([-1.0, 1.0], mags.size))
    for x in values:
        assert float17(x) == float17_with_branches(x), repr(x)
    assert [float17(x) for x in (np.inf, -np.inf, np.nan, -0.0)] == ["inf", "-inf", "nan", "-0"]


def test_distinct_is_unique():
    rng = np.random.default_rng(7)
    for n in (0, 1, 2, 17, 3000):
        values = rng.integers(0, max(n // 3, 1), n)
        assert util._distinct(values).tolist() == np.unique(values).tolist()


def python_extrema(values, closed, kind, cap):
    """The candidates of util._extrema_indices by a loop over the samples,
    ranked by Python's stable sort: best first, ties in index order."""
    v = [(1.0 if kind == "min" else -1.0) * float(x) for x in values]
    n = len(v)
    found = []
    for i, x in enumerate(v):
        left = v[i - 1] if closed or i > 0 else np.inf
        right = v[(i + 1) % n] if closed or i < n - 1 else np.inf
        if x <= left and x <= right and (x < left or x < right) and np.isfinite(x):
            found.append(i)
    return sorted(found, key=lambda i: v[i])[:cap]


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("kind", ["min", "max"])
def test_extrema_cap_keeps_ties_in_index_order(closed, kind):
    # Noise on a few levels has hundreds of extrema and ties at the cap-th
    # value: the cut keeps the first of the tied candidates in index order.
    rng = np.random.default_rng(12)
    row = rng.integers(0, 5, 2001).astype(float)
    row[::2] = rng.integers(-3, 9, 1001)  # every other sample a spike or a dip
    for cap in (1, 4, 8, 37, 64, 10_000):
        want = python_extrema(row, closed, kind, cap)
        got = util._extrema_indices(row, closed, kind, cap)
        assert got.dtype == np.intp and got.tolist() == want, cap
    ranked = [(1.0 if kind == "min" else -1.0) * row[i] for i in python_extrema(row, closed, kind, 10_000)]
    assert len(ranked) > 64 and ranked[7] == ranked[8]  # a cut inside a tie at cap = 8


# ---------------------------------------------------------------------------
# brent_rows against scipy's brentq
# ---------------------------------------------------------------------------


def _scalar(f):
    """f evaluated on one-element arrays, so the oracle sees the same values."""
    return lambda x: float(f(np.array([x]))[0])


BRENT_FUNCTIONS = [
    lambda x: np.cos(x) - x,
    lambda x: x**3 - 2.0 * x - 5.0,
    lambda x: np.exp(x) - 3.0,
    lambda x: np.tanh(5.0 * (x - 0.3)) + 0.01 * x,
    lambda x: np.sin(10.0 * x) + 0.5,
    lambda x: np.floor(4.0 * x) - 1.0 + 0.0 * x,
]


@pytest.mark.parametrize("xtol", [1e-14, 2e-12, 1e-6])
@pytest.mark.parametrize("k", range(len(BRENT_FUNCTIONS)))
def test_brent_rows_equal_brentq(k, xtol):
    optimize = pytest.importorskip("scipy.optimize")
    f = BRENT_FUNCTIONS[k]
    rng = np.random.default_rng(100 + k)
    a, b = rng.uniform(-3.0, 3.0, 300), rng.uniform(-3.0, 3.0, 300)
    keep = np.signbit(f(a)) != np.signbit(f(b))
    a, b = a[keep], b[keep]
    g, sizes = counted(f)
    roots = brent_rows(g, a, b, xtol)
    oracle = [optimize.brentq(_scalar(f), x, y, xtol=xtol, full_output=True)[1] for x, y in zip(a, b)]
    np.testing.assert_array_equal(roots, [r.root for r in oracle])
    # One call on both ends, then one per iteration on the rows still active
    # (brentq does not set `iterations` when an end is a root, so count the
    # rows from its function calls).
    calls = np.array([r.function_calls for r in oracle])
    assert sizes == [2 * len(a)] + [int(np.sum(calls > i + 1)) for i in range(1, calls.max() - 1)]


def test_brent_rows_exits_where_f_is_zero():
    optimize = pytest.importorskip("scipy.optimize")

    def f(x):
        return x - 0.5

    a = np.array([0.5, 0.0, 0.0, -1.0])
    b = np.array([2.0, 0.5, 1.0, 3.0])
    roots = brent_rows(f, a, b, 1e-12)
    assert roots[0] == 0.5 and roots[1] == 0.5  # an end that is a root
    for x, y, r in zip(a, b, roots):
        assert r == optimize.brentq(_scalar(f), x, y, xtol=1e-12)
    assert f(roots[2:]).tolist() == [0.0, 0.0]  # exits on an exact zero inside


def test_brent_rows_maxiter_matches_brentq():
    optimize = pytest.importorskip("scipy.optimize")
    f = BRENT_FUNCTIONS[3]
    a, b = np.array([-2.0, 0.0]), np.array([2.5, 1.0])
    for x, y in zip(a, b):
        r = optimize.brentq(_scalar(f), x, y, xtol=1e-14, full_output=True)[1]
        assert brent_rows(f, x, y, 1e-14, maxiter=r.iterations)[0] == r.root
        with pytest.raises(RuntimeError):
            optimize.brentq(_scalar(f), x, y, xtol=1e-14, maxiter=r.iterations - 1)
        with pytest.raises(RuntimeError):
            brent_rows(f, x, y, 1e-14, maxiter=r.iterations - 1)
    with pytest.raises(RuntimeError):
        brent_rows(f, a, b, 1e-14, maxiter=3)


def test_brent_rows_rejects_same_sign_and_nan():
    with pytest.raises(ValueError, match="different signs"):
        brent_rows(lambda x: x * x + 1.0, [-1.0, 0.0], [1.0, 1.0], 1e-12)
    with pytest.raises(ValueError, match="NaN"):
        brent_rows(lambda x: np.where(x > 0.25, np.nan, x), [-1.0], [1.0], 1e-12)
    assert brent_rows(np.cos, [], [], 1e-12).shape == (0,)


def test_brent_rows_args_give_each_row_alone():
    # Per-row parameters passed through args give, bit for bit, the roots of
    # separate one-row calls whose function closes over each row's
    # parameters; f sees them doubled on the ends, then sliced to the
    # active rows.
    rng = np.random.default_rng(29)
    p = rng.uniform(-1.0, 1.0, 50)
    q = rng.uniform(0.5, 3.0, 50)
    a, b = p - rng.uniform(0.1, 2.0, 50), p + rng.uniform(0.1, 2.0, 50)
    seen = []

    def f(x, p, q):
        seen.append((len(x), len(p), len(q)))
        return np.tanh(q * (x - p)) + 0.05 * (x - p) ** 3

    roots = brent_rows(f, a, b, 1e-14, args=(p, q))
    assert seen[0] == (100, 100, 100) and all(n == m == k for n, m, k in seen)
    for k in range(len(a)):
        alone = brent_rows(lambda x: f(x, p[k:k + 1], q[k:k + 1]), a[k], b[k], 1e-14)
        assert roots[k] == alone[0]


def test_brent_rows_given_ends_skip_their_call():
    # End values from the caller give the same roots bit for bit, and f is
    # called only on the iterates; a nan end value is still rejected.
    f = BRENT_FUNCTIONS[3]
    rng = np.random.default_rng(31)
    a, b = rng.uniform(-3.0, 0.2, 40), rng.uniform(0.4, 3.0, 40)
    g, sizes = counted(f)
    roots = brent_rows(g, a, b, 1e-14, ends=(f(a), f(b)))
    g_all, sizes_all = counted(f)
    assert roots.tobytes() == brent_rows(g_all, a, b, 1e-14).tobytes()
    assert sizes_all[0] == 2 * len(a) and sizes == sizes_all[1:]
    with pytest.raises(ValueError, match="NaN"):
        brent_rows(f, a, b, 1e-14, ends=(f(a), np.where(b > 1.0, np.nan, f(b))))


# ---------------------------------------------------------------------------
# refine_minima: the bracket rule of the focal extrema and the touching zeros
# ---------------------------------------------------------------------------


def _well(s, c, w):
    """A tilted well with its minimum near c: (value, slope, a carried output)."""
    return w * (s - c) ** 2 + 1e-3 * np.cos(3.0 * s), 2.0 * w * (s - c) - 3e-3 * np.sin(3.0 * s), np.cos(s)


def _grid_and_rows(closed, m, seed):
    from weighted_tubes import CircleArcCurve

    curve = CircleArcCurve(0.0, 2.0 * np.pi, closed=True) if closed else CircleArcCurve(-1.0, 1.0)
    sg = curve.grid(33)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(sg), m)
    step = curve.length / len(sg)
    return curve, sg, idx, sg[idx] + rng.uniform(-1.5, 1.5, m) * step, rng.uniform(0.5, 2.0, m)


@pytest.mark.parametrize("closed", [True, False])
def test_refine_minima_rows_equal_one_row_calls(closed):
    # Each row, refined by Brent, taken from its node or from an end, is
    # the row's own one-row call with its own args, bit for bit.
    curve, sg, idx, c, w = _grid_and_rows(closed, 60, 5 if closed else 6)
    value, _, rest = _well(sg[idx], c, w)
    out = refine_minima(_well, curve, sg, idx, (value, rest), "well", args=(c, w))
    assert len(out) == 3
    for k in range(len(idx)):
        alone = refine_minima(_well, curve, sg, idx[k:k + 1], (value[k:k + 1], rest[k:k + 1]), "well",
                              args=(c[k:k + 1], w[k:k + 1]))
        for batch, one in zip(out, alone):
            assert batch[k:k + 1].tobytes() == one.tobytes()
    lo, hi = _bracket(curve, sg, idx)
    x, v, r = out
    assert np.all((lo <= x) & (x <= hi))
    np.testing.assert_array_equal(r, np.cos(x))
    # The refined value is never above the node's or an end's.
    ends = np.minimum(_well(lo, c, w)[0], _well(hi, c, w)[0])
    assert np.all(v <= np.minimum(value, ends))
    inside = (lo < c) & (c < hi)
    assert np.max(np.abs(_well(x[inside], c[inside], w[inside])[1])) < 1e-12


def test_refine_minima_unbracketed_rows_take_the_first_smallest_candidate():
    curve, sg, idx, _, _ = _grid_and_rows(True, 10, 7)
    lo, hi = _bracket(curve, sg, idx)
    one = np.ones_like

    # Slopes of one sign: the smaller end.
    x, v, r = refine_minima(lambda s: (s, one(s), 10.0 * s), curve, sg, idx, (sg[idx], 10.0 * sg[idx]), "s")
    np.testing.assert_array_equal(x, lo)
    np.testing.assert_array_equal(r, 10.0 * lo)
    x, _, _ = refine_minima(lambda s: (-s, -one(s), s), curve, sg, idx, (-sg[idx], sg[idx]), "-s")
    np.testing.assert_array_equal(x, hi)
    # A node no larger than both ends is kept, with its own outputs (ties
    # keep the first candidate).
    for node in (0.0, 1.0):
        x, v, r = refine_minima(lambda s: (one(s), one(s), s), curve, sg, idx,
                                (np.full(len(idx), node), np.full(len(idx), -7.0)), "flat")
        np.testing.assert_array_equal(x, sg[idx])
        assert v.tolist() == [node] * len(idx) and r.tolist() == [-7.0] * len(idx)
    # An end slope that is not finite sends no row to Brent: f is called on
    # the ends only.
    for bad in (-np.inf, np.nan):
        calls = []

        def f(s):
            calls.append(len(s))
            return (s - sg[idx[0]]) ** 2, np.where(s < sg[idx[0]], bad, 1.0), s

        x, v, _ = refine_minima(f, curve, sg, idx[:1], (np.array([1.0]), sg[idx[:1]]), "f")
        assert calls == [2] and x[0] == lo[0] and v[0] == (lo[0] - sg[idx[0]]) ** 2


def test_refine_minima_end_slope_zero_returns_that_end():
    curve, sg, idx, _, _ = _grid_and_rows(False, 12, 8)
    idx = np.clip(idx, 1, len(sg) - 2)
    lo, hi = _bracket(curve, sg, idx)
    # The nodes' values are the smallest, so only Brent's exit on a zero end
    # slope can return the ends.
    for end in (lo, hi):
        x, v, r = refine_minima(lambda s, c: (1.0 + (s - c) ** 2, 2.0 * (s - c), s), curve, sg, idx,
                                (np.full(len(idx), 0.5), sg[idx]), "well", args=(end,))
        np.testing.assert_array_equal(x, end)
        np.testing.assert_array_equal(r, end)
        assert v.tolist() == [1.0] * len(idx)


def test_refine_minima_empty_rows_give_empty_arrays():
    curve, sg, _, _, _ = _grid_and_rows(True, 0, 9)
    empty = np.zeros(0)
    out = refine_minima(_well, curve, sg, np.zeros(0, dtype=int), (empty, empty), "well", args=(empty, empty))
    assert [a.shape for a in out] == [(0,), (0,), (0,)]


def test_unrefined_row_is_a_numeric_failure(monkeypatch, tmp_path, capsys):
    # A row that Brent's method does not converge on raises NumericError
    # from the focal radii and from the touching zeros of g, and the CLI
    # exits 3.
    from weighted_tubes import NumericError, cli, focal_radii, load_scene, singular

    def brent_rows(*args, **kwargs):
        raise RuntimeError("Failed to converge after 100 iterations")

    monkeypatch.setattr(util, "brent_rows", brent_rows)
    scene = load_scene("example4")
    curve, weight = scene.pairs[0]
    with pytest.raises(NumericError, match="focal extremum not refined: Failed to converge"):
        focal_radii(scene.pairs, scene.tolerances)
    with pytest.raises(NumericError, match="touching zero of g not refined: Failed to converge"):
        singular.g_zero_set(curve, weight, scene.tolerances)
    for verb in ("report", "singular", "check"):
        assert cli.main([verb, "--scene", "example4", "--out", str(tmp_path / "out")]) == 3
        assert "not refined: Failed to converge" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Sums and norms over a coordinate axis
# ---------------------------------------------------------------------------


def _same_bits(got, want):
    return type(got) is type(want) and np.shape(got) == np.shape(want) and got.tobytes() == want.tobytes()


def _coord_cases(rng, d):
    """Rows of d coordinates: 10^5 random ones of sizes 1e-3 to 1e3 with
    random signs, rows drawn from signed zeros, nan, infinities, huge,
    tiny and subnormal values, and rows of one such value each."""
    n = 10**5
    rows = rng.choice([-1.0, 1.0], (n, d)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, d))
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e308, -1e308, 1e200, 1e-170, 5e-324, -5e-324,
                        2.2250738585072014e-308, 1.0, -3.0])
    drawn = rng.choice(special, (4000, d))
    each = np.repeat(special[:, None], d, axis=1)
    return rows, drawn, each


@pytest.mark.parametrize("d", list(range(1, 10)) + [16])
def test_coord_sum_and_norm_are_numpys_reduce_bit_for_bit(d):
    # Below 8 terms numpy adds left to right from 0.0 and the helper adds
    # columns in that order; from 8 on numpy sums pairwise and the helper
    # calls it. A numpy whose reduce order changes fails here, and every
    # norm and dot product on the jet, arclength and F_p paths with it.
    rng = np.random.default_rng(500 + d)
    with np.errstate(all="ignore"):
        for rows in _coord_cases(rng, d):
            shapes = (rows, rows[7], rows[:len(rows) // 4 * 4].reshape(4, -1, d),
                      np.asfortranarray(rows), rows[::3], rows.T.copy().T)
            for x in shapes:
                assert _same_bits(util._coord_sum(x), np.add.reduce(x, axis=-1)), (d, x.shape)
                assert _same_bits(util._coord_norm(x), np.linalg.norm(x, axis=-1)), (d, x.shape)
        # A row of -0.0 sums to +0.0, as numpy's reduce from 0.0 gives it.
        zero = util._coord_sum(np.full((3, d), -0.0))
        assert np.all(zero == 0.0) and not np.any(np.signbit(zero))
        # Sums and squares that overflow give inf, and subnormals add exactly.
        assert np.all(util._coord_sum(np.full((2, d), 1e308)) == (1e308 if d == 1 else np.inf))
        assert util._coord_norm(np.full(d, 1e200)) == np.inf
        assert util._coord_sum(np.full(d, 5e-324)) == d * 5e-324


def _same_values(got, want):
    """Bits equal off the nans and nans in the same cells: einsum's kernel
    propagates one of two nan operands by its compiler's operand order."""
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("d", range(2, 10))
def test_coord_dot_is_einsum(d):
    # The pair grid's three products (|d|^2, d.t1 with t1 broadcast along a
    # row, d.t2) on 90 random (n, w) grids per d, a third of the entries
    # signed zeros, infinities, nan, subnormal or 1e+-300.
    rng = np.random.default_rng(800 + d)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308,
                        1e300, -1e300, 1e-300, -1e-300])

    def grid(shape):
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-5, 5, size=shape)
        drawn = rng.random(shape) < 0.3
        x[drawn] = rng.choice(special, size=int(drawn.sum()))
        return x

    with np.errstate(all="ignore"):
        for _ in range(90):
            n, w = rng.integers(1, 40, size=2)
            diff, t1, t2 = grid((n, w, d)), grid((n, d)), grid((n, w, d))
            xs = list(np.moveaxis(diff, -1, 0))
            assert _same_values(util._coord_dot(xs, xs), np.einsum("ijk,ijk->ij", diff, diff))
            assert _same_values(util._coord_dot(xs, [x[:, None] for x in t1.T]), np.einsum("ijk,ik->ij", diff, t1))
            assert _same_values(util._coord_dot(xs, list(np.moveaxis(t2, -1, 0))),
                                np.einsum("ijk,ijk->ij", diff, t2))
        # A sum of -0.0 products is +0.0, as einsum's lanes from 0.0 give it.
        zero = util._coord_dot([np.full(3, -0.0)] * d, [np.ones(3)] * d)
        assert np.all(zero == 0.0) and not np.any(np.signbit(zero))
