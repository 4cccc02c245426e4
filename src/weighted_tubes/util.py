"""Small helpers: sums and norms over a coordinate axis, 1-D searches and root
finding, extrema on 1-D and 2-D grids and brackets, quadrature nodes, number
formatting, pair and offset lists."""

import functools
import math

import numpy as np

from .errors import NumericError


def as_pairs(pairs):
    """A list of (curve, weight) pairs from one pair or a list of them."""
    if isinstance(pairs, (list, tuple)) and pairs and isinstance(pairs[0], (list, tuple)):
        return list(pairs)
    return [tuple(pairs)]


def _coord_sum(x):
    """Sums over the last axis, bit for bit `np.add.reduce(x, axis=-1)`.

    Below 8 terms numpy adds left to right from 0.0 (a row of -0.0 sums to
    +0.0), in any memory layout; here that is d - 1 column adds where numpy
    runs one reduce loop per row, about a tenth of its time on (N, 3) rows.
    From 8 terms on numpy sums pairwise, so those rows keep its reduce.
    """
    n = x.shape[-1]
    if not 0 < n < 8:
        return np.add.reduce(x, axis=-1)
    out = 0.0 + x[..., 0]
    for k in range(1, n):
        out += x[..., k]
    return out


def _coord_norm(x):
    """Euclidean norms over the last axis, bit for bit `np.linalg.norm(x, axis=-1)`."""
    return np.sqrt(_coord_sum(x * x))


def _coord_dot(xs, ys):
    """sum_k xs[k] ys[k] over two sequences of d broadcastable arrays, one per
    coordinate: the values of `np.einsum("...k,...k->...")` on the arrays
    stacked along a last axis, bit for bit but for the sign of a nan.

    Below 8 terms einsum's kernel adds the products in two lanes from 0.0,
    the even coordinates into the first and the odd ones into the second,
    then the first lane plus the second; here that is whole-array adds, with
    no (..., d) stack. From 8 terms on its kernel unrolls further, so those
    keep np.einsum."""
    if not 2 <= len(xs) < 8:
        x, y = (np.stack(np.broadcast_arrays(*v), axis=-1) for v in (xs, ys))
        return np.einsum("...k,...k->...", x, y)
    lanes = []
    for k, (x, y) in enumerate(zip(xs, ys)):
        p = x * y
        if k < 2:
            lanes.append(np.add(0.0, p, out=p))
        else:
            lanes[k % 2] += p
    return lanes[0] + lanes[1]


def _offset_array(offsets):
    """The weight offsets as a 1-D float array; None means the weights as given."""
    return np.atleast_1d(np.asarray(0.0 if offsets is None else offsets, dtype=float))


def _extrema_indices(values, closed, kind, cap):
    """Indices of candidate local minima/maxima, ties allowed on one side.

    A point qualifies when it is no worse than both neighbors and strictly
    better than at least one (so flat plateaus are skipped but symmetric
    ties around an off-grid extremum are kept). Open arcs pad with the
    worst value, letting endpoints qualify. An int array of at most `cap`
    indices, best first.
    """
    v = np.asarray(values, dtype=float)
    sign = 1.0 if kind == "min" else -1.0
    v = sign * v
    n = len(v)
    if closed:
        left = np.roll(v, 1)
        right = np.roll(v, -1)
    else:
        left = np.concatenate([[np.inf], v[:-1]])
        right = np.concatenate([v[1:], [np.inf]])
    with np.errstate(invalid="ignore"):
        ok = (v <= left) & (v <= right) & ((v < left) | (v < right)) & np.isfinite(v)
    idx = np.nonzero(ok)[0]
    idx = idx[np.argsort(v[idx], kind="stable")]
    return idx[:cap]


def _distinct(values):
    """The distinct values of an integer array, ascending, as np.unique
    gives them, from one sort: np.unique took 5-14x as long on arrays of
    300-3,000 grid cells."""
    v = np.sort(values)
    keep = np.ones(len(v), dtype=bool)
    keep[1:] = v[1:] != v[:-1]
    return v[keep]


def _grid_local_minima(mat, per_rows, per_cols, low=None, circulant=False):
    """Linear indices, ascending, of the grid cells that are finite and no
    larger than any of their eight neighbours; the neighbours wrap around
    periodic axes, and none lie beyond the ends of open ones. A nan
    neighbour rules a cell out. With circulant, only the owned cells of a
    circulant layout (see _layout) are searched.

    One pass takes the minimum of every cell's two row neighbours; the cells
    no larger than theirs are then compared with the cells above and below
    and with those cells' row-neighbour minima. low, a C-contiguous array of
    mat's shape, may be given to hold the row-neighbour minima; all of it is
    rewritten, and mat is only read. The pair search seeds Newton from the
    minima of both its grids, sigma and its gradient norm, through this one
    search."""
    low = _row_neighbours(mat, per_cols, low, circulant)
    cells = _owned(mat <= low, circulant)
    flat, low = mat.reshape(-1), low.reshape(-1)
    own = flat[cells]
    keep = np.isfinite(own)
    for nb, on in _column_neighbours(cells, mat.shape, per_rows, circulant):
        keep &= ~on | ((own <= flat[nb]) & (own <= low[nb]))
    return cells[keep]


def _layout(shape, circulant):
    """(m, shear) of the grid M an array of this shape holds: cell [r, k]
    holds M[r, (k + shear (r - 1)) mod m]. The plain layout (shear 0) is M.
    The circulant one (shear 1) holds a symmetric n x n grid in n x
    (n // 2 + 4) cells, column k the cells q - p = k - 1 (mod n). Its owned
    columns 2 ... n // 2 + 1 hold each off-diagonal cell or its mirror (both
    where q - p = n / 2), and the neighbours of their cells lie in the
    array: M[p, q +- 1] at [p, k +- 1], M[p -+ 1, q] at [p -+ 1, k +- 1]."""
    return (shape[0], 1) if circulant else (shape[1], 0)


def _owned(mask, circulant):
    """Linear indices of the True cells of mask (rewritten) that a search owns."""
    if circulant:
        mask[:, :2] = mask[:, mask.shape[0] // 2 + 2:] = False
    return np.flatnonzero(mask)


def _row_neighbours(mat, per_cols, out=None, circulant=False):
    """The minimum of each cell's left and right neighbour in its row of M,
    into out (a new array by default; C-contiguous when given); they wrap on
    periodic columns, and one beyond the end of an open axis reads +inf. A
    nan neighbour gives nan. A circulant layout's first and last columns,
    which no search reads, may hold any value."""
    out = np.empty_like(mat) if out is None else out
    flat, dest = mat.reshape(-1), out.reshape(-1)
    np.minimum(flat[:-2], flat[2:], out=dest[1:-1])
    for cells, left, right in _row_ends(mat.shape, per_cols, circulant):
        dest[cells] = np.minimum(np.inf if left is None else flat[left], np.inf if right is None else flat[right])
    return out


@functools.cache
def _row_ends(shape, per_cols, circulant):
    """Flat indices of the cells in M's first and last columns and of their
    left and right neighbours (None beyond an open end) in an array of this
    shape, which a flat pass misreads; none in a periodic circulant one."""
    n, w = shape
    m, shear = _layout(shape, circulant)
    r = np.tile(np.arange(n), 2)
    ends = []
    for c in () if circulant and per_cols else (0, m - 1):
        k = (c - shear * (r - 1)) % m + np.repeat([0, m], n)
        rw, k = r[k < w] * w, k[k < w]
        ends.append((rw + k, rw + (k - 1) % w if per_cols or c > 0 else None,
                     rw + (k + 1) % w if per_cols or c < m - 1 else None))
    return ends


def _column_neighbours(cells, shape, per_rows, circulant=False):
    """For the cells above and then below the given ones (linear indices):
    their linear indices, wrapped on periodic rows, and whether each lies
    on the grid."""
    size, step = shape[0] * shape[1], shape[1] - _layout(shape, circulant)[1]
    for nb in (cells - step, cells + step):
        yield nb % size, per_rows | ((nb >= 0) & (nb < size))


def _bracket(curve, sg, idx):
    """Brackets (lo, hi) around the grid indices idx: one grid step either
    side, clamped to the ends on open arcs."""
    n = len(sg)
    if curve.closed:
        step = curve.length / n
        return sg[idx] - step, sg[idx] + step
    return sg[np.maximum(idx - 1, 0)], sg[np.minimum(idx + 1, n - 1)]


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, a, b, tol=1e-12, maxiter=200, args=()):
    """Row-wise golden-section minima of f over the brackets [a, b].

    a and b are arrays of bracket ends (scalars make one row) and f maps an
    array of abscissae to an array of values. Every row follows the scalar
    golden-section sequence: a reversed bracket is swapped, the left interior
    point is kept when f1 <= f2, and a row stops once (b - a) <= tol (a
    scalar, or one value per row); all rows share one maxiter. Each
    iteration calls f once, on the rows still active. The endpoints take
    part in the final pick over (a, b, x1, x2), which keeps the first value
    unless a later one is strictly smaller (the rule of Python's min, so
    ties and nan resolve as in a scalar loop), and boundary minima are
    reported exactly at the boundary; the last call of f takes both ends of
    every row. Returns arrays (x, f(x)).

    args are extra per-row parameters: arrays with one value per bracket,
    passed to f as f(x, *args) and sliced to the rows of x once some row
    has stopped.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    a, b = np.where(b < a, b, a), np.where(b < a, a, b)
    if not len(a):
        return a, b
    tol = np.broadcast_to(np.asarray(tol, dtype=float), a.shape)
    args = [np.asarray(p) for p in args]
    twice = [np.concatenate([p, p]) for p in args]
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = np.split(np.asarray(f(np.concatenate([x1, x2]), *twice), dtype=float), 2)
    active = (b - a) > tol
    for _ in range(maxiter):
        k = active.nonzero()[0]
        if not len(k):
            break
        left = f1[k] <= f2[k]
        right = ~left
        kl, kr = k[left], k[right]
        b[kl], x2[kl], f2[kl] = x2[kl], x1[kl], f1[kl]
        a[kr], x1[kr], f1[kr] = x1[kr], x2[kr], f2[kr]
        # The new bracket, gathered once: its width gives the new point and the stop test.
        lo, hi = a[k], b[k]
        width = hi - lo
        xn = np.where(left, hi - _GOLDEN * width, lo + _GOLDEN * width)
        rows = args if len(k) == len(a) else [p[k] for p in args]
        fn = np.asarray(f(xn, *rows), dtype=float)
        x1[kl], f1[kl] = xn[left], fn[left]
        x2[kr], f2[kr] = xn[right], fn[right]
        active[k] = width > tol[k]
    fa, fb = np.split(np.asarray(f(np.concatenate([a, b]), *twice), dtype=float), 2)
    x, fx = a, fa
    for xc, fc in ((b, fb), (x1, f1), (x2, f2)):
        better = fc < fx
        x, fx = np.where(better, xc, x), np.where(better, fc, fx)
    return x, fx


def brent_rows(f, a, b, xtol, rtol=4 * np.finfo(float).eps, maxiter=100, args=(), ends=None):
    """Row-wise roots of f in the brackets [a, b] by Brent's method.

    A row-wise transcription of the common `brentq` routine (R. P. Brent,
    Algorithms for Minimization without Derivatives, 1973): every row
    follows the scalar sequence, with its choice of inverse interpolation,
    extrapolation or bisection, the tolerance delta = (xtol + rtol |x|) / 2
    and the exits where f is 0, and stops on its own test. f maps an array
    of abscissae to an array of values; it is called once on both ends,
    unless ends gives their values (f(a), f(b)), then once per iteration on
    the rows still active. Raises ValueError where the ends of a bracket
    share a sign or f is nan, and RuntimeError when a row has not converged
    after maxiter iterations.

    args are extra per-row parameters: arrays with one value per bracket,
    passed to f as f(x, *args), doubled for the call on both ends and
    sliced to the active rows after it.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if not len(b):
        return b
    args = [np.asarray(p) for p in args]
    x = np.concatenate([a, b])
    fx = f(x, *[np.concatenate([p, p]) for p in args]) if ends is None else np.concatenate(ends)
    fa, fb = np.split(_checked(x, fx), 2)
    x = np.where(fa == 0, a, b)
    active = (fa != 0) & (fb != 0)
    if np.any(active & (np.signbit(fa) == np.signbit(fb))):
        raise ValueError("f(a) and f(b) must have different signs")
    # Rows: previous and current iterate, the bracket's other end, their
    # values, and the previous and current step.
    state = np.zeros((8, len(x)))
    state[[0, 1, 3, 4]] = a, b, fa, fb
    for _ in range(maxiter):
        k = np.nonzero(active)[0]
        xp, xc, xb, fp, fc, fb, sp, sc = state[:, k]
        new = (fp != 0) & (fc != 0) & (np.signbit(fp) != np.signbit(fc))
        xb, fb = np.where(new, xp, xb), np.where(new, fp, fb)
        sp, sc = np.where(new, xc - xp, sp), np.where(new, xc - xp, sc)
        swap = np.abs(fb) < np.abs(fc)
        xp, xc, xb = np.where(swap, xc, xp), np.where(swap, xb, xc), np.where(swap, xc, xb)
        fp, fc, fb = np.where(swap, fc, fp), np.where(swap, fb, fc), np.where(swap, fc, fb)
        delta = (xtol + rtol * np.abs(xc)) / 2
        sbis = (xb - xc) / 2
        done = (fc == 0) | (np.abs(sbis) < delta)
        x[k[done]] = xc[done]
        active[k[done]] = False
        if np.all(done):
            return x
        with np.errstate(all="ignore"):
            dpre = (fp - fc) / (xp - xc)
            dblk = (fb - fc) / (xb - xc)
            stry = np.where(
                xp == xb,
                -fc * (xc - xp) / (fc - fp),
                -fc * (fb * dblk - fp * dpre) / (dblk * dpre * (fb - fp)),
            )
        bound = 3 * np.abs(sbis) - delta
        good = (
            (np.abs(sp) > delta)
            & (np.abs(fc) < np.abs(fp))
            & (2 * np.abs(stry) < np.where(np.abs(sp) < bound, np.abs(sp), bound))
        )
        sp, sc = np.where(good, sc, sbis), np.where(good, stry, sbis)
        step = np.where(np.abs(sc) > delta, sc, np.where(sbis > 0, delta, -delta))
        kg = k[~done]
        state[:, kg] = np.stack([xc, xc + step, xb, fc, fc, fb, sp, sc])[:, ~done]
        state[4, kg] = _checked(state[1, kg], f(state[1, kg], *[p[kg] for p in args]))
    if np.any(active):
        raise RuntimeError(f"Failed to converge after {maxiter} iterations")
    return x


def refine_minima(f, curve, sg, idx, node, what, args=()):
    """Per bracket row around the grid index idx (`_bracket`), the foot
    minimizing f's value and f's outputs there. f(s, *args) returns (value,
    slope, *rest) over the feet s, with args one array per row; node holds
    (value, *rest) at the nodes sg[idx]. The ends of every row are evaluated
    in one call, and a row takes the first smallest value of its node and
    ends. The rows whose end slopes are finite, <= 0 and >= 0 are refined to
    the roots of their slopes in one `brent_rows` call, which takes those
    slopes as its end values (xtol 1e-14 max(1, L),
    `brent_maxiter` of the grid step; an end whose slope is 0 is the
    answer), and f is evaluated once more, at the roots. A row that does not
    converge raises NumericError ("<what> not refined"). Returns
    (x, value, *rest).
    """
    ends = np.concatenate(_bracket(curve, sg, idx))
    value, slope, *rest = f(ends, *[np.concatenate([p, p]) for p in args])
    out = [sg[idx], *node]
    for end in np.split(np.stack([ends, value, *rest]), 2, axis=1):
        better = end[1] < out[1]
        out = [np.where(better, v, o) for v, o in zip(end, out)]
    (lo, hi), (sa, sb) = np.split(ends, 2), np.split(slope, 2)
    k = np.nonzero(np.isfinite(sa) & np.isfinite(sb) & (sa <= 0.0) & (sb >= 0.0))[0]
    if len(k):
        xtol = 1e-14 * max(1.0, curve.length)
        args = [p[k] for p in args]
        try:
            root = brent_rows(lambda s, *p: f(s, *p)[1], lo[k], hi[k], xtol,
                              maxiter=brent_maxiter(curve.length / len(sg), xtol), args=args,
                              ends=(sa[k], sb[k]))
        except RuntimeError as exc:
            raise NumericError(f"{what} not refined: {exc}") from exc
        value, _, *rest = f(root, *args)
        for o, v in zip(out, (root, value, *rest)):
            o[k] = v
    return out


def brent_maxiter(step, xtol):
    """Brent's iteration budget for brackets of width step: where f is flat
    near its root, Brent's method can take more steps than bisection's
    log2(step / xtol), so max(100, 4 ceil(log2(step / xtol)))."""
    return max(100, 4 * math.ceil(math.log2(step / xtol)))


def _checked(x, fx):
    """The values fx of f at x as a float array; ValueError where one is nan."""
    fx = np.asarray(fx, dtype=float)
    if np.any(np.isnan(fx)):
        raise ValueError(f"The function value at x={x[np.isnan(fx)][0]} is NaN")
    return fx


@functools.cache
def gauss_legendre(n):
    """Cached Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def quintic_smoothstep(u):
    """C^2 unit step 6u^5 - 15u^4 + 10u^3, clipped outside [0, 1]."""
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (u * (6.0 * u - 15.0) + 10.0)


def quintic_smoothstep_d1(u):
    u = np.asarray(u, dtype=float)
    inside = (u > 0.0) & (u < 1.0)
    uu = np.clip(u, 0.0, 1.0)
    d = 30.0 * uu * uu * (1.0 - uu) ** 2
    return np.where(inside, d, 0.0)


def quintic_smoothstep_int(u):
    """Antiderivative of the quintic smoothstep, zero at u = 0."""
    u = np.asarray(u, dtype=float)
    below = np.clip(u, 0.0, 1.0)
    val = below**4 * (below * (below - 3.0) + 2.5)
    return val + np.maximum(u - 1.0, 0.0)


def float17(x):
    """17-significant-digit decimal form ('inf', '-inf' and 'nan' included)."""
    return format(float(x), ".17g")
