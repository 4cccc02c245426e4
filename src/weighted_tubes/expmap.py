"""The weighted normal exponential map and the squared weighted distance.

For a foot gamma(s) with unit normal v and height R the map is

    exp(s, v, R) = gamma - mu mu' R^2 gamma' + mu R sqrt(1 - (mu' R)^2) v,

defined while R <= 1/|mu'(s)|. The squared weighted distance from p,
F_p(s) = |p - gamma(s)|^2 / mu(s)^2, drives everything else: feet of the
map are critical points of F_p, and the second derivative of F_p decides
regularity of the map. The ambient potential G(p), the minimum of F_p over
every component, comes with each point's minimizing component and foot.

The batched functions, here and in `singular`, share one row entry (`_rows`:
one curve jet and one weight jet on each call's feet) and one error rule
(`_raise_first`: the first failing row in C order, its first failed check).
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotCriticalFootError, NumericError, OutOfWError
from .util import _coord_sum, as_pairs

PLANE = "PLANE"
SPHERE = "SPHERE"


@dataclass(frozen=True)
class FiberShape:
    """Image of the normal space at one foot: a plane or a sphere."""

    kind: str
    base_point: np.ndarray
    normal: np.ndarray | None = None  # PLANE: unit normal (the tangent)
    center: np.ndarray | None = None  # SPHERE
    radius: float | None = None  # SPHERE


def w_bound(weight, s):
    """Admissible height bound 1/|mu'(s)| (+inf where mu' = 0)."""
    return _bound(weight.d1(s))


def _bound(d1):
    """1/|mu'| from mu' (+inf where mu' = 0)."""
    d1 = np.abs(d1)
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(d1 > 0.0, 1.0 / np.where(d1 > 0, d1, 1.0), np.inf)


def _rowdot(a, b):
    """Row-wise dot products of (m, n) arrays.

    Each row goes through the same vector-dot kernel as a 1-D `a @ b`, so
    the rows reproduce the scalar path's dots and norms bit for bit. A
    left-to-right sum (`util._coord_sum`, np.sum) differs from that kernel
    on about a quarter of random rows, so these keep the matmul path.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _rownorm(a):
    """Row-wise Euclidean norms, bit-identical to 1-D `np.linalg.norm`."""
    return np.sqrt(_rowdot(a, a))


def _rows(curve, weight, s, v, R, order):
    """One row entry for the map's batched functions: feet s, directions or
    points v (last axis ambient) and heights R broadcast to a shape B, as
    rows in C order, and one curve jet and one weight jet of the given order
    on the feet as given: (B, each row's foot, its jets, v (m, n), R (m,))."""
    s, v, R = (np.asarray(x, dtype=float) for x in (s, v, R))
    shape = np.broadcast_shapes(s.shape, v.shape[:-1], R.shape)
    feet = s.ravel()
    rows = np.broadcast_to(np.arange(feet.size).reshape(s.shape), shape).ravel()
    jets = _take((curve.jet(feet, order), weight.jet(feet, order)), rows)
    v = np.broadcast_to(v, shape + v.shape[-1:]).reshape(-1, v.shape[-1])
    return shape, feet[rows], jets, v, np.broadcast_to(R, shape).ravel()


def _take(jets, rows):
    """The (curve, weight) jets at the given rows of their feet."""
    return tuple(tuple(x[rows] for x in jet) for jet in jets)


def _raise_first(*checks):
    """The one error rule of the map's rows: for the first row, in C order,
    that fails any check (mask, make_error), raise make_error(row) of the
    first listed check it fails."""
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if np.any(bad):
        k = int(np.argmax(bad))
        raise next(make_error(k) for mask, make_error in checks if mask[k])


def _offset_rows(jets, s, v, R):
    """Row-wise offsets: (unit normals, admissible bounds, offset checks).

    `jets` are the (curve, weight) jets of order >= 1 at the feet s. Each
    row is projected into the normal space at its foot and normalized; the
    three checks (for `_raise_first`) refuse with OutOfWError a direction
    that is tangent, then a height that is not finite or negative, then one
    above 1/|mu'|.
    """
    t = jets[0][1]
    v = v - _rowdot(v, t)[:, None] * t
    nv = _rownorm(v)
    v = v / np.where(nv > 0.0, nv, 1.0)[:, None]
    bound = _bound(jets[1][1])
    return v, bound, (
        (nv <= 1e-14, lambda k: OutOfWError("direction is tangent to the curve at s")),
        (~(np.isfinite(R) & (R >= 0)), lambda k: OutOfWError("height R must be finite and nonnegative")),
        (R > bound * (1.0 + 1e-12), lambda k: OutOfWError(
            f"R={float(R[k])} exceeds admissible bound {float(bound[k])} at s={float(s[k])}")),
    )


def _nonfinite(what, values, R, s):
    """The check refusing with NumericError a row of values (m, ...) holding
    a value that is not finite; R and s are the rows' heights and feet."""
    bad = ~np.isfinite(values).all(axis=tuple(range(1, values.ndim)))
    return bad, lambda k: NumericError(f"{what} at R={float(R[k])}, s={float(s[k])} is not finite")


def _inside(R, bound):
    """The check refusing with OutOfWError a height not strictly inside the
    admissible set, R < 1/|mu'| (1 - 1e-12)."""
    return R >= bound * (1.0 - 1e-12), lambda k: OutOfWError(
        "offset must be strictly inside the admissible set")


def exp_mu(curve, weight, s, v, R):
    """The map over rows: feet s, directions v (last axis ambient) and
    heights R broadcast together to a shape B (`_rows`); returns B + (n,).

    One curve jet and one weight jet are evaluated on the feet as given.
    Every direction is projected into the normal space at its foot and
    normalized. Raises for the first failing row in C order: OutOfWError
    where the direction is tangent or the height is not finite, negative or
    above 1/|mu'|, then (all rows mapped) NumericError for a non-finite image.
    """
    shape, s, jets, v, R = _rows(curve, weight, s, v, R, 1)
    v, _, checks = _offset_rows(jets, s, v, R)
    _raise_first(*checks)
    with np.errstate(over="ignore", invalid="ignore"):
        pts = _exp_rows(jets, v, R)
    _raise_first(_nonfinite("image", pts, R, s))
    return pts.reshape(shape + v.shape[1:])


def differential(curve, weight, s, v, R):
    """The map's differential over rows: feet s, directions v (last axis
    ambient) and heights R broadcast together to a shape B as in `exp_mu`;
    returns B + (n, n), one column per coordinate.

    The coordinates are the arclength s and the coefficients c of the
    offset R v = R sum c_j e_j on the normal frame e of `normal_frames` at
    the foot, carried along the curve by projection (e_j' = -(e_j . gamma'')
    T); the columns are d/ds, then d/dc_j. With rho = sqrt(1 - mu'^2 R^2):

        dE/ds   = A T - mu mu' R^2 gamma'' + (mu' R rho - mu mu' mu'' R^3 / rho) v
        dE/dc_j = R [mu rho e_j - 2 mu mu' R c_j T - (mu mu'^2 R^2 / rho) c_j v]

    with A = 1 - (mu'^2 + mu mu'') R^2 - mu R rho (v . gamma'') from
    `_along_rows`, the one closed form of the map's second order: F'' at an
    image is (2/mu^2) A, which `is_singular` and `f_second_critical` read.
    One curve jet and one weight jet of order 2 are evaluated on the feet as
    given. Raises for the first failing row in C order (`_raise_first`);
    within a row OutOfWError where it fails `exp_mu`'s offset checks, then
    OutOfWError unless it is strictly inside the admissible set (so
    rho > 0), then NumericError where a column is not finite (a term can
    overflow where the image does not).
    """
    shape, cols, _, _ = _differential(curve, weight, s, v, R)
    return cols.swapaxes(1, 2).reshape(shape + cols.shape[1:])


def _differential(curve, weight, s, v, R):
    """`differential`'s rows, checked: (B, the columns (m, n, n), one column
    per row of each matrix, the rows' feet, R (m,))."""
    shape, s, jets, v, R = _rows(curve, weight, s, v, R, 2)
    v, bound, checks = _offset_rows(jets, s, v, R)
    _, t, g2 = jets[0][:3]
    mu, d1, d2 = jets[1][:3]
    frames = _frames(t)
    c = np.matmul(frames, v[:, :, None])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        along, rho, _ = _along_rows(jets, v, R)
        d_s = (along[:, None] * t - (mu * d1 * R**2)[:, None] * g2
               + (d1 * R * rho - mu * d1 * d2 * R**3 / rho)[:, None] * v)
        mu, d1, r, rho = (x[:, None, None] for x in (mu, d1, R, rho))
        d_c = r * (mu * rho * frames - 2.0 * mu * d1 * r * c * t[:, None]
                   - mu * d1**2 * r**2 / rho * c * v[:, None])
    cols = np.concatenate([d_s[:, None], d_c], axis=1)
    _raise_first(*checks, _inside(R, bound), _nonfinite("differential", cols, R, s))
    return shape, cols, s, R


def _exp_rows(jets, v, R):
    """The map over rows from the (curve, weight) jets of order >= 1 at the
    feet, unit normals v (m, n) and heights R (m,), unchecked."""
    g, t = jets[0][:2]
    mu, d1 = jets[1][:2]
    rad = np.sqrt(np.clip(1.0 - (d1 * R) ** 2, 0.0, None))
    return g - (mu * d1 * R**2)[:, None] * t + (mu * R * rad)[:, None] * v


def _along_rows(jets, v, R):
    """(A, rho, the sum of the sizes of A's three terms) over rows, from the
    (curve, weight) jets of order >= 2 at the feet, unit normals v (m, n)
    and heights R (m,), unchecked: A = 1 - (mu'^2 + mu mu'') R^2 -
    mu R rho (v . gamma'') is the tangential part of the map's d/ds column,
    rho = sqrt(1 - (mu' R)^2) (0 outside the admissible set), and at the
    image p of an offset F_p'' = (2/mu^2) A at its foot.
    """
    g2 = jets[0][2]
    mu, d1, d2 = jets[1][:3]
    rho = np.sqrt(np.clip(1.0 - (d1 * R) ** 2, 0.0, None))
    quad = (d1**2 + mu * d2) * R**2
    bend = mu * R * rho * _rowdot(v, g2)
    return 1.0 - quad - bend, rho, 1.0 + np.abs(quad) + np.abs(bend)


def fiber_geometry(curve, weight, s):
    """Shape of the normal-space image at s: plane iff |mu'(s)| <= 1e-10,
    else the sphere of radius mu/(2|mu'|) centered at gamma - (mu/(2 mu')) gamma'."""
    s = float(s)
    g, t = curve.jet(s, 1)
    mu, d1 = weight.jet(s, 1)
    if abs(d1) <= 1e-10:
        return FiberShape(PLANE, g, normal=t)
    center = g - (mu / (2.0 * d1)) * t
    return FiberShape(SPHERE, g, center=center, radius=mu / (2.0 * abs(d1)))


# ---------------------------------------------------------------------------
# Squared weighted distance and its s-derivatives
# ---------------------------------------------------------------------------


def f_value(curve, weight, s, p):
    return _f_rows(p, curve.jet(s, 0), weight.jet(s, 0))[0]


def f_prime(curve, weight, s, p):
    """dF_p/ds via logarithmic differentiation of E / mu^2."""
    return _f_rows(p, curve.jet(s, 1), weight.jet(s, 1))[1]


def f_second(curve, weight, s, p):
    """d^2F_p/ds^2, valid at any s (not only critical feet)."""
    return _f_rows(p, curve.jet(s, 2), weight.jet(s, 2))[2]


def _f_rows(p, curve_jet, weight_jet):
    """(F_p, dF_p/ds, ...) from the (curve, weight) jets at the feet, one
    s-derivative per order the jets carry past 0 (at most 2), by logarithmic
    differentiation of E / mu^2 with E = |p - gamma|^2 and its derivatives
    each computed once. The sums over the ambient axis are `util._coord_sum`,
    np.add.reduce's bits from column adds instead of a reduce loop per row."""
    diff = np.asarray(p, dtype=float) - curve_jet[0]
    mu = weight_jet[0]
    mu2 = mu**2
    e = _coord_sum(diff * diff)
    out = [e / mu2]
    if len(curve_jet) > 1:
        d1 = weight_jet[1]
        e1 = -2.0 * _coord_sum(diff * curve_jet[1])
        out.append((e1 - 2.0 * e * d1 / mu) / mu2)
    if len(curve_jet) > 2:
        d2 = weight_jet[2]
        e2 = 2.0 * (1.0 - _coord_sum(diff * curve_jet[2]))
        out.append(e2 / mu2 - 4.0 * e1 * d1 / mu**3 + 6.0 * e * d1**2 / mu**4 - 2.0 * e * d2 / mu**3)
    return tuple(out)


def f_second_critical(curve, weight, s, p):
    """Closed-form d^2F_p/ds^2 at a critical foot s of p: (2/mu^2) A with A
    as in `_along_rows`, R = |p - gamma(s)| / mu(s) and v the unit normal
    part of p - gamma(s) (0 where that part vanishes). For a point that is
    an image of the map this is `is_singular`'s value, read without the map.

    Feet s and points p (last axis ambient) broadcast together to a shape B
    as in `exp_mu`; returns B (one row gives a float). One curve jet and one
    weight jet are evaluated on the feet as given. For the first row, in C
    order, that fails a check (`_raise_first`), raises OutOfWError when the
    recovered height exceeds the admissible bound, else NotCriticalFootError
    when s fails the first-order criticality test for p, else NumericError
    when the value is not finite.
    """
    shape, s, jets, p, _ = _rows(curve, weight, s, p, 0.0, 2)
    mu = jets[1][0]
    with np.errstate(over="ignore", invalid="ignore"):
        diff = p - jets[0][0]
        R = _rownorm(diff) / mu
        v, bound, _ = _offset_rows(jets, s, diff, R)
        grad_tol = 1e-8 * 2.0 / mu**2 * np.fmax(1.0, R) * max(1.0, curve.length)
        fp = np.abs(_f_rows(p, jets[0][:2], jets[1][:2])[1])
        values = (2.0 / mu**2) * _along_rows(jets, v, R)[0]
    _raise_first((R > bound * (1.0 + 1e-12), lambda k: OutOfWError(
        f"recovered height {float(R[k])} exceeds admissible bound {float(bound[k])}"
    )), (fp > grad_tol, lambda k: NotCriticalFootError(
        f"foot not critical: |F'|={float(fp[k])} > {float(grad_tol[k])}"
    )), _nonfinite("F''", values, R, s))
    return float(values[0]) if not shape else values.reshape(shape)


def _hess_rows(jets, s, v, R):
    """The second-derivative criterion over offset rows s (m,), v (m, n),
    R (m,), from the (curve, weight) jets of order 2 at the feet.

    Each row is projected and normalized once (`_offset_rows`) and mapped
    once to its image (`_exp_rows`); F'' at the image's foot is (2/mu^2) A
    from the same jets (`_along_rows`), with no second map. Returns (images,
    F'', its scale (2/mu^2 times the sizes of A's terms), admissible bounds,
    `_offset_rows`' checks for the caller's `_raise_first`).
    """
    v, bound, checks = _offset_rows(jets, s, v, R)
    along, _, size = _along_rows(jets, v, R)
    scale = 2.0 / jets[1][0] ** 2
    return _exp_rows(jets, v, R), scale * along, scale * size, bound, checks


# ---------------------------------------------------------------------------
# The ambient potential G
# ---------------------------------------------------------------------------


def _refine_rows(curve, weight, pts, s, step, iters):
    """Row-wise safeguarded Newton for the minima of F_p near seeds.

    Row k looks for the minimum of F for the point pts[k] in the bracket
    [s[k] - step, s[k] + step], clipped to an open arc, starting at s[k].
    Each pass evaluates one curve jet and one weight jet of order 2 at the
    iterates of the rows still active and takes F, F' and F'' from them:
    - the sign of F' shrinks the bracket (at a local maximum, F' = 0 with
      F'' < 0, the left half stays);
    - the next iterate is the Newton step when F'' > 0 and it lands strictly
      inside the bracket, else the bracket midpoint; a row heading out
      through an open-arc end it has not evaluated tries that end instead,
      so a minimum there is the end itself;
    - a row stops at any other zero of F', when its step, or its Newton
      step where F'' > 0, is at most 1e-15 max(1, L), or after `iters`
      passes.
    A row's result never depends on the other rows. Returns (s, F): per
    row, the first evaluated foot of smallest F, the seed included.
    """
    tol = 1e-15 * max(1.0, curve.length)
    s = np.array(s, dtype=float)
    lo, hi = s - step, s + step
    if not curve.closed:
        lo = np.clip(lo, curve.s_min, curve.s_max)
        hi = np.clip(hi, curve.s_min, curve.s_max)
    best_s, best_f = s.copy(), np.full(len(s), np.nan)
    # Bracket ends that are open-arc ends no iterate has reached yet.
    open_lo = (lo == curve.s_min) & (not curve.closed)
    open_hi = (hi == curve.s_max) & (not curve.closed)
    k = np.arange(len(s))
    for n in range(iters):
        if not len(k):
            break
        sk = s[k]
        f, fp, fpp = _f_rows(pts[k], curve.jet(sk, 2), weight.jet(sk, 2))
        better = (f < best_f[k]) | (n == 0)
        best_s[k[better]], best_f[k[better]] = sk[better], f[better]
        # The side of sk the minimum lies on.
        right, left = fp < 0, (fp > 0) | ((fp == 0) & (fpp < 0))
        lo[k] = lk = np.where(right, sk, lo[k])
        hi[k] = hk = np.where(left, sk, hi[k])
        open_lo[k] &= lk != sk
        open_hi[k] &= hk != sk
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            newton = sk - fp / fpp
        inside = (fpp > 0) & (newton > lk) & (newton < hk)
        x = np.where(inside, newton, 0.5 * (lk + hk))
        x = np.where(~inside & left & open_lo[k], lk, x)
        x = np.where(~inside & right & open_hi[k], hk, x)
        s[k] = x
        done = (np.abs(x - sk) <= tol) | ((fpp > 0) & (np.abs(newton - sk) <= tol)) | ~(left | right)
        k = k[~done]
    return best_s, best_f


# Cells (points x grid samples) in one block of the G grid stage: the
# filter's one float64 block buffer takes 512 KiB whatever the number of
# points; the dense rule's two buffers hold only the rows it has to decide.
_G_BLOCK_CELLS = 1 << 16
# Multiply-adds of one block's product, cells x (n + 2). OpenBLAS threads a product of
# about 650k, so blocks stay below that for every n; for n <= 6 the cell cap binds first.
_G_BLOCK_MADDS = 1 << 19
# Most Newton passes of one point's refinement; smooth minima take about three.
_G_REFINE_PASSES = 40
# The grid filter's band (`_grid_argmin`), per term of its product: 32
# rounding units u = 2^-53 of the row's scale W (|q| + H)^2, and 128 times
# the 2^-1075 one underflowing operation can lose, of its size bound Z.
_G_BAND_ROUNDING = 2.0**-48
_G_BAND_UNDERFLOW = 2.0**-1068


def g_potential(pairs, points, samples=2048):
    """Vectorized G(p) = min_s F_p over all components for many ambient points.

    Each component's grid minimum is the dense grid's index bit for bit
    (`_grid_argmin`): one matrix product per block of rows bounds every
    cell's value within a certified rounding band, and only the rows that
    band cannot decide take the dense formula. Memory does not grow with
    the number of points. Each point's grid minimum is then refined within
    one grid step by the row-wise safeguarded Newton of `_refine_rows`: at
    most _G_REFINE_PASSES passes of one curve and one weight jet, about three
    on smooth minima. G never exceeds the grid value, and a point's G does
    not depend on the other points of the call. Returns (values,
    component_index, s_values).
    """
    pairs = as_pairs(pairs)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = pts.shape[0]
    best_v = np.full(m, np.inf)
    best_c = np.zeros(m, dtype=int)
    best_s = np.zeros(m)
    for ci, (curve, weight) in enumerate(pairs):
        sg = curve.grid(samples)
        idx = _grid_argmin(pts, curve.point(sg), weight.mu(sg))
        s, v = _refine_rows(curve, weight, pts, sg[idx], curve.length / samples, _G_REFINE_PASSES)
        better = v < best_v
        best_v = np.where(better, v, best_v)
        best_c = np.where(better, ci, best_c)
        best_s = np.where(better, s, best_s)
    return best_v, best_c, best_s


def _grid_argmin(pts, gp, mug):
    """Grid index minimizing |p - g|^2 / mu^2 for every point p: the dense
    grid's `argmin` bit for bit, the first index of the least value.

    The dense value of a cell is D = ((p0 - g0)^2 + (p1 - g1)^2 + ...) / mu^2,
    summed in that order. With the grid shifted by its centroid c (h = g - c,
    q = p - c, w = 1/mu^2), D = w |q - h|^2 = [|q|^2, q, 1] . [w, -2 w h, w |h|^2]
    up to rounding, so one matrix product per block of at most
    _G_BLOCK_CELLS cells and _G_BLOCK_MADDS multiply-adds approximates every
    cell of the block. Per row, j0 is the product's argmin, E0 the dense
    value at j0 and A2 the product's least value off j0. With W = max w,
    H = max |h| and Z = (1 + W)(1 + |q| + H)^2, the row's band is

        (n + 2) (2^-48 W (|q| + H)^2 + 2^-1068 Z).

    Rounding errs by at most gamma_{n+2} sum |x_i y_i| <= (n + 2) u W (|q| + H)^2
    (1 + O(u)) in the product, u = 2^-53, whatever its summation order and
    with or without FMA (Higham, Accuracy and Stability of Numerical
    Algorithms, section 3.1); the shift, the product's entries and the dense
    formula add at most (2n + 10) u W (|q| + H)^2, and underflow at most
    (6n + 5) 2^-1075 Z. So every cell whose dense value is <= E0 has a product
    value <= E0 + band: a row with A2 > E0 + band has j0 as its strict dense
    minimum, provided max(1, W)(|q| + H)^2 <= 2^1000, so that nothing
    overflows. The other rows (ties, near-ties, nan or inf, rows at the
    edges of the float range), and every row of a grid whose mu^2 or
    product rows are not finite, take the dense formula
    (`_dense_grid_argmin`) with its usual floating-point warnings.
    """
    mu2 = mug**2
    n = pts.shape[1]
    idx = np.empty(len(pts), dtype=np.intp)
    undecided = np.ones(len(pts), dtype=bool)
    with np.errstate(all="ignore"):
        c = gp.mean(axis=0)
        h = gp - c
        w = 1.0 / mu2
        hh = _coord_sum(h * h)
        right = np.vstack([w, -2.0 * w * h.T, w * hh])
        if np.all(np.isfinite(right)) and np.all(np.isfinite(mu2)):
            left = np.empty((len(pts), n + 2))
            q = np.subtract(pts, c, out=left[:, 1:-1])
            qq = left[:, 0] = _coord_sum(q * q)
            left[:, -1] = 1.0
            rows = max(1, min(_G_BLOCK_CELLS, _G_BLOCK_MADDS // (n + 2)) // len(gp))
            buf = np.empty((min(rows, len(pts)), len(gp)))
            at = np.arange(len(buf))
            second = np.empty(len(pts))
            for start in range(0, len(pts), rows):
                block = left[start:start + rows]
                a = buf[:len(block)]
                np.matmul(block, right, out=a)
                j = idx[start:start + rows] = a.argmin(axis=1)
                a[at[:len(a)], j] = np.inf
                second[start:start + rows] = a.min(axis=1)
            # E0: the dense formula at j0, in its own order.
            diff = pts - gp[idx]
            e0 = diff[:, 0] * diff[:, 0]
            for k in range(1, n):
                e0 = e0 + diff[:, k] * diff[:, k]
            e0 = e0 / mu2[idx]
            big_w, size = w.max(), np.sqrt(qq) + np.sqrt(hh.max())
            z = (1.0 + big_w) * (1.0 + size) ** 2
            band = (n + 2) * (big_w * size**2 * _G_BAND_ROUNDING + z * _G_BAND_UNDERFLOW)
            undecided = ~((second > e0 + band) & (max(1.0, big_w) * size**2 <= 2.0**1000))
    if np.any(undecided):
        idx[undecided] = _dense_grid_argmin(pts[undecided], gp, mu2)
    return idx


def _dense_grid_argmin(pts, gp, mu2):
    """`_grid_argmin` by the dense formula, for the rows its band cannot
    decide: blocks of the filter's size in two buffers, the squared
    distance accumulated one coordinate at a time in the order of
    `((p - g) ** 2).sum(axis=-1)`, then divided by mu^2.
    """
    rows = max(1, min(_G_BLOCK_CELLS, _G_BLOCK_MADDS // (pts.shape[1] + 2)) // len(gp))
    cols = np.ascontiguousarray(gp.T)
    fbuf = np.empty((min(rows, len(pts)), len(gp)))
    ebuf = np.empty_like(fbuf)
    idx = np.empty(len(pts), dtype=np.intp)
    for start in range(0, len(pts), rows):
        p = pts[start:start + rows]
        f, e = fbuf[:len(p)], ebuf[:len(p)]
        np.subtract(p[:, 0, None], cols[0], out=f)
        np.multiply(f, f, out=f)
        for k in range(1, pts.shape[1]):
            np.subtract(p[:, k, None], cols[k], out=e)
            np.multiply(e, e, out=e)
            np.add(f, e, out=f)
        np.divide(f, mu2, out=f)
        idx[start:start + rows] = np.argmin(f, axis=1)
    return idx


# ---------------------------------------------------------------------------
# Normal frames
# ---------------------------------------------------------------------------


def normal_frames(curve, s):
    """Orthonormal bases of the normal spaces at feet s (m,): (m, n-1, n),
    from the standard basis (nan rows where the tangent is not finite)."""
    return _frames(curve.tangent(np.asarray(s, dtype=float)))


def _frames(t, threshold=0.5):
    """Frames of the normal spaces of unit tangents t (m, n): (m, n-1, n).

    Every row runs the sequential Gram-Schmidt loop: each standard basis
    vector loses its tangent part and its parts along the row's frame
    vectors so far, in order, and joins the frame when its residual norm
    exceeds `threshold`, until the frame has n - 1 vectors. A row left short
    is redone with unconditional pivoting (threshold 1e-10); slots it still
    does not fill stay nan.
    """
    m, n = t.shape
    # e_i . t has one nonzero product, so it is t_i exactly (for finite t)
    # and the seeds e_i - (e_i . t) t need no dot products.
    seeds = np.eye(n) - t[:, :, None] * t[:, None, :]
    frames = np.full((m, n - 1, n), np.nan)
    count = np.zeros(m, dtype=int)
    for i in range(n):
        w = seeds[:, i]
        for j in range(count.max(initial=0)):
            b = frames[:, j]
            w = np.where((count > j)[:, None], w - _rowdot(w, b)[:, None] * b, w)
        norm = _rownorm(w)
        k = np.nonzero((count < n - 1) & (norm > threshold))[0]
        frames[k, count[k]] = w[k] / norm[k, None]
        count[k] += 1
        if count.min(initial=n - 1) == n - 1:
            break
    short = count < n - 1
    if threshold > 1e-10 and short.any():
        frames[short] = _frames(t[short], 1e-10)
    return frames

