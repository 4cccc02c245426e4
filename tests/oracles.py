"""Oracles shared by the test modules: the dense grid argmin and a
golden-section G with no shortcuts, the weighted closest point with its tie
report and the finite-difference gradient of G, a one-offset form of the
offset rows, F'' by the project-map-recover-angle chain that the closed
form replaced, the finite-difference differential of the map, the fiber-shape membership test, the critical-point class,
golden-section maxima, the pointwise focal data and the band of "g = 0"
written out, the closed-form roots of
Lemma 3, seeded random unit normals, the separate formulas of F_p, its
s-derivatives and sigma's gradient that one closed form replaced, the pair
Newton that runs every active row to the last pass, the pair search's
per-offset seed loop, and the
evaluators the shared series and piece code replaced: the Fourier weight's
own per-mode jet, numpy's per-coordinate Chebyshev objects, the stadium's per-piece advance and its per-piece jet,
the run finder's loop, the stadium solve that built the whole curve on
every trial, and the arclength table, series jets, curvature terms, dense
grid, F_p and G grid argmin with their coordinate sums and norms taken by
numpy's reductions, as before `util._coord_sum` and `util._coord_norm`."""

from dataclasses import dataclass, field
from unittest import mock

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from weighted_tubes import (
    PLANE,
    NonRegularCurveError,
    NotCriticalFootError,
    NumericError,
    OutOfWError,
    WeightedTubesError,
    exp_mu,
    f_prime,
    f_second,
    f_value,
    g_potential,
    normal_frames,
    radii,
    w_bound,
)
from weighted_tubes import expmap
from weighted_tubes.curves import CurvatureProfileCurve, _Piece, _pchip_eval, _RawCurve
from weighted_tubes.expmap import _bound, _offset_rows, _raise_first, _refine_rows, _rowdot, _rownorm
from weighted_tubes.radii import (
    _NEWTON_MAX_ITER,
    _TOL_DC,
    _feet,
    _focal_terms,
    _in_bands,
    _stencil,
)
from weighted_tubes.singular import _G_BAND, _inv_sqrt
from weighted_tubes.util import (
    as_pairs,
    brent_rows,
    gauss_legendre,
    golden_min,
    quintic_smoothstep,
    quintic_smoothstep_d1,
    quintic_smoothstep_int,
)


def dense_grid_argmin(pts, gp, mug):
    """The whole (points x samples) grid at once, as G used to build it."""
    return np.argmin(((pts[:, None, :] - gp[None, :, :]) ** 2).sum(axis=2) / mug[None, :] ** 2,
                     axis=1)


def g_potential_two_point(pairs, pts, samples=2048, refine_iters=40, chunk=512):
    """G with a dense grid and a golden loop that evaluates both interior
    points on every iteration and reports the bracket midpoint.

    Points are handled `chunk` at a time to bound the dense grid's memory;
    every point's result is its own, so chunking changes no value.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    parts = [_two_point(pairs, pts[k:k + chunk], samples, refine_iters)
             for k in range(0, len(pts), chunk)]
    return tuple(np.concatenate(col) for col in zip(*parts))


def _two_point(pairs, pts, samples, refine_iters):
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    best_v = np.full(len(pts), np.inf)
    best_c = np.zeros(len(pts), dtype=int)
    best_s = np.zeros(len(pts))
    for ci, (curve, weight) in enumerate(pairs):
        sg = curve.grid(samples)
        idx = dense_grid_argmin(pts, curve.point(sg), np.asarray(weight.mu(sg), dtype=float))
        step = curve.length / samples
        lo, hi = sg[idx] - step, sg[idx] + step
        if not curve.closed:
            lo = np.clip(lo, curve.s_min, curve.s_max)
            hi = np.clip(hi, curve.s_min, curve.s_max)
        for _ in range(refine_iters):
            x1 = hi - golden * (hi - lo)
            x2 = lo + golden * (hi - lo)
            take1 = f_value(curve, weight, x1, pts) <= f_value(curve, weight, x2, pts)
            hi = np.where(take1, x2, hi)
            lo = np.where(take1, lo, x1)
        smid = 0.5 * (lo + hi)
        vmid = f_value(curve, weight, smid, pts)
        better = vmid < best_v
        best_v = np.where(better, vmid, best_v)
        best_c = np.where(better, ci, best_c)
        best_s = np.where(better, smid, best_s)
    return best_v, best_c, best_s


class NonUniqueFootError(WeightedTubesError):
    """The weighted closest point is not unique (tied minima)."""


@dataclass
class ClosestPoint:
    """Global minimizer of F_p over the scene."""

    component: int
    s: float
    value: float
    unique: bool
    ties: list = field(default_factory=list)


def mu_closest_point(pairs, p, samples=2048, newton_iters=30, tie_rel=1e-9):
    """Weighted closest point via dense grid plus a Newton refinement.

    `pairs` is one (curve, weight) pair or a list of them. Each component's
    grid minimum is refined as one row of `_refine_rows` within one grid
    step, in at most newton_iters passes. Grid minima tied within tie_rel
    (relative) at separated parameters are reported as ties and flip
    `unique` to False.
    """
    pairs = as_pairs(pairs)
    p = np.asarray(p, dtype=float)
    best = None
    candidates = []
    for ci, (curve, weight) in enumerate(pairs):
        sg = curve.grid(samples)
        fv = f_value(curve, weight, sg, p)
        order = np.argsort(fv, kind="stable")
        i0 = int(order[0])
        step = curve.length / samples
        s_star, val = _refine_rows(curve, weight, p[None, :], sg[i0:i0 + 1], step, newton_iters)
        s_star, val = float(s_star[0]), float(val[0])
        candidates.append((ci, s_star, val))
        # Collect well-separated near-ties on the grid for the tie report.
        vmin = fv[i0]
        tie_mask = fv <= vmin + tie_rel * max(1.0, abs(vmin))
        tie_idx = np.nonzero(tie_mask)[0]
        for j in tie_idx:
            if curve.periodic_distance(sg[j], sg[i0]) > 3.0 * step:
                candidates.append((ci, float(sg[j]), float(fv[j])))
                break
        if best is None or val < best[2]:
            best = (ci, s_star, val)
    ties = []
    for ci, s_c, v_c in candidates:
        if v_c <= best[2] + tie_rel * max(1.0, abs(best[2])):
            same = ci == best[0] and pairs[ci][0].periodic_distance(s_c, best[1]) <= (
                3.0 * pairs[ci][0].length / samples
            )
            if not same:
                ties.append((ci, s_c, v_c))
    return ClosestPoint(best[0], best[1], best[2], unique=not ties, ties=ties)


def grad_g_check(pairs, p, h=1e-6, tie_rel=1e-9, samples=2048):
    """Finite-difference gradient of G at p, compared with the radial law.

    Returns (cos_angle_gap, magnitude, lower_bound) where cos_angle_gap is
    the angle (radians) between grad G and the unit vector from the foot to
    p, and lower_bound = 2 |p - q| / mu(q)^2. Raises NonUniqueFootError on
    tied feet.
    """
    pairs = as_pairs(pairs)
    p = np.asarray(p, dtype=float)
    cp = mu_closest_point(pairs, p, samples=samples, tie_rel=tie_rel)
    if not cp.unique:
        raise NonUniqueFootError(f"tied weighted-closest feet at {cp.ties}")
    curve, weight = pairs[cp.component]
    q = curve.point(cp.s)
    n = p.size
    shifts = np.zeros((2 * n, n))
    for i in range(n):
        shifts[2 * i, i] = h
        shifts[2 * i + 1, i] = -h
    vals, _, _ = g_potential(pairs, p[None, :] + shifts, samples=samples)
    grad = (vals[0::2] - vals[1::2]) / (2.0 * h)
    mag = float(np.linalg.norm(grad))
    u = p - q
    dist = float(np.linalg.norm(u))
    if dist <= 0 or mag <= 0:
        return np.pi, mag, 0.0
    u = u / dist
    cosang = float(np.clip(grad @ u / mag, -1.0, 1.0))
    angle = float(np.arccos(cosang))
    bound = 2.0 * dist / float(weight.mu(cp.s)) ** 2
    return angle, mag, bound


@dataclass(frozen=True)
class PointwiseFocal:
    s: float
    delta: float
    lambda_val: float | None
    focrad0_pt: float
    focradminus_pt: float


def abc(curve, weight, s, t=0.0):
    """(a, b, c, disc, lam) at the feet s for the weight mu + t, from the
    order-2 jets, as the focal refinement read them before it took slopes;
    c = (mu^2)'' = 2 (mu'^2 + mu mu'')."""
    mu, d1, d2 = (np.asarray(x, dtype=float) for x in weight.jet(s, 2))
    a, b, _, _, disc, lam = _focal_terms(curve.curvature(s), mu + t, d1, d2)
    return a, b, 2.0 * (d1**2 + (mu + t) * d2), disc, lam


def g_band(curve, weight, s, t=0.0):
    """(g, band) at the feet s for the weight mu + t, written out here: g =
    mu'' + kappa^2 mu / 4 and the band _G_BAND (|mu''| + kappa^2 |mu| / 4)
    within which g counts as zero."""
    mu, _, d2 = (np.asarray(x, dtype=float) for x in weight.jet(s, 2))
    k2 = curve.curvature(s) ** 2
    return d2 + 0.25 * k2 * (mu + t), _G_BAND * (np.abs(d2) + 0.25 * k2 * np.abs(mu + t))


def radius_profiles(b, g, band, lam):
    """The closed- and the open-band focal profile, stacked: lam^{-1/2} where
    the band admits g (+inf where lam <= 0), 1/|mu'| elsewhere."""
    return _in_bands(g, band, _inv_sqrt(lam, np.inf), _bound(b))


def delta_lambda(curve, weight, s):
    """Pointwise focal data at s (band on the sign of g); lambda is None
    where g is below the band."""
    s = np.asarray(s, dtype=float)
    _, b, _, disc, lam = abc(curve, weight, s)
    g, band = g_band(curve, weight, s)
    r0, rm = radius_profiles(b, g, band, lam)
    rows = [
        PointwiseFocal(float(si), float(di), float(li) if gi >= -bi else None, float(ri0), float(rim))
        for si, di, li, gi, bi, ri0, rim in zip(*np.atleast_1d(s, disc, lam, g, band, r0, rm))
    ]
    return rows[0] if np.ndim(s) == 0 else rows


def lemma3_roots(a, b, c):
    """All heights t in [0, 1/b] (or [0, inf) when b = 0) solving

        1 - (c/2) t^2 - a t sqrt(1 - b^2 t^2) = 0,   a, b >= 0.

    Closed forms t = (c/2 + a^2/2 +- a sqrt(disc))^{-1/2}; a candidate is
    kept where its residual is at most 1e-12, which drops the branch that
    squaring introduces when c > 2 b^2. Raises NumericError when no
    solution exists (disc < 0, or a = c = 0).
    """
    if a < 0 or b < 0:
        raise ValueError("a and b must be nonnegative")
    disc = 0.5 * c + 0.25 * a * a - b * b
    if disc < 0:
        raise NumericError("no solution: negative discriminant")
    if a == 0 and c == 0:
        raise NumericError("no solution: a = c = 0")
    sq = np.sqrt(disc)
    w_plus = b * b + (sq + 0.5 * a) ** 2
    w_minus = b * b + (sq - 0.5 * a) ** 2

    def residual(t):
        inner = 1.0 - (b * t) ** 2
        if inner < -1e-12:
            return np.inf
        return abs(1.0 - 0.5 * c * t * t - a * t * np.sqrt(max(inner, 0.0)))

    roots = []
    for w in (w_plus, w_minus):
        if w <= 0:
            continue
        t = 1.0 / np.sqrt(w)
        if b > 0 and t > 1.0 / b * (1.0 + 1e-12):
            continue
        if residual(t) <= 1e-12:
            roots.append(t)
    roots.sort()
    dedup = []
    for t in roots:
        if not dedup or abs(t - dedup[-1]) > 1e-12 * max(1.0, t):
            dedup.append(t)
    return tuple(dedup)


def random_unit_normals(curve, s_values, rng):
    """One random unit normal per foot (seeded Gaussian, projected)."""
    s_values = np.atleast_1d(np.asarray(s_values, dtype=float))
    tans = curve.tangent(s_values)
    raw = rng.standard_normal(tans.shape)
    raw = raw - (np.sum(raw * tans, axis=-1, keepdims=True)) * tans
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    low = norms[:, 0] < 1e-12
    if np.any(low):
        raw[low] = normal_frames(curve, s_values[low])[:, 0]
        norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    return raw / norms


@dataclass(frozen=True)
class NormalOffset:
    """A normal-bundle point (foot s, unit normal v, height R >= 0)."""

    s: float
    v: np.ndarray
    R: float
    boundary: bool = False


def make_offset(curve, weight, s, v, R):
    """Project v into the normal space at s, normalize, and range-check R:
    one row of `_offset_rows`. `boundary` flags a height within 1e-12
    (relative) of the admissible bound."""
    s, R = np.array([float(s)]), float(R)
    rows, bound, checks = _offset_rows(
        (curve.jet(s, 1), weight.jet(s, 1)), s, np.asarray(v, dtype=float)[None, :], np.array([R])
    )
    _raise_first(*checks)
    bound = float(bound[0])
    boundary = np.isfinite(bound) and abs(R - bound) <= 1e-12 * max(1.0, bound)
    return NormalOffset(float(s[0]), rows[0], R, boundary)


def f_second_at_offset(curve, weight, s, v, R):
    """The second derivative at the foot of exp(s, v, R) by the chain that
    the jets' closed form replaced: project and normalize v (`_offset_rows`),
    map the offset with `exp_mu` (which projects v again), recover R as
    |p - gamma| / mu from the image p and take the angle formula there,

        (2/mu^2) (1 - kappa R mu sqrt(1-(mu' R)^2) cos(beta) - (R^2/2)(mu^2)''),

    beta the angle between gamma'' and the normal part of the direction to
    p (cos beta = 1 where R, kappa (<= kappa_tol) or that part vanishes).
    Rows s (m,), v (m, n), R (m,) give (m,); one offset gives a float.
    Raises the offset check's OutOfWError, then OutOfWError where the
    recovered height exceeds the admissible bound, then NotCriticalFootError
    where a foot fails the first-order test for its image.
    """
    one = np.ndim(s) == 0 and np.ndim(R) == 0 and np.ndim(v) == 1
    s, R = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (s, R))
    v, _, checks = _offset_rows((curve.jet(s, 1), weight.jet(s, 1)), s, np.atleast_2d(v), R)
    _raise_first(*checks)
    p = exp_mu(curve, weight, s, v, R)
    (g, t, g2), (mu, d1, d2) = curve.jet(s, 2), (np.asarray(x, dtype=float) for x in weight.jet(s, 2))
    diff = p - g
    dist = _rownorm(diff)
    R = dist / mu
    bound = np.asarray(w_bound(weight, s), dtype=float)
    if np.any(R > bound * (1.0 + 1e-12)):
        raise OutOfWError("recovered height exceeds admissible bound")
    grad_tol = 1e-8 * 2.0 / mu**2 * np.fmax(1.0, R) * max(1.0, curve.length)
    if np.any(np.abs(f_prime(curve, weight, s, p)) > grad_tol):
        raise NotCriticalFootError("foot not critical")
    kap = _rownorm(g2)
    u = diff / np.where(dist > 0.0, dist, 1.0)[:, None]
    un = u - _rowdot(u, t)[:, None] * t
    nun = _rownorm(un)
    tilted = (R > 0) & (kap > curve.kappa_tol) & (nun > 1e-14)
    cosb = np.where(tilted, _rowdot(g2, un) / np.where(tilted, kap * nun, 1.0), 1.0)
    musq2 = 2.0 * (d1**2 + mu * d2)  # (mu^2)''
    root = np.sqrt(np.maximum(0.0, 1.0 - (d1 * R) ** 2))
    hess = (2.0 / mu**2) * (1.0 - kap * R * mu * root * cosb - 0.5 * R**2 * musq2)
    return float(hess[0]) if one else hess


def fd_differential(curve, weight, s, v, R, h=None):
    """Central differences of the map over rows s (m,), v (m, n), R (m,),
    in the coordinates of `expmap.differential`: (m, n, n), the columns
    d/ds, then d/dc_j.

    The chart at a foot s' takes the offset R sum c_j b_j, b the
    `normal_frames` frame at s, projected into the normal space at s'
    (b - (b . T) T): it is smooth and is the base frame itself at s. Every
    chart point goes through `exp_mu`, so one outside the admissible set
    raises OutOfWError. The step h defaults to 1e-6 max(1, L / 2 pi).
    """
    if h is None:
        h = 1e-6 * max(1.0, curve.length / (2.0 * np.pi))
    s, R = np.asarray(s, dtype=float), np.asarray(R, dtype=float)
    m, n = len(s), curve.ambient_dim
    v, _, checks = _offset_rows((curve.jet(s, 1), weight.jet(s, 1)), s,
                                np.asarray(v, dtype=float), R)
    _raise_first(*checks)
    # Chart points in column order, each column's + point before its - point.
    step = h * normal_frames(curve, s)
    feet = np.stack([s + h, s - h] + [s] * (2 * n - 2), axis=1)
    vecs = np.concatenate([np.stack([v, v], axis=1),
                           np.stack([v[:, None] + step, v[:, None] - step], axis=2)
                           .reshape(m, 2 * n - 2, n)], axis=1)
    t = curve.tangent(feet.ravel()).reshape(m, 2 * n, n)
    vecs = vecs - np.sum(vecs * t, axis=-1, keepdims=True) * t
    pts = exp_mu(curve, weight, feet, vecs, R[:, None] * np.linalg.norm(vecs, axis=-1))
    return (pts[:, 0::2] - pts[:, 1::2]).swapaxes(1, 2) / (2 * h)


def fiber_contains(fib, points, tol=1e-10):
    """Whether every point lies on the fiber shape `fib` (a FiberShape) to
    within tol."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if fib.kind == PLANE:
        gap = np.abs((pts - fib.base_point) @ fib.normal)
    else:
        gap = np.abs(np.linalg.norm(pts - fib.center, axis=-1) - fib.radius)
    return np.all(gap <= tol)


NOT_CRITICAL = "NOT_CRITICAL"
CP_PLUS = "CP_PLUS"
CP_ZERO = "CP_ZERO"
CP_MINUS = "CP_MINUS"


def classify_critical(curve, weight, s, p, tol_grad=None, tol_hess=None):
    """First/second-order class of s for F_p with banded thresholds."""
    mu = float(weight.mu(s))
    scale = 2.0 / mu**2
    if tol_grad is None:
        tol_grad = 1e-8 * scale
    if tol_hess is None:
        tol_hess = 1e-8 * scale
    if abs(float(f_prime(curve, weight, s, p))) > tol_grad:
        return NOT_CRITICAL
    h = float(f_second(curve, weight, s, p))
    if abs(h) <= tol_hess:
        return CP_ZERO
    return CP_PLUS if h > 0 else CP_MINUS


def golden_max(f, a, b, tol=1e-12, maxiter=200, args=()):
    """Row-wise golden-section maxima of f over [a, b]; returns (x, f(x))."""
    x, fx = golden_min(lambda s, *p: -f(s, *p), a, b, tol=tol, maxiter=maxiter, args=args)
    return x, -fx


# F_p = |p - gamma|^2 / mu^2, its s-derivatives and sigma's gradient as
# separate formulas, each recomputing |p - gamma|^2, kept verbatim from
# before `expmap._f_rows` gave them one closed form.


def split_f_value(curve, weight, s, p):
    p = np.asarray(p, dtype=float)
    g = curve.point(s)
    diff = p - g
    e = np.sum(diff * diff, axis=-1)
    return e / weight.mu(s) ** 2


def split_f_prime(diff, t, mu, d1):
    """dF_p/ds from diff = p - gamma, the tangent, mu and mu' at the feet."""
    e = np.sum(diff * diff, axis=-1)
    e1 = -2.0 * np.sum(diff * t, axis=-1)
    return (e1 - 2.0 * e * d1 / mu) / mu**2


def split_f_second(diff, t, g2, mu, d1, d2):
    """d^2F_p/ds^2 from diff = p - gamma, gamma', gamma'', mu, mu' and mu''
    at the feet."""
    e = np.sum(diff * diff, axis=-1)
    e1 = -2.0 * np.sum(diff * t, axis=-1)
    e2 = 2.0 * (1.0 - np.sum(diff * g2, axis=-1))
    return (
        e2 / mu**2
        - 4.0 * e1 * d1 / mu**3
        + 6.0 * e * d1**2 / mu**4
        - 2.0 * e * d2 / mu**3
    )


def split_sigma_and_grad(feet1, feet2):
    """sigma and its analytic gradient from matched foot data (see _feet)."""
    g1, t1, m1, dm1 = feet1
    g2, t2, m2, dm2 = feet2
    diff = g1 - g2
    e = np.sum(diff * diff, axis=-1)
    msum = m1 + m2
    sigma = e / msum**2
    ds = (2.0 * np.sum(diff * t1, axis=-1) - 2.0 * e * dm1 / msum) / msum**2
    dt = (-2.0 * np.sum(diff * t2, axis=-1) - 2.0 * e * dm2 / msum) / msum**2
    return sigma, ds, dt


def _feet_rows(curve, weight, arrays, t):
    """radii's helper before the one foot table, kept verbatim: _feet of
    several equal-length foot arrays, all with offsets t, from one
    evaluation of their concatenation; one tuple per array."""
    n = len(arrays[0])
    feet = _feet(curve, weight, np.concatenate(arrays), np.tile(t, len(arrays)))
    return [tuple(x[k * n:(k + 1) * n] for x in feet) for k in range(len(arrays))]


def newton_every_pass(c1, w1, c2, w2, seeds, grp, ts, tol):
    """radii._newton before it settled cycling rows, kept verbatim with
    sigma's separate formulas (`split_sigma_and_grad`): every active row
    runs to the last pass. Damped Newton over every (offset,
    seed) row; row k belongs to group grp[k] and carries the offset
    ts[grp[k]].

    Each group follows the sequence of a search for its offset alone: it
    stops on the first pass where none of its seeds is active, and on each
    pass it continues, a seed whose Jacobian determinant is below 1e-300 is
    dropped. Only live rows (active on the previous pass) are evaluated: a
    seed that stops never moves again, so its residual stays valid and its
    determinant, checked on the pass where it stops, never changes.
    Returns the final (s, t, residual, alive) of every row.
    """
    rows = np.array([x for group in seeds for x in group], dtype=float).reshape(-1, 2)
    s = rows[:, 0].copy()
    t = rows[:, 1].copy()
    off = ts[grp]
    res = np.empty(len(rows))
    alive = np.ones(len(rows), dtype=bool)
    live = np.arange(len(rows))
    n = tol.pair_grid
    h1 = 1e-6 * c1.length
    h2 = 1e-6 * c2.length
    max_step1 = 2.0 * c1.length / n
    max_step2 = 2.0 * c2.length / n
    for it in range(_NEWTON_MAX_ITER + 1):
        if not len(live):
            break
        # The feet s, s +- h (and t, t +- h) of the live rows in one
        # evaluation each; only the rows that take a step use the stencils.
        s_p, s_m, span1 = _stencil(c1, s[live], h1)
        t_p, t_m, span2 = _stencil(c2, t[live], h2)
        at_s, at_sp, at_sm = _feet_rows(c1, w1, (s[live], s_p, s_m), off[live])
        at_t, at_tp, at_tm = _feet_rows(c2, w2, (t[live], t_p, t_m), off[live])
        sig, gs, gt = split_sigma_and_grad(at_s, at_t)
        res[live] = np.hypot(gs, gt) / np.maximum(1.0, sig)
        if it == _NEWTON_MAX_ITER:
            break
        active = alive[live] & (res[live] > 0.1 * _TOL_DC)
        running = np.zeros(len(ts), dtype=bool)
        running[grp[live[active]]] = True
        jac = alive[live] & running[grp[live]]
        kj = live[jac]
        at_s, at_sp, at_sm, at_t, at_tp, at_tm = (
            tuple(x[jac] for x in feet) for feet in (at_s, at_sp, at_sm, at_t, at_tp, at_tm)
        )
        gs, gt = gs[jac], gt[jac]
        span1, span2 = (sp[jac] if np.ndim(sp) else sp for sp in (span1, span2))
        _, gs_p, gt_p = split_sigma_and_grad(at_sp, at_t)
        _, gs_m, gt_m = split_sigma_and_grad(at_sm, at_t)
        j11 = (gs_p - gs_m) / span1
        j21 = (gt_p - gt_m) / span1
        _, gs_p, gt_p = split_sigma_and_grad(at_s, at_tp)
        _, gs_m, gt_m = split_sigma_and_grad(at_s, at_tm)
        j12 = (gs_p - gs_m) / span2
        j22 = (gt_p - gt_m) / span2
        det = j11 * j22 - j12 * j21
        bad = np.abs(det) < 1e-300
        alive[kj[bad]] = False
        det = np.where(bad, 1.0, det)
        step_s = np.clip(-(j22 * gs - j12 * gt) / det, -max_step1, max_step1)
        step_t = np.clip(-(-j21 * gs + j11 * gt) / det, -max_step2, max_step2)
        moved = active[jac]
        live = kj[moved]
        s[live] = s[live] + step_s[moved]
        t[live] = t[live] + step_t[moved]
        if not c1.closed:
            s[live] = np.clip(s[live], c1.s_min, c1.s_max)
        if not c2.closed:
            t[live] = np.clip(t[live], c2.s_min, c2.s_max)
    return s, t, res, alive


def per_offset_pair_search(pairs, i, j, ts, tol):
    """radii._search_component_pair before the offset-free grid products and
    the minima search's pad were built once per component pair, kept
    verbatim: every offset recomputes the whole N x N arithmetic, masks the
    diagonal band with two np.where copies and allocates its own pads."""
    c1, w1 = pairs[i]
    c2, w2 = pairs[j]
    n = tol.pair_grid
    sg1 = c1.grid(n)
    sg2 = c2.grid(n)
    g1, t1, m1, dm1 = _feet(c1, w1, sg1)
    g2, t2, m2, dm2 = _feet(c2, w2, sg2)
    diff = g1[:, None, :] - g2[None, :, :]
    e = np.einsum("ijk,ijk->ij", diff, diff)
    dot1 = 2.0 * np.einsum("ijk,ik->ij", diff, t1)
    dot2 = -2.0 * np.einsum("ijk,jk->ij", diff, t2)
    band = None
    if i == j:
        S, T = np.meshgrid(sg1, sg2, indexing="ij")
        band = c1.periodic_distance(S, T) < radii._DELTA_MIN_FACTOR * c1.length
    seeds = []
    for off in ts:
        msum = (m1 + off)[:, None] + (m2 + off)[None, :]
        sigma = e / msum**2
        ds = (dot1 - 2.0 * e * dm1[:, None] / msum) / msum**2
        dt = (dot2 - 2.0 * e * dm2[None, :] / msum) / msum**2
        gnorm = np.hypot(ds, dt)
        if band is not None:
            sigma = np.where(band, np.inf, sigma)
            gnorm = np.where(band, np.inf, gnorm)
        cells = np.unique(np.concatenate(
            [fresh_pad_local_minima(mat, c1.closed, c2.closed) for mat in (sigma, gnorm)]
        ))
        a, b = np.divmod(cells, len(sg2))
        seeds.append(np.column_stack([sg1[a], sg2[b]]))
    grp = np.repeat(np.arange(len(ts)), [len(x) for x in seeds])
    s, t, res, alive = radii._newton(c1, w1, c2, w2, np.concatenate(seeds), grp, ts, tol)
    k = np.nonzero(alive & ~(res > _TOL_DC))[0]
    return radii._verify_rows(pairs, i, j, s[k], t[k], ts, grp[k], res[k])


def own_grid_feet(curve, weight, tol):
    """radii._grid_feet before the pair grid read the dense grid: every
    search evaluates the jets of its own feet curve.grid(tol.pair_grid)."""
    sg = curve.grid(tol.pair_grid)
    return (sg, *_feet(curve, weight, sg))


def fresh_pad_local_minima(mat, per_rows, per_cols):
    """radii._grid_local_minima before it took a reusable pad, kept verbatim."""
    n, m = mat.shape
    pad = np.full((n + 2, m + 2), np.inf)
    pad[1:-1, 1:-1] = mat
    if per_rows:
        pad[0], pad[-1] = pad[-2], pad[1]
    if per_cols:
        pad[:, 0], pad[:, -1] = pad[:, -2], pad[:, 1]
    low = np.minimum(np.minimum(pad[:-2], pad[1:-1]), pad[2:])
    low = np.minimum(np.minimum(low[:, :-2], low[:, 1:-1]), low[:, 2:])
    return np.flatnonzero((mat <= low) & np.isfinite(mat))


def fourier_weight_jet(coeffs, period, s, order):
    """FourierWeight.jet before weights evaluated through the curves' series
    code, kept verbatim: its own loop over the modes of [a0, a1, b1, ...]."""
    c = np.asarray(coeffs, dtype=float)
    omega = 2.0 * np.pi / float(period)
    s = np.asarray(s, dtype=float)
    acc = [np.zeros_like(s, dtype=float) for _ in range(order + 1)]
    acc[0] = acc[0] + c[0]
    kmax = (c.size - 1) // 2
    for k in range(1, kmax + 1):
        ak, bk = c[2 * k - 1], c[2 * k]
        w = k * omega
        ph = w * s
        cos, sin = np.cos(ph), np.sin(ph)
        for n in range(order + 1):
            fac = w**n
            # d/ds rotates (cos, sin) a quarter period per order.
            if n == 0:
                acc[n] = acc[n] + fac * (ak * cos + bk * sin)
            elif n == 1:
                acc[n] = acc[n] + fac * (-ak * sin + bk * cos)
            elif n == 2:
                acc[n] = acc[n] + fac * (-ak * cos - bk * sin)
            else:
                acc[n] = acc[n] + fac * (ak * sin - bk * cos)
    return tuple(acc)


def chebyshev_orders(coeffs, domain, t, orders):
    """The Chebyshev series evaluator the coefficient table replaced: one
    numpy `Chebyshev` object per coordinate with its `deriv` objects, each
    called on t in turn."""
    polys = [npcheb.Chebyshev(np.asarray(c, dtype=float), domain=list(domain)) for c in coeffs]
    series = [[p] + [p.deriv(m) for m in range(1, 4)] for p in polys]
    outs = []
    for order in orders:
        out = np.zeros((len(t), len(series)))
        for i, p in enumerate(series):
            out[:, i] = p[order](t)
        outs.append(out)
    return outs


def end_state(curve):
    """(x, y, theta) at the end of a CurvatureProfileCurve's last piece: the
    state its constructor's walk ends in, from the same piece evaluator."""
    p = curve._pieces[-1]
    theta, x, y = curve._piece_jet(p.shape, p, p.s1, 0)[:3]
    return x, y, theta


def profile_advance(curve, p, s_end):
    """CurvatureProfileCurve._advance before the constructor asked the piece
    evaluator for a piece's end state, kept verbatim: (dx, dy, dtheta) from
    p.s0 to s_end inside piece p (scalars)."""
    if p.kind == "const" and p.k0 == 0.0:
        ds = s_end - p.s0
        return ds * np.cos(p.theta0), ds * np.sin(p.theta0), 0.0
    if p.kind == "const":
        k = p.k0
        th1 = p.theta0 + k * (s_end - p.s0)
        dx = (np.sin(th1) - np.sin(p.theta0)) / k
        dy = (-np.cos(th1) + np.cos(p.theta0)) / k
        return dx, dy, th1 - p.theta0
    nodes, wts = gauss_legendre(curve._GL_N)
    ss = p.s0 + (s_end - p.s0) * nodes
    th = p.theta0 + theta_local(p, ss)
    h = s_end - p.s0
    return (
        float(np.sum(np.cos(th) * wts) * h),
        float(np.sum(np.sin(th) * wts) * h),
        float(theta_local(p, np.asarray(s_end))),
    )


# CurvatureProfileCurve before its jets gathered piece constants per foot,
# kept verbatim: the per-piece profile primitives and the loop over pieces.


def theta_local(p, s):
    """theta(s) - theta(p.s0) for s within piece p (vectorized)."""
    ds = s - p.s0
    if p.kind == "const":
        return p.k0 * ds
    w = p.s1 - p.s0
    u = ds / w
    return p.k0 * ds + (p.k1 - p.k0) * w * quintic_smoothstep_int(u)


def kappa_local(p, s):
    if p.kind == "const":
        return np.full(np.shape(s), p.k0, dtype=float)
    u = (s - p.s0) / (p.s1 - p.s0)
    return p.k0 + (p.k1 - p.k0) * quintic_smoothstep(u)


def kappa_rate_local(p, s):
    if p.kind == "const":
        return np.zeros(np.shape(s), dtype=float)
    w = p.s1 - p.s0
    u = (s - p.s0) / w
    return (p.k1 - p.k0) / w * quintic_smoothstep_d1(u)


def piece_index(curve, s):
    bounds = np.array([p.s1 for p in curve._pieces])
    return np.clip(np.searchsorted(bounds, s, side="left"), 0, len(curve._pieces) - 1)


def piece_state(curve, p, s):
    """(theta, x, y) at the feet s inside piece p (a scalar or an array):
    positions in closed form on constant pieces and by Gauss-Legendre
    over [p.s0, s] on transitions."""
    th = p.theta0 + theta_local(p, s)
    if p.kind == "const" and p.k0 == 0.0:
        ds = s - p.s0
        return th, p.x0 + ds * np.cos(p.theta0), p.y0 + ds * np.sin(p.theta0)
    if p.kind == "const":
        k = p.k0
        return (th, p.x0 + (np.sin(th) - np.sin(p.theta0)) / k,
                p.y0 + (-np.cos(th) + np.cos(p.theta0)) / k)
    nodes, wts = gauss_legendre(curve._GL_N)
    h = np.asarray(s, dtype=float) - p.s0
    tt = p.theta0 + theta_local(p, p.s0 + h[..., None] * nodes)
    return (th, p.x0 + (np.cos(tt) * wts).sum(axis=-1) * h,
            p.y0 + (np.sin(tt) * wts).sum(axis=-1) * h)


def per_piece_half_jet(curve, s, order):
    """Jet on the stored half-profile domain [0, half-length]."""
    idx = piece_index(curve, s)
    outs = [np.zeros(s.shape + (2,)) for _ in range(order + 1)]
    for j, p in enumerate(curve._pieces):
        m = idx == j
        if not np.any(m):
            continue
        sj = s[m]
        th, x, y = piece_state(curve, p, sj)
        outs[0][m, 0], outs[0][m, 1] = x, y
        if order == 0:
            continue
        cos, sin = np.cos(th), np.sin(th)
        outs[1][m, 0], outs[1][m, 1] = cos, sin
        if order == 1:
            continue
        k = kappa_local(p, sj)
        outs[2][m, 0], outs[2][m, 1] = -k * sin, k * cos
        if order == 2:
            continue
        kr = kappa_rate_local(p, sj)
        outs[3][m, 0] = -kr * sin - k * k * cos
        outs[3][m, 1] = kr * cos - k * k * sin
    return outs


def per_piece_profile_jet(curve, s, order):
    """curve.jet(s, order) of a CurvatureProfileCurve by the loop over pieces:
    wrapped feet, the half jet and the mirror of the old `_jet`."""
    s = curve.wrap(s)
    s1 = np.atleast_1d(s)
    hi = s1 > curve.length / 2.0
    outs = per_piece_half_jet(curve, np.where(hi, curve.length - s1, s1), order)
    sign_y = np.where(hi, -1.0, 1.0)
    for n, out in enumerate(outs):
        out = out * np.where(hi & (n % 2 == 1), -1.0, 1.0)[..., None]
        out[..., 1] *= sign_y
        outs[n] = out
    return tuple(out[0] for out in outs) if s.ndim == 0 else tuple(outs)


def runs_loop(mask, periodic):
    """singular._runs before it became one array pass, kept verbatim: the
    maximal runs of True as (lo, hi), a periodic wrap-around run last."""
    n = len(mask)
    if not np.any(mask):
        return []
    if np.all(mask):
        return [(0, n)]
    idx = np.nonzero(mask)[0]
    runs = []
    start = idx[0]
    prev = idx[0]
    for k in idx[1:]:
        if k == prev + 1:
            prev = k
            continue
        runs.append((start, prev + 1))
        start = prev = k
    runs.append((start, prev + 1))
    if periodic and len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] == n:
        first = runs.pop(0)
        lo, _ = runs.pop()
        runs.append((lo, first[1] + n))
    return runs


def stadium_by_full_builds(circle_turn=0.3, transition=0.05, line_length=7.0):
    """curves.make_stadium before its trials walked only the cap pieces,
    kept verbatim: every trial of the kappa2 solve builds the whole curve."""
    p1 = float(circle_turn)
    d2 = 2.0 * float(transition)
    ell = float(line_length)
    if p1 <= 0 or transition <= 0 or ell <= 0:
        raise NonRegularCurveError("stadium parameters must be positive")
    s1, s2 = p1, p1 + d2
    s3, s4 = s2 + ell, s2 + ell + d2
    turn_fixed = p1 + 0.5 * d2

    def build(kappa2):
        cap_turn = np.pi - turn_fixed - kappa2 * 0.5 * d2
        if cap_turn <= 0:
            raise NonRegularCurveError("stadium cap turn is non-positive")
        s5 = s4 + cap_turn / kappa2
        pieces = [
            _Piece(0.0, s1, "const", 1.0, 1.0),
            _Piece(s1, s2, "step", 1.0, 0.0),
            _Piece(s2, s3, "const", 0.0, 0.0),
            _Piece(s3, s4, "step", 0.0, kappa2),
            _Piece(s4, s5, "const", kappa2, kappa2),
        ]
        return CurvatureProfileCurve(pieces)

    def end_y(kappa2):
        return np.array([end_state(build(float(k)))[1] for k in kappa2])

    kappa2 = float(brent_rows(end_y, 1e-3, 0.9, 1e-14, 1e-15)[0])
    return build(kappa2)


# The readers of `util._coord_sum` and `util._coord_norm` with the numpy
# reductions they replaced: np.linalg.norm(x, axis=-1) and
# np.sum(x * y, axis=-1), kept verbatim.


def raw_cell_sums(curve, tg, n):
    """`_RawCurve._cell_sums`: speed integrals over the cells of the knots tg."""
    nodes, wts = gauss_legendre(n)
    h = tg[1:] - tg[:-1]
    tt = tg[:-1, None] + h[:, None] * nodes[None, :]
    sp = np.linalg.norm(curve._raw(tt.ravel(), 1), axis=-1).reshape(tt.shape)
    return (sp * wts[None, :]).sum(axis=1) * h


def raw_s_of_t(curve, t):
    """`_RawCurve._s_of_t`: (arclength, raw speed) at 1-D t."""
    grid = curve._t_grid
    idx = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, len(grid) - 2)
    a = grid[idx]
    nodes, wts = gauss_legendre(curve._cell_n)
    tt = np.concatenate([a[:, None] + (t - a)[:, None] * nodes[None, :], t[:, None]], axis=1)
    sp = np.linalg.norm(curve._raw(tt.ravel(), 1), axis=-1).reshape(tt.shape)
    return curve._s_grid[idx] + (sp[:, :-1] * wts[None, :]).sum(axis=1) * (t - a), sp[:, -1]


def raw_t_of_s(curve, s):
    """`_RawCurve.t_of_s` in one block, each Newton step from raw_s_of_t."""
    t = _pchip_eval(curve._s_grid, curve._pchip, np.clip(s, 0.0, curve.length))
    tol = 4e-16 * curve.length
    k = np.arange(len(t))
    for _ in range(6):
        s_k, speed = raw_s_of_t(curve, t[k])
        resid = s_k - s[k]
        going = ~(np.abs(resid) <= tol)
        k, resid, speed = k[going], resid[going], speed[going]
        if not len(k):
            break
        t[k] = np.clip(t[k] - resid / speed, curve._t0, curve._t1)
    return t


def raw_jet(curve, s, order):
    """A series curve's jet at 1-D feet s through raw_t_of_s."""
    t = raw_t_of_s(curve, curve.wrap(s) - curve.s_min)
    g = curve._series.orders(t, range(order + 1))
    out = [g[0]]
    if order >= 1:
        inv = 1.0 / np.linalg.norm(g[1], axis=-1)
        out.append(g[1] * inv[..., None])
    if order >= 2:
        sp1 = np.sum(g[1] * g[2], axis=-1) * inv
        t1, t2 = inv, -sp1 * inv**3
        out.append(g[2] * (t1**2)[..., None] + g[1] * t2[..., None])
    if order >= 3:
        sp2 = (np.sum(g[2] * g[2], axis=-1) + np.sum(g[1] * g[3], axis=-1)) * inv - sp1**2 * inv
        t3 = -sp2 * inv**4 + 3.0 * sp1**2 * inv**5
        out.append(g[3] * (t1**3)[..., None] + 3.0 * g[2] * (t1 * t2)[..., None] + g[1] * t3[..., None])
    return tuple(out)


def grid_products_by_einsum(g1, t1, g2, t2, cols):
    """`radii._grid_products` from one (n, w, d) stack of the differences."""
    diff = np.stack([x[:, None] - cols(y) for x, y in zip(g1.T, g2.T)], axis=-1)
    e = np.einsum("ijk,ijk->ij", diff, diff)
    dot1 = 2.0 * np.einsum("ijk,ik->ij", diff, t1)
    dot2 = -2.0 * np.einsum("ijk,ijk->ij", diff, np.broadcast_to(cols(t2), diff.shape))
    return e, dot1, dot2


def kappa_rate_by_norms(jet, kappa_tol):
    """`curves._kappa_rate`: d(kappa)/ds from a jet of order 3."""
    d2, d3 = jet[2], jet[3]
    kap = np.linalg.norm(d2, axis=-1)
    dot = np.sum(d2 * d3, axis=-1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(kap > kappa_tol, dot / np.where(kap > 0, kap, 1.0), 0.0)


def collapse_residual_by_norms(jet):
    """`curves.collapse_ode_residual`: |gamma''' + kappa^2 gamma'|."""
    _, t, d2, d3 = jet
    kap = np.linalg.norm(d2, axis=-1)
    return np.linalg.norm(d3 + (np.asarray(kap)[..., None] ** 2) * t, axis=-1)


def dense_grid_by_norms(curve, weight, n):
    """`singular.dense_grid` (feet, curve jet, weight jet, kappa); a series
    curve's jet is raw_jet, the other kinds' jets sum over no coordinate."""
    sg = curve.grid(n)
    jet = raw_jet(curve, sg, 3) if isinstance(curve, _RawCurve) else tuple(curve.jet(sg, 3))
    return sg, jet, weight.jet(sg, 2), np.linalg.norm(jet[2], axis=-1)


def f_rows_by_sums(p, curve_jet, weight_jet):
    """`expmap._f_rows`: (F_p, dF_p/ds, ...) from the jets at the feet."""
    diff = np.asarray(p, dtype=float) - curve_jet[0]
    mu = weight_jet[0]
    mu2 = mu**2
    e = np.sum(diff * diff, axis=-1)
    out = [e / mu2]
    if len(curve_jet) > 1:
        d1 = weight_jet[1]
        e1 = -2.0 * np.sum(diff * curve_jet[1], axis=-1)
        out.append((e1 - 2.0 * e * d1 / mu) / mu2)
    if len(curve_jet) > 2:
        d2 = weight_jet[2]
        e2 = 2.0 * (1.0 - np.sum(diff * curve_jet[2], axis=-1))
        out.append(e2 / mu2 - 4.0 * e1 * d1 / mu**3 + 6.0 * e * d1**2 / mu**4 - 2.0 * e * d2 / mu**3)
    return tuple(out)


def grid_argmin_by_sums(pts, gp, mug):
    """`expmap._grid_argmin` with its two sums of squares, |h|^2 of the
    grid and |q|^2 of the points, taken by np.sum(x, axis=1)."""
    with mock.patch.object(expmap, "_coord_sum", lambda x: np.sum(x, axis=1)):
        return expmap._grid_argmin(pts, gp, mug)
