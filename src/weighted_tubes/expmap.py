"""The weighted normal exponential map and the squared weighted distance.

For a foot gamma(s) with unit normal v and height R the map is

    exp(s, v, R) = gamma - mu mu' R^2 gamma' + mu R sqrt(1 - (mu' R)^2) v,

defined while R <= 1/|mu'(s)|. The squared weighted distance from p,
F_p(s) = |p - gamma(s)|^2 / mu(s)^2, drives everything else: feet of the
map are critical points of F_p, and the second derivative of F_p decides
regularity of the map.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonUniqueFootError,
    NotCriticalFootError,
    OutOfWError,
)
from .util import as_pairs, golden_min

PLANE = "PLANE"
SPHERE = "SPHERE"

NOT_CRITICAL = "NOT_CRITICAL"
CP_PLUS = "CP_PLUS"
CP_ZERO = "CP_ZERO"
CP_MINUS = "CP_MINUS"


@dataclass(frozen=True)
class NormalOffset:
    """A normal-bundle point (foot s, unit normal v, height R >= 0)."""

    s: float
    v: np.ndarray
    R: float
    boundary: bool = False


@dataclass(frozen=True)
class FiberShape:
    """Image of the normal space at one foot: a plane or a sphere."""

    kind: str
    base_point: np.ndarray
    normal: np.ndarray | None = None  # PLANE: unit normal (the tangent)
    center: np.ndarray | None = None  # SPHERE
    radius: float | None = None  # SPHERE

    def contains(self, points, tol=1e-10):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == PLANE:
            gap = np.abs((pts - self.base_point) @ self.normal)
        else:
            gap = np.abs(np.linalg.norm(pts - self.center, axis=-1) - self.radius)
        return np.all(gap <= tol)


def w_bound(weight, s):
    """Admissible height bound 1/|mu'(s)| (+inf where mu' = 0)."""
    return _bound(weight.d1(s))


def _bound(d1):
    """1/|mu'| from mu' (+inf where mu' = 0)."""
    d1 = np.abs(np.asarray(d1, dtype=float))
    with np.errstate(divide="ignore"):
        return np.where(d1 > 0.0, 1.0 / np.where(d1 > 0, d1, 1.0), np.inf)


def _rowdot(a, b):
    """Row-wise dot products of (m, n) arrays.

    Each row goes through the same vector-dot kernel as a 1-D `a @ b`, so
    the rows reproduce the scalar path's dots and norms bit for bit (a
    row-wise `np.sum(a * b, axis=-1)` does not).
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _rownorm(a):
    """Row-wise Euclidean norms, bit-identical to 1-D `np.linalg.norm`."""
    return np.sqrt(_rowdot(a, a))


def _first_fault(checks):
    """(row, error) for the first row failing any check, else None.

    `checks` lists (mask, make_error) in the order a single row is checked;
    make_error builds the exception for a row index.
    """
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if not np.any(bad):
        return None
    k = int(np.argmax(bad))
    return k, next(make_error(k) for mask, make_error in checks if mask[k])


def _offset_rows(jets, s, v, R, w_tol=1e-12):
    """Row-wise offsets: (unit normals, admissible bounds, first fault).

    `jets` are the (curve, weight) jets of order >= 1 at the feet s. Each
    row is projected into the normal space at its foot and normalized; the
    fault is (row, OutOfWError) for the first row whose direction is
    tangent or whose height is negative or above 1/|mu'|, else None.
    """
    t = jets[0][1]
    v = v - _rowdot(v, t)[:, None] * t
    nv = _rownorm(v)
    v = v / np.where(nv > 0.0, nv, 1.0)[:, None]
    bound = _bound(jets[1][1])
    fault = _first_fault([
        (nv <= 1e-14, lambda k: OutOfWError("direction is tangent to the curve at s")),
        (R < 0, lambda k: OutOfWError("height R must be nonnegative")),
        (R > bound * (1.0 + w_tol), lambda k: OutOfWError(
            f"R={float(R[k])} exceeds admissible bound {float(bound[k])} at s={float(s[k])}"
        )),
    ])
    return v, bound, fault


def make_offsets(curve, weight, s, v, R, w_tol=1e-12):
    """Row-wise make_offset over s (m,), v (m, n), R (m,): the unit normals.

    Raises OutOfWError for the first row that fails a check.
    """
    s = np.asarray(s, dtype=float)
    jets = (curve.jet(s, 1), weight.jet(s, 1))
    v, _, fault = _offset_rows(jets, s, np.asarray(v, dtype=float), np.asarray(R, dtype=float), w_tol)
    if fault is not None:
        raise fault[1]
    return v


def make_offset(curve, weight, s, v, R, w_tol=1e-12):
    """Project v into the normal space at s, normalize, and range-check R:
    one row of `_offset_rows`."""
    s, R = np.array([float(s)]), float(R)
    rows, bound, fault = _offset_rows(
        (curve.jet(s, 1), weight.jet(s, 1)), s, np.asarray(v, dtype=float)[None, :],
        np.array([R]), w_tol,
    )
    if fault is not None:
        raise fault[1]
    bound = float(bound[0])
    boundary = np.isfinite(bound) and abs(R - bound) <= w_tol * max(1.0, bound)
    return NormalOffset(float(s[0]), rows[0], R, boundary)


def exp_mu(curve, weight, s, v, R):
    """Evaluate the map at foot s, unit normal v, height(s) R (scalar or
    array): the rows of exp_mu_batch at one offset, range-checked at the
    largest height."""
    s, R = np.array([float(s)]), np.asarray(R, dtype=float)
    jets = (curve.jet(s, 1), weight.jet(s, 1))
    v, _, fault = _offset_rows(jets, s, np.asarray(v, dtype=float)[None, :], np.array([np.max(R)]))
    if fault is not None:
        raise fault[1]
    return _exp_rows(jets, v, R.ravel()).reshape(R.shape + v.shape[1:])


def exp_mu_batch(curve, weight, s, v, R):
    """Vectorized map over matched arrays s (m,), v (m,n), R (m,); s and v
    may also be single rows, shared by every height."""
    s = np.asarray(s, dtype=float)
    jets = (curve.jet(s, 1), weight.jet(s, 1))
    return _exp_rows(jets, np.asarray(v, dtype=float), np.asarray(R, dtype=float))


def _exp_rows(jets, v, R):
    """exp_mu_batch from the (curve, weight) jets of order >= 1 at the feet."""
    g, t = jets[0][:2]
    mu, d1 = (np.asarray(x, dtype=float) for x in jets[1][:2])
    rad = np.sqrt(np.clip(1.0 - (d1 * R) ** 2, 0.0, None))
    return g - (mu * d1 * R**2)[:, None] * t + (mu * R * rad)[:, None] * v


def fiber_geometry(curve, weight, s, tol_plane=1e-10):
    """Shape of the normal-space image at s: plane iff |mu'(s)| <= tol_plane,
    else the sphere of radius mu/(2|mu'|) centered at gamma - (mu/(2 mu')) gamma'."""
    s = float(s)
    g, t = curve.jet(s, 1)
    mu, d1 = (float(x) for x in weight.jet(s, 1))
    if abs(d1) <= tol_plane:
        return FiberShape(PLANE, g, normal=t)
    center = g - (mu / (2.0 * d1)) * t
    return FiberShape(SPHERE, g, center=center, radius=mu / (2.0 * abs(d1)))


# ---------------------------------------------------------------------------
# Squared weighted distance and its s-derivatives
# ---------------------------------------------------------------------------


def f_value(curve, weight, s, p):
    p = np.asarray(p, dtype=float)
    g = curve.point(s)
    diff = p - g
    e = np.sum(diff * diff, axis=-1)
    mu = np.asarray(weight.mu(s), dtype=float)
    return e / mu**2


def f_prime(curve, weight, s, p):
    """dF_p/ds via logarithmic differentiation of E / mu^2."""
    g, t = curve.jet(s, 1)
    mu, d1 = (np.asarray(x, dtype=float) for x in weight.jet(s, 1))
    return _f_prime(np.asarray(p, dtype=float) - g, t, mu, d1)


def _f_prime(diff, t, mu, d1):
    """dF_p/ds from diff = p - gamma, the tangent, mu and mu' at the feet."""
    e = np.sum(diff * diff, axis=-1)
    e1 = -2.0 * np.sum(diff * t, axis=-1)
    return (e1 - 2.0 * e * d1 / mu) / mu**2


def f_second(curve, weight, s, p):
    """d^2F_p/ds^2, valid at any s (not only critical feet)."""
    p = np.asarray(p, dtype=float)
    g, t, g2 = curve.jet(s, 2)
    diff = p - g
    e = np.sum(diff * diff, axis=-1)
    e1 = -2.0 * np.sum(diff * t, axis=-1)
    e2 = 2.0 * (1.0 - np.sum(diff * g2, axis=-1))
    mu, d1, d2 = (np.asarray(x, dtype=float) for x in weight.jet(s, 2))
    return (
        e2 / mu**2
        - 4.0 * e1 * d1 / mu**3
        + 6.0 * e * d1**2 / mu**4
        - 2.0 * e * d2 / mu**3
    )


def f_second_critical(curve, weight, s, p, grad_tol=None):
    """Closed-form d^2F_p/ds^2 at a critical foot s of p:

        (2/mu^2) (1 - kappa R mu sqrt(1-(mu' R)^2) cos(beta) - (R^2/2)(mu^2)''),

    with R = |p - gamma(s)| / mu(s) and beta the angle between gamma''(s)
    and the normal part of the direction to p (0 when either vanishes).
    Raises NotCriticalFootError when s fails the first-order criticality
    test for p, and OutOfWError when the recovered height exceeds the
    admissible bound.
    """
    s = np.array([float(s)])
    values, fault = _f_second_critical_rows(
        curve, (curve.jet(s, 2), weight.jet(s, 2)), np.asarray(p, dtype=float)[None, :], grad_tol
    )
    if fault is not None:
        raise fault[1]
    return float(values[0])


def _f_second_critical_rows(curve, jets, p, grad_tol=None):
    """Row-wise f_second_critical from the (curve, weight) jets of order 2 at
    the feet and the points p (m, n).

    Returns (values, fault); the fault is (row, error) for the first row
    failing the recovered-height or the criticality check, else None.
    """
    g, t, g2 = jets[0][:3]
    mu, d1, d2 = (np.asarray(x, dtype=float) for x in jets[1][:3])
    diff = p - g
    dist = _rownorm(diff)
    R = dist / mu
    bound = _bound(d1)
    if grad_tol is None:
        grad_tol = 1e-8 * 2.0 / mu**2 * np.fmax(1.0, R) * max(1.0, curve.length)
    fp = np.abs(_f_prime(diff, t, mu, d1))
    fault = _first_fault([
        (R > bound * (1.0 + 1e-12), lambda k: OutOfWError(
            f"recovered height {float(R[k])} exceeds admissible bound {float(bound[k])}"
        )),
        (fp > grad_tol, lambda k: NotCriticalFootError(
            f"foot not critical: |F'|={float(fp[k])} > "
            f"{float(np.broadcast_to(grad_tol, fp.shape)[k])}"
        )),
    ])
    kap = _rownorm(g2)
    u = diff / np.where(dist > 0.0, dist, 1.0)[:, None]
    un = u - _rowdot(u, t)[:, None] * t
    nun = _rownorm(un)
    tilted = (R > 0) & (kap > curve.kappa_tol) & (nun > 1e-14)
    cosb = np.where(tilted, _rowdot(g2, un) / np.where(tilted, kap * nun, 1.0), 1.0)
    musq2 = 2.0 * (d1**2 + mu * d2)  # (mu^2)''
    root = np.sqrt(np.maximum(0.0, 1.0 - (d1 * R) ** 2))
    return (2.0 / mu**2) * (1.0 - kap * R * mu * root * cosb - 0.5 * R**2 * musq2), fault


def f_second_at_offset(curve, weight, s, v, R):
    """Closed-form second derivative at the foot of exp(s, v, R): one row of
    `_hess_rows`."""
    s = np.array([float(s)])
    _, hess, _, faults = _hess_rows(
        curve, (curve.jet(s, 2), weight.jet(s, 2)), s, np.asarray(v, dtype=float)[None, :],
        np.array([float(R)]),
    )
    for fault in faults:
        if fault is not None:
            raise fault[1]
    return float(hess[0])


def _hess_rows(curve, jets, s, v, R):
    """The second-derivative criterion over offset rows s (m,), v (m, n),
    R (m,), from the (curve, weight) jets of order 2 at the feet.

    Each row is projected and normalized (`_offset_rows`) and mapped to its
    image; the criterion projects that normal again, maps it and evaluates
    the closed-form F'' at the point. Returns (images, F'', admissible
    bounds, (offset fault, F'' fault)), each fault (row, error) or None.
    """
    v, bound, fault = _offset_rows(jets, s, v, R)
    images = _exp_rows(jets, v, R)
    v, _, _ = _offset_rows(jets, s, v, R)
    hess, hess_fault = _f_second_critical_rows(curve, jets, _exp_rows(jets, v, R))
    return images, hess, bound, (fault, hess_fault)


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


# ---------------------------------------------------------------------------
# Weighted closest points and the ambient potential G
# ---------------------------------------------------------------------------


@dataclass
class ClosestPoint:
    """Global minimizer of F_p over the scene."""

    component: int
    s: float
    value: float
    unique: bool
    ties: list = field(default_factory=list)


def mu_closest_point(pairs, p, samples=2048, newton_iters=30, tie_rel=1e-9):
    """Weighted closest point via dense grid plus Newton polish.

    `pairs` is one (curve, weight) pair or a list of them. Grid minima tied
    within tie_rel (relative) at separated parameters are reported as ties
    and flip `unique` to False.
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
        s_star, val = _polish_minimum(curve, weight, p, float(sg[i0]), step, newton_iters)
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


def _polish_minimum(curve, weight, p, s0, bracket, iters):
    """Newton polish of a local minimum of F_p, golden fallback on failure."""
    s = s0
    lo, hi = s0 - bracket, s0 + bracket
    for _ in range(iters):
        g1 = float(f_prime(curve, weight, s, p))
        g2 = float(f_second(curve, weight, s, p))
        if g2 <= 0 or not np.isfinite(g1):
            break
        step = -g1 / g2
        step = float(np.clip(step, -bracket, bracket))
        s_new = s + step
        if not curve.closed:
            s_new = float(np.clip(s_new, curve.s_min, curve.s_max))
        if abs(s_new - s) <= 1e-15 * max(1.0, curve.length):
            s = s_new
            break
        s = s_new
    if not curve.closed:
        lo = max(lo, curve.s_min)
        hi = min(hi, curve.s_max)
    sg, vg = golden_min(lambda x: f_value(curve, weight, x, p), lo, hi, tol=1e-13)
    vn = float(f_value(curve, weight, s, p))
    return (s, vn) if vn <= vg[0] else (float(sg[0]), float(vg[0]))


# Cells (points x grid samples) in one block of the G grid stage: the block's
# float64 temporary stays at 4 MiB whatever the number of points.
_G_BLOCK_CELLS = 1 << 19


def g_potential(pairs, points, samples=2048, refine_iters=40):
    """Vectorized G(p) = min_s F_p over all components for many ambient points.

    The grid minimum is taken in row blocks of fixed size (`_grid_argmin`),
    so memory does not grow with the number of points; each point then gets
    a fixed-iteration golden section (`util.golden_min`, branch-free and
    deterministic) around its grid minimum. Returns (values,
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
        idx = _grid_argmin(pts, curve.point(sg), np.asarray(weight.mu(sg), dtype=float))
        step = curve.length / samples
        lo = sg[idx] - step
        hi = sg[idx] + step
        if not curve.closed:
            lo = np.clip(lo, curve.s_min, curve.s_max)
            hi = np.clip(hi, curve.s_min, curve.s_max)
        s, v = golden_min(
            lambda x, p: f_value(curve, weight, x, p),
            lo, hi, tol=0.0, maxiter=refine_iters, args=(pts,),
        )
        better = v < best_v
        best_v = np.where(better, v, best_v)
        best_c = np.where(better, ci, best_c)
        best_s = np.where(better, s, best_s)
    return best_v, best_c, best_s


def _grid_argmin(pts, gp, mug):
    """Grid index minimizing |p - g|^2 / mu^2 for every point p.

    Works through blocks of at most _G_BLOCK_CELLS (point, sample) cells and
    accumulates the squared distance one coordinate at a time in place; the
    sums run in the same order as a dense `((p - g) ** 2).sum(axis=-1)`, so
    the values and indices are the dense ones bit for bit.
    """
    rows = max(1, _G_BLOCK_CELLS // len(gp))
    mu2 = mug**2
    idx = np.empty(len(pts), dtype=np.intp)
    for start in range(0, len(pts), rows):
        p = pts[start:start + rows]
        f = (p[:, None, 0] - gp[None, :, 0]) ** 2
        for k in range(1, pts.shape[1]):
            e = p[:, None, k] - gp[None, :, k]
            e *= e
            f += e
        f /= mu2
        idx[start:start + rows] = np.argmin(f, axis=1)
    return idx


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


# ---------------------------------------------------------------------------
# Normal frames
# ---------------------------------------------------------------------------


def normal_frame(curve, s, reference=None):
    """Orthonormal basis of the normal space at s.

    Gram-Schmidt of either the ambient standard basis (one row of
    `normal_frames`) or a caller-supplied reference frame, the latter giving
    a frame that varies smoothly with s nearby.
    """
    if reference is not None:
        reference = np.asarray(reference, dtype=float)[None]
    frames, count = _frames(curve.tangent(s)[None, :], reference)
    return frames[0, :count[0]]


def normal_frames(curve, s):
    """Row-wise reference-free normal_frame over feet s (m,): (m, n-1, n).

    Each row equals `normal_frame(curve, s[k])` bit for bit.
    """
    frames, _ = _frames(curve.tangent(np.asarray(s, dtype=float)))
    return frames


def _frames(t, reference=None):
    """Frames of the normal spaces of unit tangents t (m, n): Gram-Schmidt of
    the standard basis, residuals at most 0.5 skipped, or of each row's
    reference frame (reference (m, k, n)), residuals at most 1e-8 skipped.
    A row left short is redone from the standard basis with unconditional
    pivoting. Returns (frames, per-row frame counts)."""
    frames, count = _frame_rows(t, 0.5 if reference is None else 1e-8, reference)
    short = count < t.shape[1] - 1
    if short.any():
        frames[short], count[short] = _frame_rows(t[short], 1e-10)
    return frames, count


def _frame_rows(t, threshold, reference=None):
    """Row-wise Gram-Schmidt against tangents t (m, n) of the standard basis,
    or of the rows' reference frames (m, k, n) when given.

    Every row runs the sequential loop: each seed vector loses its tangent
    part and its parts along the row's frame vectors so far, in order, and
    joins the frame when its residual norm exceeds `threshold`, until the
    frame has n - 1 vectors. Returns (frames (m, n-1, n), counts (m,));
    slots a row does not fill stay nan.
    """
    m, n = t.shape
    if reference is None:
        # e_i . t has one nonzero product, so it is t_i exactly (for finite t)
        # and the seeds e_i - (e_i . t) t need no dot products.
        seeds = np.eye(n) - t[:, :, None] * t[:, None, :]
    else:
        dots = np.stack([_rowdot(r, t) for r in reference.swapaxes(0, 1)], axis=1)
        seeds = reference - dots[:, :, None] * t[:, None, :]
    frames = np.full((m, n - 1, n), np.nan)
    count = np.zeros(m, dtype=int)
    for i in range(seeds.shape[1]):
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
    return frames, count


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
