"""Oracles shared by the test modules: the dense grid argmin and a
golden-section G with no shortcuts, the weighted closest point with its tie
report and the finite-difference gradient of G, one-offset forms of the
offset and second-derivative rows, the fiber-shape membership test, the
critical-point class, golden-section maxima, and the pointwise focal data."""

from dataclasses import dataclass, field

import numpy as np

from weighted_tubes import PLANE, WeightedTubesError, f_prime, f_second, f_value, g_potential
from weighted_tubes.expmap import _hess_rows, _offset_rows, _refine_rows
from weighted_tubes.radii import _abc, _band, _radius_profiles
from weighted_tubes.util import as_pairs, golden_min


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


def delta_lambda(curve, weight, s):
    """Pointwise focal data at s (band on the discriminant sign); lambda is
    None where the discriminant is below the band."""
    a, b, c, disc, lam = _abc(curve, weight, np.asarray(s, dtype=float))
    band = _band(np.max(a**2))
    r0, rm = _radius_profiles(b, disc, lam, band)
    if np.ndim(s) == 0:
        lam_val = float(lam) if disc >= -band else None
        return PointwiseFocal(float(s), float(disc), lam_val, float(r0), float(rm))
    return [
        PointwiseFocal(
            float(si),
            float(di),
            float(li) if di >= -band else None,
            float(ri0),
            float(rim),
        )
        for si, di, li, ri0, rim in zip(s, disc, lam, r0, rm)
    ]


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
    rows, bound, fault = _offset_rows(
        (curve.jet(s, 1), weight.jet(s, 1)), s, np.asarray(v, dtype=float)[None, :], np.array([R])
    )
    if fault is not None:
        raise fault[1]
    bound = float(bound[0])
    boundary = np.isfinite(bound) and abs(R - bound) <= 1e-12 * max(1.0, bound)
    return NormalOffset(float(s[0]), rows[0], R, boundary)


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
