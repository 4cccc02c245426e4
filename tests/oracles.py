"""Oracles shared by the test modules: the dense grid argmin and a
golden-section G with no shortcuts, the finite-difference gradient of G,
and the pointwise focal data."""

from dataclasses import dataclass

import numpy as np

from weighted_tubes import NonUniqueFootError, f_value, g_potential, mu_closest_point
from weighted_tubes.config import DEFAULT_TOLERANCES
from weighted_tubes.radii import _abc, _band, _radius_profiles
from weighted_tubes.util import as_pairs


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


def delta_lambda(curve, weight, s, tol=DEFAULT_TOLERANCES):
    """Pointwise focal data at s (band on the discriminant sign); lambda is
    None where the discriminant is below the band."""
    a, b, c, disc, lam = _abc(curve, weight, np.asarray(s, dtype=float))
    band = _band(np.max(a**2), tol)
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
