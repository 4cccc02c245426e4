"""Oracles for the potential G shared by the test modules: the dense grid
argmin and a golden-section G with no shortcuts."""

import numpy as np

from weighted_tubes import f_value


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
