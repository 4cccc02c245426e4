"""Focal profiles, double-critical pair search, and the derived radii.

At each foot the quantities

    A = kappa mu,  B = |mu'|,  C = (mu^2)'' = 2 (mu'^2 + mu mu''),
    discriminant  = mu (mu'' + kappa^2 mu / 4) = C/2 + A^2/4 - B^2,
    lam           = B^2 + (sqrt(max(disc, 0)) + A/2)^2,

control the first height at which the second derivative of the squared
weighted distance can vanish (lam^{-1/2}) or become negative. The two
focal radii aggregate the pointwise values with a closed band (>= 0) or an
open band (> 0) on the discriminant; the double-critical self distance
comes from critical pairs of |q1 - q2|^2 (mu(q1) + mu(q2))^{-2}. The
derived radii are mins of these, and the ordering dir <= tir <= air is
enforced on every report.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES
from .curves import ABSENT
from .errors import NumericError
from .util import as_pairs, golden_max, golden_min


@dataclass(frozen=True)
class PointwiseFocal:
    s: float
    delta: float
    lambda_val: float | None
    focrad0_pt: float
    focradminus_pt: float


@dataclass(frozen=True)
class DoubleCriticalPair:
    component_1: int
    component_2: int
    s1: float
    s2: float
    ratio: float
    midpoint: np.ndarray
    residual: float
    angle_residuals: tuple


@dataclass(frozen=True)
class FocalWitness:
    component: int
    s: float
    value: float


@dataclass
class RadiiReport:
    focrad0: float
    focradminus: float
    dcsd_half: float
    lr: float
    ur: float
    dir: float
    tir: float
    air: float
    witnesses: dict = field(default_factory=dict)


def _abc(curve, weight, s):
    kap = np.asarray(curve.curvature(s), dtype=float)
    mu = np.asarray(weight.mu(s), dtype=float)
    d1 = np.asarray(weight.d1(s), dtype=float)
    d2 = np.asarray(weight.d2(s), dtype=float)
    a = kap * mu
    b = np.abs(d1)
    c = 2.0 * (d1**2 + mu * d2)
    disc = mu * (d2 + 0.25 * kap**2 * mu)
    lam = b**2 + (np.sqrt(np.clip(disc, 0.0, None)) + 0.5 * a) ** 2
    return a, b, c, disc, lam


def _band(a_sq_max, tol):
    return tol.delta_band_factor * max(1.0, float(a_sq_max))


def _extrema_indices(values, closed, kind, cap):
    """Indices of candidate local minima/maxima, ties allowed on one side.

    A point qualifies when it is no worse than both neighbors and strictly
    better than at least one (so flat plateaus are skipped but symmetric
    ties around an off-grid extremum are kept). Open arcs pad with the
    worst value, letting endpoints qualify. At most `cap` best indices.
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
    return [int(i) for i in idx[:cap]]


def _radius_profiles(b, disc, lam, band):
    with np.errstate(divide="ignore", invalid="ignore"):
        lam_rad = np.where(lam > 0.0, 1.0 / np.sqrt(np.where(lam > 0, lam, 1.0)), np.inf)
        b_rad = np.where(b > 0.0, 1.0 / np.where(b > 0, b, 1.0), np.inf)
    r0 = np.where(disc >= -band, lam_rad, b_rad)
    rm = np.where(disc > band, lam_rad, b_rad)
    return r0, rm


def delta_lambda(curve, weight, s, tol=DEFAULT_TOLERANCES):
    """Pointwise focal data at s (band on the discriminant sign)."""
    a, b, c, disc, lam = _abc(curve, weight, np.asarray(s, dtype=float))
    band = _band(np.max(a**2), tol)
    r0, rm = _radius_profiles(b, disc, lam, band)
    if np.ndim(s) == 0:
        lam_val = float(lam) if disc >= -band else ABSENT
        return PointwiseFocal(float(s), float(disc), lam_val, float(r0), float(rm))
    return [
        PointwiseFocal(
            float(si),
            float(di),
            float(li) if di >= -band else ABSENT,
            float(ri0),
            float(rim),
        )
        for si, di, li, ri0, rim in zip(s, disc, lam, r0, rm)
    ]


def focal_radii(pairs, tol=DEFAULT_TOLERANCES):
    """Global focal radii over all components.

    Dense profiles plus golden-section refinement, per component one
    row-wise call for each family of brackets: the best local minima of the
    closed-band profile, those of the open-band profile, the local maxima of
    the discriminant (so isolated touching zeros, which only the closed band
    sees, are not lost between grid nodes) and the local maxima of |mu'|.
    The discriminant and slope maxima serve both profiles. Each profile's
    candidates are its grid minimum, its refined minima, the refined
    discriminant maxima its band admits and the slope maxima, in that
    order; the first smallest one is the witness.
    """
    pairs = as_pairs(pairs)
    best = [(np.inf, None), (np.inf, None)]  # closed band, open band
    for ci, (curve, weight) in enumerate(pairs):
        sg = curve.grid(tol.focal_samples)
        a, b, c, disc, lam = _abc(curve, weight, sg)
        band = _band(np.max(a**2), tol)
        r0, rm = _radius_profiles(b, disc, lam, band)

        def radius(s, which):
            _, bb, _, dd, ll = _abc(curve, weight, s)
            return _radius_profiles(bb, dd, ll, band)[which]

        # Isolated touching zeros of the discriminant.
        s_d, d_val = golden_max(
            lambda s: _abc(curve, weight, s)[3],
            *_bracket(curve, sg, _extrema_indices(disc, curve.closed, "max", 8)),
            tol=1e-13,
        )
        lam_d = _abc(curve, weight, s_d)[4]
        # Slope maxima (the max |mu'|^2 term applies unconditionally).
        s_b, b_val = golden_max(
            lambda s: np.abs(weight.d1(s)),
            *_bracket(curve, sg, _extrema_indices(b, curve.closed, "max", 4)),
            tol=1e-13,
        )
        slope = [(1.0 / float(v), float(x)) for v, x in zip(b_val, s_b) if v > 0]
        for which, profile, in_band in ((0, r0, d_val >= -band), (1, rm, d_val > band)):
            i_min = int(np.argmin(profile))
            idx = [i_min] + _extrema_indices(profile, curve.closed, "min", 8)
            s_ref, v_ref = golden_min(
                lambda s: radius(s, which), *_bracket(curve, sg, idx), tol=1e-12
            )
            cands = [(float(profile[i_min]), float(sg[i_min]))]
            cands += [(float(v), float(x)) for v, x in zip(v_ref, s_ref)]
            cands += [
                (float(1.0 / np.sqrt(lv)), float(x))
                for ok, lv, x in zip(in_band, lam_d, s_d)
                if ok and lv > 0
            ]
            cands += slope
            v_best, s_best = min(cands, key=lambda t: t[0])
            if v_best < best[which][0]:
                best[which] = (v_best, FocalWitness(ci, s_best, v_best))
    focrad0 = best[0][0]
    focradminus = max(best[1][0], focrad0)  # the open band can only be larger
    return focrad0, focradminus, {"focrad0": best[0][1], "focradminus": best[1][1]}


def _bracket(curve, sg, idx):
    """Brackets (lo, hi) around the grid indices idx: one grid step either
    side, clamped to the ends on open arcs."""
    idx = np.asarray(idx, dtype=int)
    n = len(sg)
    if curve.closed:
        step = curve.length / n
        return sg[idx] - step, sg[idx] + step
    return sg[np.maximum(idx - 1, 0)], sg[np.minimum(idx + 1, n - 1)]


# ---------------------------------------------------------------------------
# Quadratic root algebra for the critical height equation
# ---------------------------------------------------------------------------


def lemma3_roots(a, b, c, residual_tol=1e-12):
    """All heights t in [0, 1/b] (or [0, inf) when b = 0) solving

        1 - (c/2) t^2 - a t sqrt(1 - b^2 t^2) = 0,   a, b >= 0.

    Closed forms t = (c/2 + a^2/2 +- a sqrt(disc))^{-1/2}; every candidate
    is residual-verified, which drops the branch that squaring introduces
    when c > 2 b^2. Raises NumericError when no solution exists
    (disc < 0, or a = c = 0).
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
        if residual(t) <= residual_tol:
            roots.append(t)
    roots.sort()
    dedup = []
    for t in roots:
        if not dedup or abs(t - dedup[-1]) > 1e-12 * max(1.0, t):
            dedup.append(t)
    return tuple(dedup)


# ---------------------------------------------------------------------------
# Double-critical pairs
# ---------------------------------------------------------------------------


def _feet(curve, weight, s):
    """(point, tangent, mu, mu') at the feet s: one evaluation per foot array."""
    return (
        curve.point(s),
        curve.tangent(s),
        np.asarray(weight.mu(s), dtype=float),
        np.asarray(weight.d1(s), dtype=float),
    )


def _sigma_and_grad(feet1, feet2):
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


def find_double_critical_pairs(pairs, tol=DEFAULT_TOLERANCES):
    """Grid-seeded damped Newton search for critical pairs of sigma.

    Seeds are discrete local minima of sigma and of |grad sigma| over an
    N x N parameter grid per component pair (same-component grids exclude a
    diagonal band of arclength width delta_min). Newton runs on all seeds of
    a component pair at once, with the analytic gradient and a central
    finite-difference Jacobian; each iteration evaluates the foot arrays s,
    s +- h, t and t +- h once each and combines them into the five gradients
    it needs. Non-converged seeds are dropped, converged ones are
    deduplicated and verified against the critical-angle law at both feet.
    """
    pairs = as_pairs(pairs)
    found = []
    for i in range(len(pairs)):
        for j in range(i, len(pairs)):
            found.extend(_search_component_pair(pairs, i, j, tol))
    return _dedup_pairs(pairs, found, tol)


def _search_component_pair(pairs, i, j, tol):
    c1, w1 = pairs[i]
    c2, w2 = pairs[j]
    n = tol.pair_grid
    sg1 = c1.grid(n)
    sg2 = c2.grid(n)
    # Broadcast the 1-D grid evaluations into the sigma matrix directly.
    g1, t1, m1, dm1 = _feet(c1, w1, sg1)
    g2, t2, m2, dm2 = _feet(c2, w2, sg2)
    diff = g1[:, None, :] - g2[None, :, :]
    e = np.einsum("ijk,ijk->ij", diff, diff)
    msum = m1[:, None] + m2[None, :]
    sigma = e / msum**2
    ds = (2.0 * np.einsum("ijk,ik->ij", diff, t1) - 2.0 * e * dm1[:, None] / msum) / msum**2
    dt = (-2.0 * np.einsum("ijk,jk->ij", diff, t2) - 2.0 * e * dm2[None, :] / msum) / msum**2
    gnorm = np.hypot(ds, dt)
    S, T = np.meshgrid(sg1, sg2, indexing="ij")
    same = i == j
    if same:
        dmin = tol.delta_min_factor * c1.length
        band = c1.periodic_distance(S, T) < dmin
        sigma = np.where(band, np.inf, sigma)
        gnorm = np.where(band, np.inf, gnorm)
    seeds = set()
    for mat in (sigma, gnorm):
        mlocal = _grid_local_minima(mat, c1.closed, c2.closed)
        for a, b in mlocal:
            seeds.add((float(S[a, b]), float(T[a, b])))
    if not seeds:
        return []
    seeds = np.array(sorted(seeds))
    s = seeds[:, 0].copy()
    t = seeds[:, 1].copy()
    alive = np.ones(len(seeds), dtype=bool)
    h1 = 1e-6 * c1.length
    h2 = 1e-6 * c2.length
    max_step1 = 2.0 * c1.length / n
    max_step2 = 2.0 * c2.length / n
    for _ in range(tol.newton_max_iter):
        at_s, at_t = _feet(c1, w1, s), _feet(c2, w2, t)
        sig, gs, gt = _sigma_and_grad(at_s, at_t)
        res = np.hypot(gs, gt) / np.maximum(1.0, sig)
        active = alive & (res > 0.1 * tol.tol_dc)
        if not np.any(active):
            break
        s_p, s_m, span1 = _stencil(c1, s, h1)
        _, gs_p, gt_p = _sigma_and_grad(_feet(c1, w1, s_p), at_t)
        _, gs_m, gt_m = _sigma_and_grad(_feet(c1, w1, s_m), at_t)
        j11 = (gs_p - gs_m) / span1
        j21 = (gt_p - gt_m) / span1
        t_p, t_m, span2 = _stencil(c2, t, h2)
        _, gs_p, gt_p = _sigma_and_grad(at_s, _feet(c2, w2, t_p))
        _, gs_m, gt_m = _sigma_and_grad(at_s, _feet(c2, w2, t_m))
        j12 = (gs_p - gs_m) / span2
        j22 = (gt_p - gt_m) / span2
        det = j11 * j22 - j12 * j21
        bad = np.abs(det) < 1e-300
        alive &= ~bad
        det = np.where(bad, 1.0, det)
        step_s = -(j22 * gs - j12 * gt) / det
        step_t = -(-j21 * gs + j11 * gt) / det
        step_s = np.clip(step_s, -max_step1, max_step1)
        step_t = np.clip(step_t, -max_step2, max_step2)
        s = np.where(active, s + step_s, s)
        t = np.where(active, t + step_t, t)
        if not c1.closed:
            s = np.clip(s, c1.s_min, c1.s_max)
        if not c2.closed:
            t = np.clip(t, c2.s_min, c2.s_max)
    sig, gs, gt = _sigma_and_grad(_feet(c1, w1, s), _feet(c2, w2, t))
    res = np.hypot(gs, gt) / np.maximum(1.0, sig)
    out = []
    for k in range(len(seeds)):
        if not alive[k] or res[k] > tol.tol_dc:
            continue
        cand = _verify_pair(pairs, i, j, float(s[k]), float(t[k]), float(res[k]), tol)
        if cand is not None:
            out.append(cand)
    return out


def _stencil(curve, s, h):
    """Central-difference feet s + h, s - h and their spread.

    On open arcs the feet are clipped into [s_min, s_max] and the spread is
    the clipped one; wherever nothing is clipped it stays 2 h.
    """
    if curve.closed:
        return s + h, s - h, 2 * h
    hi = np.minimum(s + h, curve.s_max)
    lo = np.maximum(s - h, curve.s_min)
    clipped = (s + h > curve.s_max) | (s - h < curve.s_min)
    return hi, lo, np.where(clipped, hi - lo, 2 * h)


def _grid_local_minima(mat, per_rows, per_cols):
    n, m = mat.shape
    best = np.ones_like(mat, dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            shifted = np.roll(np.roll(mat, dr, axis=0), dc, axis=1)
            if not per_rows:
                if dr == 1:
                    shifted[0, :] = np.inf
                elif dr == -1:
                    shifted[-1, :] = np.inf
            if not per_cols:
                if dc == 1:
                    shifted[:, 0] = np.inf
                elif dc == -1:
                    shifted[:, -1] = np.inf
            best &= mat <= shifted
    best &= np.isfinite(mat)
    return list(zip(*np.nonzero(best)))


def _verify_pair(pairs, i, j, s1, s2, residual, tol):
    c1, w1 = pairs[i]
    c2, w2 = pairs[j]
    if i == j:
        if c1.periodic_distance(s1, s2) < tol.delta_min_factor * c1.length:
            return None
    q1, q2 = c1.point(s1), c2.point(s2)
    m1 = float(w1.mu(s1))
    m2 = float(w2.mu(s2))
    dist = float(np.linalg.norm(q1 - q2))
    if dist <= 0:
        return None
    ratio = dist / (m1 + m2)
    u = (q2 - q1) / dist
    midpoint = q1 + ratio * m1 * u
    ang = []
    for curve, weight, s, uu in ((c1, w1, s1, u), (c2, w2, s2, -u)):
        d1 = float(weight.d1(s))
        if abs(d1) == 0.0:
            # alpha is pi/2 by convention; the chord must be normal here.
            ang.append(abs(float(uu @ curve.tangent(s))))
            continue
        grad_dir = np.sign(d1) * curve.tangent(s)
        cosa = float(uu @ grad_dir)
        ang.append(abs(cosa + ratio * abs(d1)))
    if max(ang) > 1e-6:
        return None
    return DoubleCriticalPair(i, j, s1, s2, ratio, midpoint, residual, tuple(ang))


def _dedup_pairs(pairs, found, tol):
    kept = []
    for cand in sorted(found, key=lambda p: (p.ratio, p.component_1, p.component_2, p.s1, p.s2)):
        dup = False
        for prev in kept:
            if (cand.component_1, cand.component_2) != (prev.component_1, prev.component_2):
                continue
            c1 = pairs[cand.component_1][0]
            c2 = pairs[cand.component_2][0]
            d_a = c1.periodic_distance(cand.s1, prev.s1) + c2.periodic_distance(cand.s2, prev.s2)
            d_b = np.inf
            if cand.component_1 == cand.component_2:
                d_b = c1.periodic_distance(cand.s1, prev.s2) + c2.periodic_distance(
                    cand.s2, prev.s1
                )
            scale = 1e-5 * (c1.length + c2.length)
            if min(d_a, d_b) < scale:
                dup = True
                break
        if not dup:
            kept.append(cand)
    return kept


def dcsd_half(found_pairs):
    """Half the double-critical self distance: min ratio, +inf when empty."""
    if not found_pairs:
        return np.inf
    return min(p.ratio for p in found_pairs)


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


def radii_report(pairs, tol=DEFAULT_TOLERANCES):
    """Full radii report; the topological radius comes from collapse arcs."""
    from . import singular

    pairs = as_pairs(pairs)
    focrad0, focradminus, focal_wit = focal_radii(pairs, tol)
    dc_pairs = find_double_critical_pairs(pairs, tol)
    dc = dcsd_half(dc_pairs)
    lr = min(dc, focrad0)
    ur = min(dc, focradminus)
    arcs = singular.detect_collapse_arcs(pairs, ur, tol)
    if arcs:
        tir_val = min(arc.r for arc in arcs)
        attained = True
    else:
        tir_val = ur
        attained = False
    tir_val = min(max(tir_val, lr), ur)
    witnesses = {
        "focrad0": focal_wit["focrad0"],
        "focradminus": focal_wit["focradminus"],
        "dcsd_pair": min(dc_pairs, key=lambda p: p.ratio) if dc_pairs else None,
        "collapse_arcs": arcs,
        "tir_attained": attained,
        "pair_count": len(dc_pairs),
    }
    return RadiiReport(
        focrad0=focrad0,
        focradminus=focradminus,
        dcsd_half=dc,
        lr=lr,
        ur=ur,
        dir=lr,
        tir=tir_val,
        air=ur,
        witnesses=witnesses,
    )
