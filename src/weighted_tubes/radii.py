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

from . import singular
from .config import DEFAULT_TOLERANCES
from .errors import _overflow_raises
from .expmap import _bound, _rowdot, _rownorm
from .util import _bracket, _extrema_indices, _offset_array, as_pairs, golden_min

_DELTA_MIN_FACTOR = 1e-3  # x L: excluded diagonal band in pair search
_DELTA_BAND_FACTOR = 1e-12  # x max(1, kappa^2 mu^2): focal-sign band
_TOL_DC = 1e-9  # normalized residual of the pair gradient
_NEWTON_MAX_ITER = 50


# Columns of find_double_critical_pairs' table, before the midpoint x1..xn.
PAIR_COLUMNS = ("t", "component_1", "component_2", "s1", "s2", "ratio", "residual", "angle_1", "angle_2")


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


def _abc(curve, weight, s, t=0.0):
    """(a, b, c, disc, lam) at the feet s for the weight mu + t."""
    mu, d1, d2 = (np.asarray(x, dtype=float) for x in weight.jet(s, 2))
    return _focal_terms(curve.curvature(s), mu + t, d1, d2)


def _focal_terms(kap, mu, d1, d2):
    a = kap * mu
    b = np.abs(d1)
    c = 2.0 * (d1**2 + mu * d2)
    disc = mu * singular._g(kap, (mu, d1, d2))
    lam = b**2 + (np.sqrt(np.clip(disc, 0.0, None)) + 0.5 * a) ** 2
    return a, b, c, disc, lam


def _band(a_sq_max):
    return _DELTA_BAND_FACTOR * max(1.0, float(a_sq_max))


def _radius_profiles(b, disc, lam, band):
    with np.errstate(divide="ignore", invalid="ignore"):
        lam_rad = np.where(lam > 0.0, 1.0 / np.sqrt(np.where(lam > 0, lam, 1.0)), np.inf)
    b_rad = _bound(b)
    r0 = np.where(disc >= -band, lam_rad, b_rad)
    rm = np.where(disc > band, lam_rad, b_rad)
    return r0, rm


def focal_radii(pairs, tol=DEFAULT_TOLERANCES, offsets=None):
    """Global focal radii over all components.

    Dense profiles plus golden-section refinement. Per component, one
    row-wise call refines four families of brackets: the local maxima of
    the discriminant (so isolated touching zeros, which only the closed band
    sees, are not lost between grid nodes; tolerance 1e-13), the best local
    minima of the closed-band and of the open-band profile (1e-12), and the
    local maxima of |mu'| (1e-13), with one objective (`_focal_rows`). The
    discriminant and slope maxima serve both profiles. Each profile's
    candidates are its grid minimum, its refined minima, the refined
    discriminant maxima its band admits and the slope maxima, in that
    order; the first smallest one is the witness.

    With offsets, the radii of the weights mu + t for every t, as a list of
    (focrad0, focradminus, witnesses): the curve and weight jets on the grid
    are evaluated once, and the bracket rows of every t share the
    refinement call, each row carrying its t and band. The slope maxima do
    not depend on t, so one set of rows serves every t. The profiles are
    sampled on each component's `singular.dense_grid`.
    """
    pairs = as_pairs(pairs)
    ts = _offset_array(offsets)
    n = len(ts)
    best = [[(np.inf, None), (np.inf, None)] for _ in ts]  # closed band, open band
    for ci, (curve, weight) in enumerate(pairs):
        sg, _, (mu, d1, d2), kap = singular.dense_grid(curve, weight, tol.grid_samples)
        a, b, _, disc, lam = _focal_terms(kap, mu + ts[:, None], d1, d2)
        band = np.array([_band(np.max(row**2)) for row in a])
        profiles = _radius_profiles(b, disc, lam, band[:, None])
        i_min = [[int(np.argmin(p)) for p in profile] for profile in profiles]
        # Bracket rows by family (discriminant maxima, closed-band minima,
        # open-band minima), then by t, and last the slope maxima, one row
        # set for every t.
        lo, hi, row = _bracket_rows(
            curve, sg,
            [_extrema_indices(d, curve.closed, "max", 8) for d in disc]
            + [[i] + _extrema_indices(p, curve.closed, "min", 8)
               for profile, im in zip(profiles, i_min) for i, p in zip(im, profile)]
            + [_extrema_indices(b, curve.closed, "max", 4)],
        )
        fam, ti = np.divmod(row, n)
        x, fx = golden_min(
            lambda s, t, bd, fam: _focal_rows(curve, weight, s, t, bd, fam),
            lo, hi, tol=np.array([1e-13, 1e-12, 1e-12, 1e-13])[fam], args=(ts[ti], band[ti], fam),
        )
        refined = _split_rows(row, 3 * n + 1, x, fx)
        s_d, rd = x[fam == 0], ti[fam == 0]
        lam_d = _abc(curve, weight, s_d, ts[rd])[4]
        disc_rows = _split_rows(rd, n, s_d, -fx[fam == 0], lam_d)
        # Slope maxima (the max |mu'|^2 term applies unconditionally).
        slope = [(1.0 / float(-v), float(x)) for x, v in zip(*refined[3 * n]) if -v > 0]
        for which, profile in enumerate(profiles):
            for k, (xd, dv, ld) in enumerate(disc_rows):
                xs, vs = refined[(which + 1) * n + k]
                in_band = dv >= -band[k] if which == 0 else dv > band[k]
                cands = [(float(profile[k, i_min[which][k]]), float(sg[i_min[which][k]]))]
                cands += [(float(v), float(x)) for v, x in zip(vs, xs)]
                cands += [
                    (float(1.0 / np.sqrt(lv)), float(x))
                    for ok, lv, x in zip(in_band, ld, xd)
                    if ok and lv > 0
                ]
                cands += slope
                v_best, s_best = min(cands, key=lambda c: c[0])
                if v_best < best[k][which][0]:
                    best[k][which] = (v_best, FocalWitness(ci, s_best, v_best))
    # the open band can only be larger
    out = [(f0, max(fm, f0), {"focrad0": w0, "focradminus": wm}) for (f0, w0), (fm, wm) in best]
    return out[0] if offsets is None else out


def _focal_rows(curve, weight, s, t, band, fam):
    """Per row, -disc (fam 0), the closed-band (1) or the open-band (2)
    radius profile at the foot s for the weight mu + t, or -|mu'| (3).
    The slope rows read mu' alone, as they need no curvature; the other
    rows share one _abc call. A foot's values do not depend on the other
    feet of the call."""
    out = np.empty(len(s))
    slope = fam == 3
    out[slope] = -np.abs(weight.d1(s[slope]))
    k = np.nonzero(~slope)[0]
    if len(k):
        _, b, _, disc, lam = _abc(curve, weight, s[k], t[k])
        out[k] = np.choose(fam[k], (-disc, *_radius_profiles(b, disc, lam, band[k])))
    return out


def _bracket_rows(curve, sg, index_lists):
    """Brackets around the grid indices of every row, stacked in row order,
    and the row number of each bracket."""
    idx = np.concatenate([np.asarray(i, dtype=int) for i in index_lists])
    row = np.repeat(np.arange(len(index_lists)), [len(i) for i in index_lists])
    return (*_bracket(curve, sg, idx), row)


def _split_rows(row, n_rows, *arrays):
    """Per row number in range(n_rows), the slices of arrays stacked in row order."""
    cuts = np.searchsorted(row, np.arange(1, n_rows))
    return list(zip(*(np.split(a, cuts) for a in arrays)))


# ---------------------------------------------------------------------------
# Double-critical pairs
# ---------------------------------------------------------------------------


def _feet(curve, weight, s, t=0.0):
    """(point, tangent, mu + t, mu') at the feet s: one jet per foot array."""
    mu, d1 = weight.jet(s, 1)
    return curve.jet(s, 1) + (np.asarray(mu, dtype=float) + t, np.asarray(d1, dtype=float))


def _feet_rows(curve, weight, arrays, t):
    """_feet of several equal-length foot arrays, all with offsets t, from
    one evaluation of their concatenation; one tuple per array."""
    n = len(arrays[0])
    feet = _feet(curve, weight, np.concatenate(arrays), np.tile(t, len(arrays)))
    return [tuple(x[k * n:(k + 1) * n] for x in feet) for k in range(len(arrays))]


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


def find_double_critical_pairs(pairs, tol=DEFAULT_TOLERANCES, offsets=None):
    """Grid-seeded damped Newton search for critical pairs of sigma.

    Seeds are discrete local minima of sigma and of |grad sigma| over an
    N x N parameter grid per component pair (same-component grids exclude a
    diagonal band of arclength width _DELTA_MIN_FACTOR * L). Newton runs on
    all seeds of a component pair at once, with the analytic gradient and a
    central finite-difference Jacobian; each iteration evaluates the foot
    arrays s, s +- h, t and t +- h (in one call on a same-component pair,
    one per curve otherwise) and combines them into the five gradients it
    needs; rows that cycle settle early (see _newton). Non-converged seeds
    are dropped, converged ones are verified
    against the critical-angle law at both feet and deduplicated, all as
    rows.

    Returns one float table of shape (m, 9 + n): per pair the columns
    PAIR_COLUMNS (Newton's residual, the angle law's at each foot), then the
    midpoint x1..xn, in the order of _dedup_rows. With offsets (distinct
    values), the pairs of mu + t for every t, grouped by t in the order
    given (t = 0.0 without): the grid geometry is shared, and one Newton
    runs over the seeds of every t.
    """
    pairs = as_pairs(pairs)
    ts = _offset_array(offsets)
    found = [_search_component_pair(pairs, i, j, ts, tol)
             for i in range(len(pairs)) for j in range(i, len(pairs))]
    rows = {key: np.concatenate([f[key] for f in found]) for key in found[0]}
    return np.column_stack([rows[key] for key in PAIR_COLUMNS + ("midpoint",)])[_dedup_rows(pairs, rows)]


def _search_component_pair(pairs, i, j, ts, tol):
    """Verified critical pairs of components i and j as rows (see
    _verify_rows), each with its offset's index in ts (`grp`) and its Newton
    residual, in the order of the Newton rows."""
    c1, w1 = pairs[i]
    c2, w2 = pairs[j]
    n = tol.pair_grid
    sg1 = c1.grid(n)
    sg2 = c2.grid(n)
    # Broadcast the 1-D grid evaluations into the sigma matrix directly. What
    # no offset changes (the geometry, its products with the weight slopes,
    # the diagonal band and the minima search's pad) is built once; the
    # offset loop keeps every operation's operands and order, so its seeds
    # are those of a search for each offset alone.
    g1, t1, m1, dm1 = _feet(c1, w1, sg1)
    g2, t2, m2, dm2 = _feet(c2, w2, sg2)
    diff = g1[:, None, :] - g2[None, :, :]
    e = np.einsum("ijk,ijk->ij", diff, diff)
    dot1 = 2.0 * np.einsum("ijk,ik->ij", diff, t1)
    dot2 = -2.0 * np.einsum("ijk,jk->ij", diff, t2)
    del diff  # its N x N x n floats are not read again; the loop holds e1, e2
    e1 = 2.0 * e * dm1[:, None]
    e2 = 2.0 * e * dm2[None, :]
    pad = np.full((len(sg1) + 2, len(sg2) + 2), np.inf)
    band = None
    if i == j:
        band = np.nonzero(
            c1.periodic_distance(*np.meshgrid(sg1, sg2, indexing="ij")) < _DELTA_MIN_FACTOR * c1.length
        )
    seeds = []
    for off in ts:
        msum = (m1 + off)[:, None] + (m2 + off)[None, :]
        msq = msum**2
        sigma = e / msq
        gnorm = np.hypot((dot1 - e1 / msum) / msq, (dot2 - e2 / msum) / msq)
        if band is not None:
            sigma[band] = np.inf
            gnorm[band] = np.inf
        # np.unique sorts the linear cell indices; both grids increase
        # strictly, so the seeds are in (s, t) order.
        cells = np.unique(np.concatenate(
            [_grid_local_minima(mat, c1.closed, c2.closed, pad) for mat in (sigma, gnorm)]
        ))
        a, b = np.divmod(cells, len(sg2))
        seeds.append(np.column_stack([sg1[a], sg2[b]]))
    grp = np.repeat(np.arange(len(ts)), [len(x) for x in seeds])
    s, t, res, alive = _newton(c1, w1, c2, w2, np.concatenate(seeds), grp, ts, tol)
    k = np.nonzero(alive & ~(res > _TOL_DC))[0]
    return _verify_rows(pairs, i, j, s[k], t[k], ts, grp[k], res[k])


def _newton(c1, w1, c2, w2, seeds, grp, ts, tol):
    """Damped Newton over every (offset, seed) row: seeds is an (m, 2) array
    of starting (s, t); row k belongs to group grp[k] and carries the offset
    ts[grp[k]].

    Each group follows the sequence of a search for its offset alone: it
    stops on the first pass where none of its seeds is active, and on each
    pass it continues, a seed whose Jacobian determinant is below 1e-300 is
    dropped. Only live rows (active on the previous pass) are evaluated: a
    seed that stops never moves again, so its residual stays valid and its
    determinant, checked on the pass where it stops, never changes.

    An active row whose (s, t) equals, bit for bit, its state one or two
    passes back is settled at once: it takes the state and residual it would
    have on pass _NEWTON_MAX_ITER, and its group counts as running on every
    later pass. That is exact. A row's next state depends only on its own
    (s, t, offset), since every foot is evaluated on its own; an active
    row always moves; and each state of the cycle already passed the
    determinant check. So the row would repeat its cycle of one or two
    states, active, to the last pass. A row that stalls without repeating
    a state runs to the last pass.
    Returns the final (s, t, residual, alive) of every row.
    """
    s = seeds[:, 0].copy()
    t = seeds[:, 1].copy()
    off = ts[grp]
    res = np.empty(len(seeds))
    alive = np.ones(len(seeds), dtype=bool)
    live = np.arange(len(seeds))
    # (s, t, residual) one pass back and (s, t) two passes back.
    s1, t1, res1, s2, t2 = (np.full(len(seeds), np.nan) for _ in range(5))
    settled = np.zeros(len(ts), dtype=bool)
    same_pair = c1 is c2 and w1 is w2
    n = tol.pair_grid
    h1 = 1e-6 * c1.length
    h2 = 1e-6 * c2.length
    max_step1 = 2.0 * c1.length / n
    max_step2 = 2.0 * c2.length / n
    for it in range(_NEWTON_MAX_ITER + 1):
        if not len(live):
            break
        # The feet s, s +- h and t, t +- h of the live rows in one evaluation
        # (one per component when they differ); only the rows that take a
        # step use the stencils.
        s_p, s_m, span1 = _stencil(c1, s[live], h1)
        t_p, t_m, span2 = _stencil(c2, t[live], h2)
        feet_s, feet_t = (s[live], s_p, s_m), (t[live], t_p, t_m)
        if same_pair:
            feet = _feet_rows(c1, w1, feet_s + feet_t, off[live])
        else:
            feet = _feet_rows(c1, w1, feet_s, off[live]) + _feet_rows(c2, w2, feet_t, off[live])
        at_s, at_sp, at_sm, at_t, at_tp, at_tm = feet
        sig, gs, gt = _sigma_and_grad(at_s, at_t)
        res[live] = np.hypot(gs, gt) / np.maximum(1.0, sig)
        if it == _NEWTON_MAX_ITER:
            break
        active = alive[live] & (res[live] > 0.1 * _TOL_DC)
        back1 = (s[live] == s1[live]) & (t[live] == t1[live])
        back2 = (s[live] == s2[live]) & (t[live] == t2[live])
        settle = active & (back1 | back2)
        # A two-state cycle ends on the previous state after an odd number
        # of passes more.
        prev = live[settle & ~back1 & ((_NEWTON_MAX_ITER - it) % 2 == 1)]
        s[prev], t[prev], res[prev] = s1[prev], t1[prev], res1[prev]
        s2[live], t2[live] = s1[live], t1[live]
        s1[live], t1[live], res1[live] = s[live], t[live], res[live]
        settled[grp[live[settle]]] = True
        running = settled.copy()
        running[grp[live[active]]] = True
        jac = alive[live] & running[grp[live]] & ~settle
        kj = live[jac]
        at_s, at_sp, at_sm, at_t, at_tp, at_tm = (
            tuple(x[jac] for x in feet) for feet in (at_s, at_sp, at_sm, at_t, at_tp, at_tm)
        )
        gs, gt = gs[jac], gt[jac]
        span1, span2 = (sp[jac] if np.ndim(sp) else sp for sp in (span1, span2))
        _, gs_p, gt_p = _sigma_and_grad(at_sp, at_t)
        _, gs_m, gt_m = _sigma_and_grad(at_sm, at_t)
        j11 = (gs_p - gs_m) / span1
        j21 = (gt_p - gt_m) / span1
        _, gs_p, gt_p = _sigma_and_grad(at_s, at_tp)
        _, gs_m, gt_m = _sigma_and_grad(at_s, at_tm)
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


def _grid_local_minima(mat, per_rows, per_cols, pad=None):
    """Linear indices, ascending, of the grid cells that are finite and no
    larger than any of their eight neighbours; the neighbours wrap around
    periodic axes, and none lie beyond the ends of open ones. A nan
    neighbour rules a cell out.

    pad, an (n + 2, m + 2) array that starts as +inf, may be handed to
    every call on the same axes: each call rewrites all of it that it reads
    apart from the edges of open axes, which stay +inf."""
    n, m = mat.shape
    if pad is None:
        pad = np.full((n + 2, m + 2), np.inf)
    pad[1:-1, 1:-1] = mat
    if per_rows:
        pad[0], pad[-1] = pad[-2], pad[1]
    if per_cols:
        pad[:, 0], pad[:, -1] = pad[:, -2], pad[:, 1]
    # The 3x3 minimum around every cell, one axis at a time (nan passes on).
    low = np.minimum(np.minimum(pad[:-2], pad[1:-1]), pad[2:])
    low = np.minimum(np.minimum(low[:, :-2], low[:, 1:-1]), low[:, 2:])
    cells = np.flatnonzero(mat <= low)
    return cells[np.isfinite(mat.ravel()[cells])]


def _verify_rows(pairs, i, j, s1, s2, ts, grp, residual):
    """The rows (s1, s2) of components i and j (row k for the weights
    mu + ts[grp[k]]) that pass the critical-angle law at both feet, as a
    dict of arrays: the PAIR_COLUMNS (the angle law's residual at each foot
    is angle_1, angle_2), the midpoint and grp. Where mu' = 0, alpha is pi/2
    by convention and the chord must be normal. Rows inside a
    same-component pair's diagonal band, with a zero chord, or whose larger
    angle residual (Python's max: the first unless the second is strictly
    larger) exceeds 1e-6 are dropped.
    """
    c1, w1 = pairs[i]
    c2, w2 = pairs[j]
    q1, t1, m1, dm1 = _feet(c1, w1, s1, ts[grp])
    q2, t2, m2, dm2 = _feet(c2, w2, s2, ts[grp])
    dist = _rownorm(q1 - q2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = dist / (m1 + m2)
        u = (q2 - q1) / dist[:, None]
        midpoint = q1 + (ratio * m1)[:, None] * u
        ang1, ang2 = (
            np.where(
                np.abs(d1) == 0.0,
                np.abs(_rowdot(uu, tan)),
                np.abs(_rowdot(uu, np.sign(d1)[:, None] * tan) + ratio * np.abs(d1)),
            )
            for tan, d1, uu in ((t1, dm1, u), (t2, dm2, -u))
        )
    keep = ~(dist <= 0) & ~(np.where(ang2 > ang1, ang2, ang1) > 1e-6)
    if i == j:
        keep &= ~(c1.periodic_distance(s1, s2) < _DELTA_MIN_FACTOR * c1.length)
    cols = (ts[grp], np.full(len(s1), i), np.full(len(s1), j), s1, s2, ratio, residual, ang1, ang2)
    rows = dict(zip(PAIR_COLUMNS, cols), midpoint=midpoint, grp=grp)
    return {key: v[keep] for key, v in rows.items()}


def _dedup_rows(pairs, rows):
    """Indices of the distinct pairs among verified rows, in output order.

    Each offset's rows are sorted stably by (ratio, component_1,
    component_2, s1, s2), the offsets in order. Walking that order, a row
    is a duplicate of an earlier kept row of the same offset and component
    pair when their feet are within 1e-5 (L1 + L2) (periodic distances,
    summed over both feet; on a same-component pair the smaller of that and
    the swapped feet's distance). The first of each cluster is kept; its
    duplicates, and only they, are dropped.
    """
    order = np.lexsort([rows[k] for k in ("s2", "s1", "component_2", "component_1", "ratio", "grp")])
    n = len(pairs)
    group = (rows["grp"] * n + rows["component_1"]) * n + rows["component_2"]
    keep = np.zeros(len(order), dtype=bool)
    for g in np.unique(group):
        idx = np.flatnonzero(group[order] == g)
        i, j = divmod(int(g) % (n * n), n)
        c1, c2 = pairs[i][0], pairs[j][0]
        a, b = rows["s1"][order[idx]], rows["s2"][order[idx]]
        dist = c1.periodic_distance(a[:, None], a) + c2.periodic_distance(b[:, None], b)
        if i == j:
            swapped = c1.periodic_distance(a[:, None], b) + c2.periodic_distance(b[:, None], a)
            dist = np.where(swapped < dist, swapped, dist)
        near = np.tril(dist < 1e-5 * (c1.length + c2.length), -1)
        # Row r is kept iff no kept row before it is near. Iterating that
        # rule fixes one more leading row per pass, so it converges to the
        # walk's answer within one pass per row (in practice two or three).
        kept = np.ones(len(idx), dtype=bool)
        while True:
            nxt = ~np.any(near & kept, axis=1)
            if np.array_equal(nxt, kept):
                break
            kept = nxt
        keep[idx[kept]] = True
    return order[keep]


def dcsd_half(table):
    """Half the double-critical self distance: a pair table's least ratio, or +inf."""
    return float(np.min(table[:, PAIR_COLUMNS.index("ratio")], initial=np.inf))


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


def radii_report(pairs, tol=DEFAULT_TOLERANCES, offsets=None):
    """Full radii report; the topological radius comes from collapse arcs.

    With offsets, a list with one report per value t, in the order given,
    for the weights mu + t of an offset family: the focal and pair stages
    and the collapse arcs run once over every distinct t (see focal_radii,
    find_double_critical_pairs and singular.detect_collapse_arcs), the
    ordering clamp per t. Each report equals the one computed for the
    weights mu + t alone, and repeated values share one report: its
    `dcsd_pair` is the first of its t's pair rows without t (or None), and
    `pair_count` their number. A floating-point overflow anywhere in the
    report raises NumericError, so an out-of-range weight never yields a
    quiet wrong radius. The focal and collapse stages read each component's
    `singular.dense_grid`.
    """
    pairs = as_pairs(pairs)
    ts = [0.0] if offsets is None else [float(t) for t in offsets]
    distinct = list(dict.fromkeys(ts))
    if not distinct:
        return []
    with _overflow_raises("radii report"):
        focal = focal_radii(pairs, tol, distinct)
        table = find_double_critical_pairs(pairs, tol, distinct)
        by_t = [table[table[:, 0] == t] for t in distinct]  # each offset's pair rows
        urs = [min(dcsd_half(rows), fm) for rows, (_, fm, _) in zip(by_t, focal)]
        arcs_by_t = singular.detect_collapse_arcs(pairs, urs, tol, offsets=distinct)
    reports = {}
    for t, ur, arcs, rows, (focrad0, focradminus, fwit) in zip(distinct, urs, arcs_by_t, by_t, focal):
        dc = dcsd_half(rows)
        lr = min(dc, focrad0)
        tir_val = min(max(min(arc.r for arc in arcs) if arcs else ur, lr), ur)
        witnesses = {
            "focrad0": fwit["focrad0"],
            "focradminus": fwit["focradminus"],
            "dcsd_pair": rows[0, 1:] if len(rows) else None,
            "collapse_arcs": arcs,
            "tir_attained": bool(arcs),
            "pair_count": len(rows),
        }
        reports[t] = RadiiReport(
            focrad0=focrad0, focradminus=focradminus, dcsd_half=dc, lr=lr, ur=ur,
            dir=lr, tir=tir_val, air=ur, witnesses=witnesses,
        )
    return reports[0.0] if offsets is None else [reports[t] for t in ts]
