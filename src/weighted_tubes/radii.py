"""Focal profiles, double-critical pair search, and the derived radii.

At each foot the quantities

    A = kappa mu,  B = |mu'|,  C = (mu^2)'' = 2 (mu'^2 + mu mu''),
    discriminant  = mu g = C/2 + A^2/4 - B^2,  g = mu'' + kappa^2 mu / 4,
    lam           = B^2 + (sqrt(max(disc, 0)) + A/2)^2,

control the first height at which the second derivative of the squared
weighted distance can vanish (lam^{-1/2}) or become negative. The two
focal radii aggregate the pointwise values with a closed (g >= 0) or an
open band (g > 0), g = 0 in `singular._g_band`; the double-critical self
distance comes from critical pairs of sigma = |q1 - q2|^2 (mu(q1) +
mu(q2))^{-2}, F_p at p = q2 for the weight mu + mu(q2). The derived radii
are mins of these; dir <= tir <= air holds by construction (see radii_report).
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import singular
from .config import DEFAULT_TOLERANCES
from .errors import NumericError, SceneError, _overflow_raises
from .expmap import _bound, _f_rows, _rowdot, _rownorm
from .util import (
    _bracket,
    _distinct,
    _extrema_indices,
    _grid_local_minima,
    _offset_array,
    as_pairs,
    golden_min,
    refine_minima,
)

_DELTA_MIN_FACTOR = 1e-3  # x L: excluded diagonal band in pair search
_TOL_DC = 1e-9  # normalized residual of the pair gradient
_NEWTON_MAX_ITER = 50
# The `_pair_feet` arrays (s, s + h, s - h, t, t + h, t - h) of the four
# stencil pairs (s + h, t), (s - h, t), (s, t + h), (s, t - h): first feet, then second.
_STENCIL_ARRAYS = np.array([1, 2, 0, 0, 3, 3, 4, 5])


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


def _focal_terms(kap, mu, d1, d2):
    a = kap * mu
    b = np.abs(d1)
    g, band = singular._g_band(kap, (mu, d1, d2))
    disc = mu * g
    lam = b**2 + (np.sqrt(np.clip(disc, 0.0, None)) + 0.5 * a) ** 2
    return a, b, g, band, disc, lam


def _in_bands(g, band, inside, outside):
    """inside where g >= -band (closed band), else outside, over the same for g > band (open)."""
    return np.where(np.stack([g >= -band, g > band]), inside, outside)


def focal_radii(pairs, tol=DEFAULT_TOLERANCES, offsets=None):
    """Global focal radii over all components.

    Dense profiles, then refinement. Per component, the local maxima of the
    discriminant (so isolated touching zeros, which only the closed band
    sees, are not lost between grid nodes) and the best local minima of the
    closed-band and of the open-band profile are refined as roots of their
    exact slopes by `util.refine_minima`, all in one call; the local
    maxima of |mu'| are refined by golden section (tolerance 1e-13).

    Every candidate is a row of one float table (group = profile x
    len(offsets) + offset index, value, foot, component); per component in
    turn, each group's grid minimum, refined minima and discriminant maxima
    (+inf where its band at the foot does not admit them or lam <= 0), then
    1/|mu'| at the slope maxima. A stable sort by (group, value) gives each
    group's first smallest row: its radius and witness (None at +inf). No
    candidate is nan, so this is Python's `min` in row order: the first
    component wins a tie.

    With offsets, the radii of the weights mu + t for every t, as a list of
    (focrad0, focradminus, witnesses): the curve and weight jets on the grid
    are evaluated once, and the bracket rows of every t share the
    refinement call, each row carrying its t. The slope maxima do
    not depend on t, so one set of rows serves every t; no offsets give [].
    The profiles are sampled on each component's `singular.dense_grid`.
    """
    pairs = as_pairs(pairs)
    ts = _offset_array(offsets)
    n = len(ts)
    if not n:
        return []
    groups = np.arange(2 * n)
    table = []
    for ci, (curve, weight) in enumerate(pairs):
        sg, _, (mu, d1, d2), kap = singular.dense_grid(curve, weight, tol.grid_samples)
        _, b, g, band, disc, lam = _focal_terms(kap, mu + ts[:, None], d1, d2)
        inside = singular._inv_sqrt(lam, np.inf)
        profiles = _in_bands(g, band, inside, _bound(b)).reshape(2 * n, -1)
        i_min = np.argmin(profiles, axis=-1)
        # Bracket rows by family (discriminant maxima, closed-band minima,
        # open-band minima), then by t: row n + g holds group g's minima.
        idx, row = _stack_rows(
            [_extrema_indices(d, curve.closed, "max", 8) for d in disc]
            + [np.r_[i, _extrema_indices(p, curve.closed, "min", 8)] for i, p in zip(i_min, profiles)]
        )
        fam, ti = np.divmod(row, n)
        x, fx, in_closed, in_open = refine_minima(
            lambda s, *p: _focal_slopes(curve, weight, s, *p), curve, sg, idx,
            (np.choose(fam, (-disc[ti, idx], profiles[ti, idx], profiles[n + ti, idx])),
             *_in_bands(g[ti, idx], band[ti, idx], inside[ti, idx], np.inf)),
            "focal extremum", args=(fam, ts[ti]),
        )
        # Slope maxima, one row set for every group (the max |mu'|^2 term
        # applies unconditionally).
        x_b, v_b = golden_min(
            lambda s: -np.abs(weight.d1(s)),
            *_bracket(curve, sg, _extrema_indices(b, curve.closed, "max", 4)), tol=1e-13,
        )
        x_b, v_b = x_b[-v_b > 0], v_b[-v_b > 0]
        at_max = fam == 0  # the discriminant maxima, one copy per profile
        cands = (
            (groups, profiles[groups, i_min], sg[i_min]),
            (row[~at_max] - n, fx[~at_max], x[~at_max]),
            (np.r_[ti[at_max], n + ti[at_max]], np.r_[in_closed[at_max], in_open[at_max]], np.tile(x[at_max], 2)),
            (np.repeat(groups, len(x_b)), np.tile(1.0 / -v_b, 2 * n), np.tile(x_b, 2 * n)),
        )
        table += [np.column_stack([g, v, s, np.full(len(g), ci)]) for g, v, s in cands]
    table = np.concatenate(table)
    order = np.lexsort((table[:, 1], table[:, 0]))
    # Every group has a grid minimum, so each has a first row in the order.
    _, value, foot, comp = table[order[np.searchsorted(table[order, 0], groups)]].T.tolist()
    wit = [FocalWitness(int(c), s, v) if v < np.inf else None for c, s, v in zip(comp, foot, value)]
    # the open band can only be larger
    out = [(f0, max(fm, f0), {"focrad0": w0, "focradminus": wm})
           for f0, fm, w0, wm in zip(value[:n], value[n:], wit[:n], wit[n:])]
    return out[0] if offsets is None else out


def _focal_slopes(curve, weight, s, fam, t):
    """At the feet s, per row of focal family fam (0: -disc, 1 and 2: the
    closed- and the open-band profile) for the weight mu + t: the family's
    objective, its exact slope in s, and lam^{-1/2} in the closed and in the
    open band (+inf outside or where lam <= 0), from `singular.g_slope`.

    With g = mu'' + kappa^2 mu / 4 and q = sqrt(max(disc, 0)):
    disc' = mu' g + mu g', q' = disc' / (2 q) where disc > 0 (else 0), and
    lam' = 2 |mu'| |mu'|' + 2 (q + a/2)(q' + a'/2). A profile's slope is
    -lam' / (2 lam^{3/2}) inside its band, written with r = lam^{-1/2} so
    that it overflows no sooner than r does, and -|mu'|' / |mu'|^2 outside;
    it is 0 where lam = 0 or mu' = 0. A slope whose terms overflow where
    the values do not is +-inf, not a failure. A foot's values do not
    depend on the other feet of the call.
    """
    kap, g, dg, kr, (mu, d1, d2) = singular.g_slope(curve, weight, s, t)
    a, b, _, band, disc, lam = _focal_terms(kap, mu, d1, d2)
    inside = singular._inv_sqrt(lam, np.inf)
    profiles = _in_bands(g, band, inside, _bound(b))
    db = np.sign(d1) * d2
    r = singular._inv_sqrt(lam, 0.0)
    rb = _bound(b)
    rb = np.where(np.isfinite(rb), rb, 0.0)
    with np.errstate(over="ignore"):
        d_disc = d1 * g + mu * dg
        q = np.sqrt(np.clip(disc, 0.0, None))
        dq = np.where(disc > 0.0, d_disc / (2.0 * np.where(disc > 0.0, q, 1.0)), 0.0)
        lam_slope = -((b * r) * db + ((q + 0.5 * a) * r) * (dq + 0.5 * (kr * mu + kap * d1))) * r * r
        b_slope = -(db * rb) * rb
    slopes = (-d_disc, *_in_bands(g, band, lam_slope, b_slope))
    return np.choose(fam, (-disc, *profiles)), np.choose(fam, slopes), *_in_bands(g, band, inside, np.inf)


def _stack_rows(index_lists):
    """The grid indices of every row, stacked in row order, and the row
    number of each."""
    idx = np.concatenate(index_lists)
    return idx, np.repeat(np.arange(len(index_lists)), [len(i) for i in index_lists])


# ---------------------------------------------------------------------------
# Double-critical pairs
# ---------------------------------------------------------------------------


def _feet(curve, weight, s, t=0.0):
    """(point, tangent, mu + t, mu') at the feet s: one jet per foot array."""
    mu, d1 = weight.jet(s, 1)
    return curve.jet(s, 1) + (mu + t, d1)


def _grid_feet(curve, weight, tol):
    """(sg, point, tangent, mu, mu') at the pair grid's feet sg =
    curve.grid(n), n = tol.pair_grid, as _feet gives them. On a closed
    curve whose dense grid (`singular.dense_grid`, which the focal stage
    builds first) has tol.grid_samples = r n feet with r a power of two,
    they are C-contiguous copies of its every r-th row: scaling by r is
    exact, so s_min + L (r k) / (r n) is s_min + L k / n bit for bit, and
    a jet reads each foot on its own. Other counts (r = 3 rounds some feet
    differently) and open arcs (linspace feet) evaluate their own."""
    n, m = tol.pair_grid, tol.grid_samples
    r = m // n
    if curve.closed and r * n == m and r & (r - 1) == 0:
        sg, (point, tangent, *_), (mu, d1, _), _ = singular.dense_grid(curve, weight, m)
        return tuple(np.ascontiguousarray(x[::r]) for x in (sg, point, tangent, mu, d1))
    sg = curve.grid(n)
    return (sg, *_feet(curve, weight, sg))


def _pair_feet(c1, w1, c2, w2, arrays1, arrays2, t):
    """_feet of the foot arrays arrays1 on (c1, w1), then arrays2 on (c2,
    w2), all of t's length with offsets t, as one table: per quantity one
    array whose first axis runs over the arrays, from one _feet call on a
    same-component pair and from two joined ones otherwise."""
    calls = [(c1, w1, arrays1 + arrays2)] if c1 is c2 and w1 is w2 else [(c1, w1, arrays1), (c2, w2, arrays2)]
    feet = [_feet(c, w, np.concatenate(a), np.tile(t, len(a))) for c, w, a in calls]
    joined = feet[0] if len(feet) == 1 else [np.concatenate(x) for x in zip(*feet)]
    return tuple(x.reshape(len(arrays1) + len(arrays2), len(t), *x.shape[1:]) for x in joined)


def _sigma_and_grad(feet1, feet2):
    """sigma and its analytic gradient from matched foot data (see _feet):
    sigma(s, t) is F_p(s) at p = gamma(t) for the weight mu + mu(t), and
    symmetrically in t."""
    g1, t1, m1, dm1 = feet1
    g2, t2, m2, dm2 = feet2
    msum = m1 + m2
    sigma, ds = _f_rows(g2, (g1, t1), (msum, dm1))
    dt = _f_rows(g1, (g2, t2), (msum, dm2))[1]
    return sigma, ds, dt


def find_double_critical_pairs(pairs, tol=DEFAULT_TOLERANCES, offsets=None):
    """Grid-seeded damped Newton search for critical pairs of sigma.

    Seeds are discrete local minima of sigma and of |grad sigma| over an
    N x N parameter grid per component pair (same-component grids exclude a
    diagonal band of arclength width _DELTA_MIN_FACTOR * L; being symmetric,
    they are searched over half their cells). A closed component's grid
    feet are rows of its `singular.dense_grid` when the counts nest (see
    `_grid_feet`): called after `focal_radii`, as `radii_report` does, the
    search evaluates no grid jet; called alone, it builds the dense grid
    that the focal stage would. Newton runs on
    all seeds of a component pair at once, with the analytic gradient and a
    central finite-difference Jacobian; each pass evaluates the foot arrays
    s, s +- h, t and t +- h into one table (`_pair_feet`) and reads sigma's
    gradient from it in two calls; rows that cycle settle early (see
    _newton). Non-converged seeds are dropped, converged ones are verified
    against the critical-angle law at both feet (one table per component
    pair, `_verify_rows`) and the concatenated tables deduplicated.

    Returns one float table of shape (m, 9 + n): per pair the columns
    PAIR_COLUMNS (Newton's residual, the angle law's at each foot), then the
    midpoint x1..xn, in the order of _dedup_rows. With offsets (distinct
    values), the pairs of mu + t for every t, grouped by t in the order
    given (t = 0.0 without; none for an empty list): the grid geometry is
    shared, and one Newton runs over the seeds of every t.
    """
    pairs = as_pairs(pairs)
    ts = _offset_array(offsets)
    if not len(ts):
        return np.empty((0, len(PAIR_COLUMNS) + pairs[0][0].ambient_dim))
    found = [_search_component_pair(pairs, i, j, ts, tol)
             for i in range(len(pairs)) for j in range(i, len(pairs))]
    rows = np.concatenate(found)
    return rows[_dedup_rows(pairs, rows), :-1]


def _search_component_pair(pairs, i, j, ts, tol):
    """Verified critical pairs of components i and j as _verify_rows'
    table, each row with its Newton residual and its offset's index in ts
    (`grp`), in the order of the Newton rows.

    Newton starts from the 3x3 minima of sigma and of its gradient norm
    hypot(a, b), both found by one search, `util._grid_local_minima`: the
    gradient norm is written over sigma's buffer once sigma's minima are
    taken, so no further grid is allocated. The grid's feet and their jets
    come from `_grid_feet`: on a closed curve, rows of the dense grid that
    the focal stage already evaluated. On one component, sigma, the
    gradient (a, b) = (b^T, a^T) and the diagonal band are symmetric bit
    for bit, and so are the seeds. There the grid is built in the
    circulant layout of `util._layout`, cell [p, k] the pair (p, (p + k -
    1) mod N) with the full grid's value, and each minimum in its owned
    columns gives the seed cells (p, q) and (q, p)."""
    c1, w1 = pairs[i]
    c2, w2 = pairs[j]
    n = tol.pair_grid
    # Broadcast the 1-D grid evaluations into the sigma matrix directly. What
    # no offset changes (the geometry, its products with the weight slopes
    # and the diagonal band) is built once; the offset loop keeps every
    # operation's operands and order, so its seeds are those of a search for
    # each offset alone.
    same = i == j
    w, take = (n // 2 + 4, np.arange(-1, n + n // 2 + 2) % n) if same else (n, np.arange(n))

    def cols(x):  # the values x at sg2 at the grid's cells: windows over x[take]
        return np.moveaxis(sliding_window_view(x[take], w, axis=0), -1, 1)

    sg1, g1, t1, m1, dm1 = _grid_feet(c1, w1, tol)
    sg2, g2, t2, m2, dm2 = (sg1, g1, t1, m1, dm1) if same else _grid_feet(c2, w2, tol)
    # Per coordinate: subtracting n-vectors runs an n-element inner loop per cell.
    diff = np.stack([x[:, None] - cols(y) for x, y in zip(g1.T, g2.T)], axis=-1)
    e = np.einsum("ijk,ijk->ij", diff, diff)
    dot1 = 2.0 * np.einsum("ijk,ik->ij", diff, t1)
    dot2 = -2.0 * np.einsum("ijk,ijk->ij", diff, np.broadcast_to(cols(t2), diff.shape))
    del diff  # its grid of ambient vectors is not read again; the loop holds e1, e2
    e1 = 2.0 * e * dm1[:, None]
    e2 = 2.0 * e * cols(dm2)
    if same:
        band = _diagonal_band(c1, sg1, w)
    seeds = []
    for off in ts:
        msum = (m1 + off)[:, None] + cols(m2 + off)
        msq = msum**2
        sigma = e / msq
        # The gradient (a, b); the band's cells read inf in sigma and a, so
        # hypot(a, b) is inf there.
        a = (dot1 - e1 / msum) / msq
        b = (dot2 - e2 / msum) / msq
        if same:
            np.put(sigma, band, np.inf)
            np.put(a, band, np.inf)
        # One search takes both grids: sigma's minima, then those of
        # hypot(a, b), written over sigma; msq holds the row-neighbour minima.
        # Both grids increase strictly, so the ascending cells give the seeds
        # in (s, t) order.
        cells = _grid_local_minima(sigma, c1.closed, c2.closed, msq, same)
        np.hypot(a, b, out=sigma)
        cells = np.concatenate([cells, _grid_local_minima(sigma, c1.closed, c2.closed, msq, same)])
        if same:  # each owned cell [p, k] stands for (p, q) and (q, p)
            p, k = np.divmod(cells, w)
            q = (p + k - 1) % n
            cells = np.concatenate([p * n + q, q * n + p])
        ia, ib = np.divmod(_distinct(cells), n)
        seeds.append(np.column_stack([sg1[ia], sg2[ib]]))
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

    Each pass evaluates the feet s, s +- h, t, t +- h of the live rows into
    one `_pair_feet` table and reads sigma from it in two `_sigma_and_grad`
    calls: the gradient at (s, t) of the live rows, then at the four
    stencil pairs (s +- h, t) and (s, t +- h) of the rows that step.
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
    n = tol.pair_grid
    h1 = 1e-6 * c1.length
    h2 = 1e-6 * c2.length
    max_step1 = 2.0 * c1.length / n
    max_step2 = 2.0 * c2.length / n
    for it in range(_NEWTON_MAX_ITER + 1):
        if not len(live):
            break
        # One table of the feet s, s + h, s - h, t, t + h, t - h of the live
        # rows; only the rows that take a step use the stencils.
        s_p, s_m, span1 = _stencil(c1, s[live], h1)
        t_p, t_m, span2 = _stencil(c2, t[live], h2)
        feet = _pair_feet(c1, w1, c2, w2, (s[live], s_p, s_m), (t[live], t_p, t_m), off[live])
        sig, gs, gt = _sigma_and_grad([x[0] for x in feet], [x[3] for x in feet])
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
        gs, gt = gs[jac], gt[jac]
        span1, span2 = (sp[jac] if np.ndim(sp) else sp for sp in (span1, span2))
        # Central differences: the exact Hessian's determinant rounds to 0 on continua of pairs.
        # The stepping rows' stencil pairs (s +- h, t), (s, t +- h): table arrays 1, 2, 0, 0 with 3, 3, 4, 5,
        # read by one row gather per quantity from the table's arrays laid end to end.
        rows = (_STENCIL_ARRAYS[:, None] * len(live) + np.flatnonzero(jac)).ravel()
        stencil = [x.reshape(-1, *x.shape[2:])[rows].reshape(2, 4, -1, *x.shape[2:]) for x in feet]
        _, ds, dt = _sigma_and_grad(*([x[k] for x in stencil] for k in (0, 1)))
        j11, j21 = (ds[0] - ds[1]) / span1, (dt[0] - dt[1]) / span1
        j12, j22 = (ds[2] - ds[3]) / span2, (dt[2] - dt[3]) / span2
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


def _diagonal_band(curve, sg, w):
    """Linear indices, ascending, of the cells [p, k] of the circulant
    layout of the grid sg x sg in w columns (see `util._layout`), the pairs
    (p, (p + k - 1) mod n), whose feet lie within _DELTA_MIN_FACTOR * L of
    each other in `curve.periodic_distance`.

    Only the diagonals |a - b| <= k = ceil((width + slack) / step) + 2 of
    the full grid can hold band cells, with the grid step L / n closed and
    L / (n - 1) open; slack, four spacings of the largest |s|, bounds the
    rounding of the feet and of their distance. The layout holds those
    diagonals in its first k + 2 columns and in its columns from n - k + 1
    on, so all w columns are measured once the latter reach into it
    (k >= n - w + 1)."""
    n = len(sg)
    width = _DELTA_MIN_FACTOR * curve.length
    step = curve.length / (n if curve.closed else max(n - 1, 1))
    slack = 4.0 * np.spacing(max(abs(curve.s_min), abs(curve.s_max)))
    k = math.ceil((width + slack) / step) + 2
    p = np.arange(n)[:, None]
    q = (p + np.arange(w if k >= n - w + 1 else k + 2) - 1) % n
    rows, cols = np.nonzero(curve.periodic_distance(sg[p], sg[q]) < width)
    return rows * w + cols


def _verify_rows(pairs, i, j, s1, s2, ts, grp, residual):
    """The rows (s1, s2) of components i and j (row k for the weights
    mu + ts[grp[k]]) that pass the critical-angle law at both feet, as one
    float table from one `_pair_feet` call: the PAIR_COLUMNS (the angle
    law's residual at each foot is angle_1, angle_2), the midpoint x1..xn,
    then grp. Where mu' = 0, alpha is pi/2
    by convention and the chord must be normal. Rows inside a
    same-component pair's diagonal band, with a zero chord, or whose larger
    angle residual (Python's max: the first unless the second is strictly
    larger) exceeds 1e-6 are dropped.

    Two components meet where a row of theirs has a chord so short that any
    feet with it pass Newton's stopping test, |grad sigma| <= _TOL_DC
    (sigma < 1): grad sigma = 2 r grad r for the ratio r, and |dr/ds| <=
    (1 + r |mu'(s)|) / (mu1 + mu2). Such a row raises SceneError, as the
    loader does for components whose samples meet.
    """
    c1, w1 = pairs[i]
    c2, w2 = pairs[j]
    (q1, q2), (t1, t2), (m1, m2), (dm1, dm2) = _pair_feet(c1, w1, c2, w2, (s1,), (s2,), ts[grp])
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
    if i != j:
        with np.errstate(over="ignore"):  # an infinite reach is no meeting
            reach = 2.0 * ratio * np.hypot(1.0 + ratio * np.abs(dm1), 1.0 + ratio * np.abs(dm2)) / (m1 + m2)
        meet = np.flatnonzero(reach <= _TOL_DC)
        if len(meet):
            raise SceneError(f"components {i} and {j} are not disjoint: they meet at "
                             f"feet s1={float(s1[meet[0]])} and s2={float(s2[meet[0]])}")
    keep = ~(dist <= 0) & ~(np.where(ang2 > ang1, ang2, ang1) > 1e-6)
    if i == j:
        keep &= ~(c1.periodic_distance(s1, s2) < _DELTA_MIN_FACTOR * c1.length)
    n = len(s1)
    return np.column_stack([ts[grp], np.full(n, i), np.full(n, j), s1, s2, ratio, residual, ang1, ang2,
                            midpoint, grp])[keep]


def _dedup_rows(pairs, rows):
    """Indices of the distinct pairs among the rows of _verify_rows'
    tables, in output order.

    Each offset's rows are sorted stably by (ratio, component_1,
    component_2, s1, s2), the offsets in order. Walking that order, a row
    is a duplicate of an earlier kept row of the same offset and component
    pair when their feet are within 1e-5 (L1 + L2) (periodic distances,
    summed over both feet; on a same-component pair the smaller of that and
    the swapped feet's distance). The first of each cluster is kept; its
    duplicates, and only they, are dropped.
    """
    _, c_1, c_2, s_1, s_2, ratio = rows[:, :6].T  # the first six PAIR_COLUMNS
    grp = rows[:, -1]
    order = np.lexsort((s_2, s_1, c_2, c_1, ratio, grp))
    n = len(pairs)
    group = (grp * n + c_1) * n + c_2
    keep = np.zeros(len(order), dtype=bool)
    for g in _distinct(group):
        idx = np.flatnonzero(group[order] == g)
        i, j = divmod(int(g) % (n * n), n)
        c1, c2 = pairs[i][0], pairs[j][0]
        a, b = s_1[order[idx]], s_2[order[idx]]
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
    find_double_critical_pairs and singular.detect_collapse_arcs). Each
    report equals the one computed for the weights mu + t alone, and
    repeated values share one report: its `dcsd_pair` is the first of its
    t's pair rows without t (or None), and `pair_count` their number. A
    floating-point overflow anywhere in the report raises NumericError, so
    an out-of-range weight never yields a quiet wrong radius. The focal and
    collapse stages read each component's `singular.dense_grid` and one band
    of g = 0, so tir, the least arc radius or else ur, lies in [lr, ur]; if
    not, NumericError names both stages.
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
        tir_val = min((arc.r for arc in arcs), default=ur)
        if not lr <= tir_val <= ur:
            raise NumericError(f"the collapse arcs and the focal and pair radii disagree at t={t!r}: least "
                               f"arc radius {tir_val!r} outside [lr, ur] = [{lr!r}, {ur!r}]")
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
