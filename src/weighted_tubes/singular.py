"""Singular set of the weighted exponential map and its collapse arcs.

Inside the almost-injectivity height the map degenerates exactly on the
graph {(s, R(s))} where mu'' + kappa^2 mu / 4 = 0 with kappa > 0 and
R(s) = ((mu')^2 - mu mu'')^{-1/2}, always along the principal normal. A
whole constant-height curve over an interval collapses to one point only
above exact circular arcs carrying mu = (2/(kappa r)) cos(kappa s / 2 + a);
those arcs set the topological radius (see radii.radii_report).
"""

import math
import weakref
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES
from .curves import _kappa_rate, collapse_ode_residual
from .errors import NumericError, OutOfWError, _overflow_raises
from .expmap import (
    _broadcast_rows, _exp_rows, _first_fault, _frames, _hess_rows, _offset_rows, _rownorm, _take,
)
# Not called here: the benchmark's tracer patches `singular.exp_mu` as one of
# the map's lookup sites, so the name stays bound in this module.
from .expmap import exp_mu  # noqa: F401
from .util import _bracket, _extrema_indices, _offset_array, as_pairs, brent_rows, golden_min

_TOL_HESS_FACTOR = 1e-8  # x (2/mu^2): second-order zero band
_TOL_SNG = 1e-9  # singular-set zero band for mu'' + kappa^2 mu / 4
_FLAT_FACTOR = 1e-12  # x scale: flat-run (continuum) detection
_EPS_KAPPA = 1e-7  # collapse-arc residuals (four conditions + image)
_EPS_GAMMA = 1e-7
_EPS_MU = 1e-9  # tight: an isolated touching zero must not pass as an arc
_EPS_R = 1e-7
_EPS_P = 1e-7
_ELL_MIN_FACTOR = 1e-3  # x L: minimal collapse-arc length
_EPS_REG = 1e-6  # transversality |g'| threshold

# Dense grids by weight, then by (curve, n): an entry lives while its weight does.
_DENSE_GRIDS = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class CollapseArc:
    component: int
    s_start: float
    s_end: float
    kappa: float
    r: float
    phase: float
    p0: np.ndarray
    residuals: dict


GZeroSet = namedtuple("GZeroSet", "sg kap g flat cross cross_s touch touch_s")


def _sng_condition(curve, weight, s):
    """g(s) = mu'' + kappa^2 mu / 4 (zero exactly on the singular graph)."""
    return _g(curve.curvature(s), weight.jet(s, 2))


def _g(kap, weight_jet):
    """g from the curvature and a weight jet of order 2 at the same feet."""
    mu, d2 = (np.asarray(weight_jet[k], dtype=float) for k in (0, 2))
    return d2 + 0.25 * np.asarray(kap, dtype=float) ** 2 * mu


def _graph_height(weight_jet):
    """R(s) = ((mu')^2 - mu mu'')^{-1/2} from a weight jet of order 2; nan
    where the radicand is <= 0."""
    mu, d1, d2 = (np.asarray(x, dtype=float) for x in weight_jet[:3])
    rad = d1**2 - mu * d2
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rad > 0.0, 1.0 / np.sqrt(np.where(rad > 0, rad, 1.0)), np.nan)


def dense_grid(curve, weight, n):
    """The dense foot grid of one component that the focal profiles, the zero
    set of g and the collapse arcs read: the feet sg = curve.grid(n), the
    curve jet of order 3, (mu, mu', mu'') and kappa = `curve.curvature(sg)`.

    Built once per (curve, weight, n) and kept, as read-only arrays, while
    the weight lives. The build runs under an overflow guard, so an overflow
    raises NumericError (an enclosing guard's message wins) and keeps nothing.
    """
    grids = _DENSE_GRIDS.setdefault(weight, {})
    if (curve, n) not in grids:
        with _overflow_raises("dense grid"):
            sg = curve.grid(n)
            jet = tuple(curve.jet(sg, 3))
            weight_jet = tuple(np.asarray(x, dtype=float) for x in weight.jet(sg, 2))
            kap = np.linalg.norm(jet[2], axis=-1)
        for array in (sg, *jet, *weight_jet, kap):
            array.flags.writeable = False
        grids[curve, n] = sg, jet, weight_jet, kap
    return grids[curve, n]


def g_zero_set(curve, weight, tol=DEFAULT_TOLERANCES):
    """The zero set of g = mu'' + kappa^2 mu / 4 on one component, as a
    GZeroSet: the dense grid `sg` of tol.grid_samples feet (`dense_grid`),
    the curvature `kap` and `g` on it, the `flat`
    samples, the sign changes (grid index k of the bracket [s_k, s_k + step]
    in `cross`, root in `cross_s`) and the touching zeros (grid index in
    `touch`, refined foot in `touch_s`, smallest |g| first).

    Flat samples have |g| <= _FLAT_FACTOR * max(1, max |g|); kappa is not
    consulted. The sign changes (neighbouring samples, both nonzero, of
    opposite sign; the last sample and the first also neighbour on a closed
    curve) are refined in one `brent_rows` call to xtol 1e-14, but not those
    with kappa <= kappa_tol at both grid ends: both callers drop a zero
    where the curve is straight. Where g is flat near its zero, Brent's
    method can take more steps than bisection's log2(step / xtol),
    step = L / n, so it may take max(100, 4 ceil(log2(step / xtol))); a
    root it does not converge on raises NumericError.
    Touching zeros are the best 64 local minima of |g| within _TOL_SNG
    plus the discrete second difference there (the value a quadratic
    touching zero attains one step away), refined in one golden-section
    call and kept where |g| <= _TOL_SNG.
    """
    sg, _, weight_jet, kap = dense_grid(curve, weight, tol.grid_samples)
    n = len(sg)
    g = _g(kap, weight_jet)
    absg = np.abs(g)
    flat = absg <= _FLAT_FACTOR * max(1.0, float(np.max(absg)))
    limit = n if curve.closed else n - 1
    # Signs, not products: a product of neighbours can overflow, or underflow
    # to -0.0 and hide a sign change.
    signed = absg > 0.0  # neither zero nor nan
    neg = np.signbit(g)
    cross = np.nonzero(signed & np.roll(signed, -1) & (neg != np.roll(neg, -1)))[0]
    bends = kap > curve.kappa_tol
    cross = cross[(cross < limit) & (bends[cross] | bends[(cross + 1) % n])]
    step = curve.length / n
    hi = sg[cross] + step if curve.closed else sg[cross + 1]
    maxiter = max(100, 4 * math.ceil(math.log2(step / 1e-14)))
    try:
        cross_s = brent_rows(lambda s: _sng_condition(curve, weight, s), sg[cross], hi, 1e-14,
                             maxiter=maxiter)
    except RuntimeError as exc:
        raise NumericError(f"sign change of g not refined: {exc}") from exc
    touch = np.array(_extrema_indices(absg, curve.closed, "min", 64), dtype=int)
    bend = np.abs(g[(touch + 1) % n] - 2.0 * g[touch] + g[touch - 1])
    touch = touch[absg[touch] <= _TOL_SNG + bend]
    touch_s = np.zeros(0)
    if len(touch):
        lo, hi = _bracket(curve, sg, touch)
        touch_s, v_ref = golden_min(
            lambda s: np.abs(_sng_condition(curve, weight, s)), lo, hi, tol=1e-13
        )
        touch, touch_s = touch[v_ref <= _TOL_SNG], touch_s[v_ref <= _TOL_SNG]
    return GZeroSet(sg, kap, g, flat, cross, cross_s, touch, touch_s)


def singular_set(pairs, ur, tol=DEFAULT_TOLERANCES):
    """Singular-graph points with height below ur, as one float table of
    shape (m, n + 4): rows `component, s, R, residual, x1..xn`, with the
    residual |mu'' + kappa^2 mu / 4| at s and x the point, sorted stably by
    component, then by s.

    The feet come from the zero set of g (`g_zero_set`, on each component's
    `dense_grid`): flat runs of 3 or more samples
    are continua and report their samples (kappa is not consulted here),
    then the sign-change roots and the touching zeros, except those next to
    or inside such a run. One array pass per component then builds the rows
    and cross-checks each against the second-derivative criterion at its
    offset (see `_graph_points`). Refined zeros scatter
    inside the plateau where g is flat at machine level, so a row within
    half a grid step (0.5 L / grid_samples, periodic distance) of the row
    before it is dropped.
    """
    pairs = as_pairs(pairs)
    tables = []
    for ci, (curve, weight) in enumerate(pairs):
        z = g_zero_set(curve, weight, tol)
        n = len(z.sg)
        runs = [np.arange(lo, hi) % n for lo, hi in _runs(z.flat, curve.closed) if hi - lo >= 3]
        flat_idx = np.concatenate(runs) if runs else np.zeros(0, dtype=int)
        in_flat_run = np.zeros(n, dtype=bool)
        in_flat_run[flat_idx] = True
        feet = np.concatenate([
            z.sg[flat_idx],
            z.cross_s[~in_flat_run[z.cross] & ~in_flat_run[(z.cross + 1) % n]],
            z.touch_s[~in_flat_run[z.touch]],
        ])
        rows = _graph_points(curve, weight, ci, feet, ur)
        rows = rows[np.argsort(rows[:, 1], kind="stable")]
        gap = 0.5 * curve.length / tol.grid_samples
        near = curve.periodic_distance(rows[:-1, 1], rows[1:, 1]) <= gap
        tables.append(np.delete(rows, np.nonzero(near)[0] + 1, axis=0))
    return np.concatenate(tables)


def _runs(mask, periodic):
    """The maximal runs of True in mask as (lo, hi) index pairs, in order. On
    a periodic mask a run through the end and a run from the start join as
    one run (lo, hi + n), listed last; an all-True mask is one run (0, n)."""
    n = len(mask)
    edges = np.diff(np.concatenate([[0], np.asarray(mask, dtype=np.int8), [0]]))
    runs = list(zip(np.nonzero(edges > 0)[0].tolist(), np.nonzero(edges < 0)[0].tolist()))
    if periodic and len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] == n:
        first = runs.pop(0)
        lo, _ = runs.pop()
        runs.append((lo, first[1] + n))
    return runs


def _graph_points(curve, weight, ci, s, ur):
    """Singular-graph rows `ci, s, R, residual, x1..xn` over candidate feet
    s, kept in order, built in one array pass.

    A foot is dropped where kappa <= kappa_tol, where the graph height R(s)
    is undefined or outside (0, ur), and where the map's second derivative
    at exp(s, n, R), n the principal normal, is not within
    _TOL_HESS_FACTOR * 2/mu^2 * max(1, ur^2) of zero (inf where ur^2
    overflows): every foot's band widens with the height cutoff ur, not with
    the foot's own R. A direction tangent to the curve, a height above
    1/|mu'|, a recovered height above it, or a foot that is not critical for
    its image raises the scalar checks' error for the first offending foot;
    an overflow raises NumericError.
    """
    with np.errstate(over="ignore"):
        cutoff = max(1.0, np.square(ur))
    with _overflow_raises("singular set"):
        s = curve.wrap(s)
        curve_jet, weight_jet = curve.jet(s, 2), weight.jet(s, 2)
        height = _graph_height(weight_jet)
        d2 = curve_jet[2]
        kap = _rownorm(d2)
        keep = (kap > curve.kappa_tol) & np.isfinite(height) & (height > 0.0) & (height < ur)
        s, height = s[keep], height[keep]
        normal = d2[keep] / kap[keep][:, None]
        jets = _take((curve_jet, weight_jet), keep)
        location, hess, _, faults = _hess_rows(curve, jets, s, normal, height)
        faults = [f for f in faults if f is not None]
        if faults:
            raise min(faults, key=lambda f: f[0])[1]
        mu = np.asarray(weight_jet[0], dtype=float)[keep]
        tol_hess = _TOL_HESS_FACTOR * 2.0 / mu**2 * cutoff
        resid = np.abs(_g(kap, weight_jet))[keep]
        rows = np.column_stack([np.full(len(s), float(ci)), s, height, resid, location])
        return rows[np.abs(hess) <= tol_hess]


# ---------------------------------------------------------------------------
# Pointwise singularity test and its independent cross-check
# ---------------------------------------------------------------------------


def is_singular(curve, weight, s, v, R):
    """(flags, values) over rows: feet s, directions v (last axis ambient)
    and heights R broadcast together to a shape B as in `exp_mu`; one offset
    gives (bool, float). The map is singular at an offset iff the second
    derivative of the squared weighted distance at its foot lies within
    _TOL_HESS_FACTOR * 2/mu^2 * max(1, R^2) of zero, one band per row from
    that row's own height R (`_graph_points` instead widens every foot's
    band by the height cutoff ur); values are those second derivatives.

    One curve jet and one weight jet are evaluated on the feet as given.
    Raises for the first failing row in C order; within a row the offset
    check (`exp_mu`'s), then "strictly inside the admissible set", then the
    criterion's own error (`f_second_critical`'s).
    """
    shape, feet, rows, v, R = _broadcast_rows(s, v, R)
    jets = _take((curve.jet(feet, 2), weight.jet(feet, 2)), rows)
    _, hess, bound, (fault, hess_fault) = _hess_rows(curve, jets, feet[rows], v, R)
    inside_fault = _first_fault([(R >= bound * (1.0 - 1e-12), lambda k: OutOfWError(
        "offset must be strictly inside the admissible set"))])
    faults = [f for f in (fault, inside_fault, hess_fault) if f is not None]
    if faults:
        raise min(faults, key=lambda f: f[0])[1]
    mu = np.asarray(jets[1][0], dtype=float)
    flags = np.abs(hess) <= _TOL_HESS_FACTOR * 2.0 / mu**2 * np.maximum(1.0, R**2)
    if not shape:
        return bool(flags[0]), float(hess[0])
    return flags.reshape(shape), hess.reshape(shape)


def jacobian_determinant(curve, weight, s, v, R):
    """Finite-difference determinants of the map's differential over rows:
    feet s, directions v (last axis ambient) and heights R broadcast
    together to a shape B; returns B (one offset gives a float).

    Coordinates: arclength plus coefficients on a normal frame transported
    from s by projection (smooth nearby), central differences of step
    h = 1e-6 max(1, L / 2 pi). One curve jet and one weight jet on the feet
    as given, each also moved by +-h, give every row's offset, its base and
    transported frames and all 2n chart points of a row, which are mapped
    in one pass. Independent of the closed-form second-derivative
    criterion; used to cross-validate it. Raises OutOfWError for the first
    row whose direction is tangent or whose height is not finite, negative
    or above 1/|mu'|, else for the first chart point outside the
    admissible set.
    """
    shape, s, foot, v, R = _broadcast_rows(s, v, R)
    h = 1e-6 * max(1.0, curve.length / (2.0 * np.pi))
    m, n = len(foot), curve.ambient_dim
    given = np.concatenate([s, s + h, s - h])
    at = np.concatenate([foot, foot + len(s), foot + 2 * len(s)])
    jets = _take((curve.jet(given, 1), weight.jet(given, 1)), at)
    feet = given[at]
    s = feet[:m]
    v, _, fault = _offset_rows(_take(jets, slice(m)), s, v, R)
    if fault is not None:
        raise fault[1]
    tangents = jets[0][1]
    base, _ = _frames(tangents[:m])
    frames = _frames(tangents, np.concatenate([base] * 3))[0].reshape(3, m, n - 1, n)
    # Charts in the determinant's column order: v's coefficients on the base
    # frame at the feet s + h and s - h, then at s with each moved by +-h.
    coeffs = np.matmul(base, v[:, :, None])[:, :, 0]
    dc = h * np.eye(n - 1)
    shifted = np.stack([coeffs[:, None] + dc, coeffs[:, None] - dc], axis=2)
    shifted = shifted.reshape(m, 2 * n - 2, n - 1)
    cc = np.concatenate([coeffs[:, None], coeffs[:, None], shifted], axis=1)
    block = np.r_[1, 2, np.zeros(2 * n - 2, dtype=int)]
    vec = np.matmul(frames[block].transpose(1, 0, 3, 2), cc[..., None]).reshape(-1, n)
    norm = _rownorm(vec)
    rows = (block[None, :] * m + np.arange(m)[:, None]).ravel()
    chart_jets, height = _take(jets, rows), R[rows % m] * norm
    u, _, fault = _offset_rows(chart_jets, feet[rows], vec / norm[:, None], height)
    if fault is not None:
        raise fault[1]
    pts = _exp_rows(chart_jets, u, height).reshape(m, 2 * n, n)
    cols = (pts[:, 0::2] - pts[:, 1::2]) / (2 * h)
    det = np.linalg.det(cols.swapaxes(1, 2)).reshape(shape)
    return float(det) if det.ndim == 0 else det


# ---------------------------------------------------------------------------
# Collapse arcs and the topological radius
# ---------------------------------------------------------------------------


def detect_collapse_arcs(pairs, ur, tol=DEFAULT_TOLERANCES, offsets=None):
    """Maximal intervals where all collapse conditions hold with height < ur.

    Conditions on the dense grid (`dense_grid`):
    kappa locked (|kappa'| small), the circular third-derivative identity,
    mu'' + kappa^2 mu / 4 = 0, the graph height defined and constant, all
    within the _EPS_* bands; runs shorter than _ELL_MIN_FACTOR * L are
    ignored. Each run is fitted (mean curvature, mean height, least-squares
    phase) and the common image is verified.

    With offsets, the arcs of the weights mu + t for every t, as one list
    per t, with ur holding one height per t: the curve and weight jets, the
    curvature, its rate and the ODE residual are evaluated once per
    component, and only g, the graph height and the runs depend on t. An
    overflow raises NumericError.
    """
    pairs = as_pairs(pairs)
    ts = _offset_array(offsets)
    urs = np.broadcast_to(np.asarray(ur, dtype=float), ts.shape)
    arcs = [[] for _ in ts]
    with _overflow_raises("collapse arcs"):
        for ci, (curve, weight) in enumerate(pairs):
            sg, jet, (mu, d1, d2), kap = dense_grid(curve, weight, tol.grid_samples)
            n = len(sg)
            kap_rate = np.abs(_kappa_rate(jet, curve.kappa_tol))
            ode = collapse_ode_residual(jet)
            locked = (kap > curve.kappa_tol) & (kap_rate <= _EPS_KAPPA) & (ode <= _EPS_GAMMA)
            step = curve.length / n
            min_len = _ELL_MIN_FACTOR * curve.length
            for found, t, ur_t in zip(arcs, ts, urs):
                weight_jet = (mu + t, d1, d2)
                g = np.abs(_g(kap, weight_jet))
                height = _graph_height(weight_jet)
                ok = locked & (g <= _EPS_MU) & np.isfinite(height) & (height < ur_t)
                for lo, hi in _runs(ok, curve.closed):
                    if (hi - lo) * step < min_len:
                        continue
                    idx = np.arange(lo, hi) % n
                    s_run = sg[idx]
                    if hi > n:  # unwrap periodic run for reporting
                        s_run = np.where(np.arange(lo, hi) >= n, sg[idx] + curve.length, sg[idx])
                    kbar = float(np.mean(kap[idx]))
                    hbar = float(np.mean(height[idx]))
                    if np.max(np.abs(height[idx] ** -2.0 - hbar**-2.0)) > _EPS_R:
                        continue
                    mu_run = weight_jet[0][idx]
                    amp = 2.0 / (kbar * hbar)
                    # Least-squares phase: mu = amp cos(k s / 2 + a).
                    mat = np.stack([np.cos(kbar * s_run / 2.0), np.sin(kbar * s_run / 2.0)], axis=1)
                    sol, *_ = np.linalg.lstsq(mat, mu_run / amp, rcond=None)
                    phase = float(np.arctan2(-sol[1], sol[0]))
                    fit_gap = float(np.max(np.abs(mu_run - amp * np.cos(kbar * s_run / 2.0 + phase))))
                    if fit_gap > 1e-6:
                        continue
                    normals = jet[2][idx] / kap[idx][:, None]
                    pts = _exp_rows(_take((jet, weight_jet), idx), normals, np.full(len(idx), hbar))
                    p0 = pts.mean(axis=0)
                    image_gap = float(np.max(np.linalg.norm(pts - p0, axis=-1)))
                    if image_gap > _EPS_P:
                        continue
                    residuals = {
                        "kappa_rate": float(np.max(kap_rate[idx])), "ode": float(np.max(ode[idx])),
                        "condition": float(np.max(g[idx])),
                        "height": float(np.max(np.abs(height[idx] - hbar))),
                        "image": image_gap, "mu_fit": fit_gap,
                    }
                    found.append(CollapseArc(
                        ci, float(s_run[0]), float(s_run[-1]), kbar, hbar, phase, p0, residuals
                    ))
    return arcs[0] if offsets is None else arcs


def transversality_check(pairs, tol=DEFAULT_TOLERANCES):
    """True iff every zero of g = mu'' + kappa^2 mu / 4 with kappa > 0 is
    transversal (|g'| > _EPS_REG); returns (flag, witnesses).

    Zeros with kappa = 0 are exempt: there the first-height expression
    collapses to |mu'|^2, which both focal radii already include, so such
    zeros cannot separate the two radii. Witnesses are (component, s, |g'|)
    rows, with s = None marking a whole flat run.
    """
    pairs = as_pairs(pairs)
    witnesses = []
    for ci, (curve, weight) in enumerate(pairs):
        z = g_zero_set(curve, weight, tol)
        flat = z.flat & (z.kap > curve.kappa_tol)
        for lo, hi in _runs(flat, curve.closed):
            if hi - lo >= 3:
                witnesses.append((ci, None, 0.0))
        zeros = np.concatenate([z.cross_s, z.touch_s])
        zeros = zeros[curve.curvature(zeros) > curve.kappa_tol]
        h = 1e-7 * max(1.0, curve.length / (2 * np.pi))
        lo_s, hi_s = zeros - h, zeros + h
        if not curve.closed:
            lo_s = np.maximum(lo_s, curve.s_min)
            hi_s = np.minimum(hi_s, curve.s_max)
        g_hi, g_lo = _sng_condition(curve, weight, hi_s), _sng_condition(curve, weight, lo_s)
        gp = np.abs((g_hi - g_lo) / (hi_s - lo_s))
        witnesses.extend((ci, float(x), float(v)) for x, v in zip(zeros, gp) if v <= _EPS_REG)
    return (not witnesses), witnesses
