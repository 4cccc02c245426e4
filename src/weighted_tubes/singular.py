"""Singular set of the weighted exponential map and its collapse arcs.

Inside the almost-injectivity height the map degenerates exactly on the
graph {(s, R(s))} where mu'' + kappa^2 mu / 4 = 0 with kappa > 0 and
R(s) = ((mu')^2 - mu mu'')^{-1/2}, always along the principal normal. A
whole constant-height curve over an interval collapses to one point only
above exact circular arcs carrying mu = (2/(kappa r)) cos(kappa s / 2 + a);
those arcs set the topological radius (see radii.radii_report).
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES
from .curves import _kappa_rate, collapse_ode_residual
from .errors import OutOfWError
from .expmap import (
    _exp_rows,
    _f_second_at,
    _f_second_critical_rows,
    _normal_frame,
    _offset,
    _offset_rows,
    _rownorm,
    exp_mu,
    exp_mu_batch,
    make_offset,
)
from .radii import _bracket, _extrema_indices
from .util import as_pairs, brent_rows, golden_min


@dataclass(frozen=True)
class SingularGraphPoint:
    component: int
    s: float
    R: float
    location: np.ndarray
    residual: float  # |mu'' + kappa^2 mu / 4| at s


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


GZeroSet = namedtuple("GZeroSet", "sg g flat cross cross_s touch touch_s")


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


def g_zero_set(curve, weight, tol=DEFAULT_TOLERANCES):
    """The zero set of g = mu'' + kappa^2 mu / 4 on one component, as a
    GZeroSet: the grid `sg` of tol.singular_samples samples, `g` on it, the
    `flat` samples, the sign changes (grid index k of the bracket
    [s_k, s_k + step] in `cross`, root in `cross_s`) and the touching zeros
    (grid index in `touch`, refined foot in `touch_s`, smallest |g| first).

    Flat samples have |g| <= flat_factor * max(1, max |g|); kappa is not
    consulted. All sign changes (the last sample and the first also
    neighbour on a closed curve) are refined in one `brent_rows` call to
    xtol 1e-14. Touching zeros are the best 64 local minima of |g| within
    tol_sng plus the discrete second difference there (the value a
    quadratic touching zero attains one step away), refined in one
    golden-section call and kept where |g| <= tol_sng.
    """
    n = tol.singular_samples
    sg = curve.grid(n)
    g = _sng_condition(curve, weight, sg)
    absg = np.abs(g)
    flat = absg <= tol.flat_factor * max(1.0, float(np.max(absg)))
    limit = n if curve.closed else n - 1
    cross = np.nonzero(g * np.roll(g, -1) < 0.0)[0]
    cross = cross[cross < limit]
    hi = sg[cross] + curve.length / n if curve.closed else sg[cross + 1]
    cross_s = brent_rows(lambda s: _sng_condition(curve, weight, s), sg[cross], hi, 1e-14)
    touch = np.array([
        k for k in _extrema_indices(absg, curve.closed, "min", 64)
        if absg[k] <= tol.tol_sng + abs(g[(k + 1) % n] - 2.0 * g[k] + g[(k - 1) % n])
    ], dtype=int)
    touch_s = np.zeros(0)
    if len(touch):
        lo, hi = _bracket(curve, sg, touch)
        touch_s, v_ref = golden_min(
            lambda s: np.abs(_sng_condition(curve, weight, s)), lo, hi, tol=1e-13
        )
        touch, touch_s = touch[v_ref <= tol.tol_sng], touch_s[v_ref <= tol.tol_sng]
    return GZeroSet(sg, g, flat, cross, cross_s, touch, touch_s)


def singular_set(pairs, ur, tol=DEFAULT_TOLERANCES):
    """Singular-graph points with height below ur.

    The feet come from the zero set of g (`g_zero_set`): flat runs of 3 or
    more samples are continua and report their samples (kappa is not
    consulted here), then the sign-change roots and the touching zeros,
    except those next to or inside such a run. One array pass per component
    then builds the points and cross-checks each against the
    second-derivative criterion at its offset (see `_graph_points`).
    """
    pairs = as_pairs(pairs)
    out = []
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
        if len(feet):
            out.extend(_graph_points(curve, weight, ci, feet, ur, tol))
    return _dedup_points(pairs, out, tol)


def _runs(mask, periodic):
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


def _graph_points(curve, weight, ci, s, ur, tol):
    """Singular-graph points over candidate feet s, kept in order, built in
    one array pass.

    A foot is dropped where kappa <= kappa_tol, where the graph height R(s)
    is undefined or outside (0, ur), and where the map's second derivative
    at exp(s, n, R), n the principal normal, leaves the tol_hess band. A
    direction tangent to the curve, a height above 1/|mu'|, a recovered
    height above it, or a foot that is not critical for its image raises
    the scalar checks' error for the first offending foot.
    """
    s = curve.wrap(s)
    curve_jet, weight_jet = curve.jet(s, 2), weight.jet(s, 2)
    height = _graph_height(weight_jet)
    d2 = curve_jet[2]
    kap = _rownorm(d2)
    kap_norm = np.linalg.norm(d2, axis=-1)
    keep = (
        (kap_norm > curve.kappa_tol)
        & np.isfinite(height)
        & (height > 0.0)
        & (height < ur)
        & (kap > curve.kappa_tol)
    )
    s, height = s[keep], height[keep]
    if not len(s):
        return []
    normal = d2[keep] / kap[keep][:, None]
    jets = tuple(tuple(np.asarray(x)[keep] for x in jet) for jet in (curve_jet, weight_jet))
    v, _, fault = _offset_rows(jets, s, normal, height)
    location = _exp_rows(jets, v, height)
    # The criterion re-projects the offset's normal before mapping it.
    v, _, _ = _offset_rows(jets, s, v, height)
    hess, hess_fault = _f_second_critical_rows(curve, jets, _exp_rows(jets, v, height))
    faults = [f for f in (fault, hess_fault) if f is not None]
    if faults:
        raise min(faults, key=lambda f: f[0])[1]
    mu = np.asarray(weight_jet[0], dtype=float)[keep]
    tol_hess = tol.tol_hess_factor * 2.0 / mu**2 * max(1.0, ur**2)
    resid = np.abs(_g(kap_norm, weight_jet))[keep]
    return [
        SingularGraphPoint(ci, float(s[k]), float(height[k]), location[k], float(resid[k]))
        for k in np.nonzero(np.abs(hess) <= tol_hess)[0]
    ]


def _dedup_points(pairs, points, tol):
    # Refined zeros scatter inside the plateau where the condition is flat
    # at machine level; half a grid step is the honest resolution limit.
    kept = []
    for p in sorted(points, key=lambda q: (q.component, q.s)):
        curve = pairs[p.component][0]
        gap = 0.5 * curve.length / tol.singular_samples
        if kept and kept[-1].component == p.component and curve.periodic_distance(
            kept[-1].s, p.s
        ) <= gap:
            continue
        kept.append(p)
    return kept


# ---------------------------------------------------------------------------
# Pointwise singularity test and its independent cross-check
# ---------------------------------------------------------------------------


def is_singular(curve, weight, s, v, R, tol=DEFAULT_TOLERANCES):
    """(flag, residual): the map is singular at (s, v R) iff the second
    derivative of the squared weighted distance vanishes at the foot."""
    s = np.array([float(s)])
    jets = (curve.jet(s, 2), weight.jet(s, 2))
    off = _offset(jets, s, v, R)
    bound = 1.0 / max(np.abs(float(jets[1][1][0])), 1e-300)
    if off.R >= bound * (1.0 - 1e-12):
        raise OutOfWError("offset must be strictly inside the admissible set")
    hess = _f_second_at(curve, jets, s, off.v, off.R)
    mu = float(jets[1][0][0])
    band = tol.tol_hess_factor * 2.0 / mu**2 * max(1.0, off.R**2)
    return abs(hess) <= band, float(hess)


def jacobian_determinant(curve, weight, s, v, R, h=None):
    """Finite-difference determinant of the map's differential at (s, v R).

    Coordinates: arclength plus coefficients on a normal frame transported
    from s by projection (smooth nearby). Independent of the closed-form
    second-derivative criterion; used to cross-validate it.
    """
    off = make_offset(curve, weight, s, v, R)
    s0 = off.s
    if h is None:
        h = 1e-6 * max(1.0, curve.length / (2.0 * np.pi))
    n = curve.ambient_dim
    # The chart visits the feet s0, s0 + h and s0 - h; one jet gives their frames.
    feet = np.array([s0, s0 + h, s0 - h])
    tangents = curve.tangent(feet)
    base_frame = _normal_frame(tangents[0])
    # Express v in the base frame; columns: d/ds, d/dc_k.
    coeffs = base_frame @ off.v

    def chart(k, cc):
        frame = _normal_frame(tangents[k], reference=base_frame)
        vec = frame.T @ cc
        norm = np.linalg.norm(vec)
        if norm <= 0:
            return curve.point(feet[k])
        return exp_mu(curve, weight, feet[k], vec / norm, off.R * norm)

    cols = []
    plus = chart(1, coeffs)
    minus = chart(2, coeffs)
    cols.append((plus - minus) / (2 * h))
    for k in range(n - 1):
        dc = np.zeros(n - 1)
        dc[k] = h
        plus = chart(0, coeffs + dc)
        minus = chart(0, coeffs - dc)
        cols.append((plus - minus) / (2 * h))
    return float(np.linalg.det(np.stack(cols, axis=1)))


# ---------------------------------------------------------------------------
# Collapse arcs and the topological radius
# ---------------------------------------------------------------------------


def detect_collapse_arcs(pairs, ur, tol=DEFAULT_TOLERANCES):
    """Maximal intervals where all collapse conditions hold with height < ur.

    Conditions on a dense grid: kappa locked (|kappa'| small), the circular
    third-derivative identity, mu'' + kappa^2 mu / 4 = 0, the graph height
    defined and constant, all within the configured residual bands; runs
    shorter than ell_min are ignored. Each run is fitted (mean curvature,
    mean height, least-squares phase) and the common image is verified.
    """
    pairs = as_pairs(pairs)
    arcs = []
    for ci, (curve, weight) in enumerate(pairs):
        n = tol.singular_samples
        sg = curve.grid(n)
        jet = curve.jet(sg, 3)
        weight_jet = weight.jet(sg, 2)
        kap = np.linalg.norm(jet[2], axis=-1)
        kap_rate = np.abs(_kappa_rate(jet, curve.kappa_tol))
        ode = collapse_ode_residual(jet)
        g = np.abs(_g(kap, weight_jet))
        height = _graph_height(weight_jet)
        ok = (
            (kap > curve.kappa_tol)
            & (kap_rate <= tol.eps_kappa)
            & (ode <= tol.eps_gamma)
            & (g <= tol.eps_mu)
            & np.isfinite(height)
            & (height < ur)
        )
        step = curve.length / n
        min_len = tol.ell_min_factor * curve.length
        for lo, hi in _runs(ok, curve.closed):
            count = hi - lo
            if count * step < min_len:
                continue
            idx = np.arange(lo, hi) % n
            s_run = sg[idx]
            if hi > n:  # unwrap periodic run for reporting
                s_run = np.where(np.arange(lo, hi) >= n, sg[idx] + curve.length, sg[idx])
            kbar = float(np.mean(kap[idx]))
            hbar = float(np.mean(height[idx]))
            if np.max(np.abs(height[idx] ** -2.0 - hbar**-2.0)) > tol.eps_r:
                continue
            mu_run = np.asarray(weight_jet[0], dtype=float)[idx]
            amp = 2.0 / (kbar * hbar)
            # Least-squares phase: mu = amp cos(k s / 2 + a).
            cosb = np.cos(kbar * s_run / 2.0)
            sinb = np.sin(kbar * s_run / 2.0)
            mat = np.stack([cosb, sinb], axis=1)
            sol, *_ = np.linalg.lstsq(mat, mu_run / amp, rcond=None)
            phase = float(np.arctan2(-sol[1], sol[0]))
            fit_gap = float(
                np.max(np.abs(mu_run - amp * np.cos(kbar * s_run / 2.0 + phase)))
            )
            if fit_gap > 1e-6:
                continue
            normals = jet[2][idx] / kap[idx][:, None]
            pts = exp_mu_batch(curve, weight, sg[idx], normals, np.full(len(idx), hbar))
            p0 = pts.mean(axis=0)
            image_gap = float(np.max(np.linalg.norm(pts - p0, axis=-1)))
            if image_gap > tol.eps_p:
                continue
            arcs.append(
                CollapseArc(
                    component=ci,
                    s_start=float(s_run[0]),
                    s_end=float(s_run[-1]),
                    kappa=kbar,
                    r=hbar,
                    phase=phase,
                    p0=p0,
                    residuals={
                        "kappa_rate": float(np.max(kap_rate[idx])),
                        "ode": float(np.max(ode[idx])),
                        "condition": float(np.max(g[idx])),
                        "height": float(np.max(np.abs(height[idx] - hbar))),
                        "image": image_gap,
                        "mu_fit": fit_gap,
                    },
                )
            )
    return arcs


def transversality_check(pairs, tol=DEFAULT_TOLERANCES):
    """True iff every zero of g = mu'' + kappa^2 mu / 4 with kappa > 0 is
    transversal (|g'| > eps_reg); returns (flag, witnesses).

    Zeros with kappa = 0 are exempt: there the first-height expression
    collapses to |mu'|^2, which both focal radii already include, so such
    zeros cannot separate the two radii. Witnesses are (component, s, |g'|)
    rows, with s = None marking a whole flat run.
    """
    pairs = as_pairs(pairs)
    witnesses = []
    for ci, (curve, weight) in enumerate(pairs):
        z = g_zero_set(curve, weight, tol)
        flat = z.flat & (curve.curvature(z.sg) > curve.kappa_tol)
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
        witnesses.extend((ci, float(x), float(v)) for x, v in zip(zeros, gp) if v <= tol.eps_reg)
    return (not witnesses), witnesses
