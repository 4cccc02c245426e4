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
from .expmap import _exp_rows, _frames, _hess_rows, _offset_rows, _rownorm
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

    Flat samples have |g| <= _FLAT_FACTOR * max(1, max |g|); kappa is not
    consulted. All sign changes (the last sample and the first also
    neighbour on a closed curve) are refined in one `brent_rows` call to
    xtol 1e-14. Touching zeros are the best 64 local minima of |g| within
    _TOL_SNG plus the discrete second difference there (the value a
    quadratic touching zero attains one step away), refined in one
    golden-section call and kept where |g| <= _TOL_SNG.
    """
    n = tol.singular_samples
    sg = curve.grid(n)
    g = _sng_condition(curve, weight, sg)
    absg = np.abs(g)
    flat = absg <= _FLAT_FACTOR * max(1.0, float(np.max(absg)))
    limit = n if curve.closed else n - 1
    cross = np.nonzero(g * np.roll(g, -1) < 0.0)[0]
    cross = cross[cross < limit]
    hi = sg[cross] + curve.length / n if curve.closed else sg[cross + 1]
    cross_s = brent_rows(lambda s: _sng_condition(curve, weight, s), sg[cross], hi, 1e-14)
    touch = np.array([
        k for k in _extrema_indices(absg, curve.closed, "min", 64)
        if absg[k] <= _TOL_SNG + abs(g[(k + 1) % n] - 2.0 * g[k] + g[(k - 1) % n])
    ], dtype=int)
    touch_s = np.zeros(0)
    if len(touch):
        lo, hi = _bracket(curve, sg, touch)
        touch_s, v_ref = golden_min(
            lambda s: np.abs(_sng_condition(curve, weight, s)), lo, hi, tol=1e-13
        )
        touch, touch_s = touch[v_ref <= _TOL_SNG], touch_s[v_ref <= _TOL_SNG]
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
            out.extend(_graph_points(curve, weight, ci, feet, ur))
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


def _graph_points(curve, weight, ci, s, ur):
    """Singular-graph points over candidate feet s, kept in order, built in
    one array pass.

    A foot is dropped where kappa <= kappa_tol, where the graph height R(s)
    is undefined or outside (0, ur), and where the map's second derivative
    at exp(s, n, R), n the principal normal, leaves the _TOL_HESS_FACTOR
    band. A direction tangent to the curve, a height above 1/|mu'|, a
    recovered height above it, or a foot that is not critical for its image
    raises the scalar checks' error for the first offending foot.
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
    jets = _take((curve_jet, weight_jet), keep)
    location, hess, _, faults = _hess_rows(curve, jets, s, normal, height)
    faults = [f for f in faults if f is not None]
    if faults:
        raise min(faults, key=lambda f: f[0])[1]
    mu = np.asarray(weight_jet[0], dtype=float)[keep]
    tol_hess = _TOL_HESS_FACTOR * 2.0 / mu**2 * max(1.0, ur**2)
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


def is_singular(curve, weight, s, v, R):
    """(flag, residual): the map is singular at (s, v R) iff the second
    derivative of the squared weighted distance vanishes at the foot (one
    row of the criterion `_graph_points` applies)."""
    s, R = np.array([float(s)]), float(R)
    jets = (curve.jet(s, 2), weight.jet(s, 2))
    _, hess, bound, (fault, hess_fault) = _hess_rows(
        curve, jets, s, np.asarray(v, dtype=float)[None, :], np.array([R])
    )
    if fault is not None:
        raise fault[1]
    if R >= bound[0] * (1.0 - 1e-12):
        raise OutOfWError("offset must be strictly inside the admissible set")
    if hess_fault is not None:
        raise hess_fault[1]
    mu = float(jets[1][0][0])
    band = _TOL_HESS_FACTOR * 2.0 / mu**2 * max(1.0, R**2)
    return abs(float(hess[0])) <= band, float(hess[0])


def jacobian_determinant(curve, weight, s, v, R):
    """Finite-difference determinant of the map's differential at (s, v R):
    one row of `jacobian_rows`."""
    return float(jacobian_rows(
        curve, weight, np.array([float(s)]), np.asarray(v, dtype=float)[None, :],
        np.array([float(R)]),
    )[0])


def jacobian_rows(curve, weight, s, v, R):
    """Finite-difference determinants of the map's differential at the
    offsets s (m,), v (m, n), R (m,).

    Coordinates: arclength plus coefficients on a normal frame transported
    from s by projection (smooth nearby), central differences of step
    h = 1e-6 max(1, L / 2 pi). One curve jet and one weight jet on the feet
    (s, s + h, s - h) of every row give the offsets, the base and
    transported frames and all 2n chart points of a row, which are mapped
    in one pass. Independent of the closed-form second-derivative
    criterion; used to cross-validate it. Raises OutOfWError for the first
    row whose direction is tangent or whose height is negative or above
    1/|mu'|, else for the first chart point outside the admissible set.
    """
    s, v, R = (np.asarray(x, dtype=float) for x in (s, v, R))
    h = 1e-6 * max(1.0, curve.length / (2.0 * np.pi))
    m, n = len(s), curve.ambient_dim
    feet = np.concatenate([s, s + h, s - h])
    jets = (curve.jet(feet, 1), weight.jet(feet, 1))
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
    return np.linalg.det(cols.swapaxes(1, 2))


def _take(jets, rows):
    """The (curve, weight) jets at the given rows of their feet."""
    return tuple(tuple(np.asarray(x)[rows] for x in jet) for jet in jets)


# ---------------------------------------------------------------------------
# Collapse arcs and the topological radius
# ---------------------------------------------------------------------------


def detect_collapse_arcs(pairs, ur, tol=DEFAULT_TOLERANCES, offsets=None):
    """Maximal intervals where all collapse conditions hold with height < ur.

    Conditions on a dense grid: kappa locked (|kappa'| small), the circular
    third-derivative identity, mu'' + kappa^2 mu / 4 = 0, the graph height
    defined and constant, all within the _EPS_* bands; runs shorter than
    _ELL_MIN_FACTOR * L are ignored. Each run is fitted (mean curvature,
    mean height, least-squares phase) and the common image is verified.

    With offsets, the arcs of the weights mu + t for every t, as one list
    per t, with ur holding one height per t: the curve and weight jets, the
    curvature, its rate and the ODE residual are evaluated once per
    component, and only g, the graph height and the runs depend on t.
    """
    pairs = as_pairs(pairs)
    ts = _offset_array(offsets)
    urs = np.broadcast_to(np.asarray(ur, dtype=float), ts.shape)
    arcs = [[] for _ in ts]
    for ci, (curve, weight) in enumerate(pairs):
        n = tol.singular_samples
        sg = curve.grid(n)
        jet = curve.jet(sg, 3)
        mu, d1, d2 = (np.asarray(x, dtype=float) for x in weight.jet(sg, 2))
        kap = np.linalg.norm(jet[2], axis=-1)
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
                cosb = np.cos(kbar * s_run / 2.0)
                sinb = np.sin(kbar * s_run / 2.0)
                mat = np.stack([cosb, sinb], axis=1)
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
        witnesses.extend((ci, float(x), float(v)) for x, v in zip(zeros, gp) if v <= _EPS_REG)
    return (not witnesses), witnesses
