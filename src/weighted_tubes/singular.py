"""Singular set of the weighted exponential map, collapse arcs, and the
topological radius.

Inside the almost-injectivity height the map degenerates exactly on the
graph {(s, R(s))} where mu'' + kappa^2 mu / 4 = 0 with kappa > 0 and
R(s) = ((mu')^2 - mu mu'')^{-1/2}, always along the principal normal. A
whole constant-height curve over an interval collapses to one point only
above exact circular arcs carrying mu = (2/(kappa r)) cos(kappa s / 2 + a);
detecting those arcs yields the topological radius.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .config import DEFAULT_TOLERANCES
from .errors import OutOfWError
from .expmap import (
    _f_second_critical_rows,
    _offset_rows,
    _rownorm,
    exp_mu,
    exp_mu_batch,
    f_second_at_offset,
    make_offset,
    normal_frame,
)
from .radii import _bracket, _extrema_indices
from .util import as_pairs, golden_min


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


def _sng_condition(curve, weight, s):
    """g(s) = mu'' + kappa^2 mu / 4 (zero exactly on the singular graph)."""
    kap = np.asarray(curve.curvature(s), dtype=float)
    return np.asarray(weight.d2(s), dtype=float) + 0.25 * kap**2 * np.asarray(
        weight.mu(s), dtype=float
    )


def _graph_height(curve, weight, s):
    """R(s) = ((mu')^2 - mu mu'')^{-1/2}; nan where the radicand is <= 0."""
    d1 = np.asarray(weight.d1(s), dtype=float)
    mu = np.asarray(weight.mu(s), dtype=float)
    d2 = np.asarray(weight.d2(s), dtype=float)
    rad = d1**2 - mu * d2
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rad > 0.0, 1.0 / np.sqrt(np.where(rad > 0, rad, 1.0)), np.nan)


def singular_set(pairs, ur, tol=DEFAULT_TOLERANCES):
    """Singular-graph points with height below ur.

    The zero set of g = mu'' + kappa^2 mu / 4 is located three ways: flat
    runs at machine level (a continuum; grid samples are reported), sign
    changes (bisection), and near-zero local minima of |g| (refined; this is
    what catches isolated touching zeros). The detectors only collect
    candidate feet; one array pass per component then builds the points and
    cross-checks each against the second-derivative criterion at its offset
    (see `_graph_points`).
    """
    pairs = as_pairs(pairs)
    out = []
    for ci, (curve, weight) in enumerate(pairs):
        sg = curve.grid(tol.singular_samples)
        g = _sng_condition(curve, weight, sg)
        scale = max(1.0, float(np.max(np.abs(g))))
        flat_tol = tol.flat_factor * scale
        flat = np.abs(g) <= flat_tol
        feet = []
        # Flat runs (length >= 3 samples) are continua: report the samples.
        runs = _runs(flat, curve.closed)
        in_flat_run = np.zeros(len(sg), dtype=bool)
        for lo, hi in runs:
            idx = np.arange(lo, hi) % len(sg)
            if len(idx) < 3:
                continue
            in_flat_run[idx] = True
            feet.extend(sg[idx])
        # Sign changes away from flat runs.
        nxt = np.roll(g, -1)
        cross = (g * nxt < 0.0) & ~in_flat_run & ~np.roll(in_flat_run, -1)
        limit = len(sg) if curve.closed else len(sg) - 1
        for k in np.nonzero(cross)[0]:
            if k >= limit:
                continue
            a, b = float(sg[k]), float(sg[k] + curve.length / tol.singular_samples)
            if not curve.closed:
                b = float(sg[k + 1])
            feet.append(
                brentq(lambda s: float(_sng_condition(curve, weight, s)), a, b, xtol=1e-14)
            )
        # Isolated near-zero touching points.
        feet.extend(_touching_zeros(curve, weight, sg, g, tol, skip=in_flat_run))
        if feet:
            out.extend(_graph_points(curve, weight, ci, np.array(feet, dtype=float), ur, tol))
    return _dedup_points(pairs, out, tol)


def _touching_zeros(curve, weight, sg, g, tol, skip=None):
    """Refined near-zero local minima of |g| on the grid sg, in grid order.

    The gate allows for the value a quadratic touching zero attains one grid
    step away, estimated from the discrete second difference; grid indices
    marked in `skip` are left out. All gated minima are refined in one
    golden-section call and kept where |g| <= tol_sng.
    """
    absg = np.abs(g)
    n = len(sg)
    local = [
        k for k in _extrema_indices(absg, curve.closed, "min", 64)
        if not (skip is not None and skip[k])
        and absg[k] <= tol.tol_sng + abs(g[(k + 1) % n] - 2.0 * g[k] + g[(k - 1) % n])
    ]
    if not local:
        return []
    lo, hi = _bracket(curve, sg, local)
    s_ref, v_ref = golden_min(
        lambda s: np.abs(_sng_condition(curve, weight, s)), lo, hi, tol=1e-13
    )
    return [float(x) for x in s_ref[v_ref <= tol.tol_sng]]


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
    height = _graph_height(curve, weight, s)
    d2 = curve.second_derivative(curve.wrap(s))
    kap = _rownorm(d2)
    keep = (
        (curve.curvature(s) > curve.kappa_tol)
        & np.isfinite(height)
        & (height > 0.0)
        & (height < ur)
        & (kap > curve.kappa_tol)
    )
    s, height = s[keep], height[keep]
    if not len(s):
        return []
    normal = d2[keep] / kap[keep][:, None]
    v, _, fault = _offset_rows(curve, weight, s, normal, height)
    location = exp_mu_batch(curve, weight, s, v, height)
    # The criterion re-projects the offset's normal before mapping it.
    v, _, _ = _offset_rows(curve, weight, s, v, height)
    hess, hess_fault = _f_second_critical_rows(
        curve, weight, s, exp_mu_batch(curve, weight, s, v, height)
    )
    faults = [f for f in (fault, hess_fault) if f is not None]
    if faults:
        raise min(faults, key=lambda f: f[0])[1]
    mu = np.asarray(weight.mu(s), dtype=float)
    tol_hess = tol.tol_hess_factor * 2.0 / mu**2 * max(1.0, ur**2)
    resid = np.abs(_sng_condition(curve, weight, s))
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
    off = make_offset(curve, weight, s, v, R)
    bound = 1.0 / max(np.abs(float(weight.d1(off.s))), 1e-300)
    if off.R >= bound * (1.0 - 1e-12):
        raise OutOfWError("offset must be strictly inside the admissible set")
    hess = f_second_at_offset(curve, weight, off.s, off.v, off.R)
    mu = float(weight.mu(off.s))
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
    base_frame = normal_frame(curve, s0)
    # Express v in the base frame; columns: d/ds, d/dc_k.
    coeffs = base_frame @ off.v

    def chart(sc, cc):
        frame = normal_frame(curve, sc, reference=base_frame)
        vec = frame.T @ cc
        norm = np.linalg.norm(vec)
        if norm <= 0:
            return curve.point(sc)
        return exp_mu(curve, weight, sc, vec / norm, off.R * norm)

    cols = []
    plus = chart(s0 + h, coeffs)
    minus = chart(s0 - h, coeffs)
    cols.append((plus - minus) / (2 * h))
    for k in range(n - 1):
        dc = np.zeros(n - 1)
        dc[k] = h
        plus = chart(s0, coeffs + dc)
        minus = chart(s0, coeffs - dc)
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
        kap = curve.curvature(sg)
        kap_rate = np.abs(curve.curvature_rate(sg))
        d3 = curve.third_derivative(sg)
        tan = curve.tangent(sg)
        ode = np.linalg.norm(d3 + (kap**2)[:, None] * tan, axis=-1)
        g = np.abs(_sng_condition(curve, weight, sg))
        height = _graph_height(curve, weight, sg)
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
            mu_run = np.asarray(weight.mu(sg[idx]), dtype=float)
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
            normals = curve.second_derivative(sg[idx]) / kap[idx][:, None]
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


def tir(pairs, ur, arcs=None, tol=DEFAULT_TOLERANCES):
    """Topological radius: infimum of collapse heights, else ur."""
    if arcs is None:
        arcs = detect_collapse_arcs(pairs, ur, tol)
    if arcs:
        return min(arc.r for arc in arcs)
    return ur


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
        n = tol.singular_samples
        sg = curve.grid(n)
        g = _sng_condition(curve, weight, sg)
        kap = curve.curvature(sg)
        scale = max(1.0, float(np.max(np.abs(g))))
        flat = (np.abs(g) <= tol.flat_factor * scale) & (kap > curve.kappa_tol)
        for lo, hi in _runs(flat, curve.closed):
            if hi - lo >= 3:
                witnesses.append((ci, None, 0.0))
        zeros = []
        nxt = np.roll(g, -1)
        limit = n if curve.closed else n - 1
        for k in np.nonzero(g * nxt < 0)[0]:
            if k >= limit:
                continue
            b = sg[k] + curve.length / n if curve.closed else sg[k + 1]
            zeros.append(
                brentq(lambda s: float(_sng_condition(curve, weight, s)), float(sg[k]), float(b), xtol=1e-14)
            )
        zeros.extend(_touching_zeros(curve, weight, sg, g, tol))
        h = 1e-7 * max(1.0, curve.length / (2 * np.pi))
        for z in zeros:
            if float(curve.curvature(z)) <= curve.kappa_tol:
                continue
            lo_s, hi_s = z - h, z + h
            if not curve.closed:
                lo_s = max(lo_s, curve.s_min)
                hi_s = min(hi_s, curve.s_max)
            gp = (
                float(_sng_condition(curve, weight, hi_s))
                - float(_sng_condition(curve, weight, lo_s))
            ) / (hi_s - lo_s)
            if abs(gp) <= tol.eps_reg:
                witnesses.append((ci, float(z), abs(gp)))
    return (not witnesses), witnesses
