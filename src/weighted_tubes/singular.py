"""Singular set of the weighted exponential map and its collapse arcs.

Inside the almost-injectivity height the map degenerates exactly on the
graph {(s, R(s))} where mu'' + kappa^2 mu / 4 = 0 with kappa > 0 and
R(s) = ((mu')^2 - mu mu'')^{-1/2}, always along the principal normal. A
whole constant-height curve over an interval collapses to one point only
above exact circular arcs carrying mu = (2/(kappa r)) cos(kappa s / 2 + a);
those arcs set the topological radius (see radii.radii_report).
"""

import weakref
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES
from .curves import _kappa_rate, collapse_ode_residual
from .errors import NumericError, _overflow_raises
from .expmap import (_differential, _exp_rows, _hess_rows, _inside, _nonfinite, _raise_first, _rownorm, _rows,
                     _take)
# Not called here: the benchmark's tracer patches `singular.exp_mu` as one of
# the map's lookup sites, so the name stays bound in this module.
from .expmap import exp_mu  # noqa: F401
from .util import _coord_norm, _extrema_indices, _offset_array, as_pairs, brent_maxiter, brent_rows, refine_minima

_TOL_HESS_FACTOR = 1e-8  # x the scale of F'': second-order zero band
# x (|mu''| + kappa^2 |mu| / 4): g = 0 (`_g_band`). On the bundled scenes that
# ratio |g| / scale is <= 2.2e-16 or 0/0 where g vanishes and >= 3.7e-9 at
# every other grid foot; 2^-40 = 9.1e-13 sits 3-4 decades from either side.
_G_BAND = 2.0**-40
_EPS_KAPPA = 1e-7  # collapse-arc residuals (four conditions + image)
_EPS_GAMMA = 1e-7
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


def g_slope(curve, weight, s, t=0.0):
    """kappa, g = mu'' + kappa^2 mu / 4 (zero exactly on the singular graph)
    and its exact slope g' = mu''' + kappa kappa' mu / 2 + kappa^2 mu' / 4 at
    the feet s for the weight mu + t, from order-3 jets; then kappa' and
    (mu + t, mu', mu''). Where the terms of g' overflow, g' is +-inf.
    """
    jet = curve.jet(s, 3)
    mu, d1, d2, d3 = weight.jet(s, 3)
    mu = mu + t
    kap, kr = _coord_norm(jet[2]), _kappa_rate(jet, curve.kappa_tol)
    with np.errstate(over="ignore"):
        dg = d3 + 0.5 * kap * kr * mu + 0.25 * kap**2 * d1
    return kap, _g_band(kap, (mu, d1, d2))[0], dg, kr, (mu, d1, d2)


def _g_band(kap, weight_jet):
    """g from the curvature and a weight jet of order 2 at the same feet, and
    the band |g| <= _G_BAND (|mu''| + kappa^2 |mu| / 4) of "g = 0" there, the
    one that the zero set, the collapse arcs and the focal bands read."""
    mu, _, d2 = weight_jet[:3]
    k2 = 0.25 * kap**2
    return d2 + k2 * mu, _G_BAND * (np.abs(d2) + k2 * np.abs(mu))


def _inv_sqrt(x, fill):
    """x^{-1/2} where x > 0, else fill (nan included)."""
    return np.where(x > 0.0, 1.0 / np.sqrt(np.where(x > 0.0, x, 1.0)), fill)


def _graph_height(weight_jet):
    """R(s) = ((mu')^2 - mu mu'')^{-1/2} from a weight jet of order 2; nan where the radicand is <= 0."""
    mu, d1, d2 = weight_jet[:3]
    return _inv_sqrt(d1**2 - mu * d2, np.nan)


def dense_grid(curve, weight, n):
    """The dense foot grid of one component that the focal profiles, the zero
    set of g and the collapse arcs read: the feet sg = curve.grid(n), the
    curve jet of order 3, (mu, mu', mu'') and kappa = |gamma''|, the norm of
    the jet's second derivative (arclength parametrized).

    Built once per (curve, weight, n) and kept, as read-only arrays, while
    the weight lives. The build runs under an overflow guard, so an overflow
    raises NumericError (an enclosing guard's message wins) and keeps nothing.
    """
    grids = _DENSE_GRIDS.setdefault(weight, {})
    if (curve, n) not in grids:
        with _overflow_raises("dense grid"):
            sg = curve.grid(n)
            jet = tuple(curve.jet(sg, 3))
            weight_jet = weight.jet(sg, 2)
            kap = _coord_norm(jet[2])
        for array in (sg, *jet, *weight_jet, kap):
            array.flags.writeable = False
        grids[curve, n] = sg, jet, weight_jet, kap
    return grids[curve, n]


def g_zero_set(curve, weight, tol=DEFAULT_TOLERANCES):
    """The zero set of g = mu'' + kappa^2 mu / 4 on one component, as a
    GZeroSet: the dense grid `sg` of tol.grid_samples feet (`dense_grid`),
    the curvature `kap` and `g` on it, the `flat` samples, the sign changes
    (grid index k of the bracket [s_k, s_k + step] in `cross`, root in
    `cross_s`) and the touching zeros (grid index in `touch`, refined foot
    in `touch_s`, smallest |g| first).

    Flat samples have |g| within `_g_band` (kappa is not consulted). The
    sign changes (neighbouring samples, both nonzero, of opposite sign; the
    last sample and the first also neighbour on a closed curve) are refined
    in one `brent_rows` call to xtol 1e-14, but not those with kappa <=
    kappa_tol at both grid ends (both callers drop a zero where the curve is
    straight). Brent's budget is `util.brent_maxiter(step, xtol)`, step =
    L / n; a root it does not converge on raises NumericError.
    Touching zeros are the best 64 local minima of |g| within the band
    plus the discrete second difference there (the value a quadratic
    touching zero attains one step away) with kappa > kappa_tol at the
    node or a neighbour, refined by `util.refine_minima` (value |g|, slope
    sign(g) g' from `g_slope`) and kept where |g| is within the band there;
    a row it does not refine raises NumericError.
    """
    sg, _, weight_jet, kap = dense_grid(curve, weight, tol.grid_samples)
    n = len(sg)
    g, band = _g_band(kap, weight_jet)
    absg = np.abs(g)
    flat = absg <= band
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
    try:
        cross_s = brent_rows(lambda s: g_slope(curve, weight, s)[1], sg[cross], hi, 1e-14,
                             maxiter=brent_maxiter(step, 1e-14))
    except RuntimeError as exc:
        raise NumericError(f"sign change of g not refined: {exc}") from exc
    touch = _extrema_indices(absg, curve.closed, "min", 64)
    bend = np.abs(g[(touch + 1) % n] - 2.0 * g[touch] + g[touch - 1])
    near_bend = bends | np.roll(bends, 1) | np.roll(bends, -1)
    touch = touch[(absg[touch] <= band[touch] + bend) & near_bend[touch]]

    def abs_g(s):
        kap_s, g_s, dg, _, weight_jet_s = g_slope(curve, weight, s)
        return np.abs(g_s), np.sign(g_s) * dg, _g_band(kap_s, weight_jet_s)[1]
    touch_s, v_ref, band_ref = refine_minima(abs_g, curve, sg, touch, (absg[touch], band[touch]),
                                             "touching zero of g")
    touch, touch_s = touch[v_ref <= band_ref], touch_s[v_ref <= band_ref]
    return GZeroSet(sg, kap, g, flat, cross, cross_s, touch, touch_s)


def singular_set(pairs, ur, tol=DEFAULT_TOLERANCES):
    """Singular-graph points with height below ur, as one float table of
    shape (m, n + 4): rows `component, s, R, residual, x1..xn`, with the
    residual |mu'' + kappa^2 mu / 4| at s and x the point, sorted stably by
    component, then by s.

    The feet come from the zero set of g (`g_zero_set`, on each component's
    `dense_grid`): flat runs of 3 or more samples are continua and report
    their samples (kappa is not consulted here), then the roots of g's sign
    changes and of the slope of |g| at its touching zeros, both by Brent's
    method, except those next to or inside such a run. One array pass per
    component then builds the rows and cross-checks each against the
    second-derivative criterion at its offset, in `is_singular`'s band (see
    `_graph_points`).
    Refined zeros scatter inside the plateau where g is flat at machine
    level, so a row within half a grid step (0.5 L / grid_samples, periodic
    distance) of the row before it is dropped.
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
    F'' at exp(s, n, R), n the principal normal (`expmap._hess_rows`), is
    not within _TOL_HESS_FACTOR of its scale, the sizes of A's terms at
    that row: `is_singular`'s band, so one band decides singularity in both
    places, and the cutoff ur only bounds the heights. The only errors are
    `exp_mu`'s offset check (OutOfWError for the first foot whose normal is
    tangent or whose height is above 1/|mu'|) and NumericError on an
    overflow.
    """
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
        location, hess, scale, _, checks = _hess_rows(jets, s, normal, height)
        _raise_first(*checks)
        resid = np.abs(_g_band(kap, weight_jet)[0])[keep]
        rows = np.column_stack([np.full(len(s), float(ci)), s, height, resid, location])
        return rows[np.abs(hess) <= _TOL_HESS_FACTOR * scale]


# ---------------------------------------------------------------------------
# Pointwise singularity test and its independent cross-check
# ---------------------------------------------------------------------------


def is_singular(curve, weight, s, v, R):
    """(flags, values) over rows: feet s, directions v (last axis ambient)
    and heights R broadcast together to a shape B as in `exp_mu`; one offset
    gives (bool, float). The map is singular at an offset iff the second
    derivative of the squared weighted distance at its foot,
    F'' = (2/mu^2) A with A the tangential part of the map's d/ds column
    (`expmap._hess_rows`), lies within _TOL_HESS_FACTOR of its scale

        (2/mu^2) (1 + |mu'^2 + mu mu''| R^2 + mu R rho |v . gamma''|),

    the sizes of A's terms at that row (`_graph_points` gates the singular
    set's rows by the same band); values are those F''.

    The rows and their one curve jet and one weight jet, evaluated on the
    feet as given, come from `expmap._rows`. Raises for the first failing
    row in C order (`expmap._raise_first`); within a row the offset checks
    (`exp_mu`'s OutOfWError), then OutOfWError unless the height is
    strictly inside the admissible set, then NumericError where F'' is not
    finite.
    """
    shape, s, jets, v, R = _rows(curve, weight, s, v, R, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        _, hess, scale, bound, checks = _hess_rows(jets, s, v, R)
    _raise_first(*checks, _inside(R, bound), _nonfinite("F''", hess, R, s))
    flags = np.abs(hess) <= _TOL_HESS_FACTOR * scale
    if not shape:
        return bool(flags[0]), float(hess[0])
    return flags.reshape(shape), hess.reshape(shape)


def jacobian_determinant(curve, weight, s, v, R):
    """Determinants of the map's differential over rows: feet s, directions
    v (last axis ambient) and heights R broadcast together to a shape B as
    in `exp_mu`; returns B (one offset gives a float).

    The differential is `expmap.differential`, in closed form from the
    order-2 jets: columns dE/ds and dE/dc_j in the coordinates arclength s
    and coefficients c of R v on the normal frame at the foot, carried along
    the curve by projection. Independent of the second-derivative criterion;
    used to cross-validate it away from R = 0. The c-columns scale the
    offset by R (dE/dc_j = R [...]), so the determinant carries a factor
    R^(n-1) and reads 0 at R = 0, where the map is regular: on ellipse_mu1
    at s = 0.4 along gamma'' it is 0.0, -1.0e-3 and -8.8e-2 at R = 0, 1e-3
    and 0.1, while F'' = 2.0, 1.998 and 1.759 call all three regular. Near
    R = 0 the singularity test is `is_singular`, not this determinant.

    The rows are `differential`'s own (`expmap._differential`), read once:
    it raises as `differential` does, then NumericError for the first row,
    in C order, whose determinant is not finite (a product of n columns can
    overflow where each column is finite).
    """
    shape, cols, s, R = _differential(curve, weight, s, v, R)
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.linalg.det(cols.swapaxes(1, 2))
    _raise_first(_nonfinite("determinant", det, R, s))
    return float(det[0]) if not shape else det.reshape(shape)


# ---------------------------------------------------------------------------
# Collapse arcs and the topological radius
# ---------------------------------------------------------------------------


def detect_collapse_arcs(pairs, ur, tol=DEFAULT_TOLERANCES, offsets=None):
    """Maximal intervals where all collapse conditions hold with height < ur.

    Conditions on the dense grid (`dense_grid`), in the _EPS_* bands: kappa
    locked (|kappa'| small), the circular third-derivative identity, g = 0
    (in `_g_band`) and a constant height (mu'^2 + (kappa mu / 2)^2)^{-1/2},
    the closed-band focal height, never below focrad0; runs shorter than
    _ELL_MIN_FACTOR * L are ignored. Each run is fitted (mean curvature,
    mean height, least-squares phase) and the common image is verified.

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
                g, band = _g_band(kap, weight_jet)
                height = _inv_sqrt(d1**2 + (0.5 * (kap * weight_jet[0]))**2, np.inf)
                ok = locked & (np.abs(g) <= band) & (height < ur_t)
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
                    image_gap = float(np.max(_coord_norm(pts - p0)))
                    if image_gap > _EPS_P:
                        continue
                    residuals = {
                        "kappa_rate": float(np.max(kap_rate[idx])), "ode": float(np.max(ode[idx])),
                        "condition": float(np.max(np.abs(g[idx]))),
                        "height": float(np.max(np.abs(height[idx] - hbar))),
                        "image": image_gap, "mu_fit": fit_gap,
                    }
                    found.append(CollapseArc(
                        ci, float(s_run[0]), float(s_run[-1]), kbar, hbar, phase, p0, residuals
                    ))
    return arcs[0] if offsets is None else arcs


def transversality_check(pairs, tol=DEFAULT_TOLERANCES):
    """True iff every zero of g = mu'' + kappa^2 mu / 4 with kappa > 0 is
    transversal (|g'| > _EPS_REG); returns (flag, witnesses). The zeros are
    those of `g_zero_set`; kappa and the exact g' there come from `g_slope`.

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
        kap, _, dg, *_ = g_slope(curve, weight, zeros)
        witnesses.extend((ci, float(x), float(abs(v))) for x, k, v in zip(zeros, kap, dg)
                         if k > curve.kappa_tol and abs(v) <= _EPS_REG)
    return (not witnesses), witnesses
