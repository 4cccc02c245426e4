"""Batch drivers: weight-family sweeps, fiber traces, tube-boundary sampling."""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, check_budget
from .errors import NumericError, WeightedTubesError
from .expmap import exp_mu, g_potential, normal_frames, w_bound
from .radii import radii_report
from .util import as_pairs
from .weights import OffsetWeight


# Directions per tube foot above the plane (the plane has two).
_DIR_SAMPLES = 16
_TUBE_TOL_FACTOR = 1e-8  # x R^2: tube-boundary membership band
_W_MARGIN = 1e-9  # relative pull-back from the admissible boundary


@dataclass(frozen=True)
class SweepRow:
    t: float
    dir: float
    tir: float
    air: float
    collapse_count: int
    status: str = "ok"


def family_weights(pairs, t):
    """The offset family's weights mu + t at family parameter t, each
    validated on its curve in component order (`WeightFunction.validate_on`)."""
    return [(c, OffsetWeight(w, t).validate_on(c)) for c, w in as_pairs(pairs)]


def radii_sweep(pairs, t_grid, tol=DEFAULT_TOLERANCES):
    """One radii row of the offset family mu + t per t, in the order of t_grid.

    Every t is validated first; a failure marks its row and the sweep
    continues. The rows that pass are computed in one batched report, and
    each row equals the report for its t alone. If the batch fails, its
    rows are computed one at a time, so each keeps the status it has alone.
    """
    pairs = as_pairs(pairs)
    ts = [float(t) for t in t_grid]
    rows = [None] * len(ts)
    todo = []
    for k, t in enumerate(ts):
        try:
            family_weights(pairs, t)
        except WeightedTubesError as exc:
            rows[k] = _failed_row(t, exc)
        else:
            todo.append(k)
    offsets = [ts[k] for k in todo]
    try:
        reports = radii_report(pairs, tol, offsets)
    except WeightedTubesError:
        reports = [None] * len(todo)
    for k, off, rep in zip(todo, offsets, reports):
        if rep is None:
            try:
                rep = radii_report(pairs, tol, [off])[0]
            except WeightedTubesError as exc:
                rows[k] = _failed_row(ts[k], exc)
                continue
        rows[k] = SweepRow(
            t=ts[k],
            dir=rep.dir,
            tir=rep.tir,
            air=rep.air,
            collapse_count=len(rep.witnesses["collapse_arcs"]),
        )
    return rows


def _failed_row(t, exc):
    return SweepRow(t=t, dir=np.nan, tir=np.nan, air=np.nan, collapse_count=0,
                    status=f"failed: {exc}")


def fiber_trace(curve, weight, s, v, r_max, samples=257):
    """Points exp(s, v, R) for R on a uniform grid of [-r_max, r_max] per
    foot (negative R reflects the direction). Feet s (m,), directions v
    (m, n) and half-widths r_max (m,), or one half-width for every foot,
    give (R_values (m, samples), points (m, samples, n)) from one `exp_mu`
    call; one foot gives (samples,) and (samples, n). Every row equals the
    one-foot call for its foot. Raises SceneError when the points would not
    fit the budget (`config.check_budget`), NumericError when a grid's width
    2 r_max is not finite."""
    half = np.broadcast_to(np.asarray(r_max, dtype=float), np.shape(s)).ravel()
    check_budget(f"fibers of {len(half)} feet x {samples} samples", len(half) * samples * curve.ambient_dim)
    with np.errstate(over="ignore"):
        width = half - -half
    wide = np.flatnonzero(~np.isfinite(width))
    if len(wide):
        raise NumericError(f"fiber half-width {float(half[wide[0]])!r}: the grid's width 2 r_max is not finite")
    # np.linspace switches every row to its denormal arithmetic once one
    # row's step is 0, so such rows take a call of their own.
    alone = width / max(samples - 1, 1) == 0.0
    rr = np.empty((len(half), samples))
    rr[~alone] = np.linspace(-half[~alone], half[~alone], samples, axis=-1)
    for k in np.nonzero(alone)[0]:
        rr[k] = np.linspace(-half[k], half[k], samples)
    rr = rr.reshape(np.shape(s) + (samples,))
    v = np.asarray(v, dtype=float)[..., None, :]
    dirs = np.where((rr >= 0)[..., None], v, -v)
    return rr, exp_mu(curve, weight, np.asarray(s, dtype=float)[..., None], dirs, np.abs(rr))


def tube_boundary(pairs, R, s_samples=256):
    """Sample the boundary of the weighted tube of height R.

    Candidate points exp(s, v, R) over an (s, direction)-grid are kept when
    the ambient potential confirms boundary membership (G >= R^2 - band);
    the rest land in the overlap list, a diagnostic that fills up once R
    exceeds the almost-injectivity height. Feet whose admissible bound is
    below R contribute nothing. The directions come from the feet's normal
    frames; all (foot, direction) rows of a component are mapped in one
    array pass, and one G call takes the rows of every component. Returns
    (boundary, overlap), each an (m, n + 3) array of rows (component, s, G,
    x1..xn). Raises SceneError when one component's (foot, direction) rows
    would not fit the budget (`config.check_budget`).
    """
    pairs = as_pairs(pairs)
    if R <= 0:
        raise WeightedTubesError("tube height R must be positive")
    n = pairs[0][0].ambient_dim
    check_budget(f"tube with {s_samples} feet", s_samples * (2 if n == 2 else _DIR_SAMPLES) * n)
    rows = [np.zeros((0, n + 3))]
    for ci, (curve, weight) in enumerate(pairs):
        sg = curve.grid(s_samples)
        bounds = w_bound(weight, sg)
        feet = sg[bounds * (1.0 - _W_MARGIN) > R]
        if not len(feet):
            continue
        dirs = _directions(normal_frames(curve, feet), n, _DIR_SAMPLES)
        pts = exp_mu(curve, weight, feet[:, None], dirs, float(R)).reshape(-1, n)
        rows.append(np.column_stack([np.full(len(pts), ci), np.repeat(feet, dirs.shape[1]),
                                     np.zeros(len(pts)), pts]))
    rows = np.concatenate(rows)
    if len(rows):
        rows[:, 2] = g_potential(pairs, rows[:, 3:])[0]
    inside = rows[:, 2] >= R * R - _TUBE_TOL_FACTOR * R * R
    return rows[inside], rows[~inside]


def _directions(frames, ambient_dim, dir_samples):
    """Deterministic unit directions spanning the normal space of every foot:
    (feet, directions, ambient_dim) from frames (feet, ambient_dim - 1,
    ambient_dim). Every foot gets the same combinations of its frame."""
    if ambient_dim == 2:
        e = frames[:, 0]
        return np.stack([e, -e], axis=1)
    if ambient_dim == 3:
        angles = 2.0 * np.pi * np.arange(dir_samples) / dir_samples
        c, s = np.cos(angles)[:, None], np.sin(angles)[:, None]
        return c * frames[:, None, 0] + s * frames[:, None, 1]
    rng = np.random.default_rng(1234)
    raw = rng.standard_normal((dir_samples, frames.shape[1]))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return raw @ frames
