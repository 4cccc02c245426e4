"""Batch drivers: weight-family sweeps, fiber traces, tube-boundary sampling."""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, GRID_BUDGET_BYTES
from .errors import OutOfWError, SceneError, WeightedTubesError
from .expmap import exp_mu_batch, g_potential, make_offsets, normal_frames, w_bound
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


def family_weights(pairs, kind, t):
    """Weights for family parameter t: 'offset' adds t, 'fixed' ignores it."""
    pairs = as_pairs(pairs)
    if kind == "offset":
        return [(c, OffsetWeight(w, t)) for c, w in pairs]
    if kind == "fixed":
        return list(pairs)
    raise WeightedTubesError(f"unknown family kind {kind!r}")


def radii_sweep(pairs, family_kind, t_grid, tol=DEFAULT_TOLERANCES):
    """One radii row per family parameter, in the order of t_grid.

    Every t is validated first; a failure marks its row and the sweep
    continues. The rows that pass are computed in one batched report (an
    'offset' family as the weights mu + t, a 'fixed' one as mu), and each
    row equals the report for its t alone. If the batch fails, its rows are
    computed one at a time, so each keeps the status it has alone.
    """
    pairs = as_pairs(pairs)
    ts = [float(t) for t in t_grid]
    rows = [None] * len(ts)
    todo = []
    for k, t in enumerate(ts):
        try:
            for curve, weight in family_weights(pairs, family_kind, t):
                weight.validate_on(curve)
        except WeightedTubesError as exc:
            rows[k] = _failed_row(t, exc)
        else:
            todo.append(k)
    offsets = [ts[k] if family_kind == "offset" else 0.0 for k in todo]
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
    """Points exp(s, v, R) for R on a uniform grid of [-r_max, r_max]
    (negative R reflects the direction). Returns (R_values, points)."""
    s = float(s)
    bound = float(w_bound(weight, s))
    if r_max > bound * (1.0 + 1e-12):
        raise OutOfWError(f"r_max={r_max} exceeds admissible bound {bound} at s={s}")
    rr = np.linspace(-r_max, r_max, samples)
    v = np.asarray(v, dtype=float)
    # The two half-fibres' normals (-v, then v), range-checked at r_max.
    halves = make_offsets(curve, weight, np.full(2, s), np.stack([-v, v]), np.full(2, float(r_max)))
    pts = exp_mu_batch(curve, weight, np.array([s]), halves[(rr >= 0).astype(int)], np.abs(rr))
    return rr, pts


def tube_boundary(pairs, R, s_samples=256):
    """Sample the boundary of the weighted tube of height R.

    Candidate points exp(s, v, R) over an (s, direction)-grid are kept when
    the ambient potential confirms boundary membership (G >= R^2 - band);
    the rest land in the overlap list, a diagnostic that fills up once R
    exceeds the almost-injectivity height. Feet whose admissible bound is
    below R contribute nothing. The directions come from the feet's normal
    frames; all (foot, direction) rows of a component are mapped in one
    array pass. Returns (boundary_rows, overlap_rows), rows being
    (component, s, point, G). Raises SceneError when one component's
    (foot, direction) rows would need more than GRID_BUDGET_BYTES.
    """
    pairs = as_pairs(pairs)
    if R <= 0:
        raise WeightedTubesError("tube height R must be positive")
    n = pairs[0][0].ambient_dim
    need = s_samples * (2 if n == 2 else _DIR_SAMPLES) * n * 8
    if need > GRID_BUDGET_BYTES:
        raise SceneError(
            f"tube with {s_samples} feet needs {need} bytes per row array in {n} "
            f"dimensions, above the {GRID_BUDGET_BYTES}-byte budget"
        )
    boundary = []
    overlap = []
    for ci, (curve, weight) in enumerate(pairs):
        sg = curve.grid(s_samples)
        bounds = w_bound(weight, sg)
        feet = sg[bounds * (1.0 - _W_MARGIN) > R]
        if not len(feet):
            continue
        dirs = _directions(normal_frames(curve, feet), n, _DIR_SAMPLES)
        s_rows = np.repeat(feet, dirs.shape[1])
        heights = np.full(len(s_rows), float(R))
        v = make_offsets(curve, weight, s_rows, dirs.reshape(-1, n), heights)
        pts = exp_mu_batch(curve, weight, s_rows, v, heights)
        vals, _, _ = g_potential(pairs, pts)
        inside = vals >= R * R - _TUBE_TOL_FACTOR * R * R
        for keep, s, p, g in zip(inside, s_rows.tolist(), pts, vals.tolist()):
            (boundary if keep else overlap).append((ci, s, p, g))
    return boundary, overlap


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
