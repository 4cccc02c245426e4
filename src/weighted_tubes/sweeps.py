"""Batch drivers: weight-family sweeps, fiber traces, tube-boundary sampling."""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import OutOfWError, WeightedTubesError
from .expmap import exp_mu, exp_mu_batch, g_potential, make_offsets, normal_frame, w_bound
from .radii import radii_report
from .util import as_pairs
from .weights import OffsetWeight


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
    pos = exp_mu(curve, weight, s, v, np.abs(rr[rr >= 0]))
    neg = exp_mu(curve, weight, s, -np.asarray(v, dtype=float), np.abs(rr[rr < 0]))
    pts = np.concatenate([neg, pos], axis=0)
    return rr, pts


def tube_boundary(pairs, R, s_samples=256, dir_samples=16, tol=DEFAULT_TOLERANCES):
    """Sample the boundary of the weighted tube of height R.

    Candidate points exp(s, v, R) over an (s, direction)-grid are kept when
    the ambient potential confirms boundary membership (G >= R^2 - band);
    the rest land in the overlap list, a diagnostic that fills up once R
    exceeds the almost-injectivity height. Feet whose admissible bound is
    below R contribute nothing. The directions come from each foot's normal
    frame; all (foot, direction) rows of a component are then mapped in one
    array pass. Returns (boundary_rows, overlap_rows), rows being
    (component, s, point, G).
    """
    pairs = as_pairs(pairs)
    if R <= 0:
        raise WeightedTubesError("tube height R must be positive")
    band = tol.tube_tol_factor * R * R
    boundary = []
    overlap = []
    for ci, (curve, weight) in enumerate(pairs):
        sg = curve.grid(s_samples)
        bounds = w_bound(weight, sg)
        feet = sg[bounds * (1.0 - tol.w_margin) > R]
        if not len(feet):
            continue
        dirs = [
            _directions(normal_frame(curve, float(s)), curve.ambient_dim, dir_samples)
            for s in feet
        ]
        s_rows = np.repeat(feet, len(dirs[0]))
        heights = np.full(len(s_rows), float(R))
        v = make_offsets(curve, weight, s_rows, np.concatenate(dirs), heights)
        pts = exp_mu_batch(curve, weight, s_rows, v, heights)
        vals, _, _ = g_potential(pairs, pts, samples=tol.closest_samples)
        for k in range(len(pts)):
            row = (ci, float(s_rows[k]), pts[k], float(vals[k]))
            if vals[k] >= R * R - band:
                boundary.append(row)
            else:
                overlap.append(row)
    return boundary, overlap


def _directions(frame, ambient_dim, dir_samples):
    """Deterministic unit directions spanning the normal space."""
    if ambient_dim == 2:
        e = frame[0]
        return [e, -e]
    if ambient_dim == 3:
        angles = 2.0 * np.pi * np.arange(dir_samples) / dir_samples
        return [np.cos(a) * frame[0] + np.sin(a) * frame[1] for a in angles]
    rng = np.random.default_rng(1234)
    raw = rng.standard_normal((dir_samples, frame.shape[0]))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return list(raw @ frame)
