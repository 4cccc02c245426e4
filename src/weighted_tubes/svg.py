"""Minimal deterministic SVG export for planar scenes.

Fixed layer order (curve, fibers, tube, singular), viewBox from the data
bounding box plus a 10% margin, fixed number formatting: identical inputs
produce identical bytes.
"""

import numpy as np

_STYLE = {
    "curve": 'fill="none" stroke="#1a1a1a" stroke-width="0.01"',
    "fibers": 'fill="none" stroke="#2a6fb0" stroke-width="0.006"',
    "tube": 'fill="#d95f02" stroke="none"',
    "singular": 'fill="#d02090" stroke="none"',
}


def _fmt(x):
    return format(float(x), ".6f")


def _polyline(points, style):
    coords = " ".join(f"{_fmt(p[0])},{_fmt(p[1])}" for p in points)
    return f'<polyline {style} points="{coords}"/>'


def _dots(points, style, r):
    out = []
    for p in points:
        out.append(f'<circle {style} cx="{_fmt(p[0])}" cy="{_fmt(p[1])}" r="{_fmt(r)}"/>')
    return out


def render_svg(curves=(), fibers=(), tube_points=(), singular_points=()):
    """Compose an SVG document from planar point collections.

    curves/fibers: iterables of (m, 2) polyline arrays; tube_points and
    singular_points: (m, 2) dot clouds.
    """
    tube_points = np.reshape(np.asarray(tube_points, dtype=float), (-1, 2))
    singular_points = np.reshape(np.asarray(singular_points, dtype=float), (-1, 2))
    clouds = [np.asarray(c, dtype=float) for c in curves]
    clouds += [np.asarray(f, dtype=float) for f in fibers]
    clouds += [dots for dots in (tube_points, singular_points) if len(dots)]
    if not clouds:
        raise ValueError("nothing to render")
    allpts = np.concatenate([c.reshape(-1, 2) for c in clouds], axis=0)
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    margin = 0.1 * span
    lo = lo - margin
    size = span + 2 * margin
    dot = 0.008 * float(max(size))
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(lo[0])} {_fmt(lo[1])} '
        f'{_fmt(size[0])} {_fmt(size[1])}">',
        # Flip the y-axis so math coordinates render upright.
        f'<g transform="translate(0,{_fmt(2 * lo[1] + size[1])}) scale(1,-1)">',
        '<g id="curve">',
    ]
    for c in curves:
        parts.append(_polyline(np.asarray(c), _STYLE["curve"]))
    parts.append('</g><g id="fibers">')
    for f in fibers:
        parts.append(_polyline(np.asarray(f), _STYLE["fibers"]))
    parts.append('</g><g id="tube">')
    parts.extend(_dots(tube_points, _STYLE["tube"], dot))
    parts.append('</g><g id="singular">')
    parts.extend(_dots(singular_points, _STYLE["singular"], 1.5 * dot))
    parts.append("</g></g></svg>")
    return "\n".join(parts) + "\n"
