"""Tube boundaries, overlap diagnostics, and an SVG picture.

The weighted tube of height R is the union of balls of radius R mu(q)
over feet q. Points sampled from the normal map at height R lie on the
tube boundary exactly while R stays below the almost-injectivity radius;
past it, some samples fall strictly inside the union and land in the
overlap list. The script samples the stadium scene on both sides of that
threshold and renders the below-threshold boundary as SVG.
"""

import os

import numpy as np

from weighted_tubes import load_scene, radii_report, tube_boundary
from weighted_tubes.svg import render_svg

out_dir = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(out_dir, exist_ok=True)

scene = load_scene("example2_stadium")
rep = radii_report(scene.pairs, scene.tolerances)
print(f"stadium: air = {rep.air:.4f}")

for R in (2.0, 4.0, 4.5):
    boundary, overlap = tube_boundary(scene.pairs, R, s_samples=128)
    marker = "<= air" if R < rep.air else "> air"
    print(f"  height {R} ({marker}): {len(boundary)} boundary samples, {len(overlap)} overlap")

boundary, _ = tube_boundary(scene.pairs, 2.0, s_samples=192)
curve = scene.pairs[0][0]
sg = curve.grid(512)
outline = curve.point(sg)
outline = np.vstack([outline, outline[:1]])
# Rows are (component, s, G, x1, x2).
svg = render_svg(curves=[outline], tube_points=boundary[:, 3:])
path = os.path.join(out_dir, "stadium_tube.svg")
with open(path, "w", newline="") as fh:
    fh.write(svg)
print(f"\nboundary picture -> {path}")
