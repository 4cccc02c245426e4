"""Weight-family sweeps: the injectivity radii are not upper semicontinuous.

Shifting a weight by a constant t and tracking the radii exposes the
discontinuity: on the quadratic-weight arc (example6 family) the
topological radius sits at 4 for every t <= 0 but drops below 2 the
moment t turns positive; on the stadium (example3 family) the radius
stays above 4.1 for every t < 0 and falls to 2 at t = 0, where a collapse
arc appears over the circle section. Each sweep is one batched pass over
its t grid (41 values on [-0.05, 0.05]), so dense grids cost little more
than a single report.

A second, dyadic grid t = +-2^-k (k = 4..20) resolves the two one-sided
limits of dir at t = 0. From the right, both families follow
dir = 2 / (1 + t + sqrt(t (1 + t))) = 2 - 2 sqrt(t) + t^1.5 + ..., so dir
is continuous there. From the left, dir stays at 4 (example6) or tends to
air(0) = 4.1403 (example3), twice the value dir(0) = 2. The rows of both
grids are written as CSV next to this script, and the dyadic rows also as
an SVG plot of dir against sign(t) (1 + log2|t| / 20), with dir(0) as a
dot.
"""

import os

import numpy as np

from weighted_tubes import load_scene, radii_sweep
from weighted_tubes.svg import render_svg

out_dir = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(out_dir, exist_ok=True)

dyadic = [2.0**-k for k in range(4, 21)]
grids = {
    "sweep": [k / 400 for k in range(-20, 21)],  # 41 values, t = 0 exactly
    "dyadic": [-t for t in dyadic] + [0.0] + dyadic[::-1],
}
for name in ("example6_family", "example3_family"):
    scene = load_scene(name)
    for grid_name, grid in grids.items():
        rows = radii_sweep(scene.pairs, grid, scene.tolerances)
        print(f"{name} ({grid_name}):")
        print("        t      dir      tir      air  arcs")
        for r in rows:
            print(f"  {r.t: .4g}  {r.dir:7.4f}  {r.tir:7.4f}  {r.air:7.4f}  {r.collapse_count}")
        path = os.path.join(out_dir, f"{name}_{grid_name}.csv")
        with open(path, "w", newline="") as fh:
            fh.write("t,dir,tir,air,collapse_count,status\n")
            for r in rows:
                fh.write(f"{r.t},{r.dir},{r.tir},{r.air},{r.collapse_count},{r.status}\n")
        print(f"  -> {path}\n")
    right = [r for r in rows if r.t > 0]
    for r in right[::4]:  # k = 20, 16, 12, 8, 4
        rate = (r.dir - (2.0 - 2.0 * np.sqrt(r.t))) / r.t**1.5
        print(f"  t = 2^{np.log2(r.t):.0f}: (dir - (2 - 2 sqrt t)) / t^1.5 = {rate:.4f}")
    branches = [
        np.array([(np.sign(r.t) * (1.0 + np.log2(abs(r.t)) / 20.0), r.dir) for r in side])
        for side in ([r for r in rows if r.t < 0], right)
    ]
    (zero,) = [r for r in rows if r.t == 0.0]
    path = os.path.join(out_dir, f"{name}_dyadic.svg")
    with open(path, "w", newline="") as fh:
        fh.write(render_svg(curves=branches, singular_points=np.array([[0.0, zero.dir]])))
    print(f"  -> {path}\n")

print("the radii jump at t = 0: the limit from one side is about twice the value at t = 0,")
print("so an arbitrarily small perturbation of the weight halves the usable tube height.")
