"""Where the weighted normal map degenerates.

The singular set inside the almost-injective range is a graph over the
curve: feet where mu'' + kappa^2 mu / 4 = 0 (with positive curvature),
lifted to the height ((mu')^2 - mu mu'')^{-1/2} along the principal
normal. Two extremes: the half-circle scene is singular along a whole
height-2 curve (a collapse arc), while the quadratic-weight arc of
example4 has exactly one degenerate point and no arc at all. The
transversality diagnostic separates the two situations.
"""

import numpy as np

from weighted_tubes import (
    detect_collapse_arcs,
    is_singular,
    jacobian_determinant,
    load_scene,
    radii_report,
    singular_set,
    transversality_check,
)

for name in ("example1a", "example4", "circle_mu1"):
    scene = load_scene(name)
    rep = radii_report(scene.pairs, scene.tolerances)
    # One row per point: component, s, R, residual, x1, x2.
    points = singular_set(scene.pairs, rep.ur, scene.tolerances)
    arcs = detect_collapse_arcs(scene.pairs, rep.ur, scene.tolerances)
    ok, witnesses = transversality_check(scene.pairs, scene.tolerances)
    print(f"{name}: {len(points)} singular point(s), {len(arcs)} collapse arc(s), "
          f"condition transversal: {ok}")
    if 0 < len(points) <= 3:
        for _, s, R, _, x1, x2 in points:
            print(f"  s = {s: .6f}, height {R:.6f}, image ({x1:.4f}, {x2:.4f})")
    elif len(points):
        heights = np.unique(np.round(points[:, 2], 9))
        print(f"  a continuum: {len(points)} sampled feet, heights {heights.tolist()}")
    print()

print("cross-checking the two singularity tests on the half circle:")
scene = load_scene("example1a")
curve, weight = scene.pairs[0]
for s, R in ((0.3, 1.0), (0.3, 2.0), (0.3, 2.5)):
    v = -curve.point(s)
    flag, hess = is_singular(curve, weight, s, v, R)
    det = jacobian_determinant(curve, weight, s, v, R)
    print(f"  s={s}, R={R}: second-derivative {hess: .3e} -> singular={flag}; "
          f"closed-form det {det: .3e}")
print("both tests flag exactly the height-2 offsets.")
