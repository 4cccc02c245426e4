"""The weighted exponential map and horizontal collapse on a half circle.

The scene: the right half of the unit circle carrying the weight
mu(s) = cos(s/2). Every fiber of the weighted normal map is a circle
tangent to the x-axis at (-1, 0), and the entire constant-height curve at
height 2 collapses to that single point, while the map stays injective
both below and above height 2. This script walks through the map values,
the fiber shapes, and the collapse identity.
"""

import numpy as np

from weighted_tubes import exp_mu, f_prime, f_second, fiber_geometry, load_scene

scene = load_scene("example1a")
curve, weight = scene.pairs[0]

print("half circle, weight cos(s/2)")
print(f"  domain [{curve.s_min:.4f}, {curve.s_max:.4f}], length {curve.length:.6f}")

print("\nfibers are circles tangent to the x-axis at (-1, 0):")
for s in (np.pi / 6, np.pi / 3, 1.2):
    fib = fiber_geometry(curve, weight, s)
    print(
        f"  s = {s: .4f}: {fib.kind.lower()} center ({fib.center[0]: .4f}, {fib.center[1]: .4f})"
        f" radius {fib.radius:.4f}"
    )
fib0 = fiber_geometry(curve, weight, 0.0)
print(f"  s =  0.0000: {fib0.kind.lower()} (the x-axis itself; the slope vanishes there)")

print("\nthe height-2 curve over every foot lands on the same point:")
for s in (-1.3, -0.5, 0.0, 0.8, 1.5):
    p = exp_mu(curve, weight, s, -curve.point(s), 2.0)
    print(f"  s = {s: .2f} -> ({p[0]: .12f}, {p[1]: .12f})")

print("\nsecond-order class of the foot as the height grows (s = 0):")
band = 1e-8 * 2.0 / float(weight.mu(0.0)) ** 2  # zero band of F' and F''
for R in (0.5, 1.0, 1.9, 2.0, 2.1, 3.0):
    p = exp_mu(curve, weight, 0.0, np.array([-1.0, 0.0]), R)
    hess = float(f_second(curve, weight, 0.0, p))
    if abs(float(f_prime(curve, weight, 0.0, p))) > band:
        cls = "NOT_CRITICAL"
    elif abs(hess) <= band:
        cls = "CP_ZERO"
    else:
        cls = "CP_PLUS" if hess > 0 else "CP_MINUS"
    print(f"  R = {R:.1f}: {cls}")
print("\nonly R = 2 degenerates; the map is injective again past it.")
