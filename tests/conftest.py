import os
from pathlib import Path

import numpy as np
import pytest

from weighted_tubes import BUNDLED_SCENES, load_scene

# pyproject.toml puts src on the import path of the tests; the subprocesses
# that run `python -m weighted_tubes` or the demos get it through PYTHONPATH,
# so the suite runs from a plain checkout without installing the package.
SRC = Path(__file__).resolve().parents[1] / "src"
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def scenes():
    """All bundled scenes, loaded once."""
    return {name: load_scene(name) for name in BUNDLED_SCENES}


def adaptive_simpson(f, a, b, tol=1e-12, depth=48):
    """Independent quadrature oracle for the length tests."""

    def rec(x0, x2, f0, f1, f2, whole, eps, d):
        xm = 0.5 * (x0 + x2)
        xl, xr = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        fl, fr = f(xl), f(xr)
        left = (xm - x0) / 6 * (f0 + 4 * fl + f1)
        right = (x2 - xm) / 6 * (f1 + 4 * fr + f2)
        if d <= 0 or abs(left + right - whole) <= 15 * eps:
            return left + right + (left + right - whole) / 15
        return rec(x0, xm, f0, fl, f1, left, eps / 2, d - 1) + rec(
            xm, x2, f1, fr, f2, right, eps / 2, d - 1
        )

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6 * (fa + 4 * fm + fb)
    return rec(a, b, fa, fm, fb, whole, tol, depth)


def circle_circle_intersections(c1, r1, c2, r2):
    """Both intersection points of two planar circles (oracle)."""
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    d = np.linalg.norm(c2 - c1)
    a = (d * d + r1 * r1 - r2 * r2) / (2 * d)
    h_sq = r1 * r1 - a * a
    assert h_sq >= -1e-12
    h = np.sqrt(max(h_sq, 0.0))
    mid = c1 + a * (c2 - c1) / d
    perp = np.array([-(c2 - c1)[1], (c2 - c1)[0]]) / d
    return mid + h * perp, mid - h * perp
