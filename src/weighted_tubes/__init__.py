"""Nonuniform tubular thickness of curves in R^n.

A weight mu > 0 along a curve scales the balls of the tube O(K, mu R); the
generalized normal exponential map sends a normal vector (foot, height) to
the point whose squared weighted distance is critical at the foot. This
package computes the map, its fiber geometry and singular set, pointwise
and global focal radii, the double-critical self distance, and the three
injectivity radii (differentiable, topological, almost), together with
batch drivers for weight-family sweeps, fiber traces and tube boundaries,
and a scene-file CLI that exports CSV/JSON/SVG.
"""

from .config import DEFAULT_TOLERANCES, Tolerances
from .curves import (
    ArclengthCurve,
    ChebyshevCurve,
    CircleArcCurve,
    EllipseCurve,
    FourierCurve,
    SegmentCurve,
    build_arclength_curve,
    collapse_ode_residual,
    make_stadium,
)
from .errors import (
    NonpositiveWeightError,
    NonRegularCurveError,
    NotCriticalFootError,
    NumericError,
    OutOfDomainError,
    OutOfWError,
    QuadratureFailureError,
    SceneError,
    WeightedTubesError,
)
from .expmap import (
    PLANE,
    SPHERE,
    FiberShape,
    differential,
    exp_mu,
    f_prime,
    f_second,
    f_second_critical,
    f_value,
    fiber_geometry,
    g_potential,
    normal_frames,
    w_bound,
)
from .radii import (
    RadiiReport,
    dcsd_half,
    find_double_critical_pairs,
    focal_radii,
    radii_report,
)
from .scene import BUNDLED_SCENES, Scene, load_scene, parse_scene
from .singular import (
    CollapseArc,
    detect_collapse_arcs,
    is_singular,
    jacobian_determinant,
    singular_set,
    transversality_check,
)
from .sweeps import SweepRow, family_weights, fiber_trace, radii_sweep, tube_boundary
from .weights import (
    ChebyshevWeight,
    ConstantWeight,
    CosineWeight,
    FourierWeight,
    OffsetWeight,
    PolynomialWeight,
    SymmetricPiecewiseWeight,
    WeightFunction,
    build_weight,
)

__version__ = "0.1.0"
