"""Exception types shared across the library."""


class WeightedTubesError(Exception):
    """Base class for all library errors."""


class NonRegularCurveError(WeightedTubesError):
    """The raw parametrization has vanishing speed somewhere."""


class QuadratureFailureError(WeightedTubesError):
    """Adaptive arclength quadrature did not converge within budget."""


class OutOfDomainError(WeightedTubesError):
    """Arclength parameter outside the component's domain."""


class NonpositiveWeightError(WeightedTubesError):
    """Weight function is not strictly positive on the domain."""


class OutOfWError(WeightedTubesError):
    """Normal offset leaves the admissible set (R > 1/|mu'| at the foot)."""


class NotCriticalFootError(WeightedTubesError):
    """Closed-form second derivative requested at a non-critical foot."""


class SceneError(WeightedTubesError):
    """Scene configuration is malformed or fails validation."""


class NumericError(WeightedTubesError):
    """A numeric routine failed to produce a usable result."""
