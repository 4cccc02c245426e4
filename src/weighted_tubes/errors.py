"""Exception types shared across the library, and the overflow guard."""

import contextlib

import numpy as np


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
    """`f_second_critical` was given a foot that is not critical for its point."""


class SceneError(WeightedTubesError):
    """Scene configuration is malformed or fails validation."""


class NumericError(WeightedTubesError):
    """A numeric routine failed to produce a usable result."""


@contextlib.contextmanager
def _overflow_raises(what):
    """Numpy overflow in the block raises NumericError; an outer guard's `what` wins."""
    outer = np.geterr()["over"] == "raise"
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        if outer:
            raise
        raise NumericError(f"{what} overflowed: {exc}") from exc
