"""The sample counts of the dense searches, with scene-overridable defaults."""

from dataclasses import dataclass, fields, replace

from .errors import SceneError

# Largest float64 array one sample count or flag may make the program allocate.
GRID_BUDGET_BYTES = 1 << 30


def check_budget(what, floats):
    """SceneError naming `what` unless a float64 array of `floats` values
    fits GRID_BUDGET_BYTES."""
    need = int(floats) * 8
    if need > GRID_BUDGET_BYTES:
        raise SceneError(f"{what} needs {need} bytes per array, above the {GRID_BUDGET_BYTES}-byte budget")


def integer_at_least(value, least, what):
    """value as an int >= least, else a SceneError naming `what`. An int, an
    integral float or a decimal string is an integer; a bool is not."""
    try:
        count = int(value) if isinstance(value, str) else value
    except ValueError:
        count = None
    if isinstance(count, float) and count.is_integer():
        count = int(count)
    if isinstance(count, bool) or not isinstance(count, int):
        raise SceneError(f"{what} must be an integer, got {value!r}")
    if count < least:
        raise SceneError(f"{what} must be >= {least}, got {count}")
    return count


@dataclass(frozen=True)
class Tolerances:
    """The dense-grid resolutions: `grid_samples` feet of each component's
    one dense grid (`singular.dense_grid`) and a `pair_grid` x `pair_grid`
    grid of pair-search seeds. The residual bands and caps are constants of
    `radii`, `singular`, `sweeps`."""

    grid_samples: int = 4096
    pair_grid: int = 256

    def with_overrides(self, overrides, ambient_dim):
        """A copy with the given counts; SceneError unless each names a field
        and is an integer >= 3 (`integer_at_least`; the three-point
        neighbourhoods of the grid searches need three samples) and every
        count's grid array (n x ambient_dim float64, N x N x ambient_dim for
        pair_grid) fits the budget (`check_budget`)."""
        known = [f.name for f in fields(self)]
        clean = {}
        for key, value in overrides.items():
            if key not in known:
                raise SceneError(f"unknown tolerance {key!r}; known: {', '.join(known)}")
            clean[key] = integer_at_least(value, 3, f"tolerance {key!r}")
        counts = replace(self, **clean)
        for key in known:
            n = getattr(counts, key)
            check_budget(f"{key}={n}", (n * n if key == "pair_grid" else n) * int(ambient_dim))
        return counts


DEFAULT_TOLERANCES = Tolerances()
