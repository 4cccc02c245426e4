"""The sample counts of the dense searches, with scene-overridable defaults."""

from dataclasses import dataclass, fields, replace

from .errors import SceneError

# Largest float64 grid array one sample count may make a search allocate.
GRID_BUDGET_BYTES = 1 << 30


@dataclass(frozen=True)
class Tolerances:
    """The dense-grid resolutions: `focal_samples` feet of the focal
    profiles, a `pair_grid` x `pair_grid` grid of pair-search seeds and
    `singular_samples` feet of the zero set of g and the collapse arcs. The
    residual bands and caps are constants of `radii`, `singular`, `sweeps`.
    """

    focal_samples: int = 4096
    pair_grid: int = 256
    singular_samples: int = 4096

    def with_overrides(self, overrides, ambient_dim):
        """A copy with the given counts; SceneError unless each names a field
        and is an integer >= 3 (the three-point neighbourhoods of the grid
        searches need three samples; a bool is no count) and every count's
        grid array (n x ambient_dim float64, N x N x ambient_dim for
        pair_grid) fits GRID_BUDGET_BYTES."""
        known = [f.name for f in fields(self)]
        clean = {}
        for key, value in overrides.items():
            if key not in known:
                raise SceneError(f"unknown tolerance {key!r}; known: {', '.join(known)}")
            try:
                count = int(value) if isinstance(value, str) else value
            except ValueError:
                count = None
            if isinstance(count, float) and count.is_integer():
                count = int(count)
            if isinstance(count, bool) or not isinstance(count, int):
                raise SceneError(f"tolerance {key!r} must be an integer, got {value!r}")
            if count < 3:
                raise SceneError(f"tolerance {key!r} must be >= 3, got {count}")
            clean[key] = count
        counts = replace(self, **clean)
        for key in known:
            n = getattr(counts, key)
            need = (n * n if key == "pair_grid" else n) * int(ambient_dim) * 8
            if need > GRID_BUDGET_BYTES:
                raise SceneError(
                    f"{key}={n} needs {need} bytes per grid array in {ambient_dim} "
                    f"dimensions, above the {GRID_BUDGET_BYTES}-byte budget"
                )
        return counts


DEFAULT_TOLERANCES = Tolerances()
