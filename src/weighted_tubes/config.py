"""Named tolerances and sampling densities, with scene-overridable defaults."""

import math
from dataclasses import dataclass, fields, replace

from .errors import SceneError

# Largest N x N x ambient_dim float64 array the pair search may allocate.
GRID_BUDGET_BYTES = 1 << 30


@dataclass(frozen=True)
class Tolerances:
    """Every tunable knob in one place.

    *_factor entries scale with a length or a local magnitude as documented
    at the point of use; plain entries are absolute. Sample counts are the
    dense-grid resolutions of the various searches.
    """

    tol_hess_factor: float = 1e-8  # x (2/mu^2): second-order zero band
    delta_min_factor: float = 1e-3  # x L: excluded diagonal band in pair search
    delta_band_factor: float = 1e-12  # x max(1, kappa^2 mu^2): focal-sign band
    tol_dc: float = 1e-9  # normalized residual of the pair gradient
    tol_sng: float = 1e-9  # singular-set zero band for mu'' + kappa^2 mu / 4
    flat_factor: float = 1e-12  # x scale: flat-run (continuum) detection
    eps_kappa: float = 1e-7  # collapse-arc residuals (four conditions + image)
    eps_gamma: float = 1e-7
    eps_mu: float = 1e-9  # tight: an isolated touching zero must not pass as an arc
    eps_r: float = 1e-7
    eps_p: float = 1e-7
    ell_min_factor: float = 1e-3  # x L: minimal collapse-arc length
    eps_reg: float = 1e-6  # transversality |g'| threshold
    tube_tol_factor: float = 1e-8  # x R^2: tube-boundary membership band
    w_margin: float = 1e-9  # relative pull-back from the admissible boundary
    focal_samples: int = 4096
    closest_samples: int = 2048
    pair_grid: int = 256
    singular_samples: int = 4096
    newton_max_iter: int = 50

    def with_overrides(self, overrides):
        known = {f.name: f.type for f in fields(self)}
        clean = {}
        for key, value in overrides.items():
            if key not in known:
                raise SceneError(f"unknown tolerance {key!r}")
            current = getattr(self, key)
            try:
                value = type(current)(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise SceneError(f"bad value for tolerance {key!r}: {value!r}") from exc
            if not math.isfinite(value):
                raise SceneError(f"tolerance {key!r} must be finite, got {value!r}")
            if value <= 0:
                raise SceneError(f"tolerance {key!r} must be positive")
            clean[key] = value
        return replace(self, **clean)

    def require_grid_budget(self, ambient_dim):
        """Raise SceneError when the pair search's N x N x ambient_dim float64
        temporary would exceed GRID_BUDGET_BYTES; returns self."""
        need = self.pair_grid**2 * int(ambient_dim) * 8
        if need > GRID_BUDGET_BYTES:
            raise SceneError(
                f"pair_grid={self.pair_grid} needs {need} bytes per grid array in "
                f"{ambient_dim} dimensions, above the {GRID_BUDGET_BYTES}-byte budget"
            )
        return self


DEFAULT_TOLERANCES = Tolerances()
