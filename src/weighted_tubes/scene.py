"""Declarative scene files: curve components, weights, tolerances, families.

A scene is a JSON document:

    {
      "ambient_dim": 2,
      "components": [{"kind": "preset", "preset": "circle_arc",
                      "params": {"s_start": -1.0, "s_end": 1.0}}, ...],
      "weights":    [{"kind": "polynomial",
                      "params": {"coefficients": [1.0, 0.0, -0.125]}}, ...],
      "family":     {"kind": "offset"},          # optional
      "tolerances": {"focal_samples": 8192},     # optional overrides
      "seed": 1
    }

Unknown keys anywhere are rejected. Components and weights are paired by
index. The loader returns a Scene holding constructed (curve, weight)
pairs, validated tolerances, and the seed for randomized sampling.
"""

import json
from dataclasses import dataclass, field
from importlib import resources

from .config import DEFAULT_TOLERANCES, Tolerances
from .curves import build_arclength_curve
from .errors import SceneError, WeightedTubesError
from .weights import build_weight

_TOP_KEYS = {"ambient_dim", "components", "weights", "family", "tolerances", "seed", "name"}
_COMPONENT_KEYS = {"kind", "preset", "params", "id"}
_WEIGHT_KEYS = {"kind", "params", "id"}
_FAMILY_KEYS = {"kind"}

_PRESETS = {"unit_circle", "circle_arc", "ellipse", "stadium", "segment"}
_CURVE_KINDS = {"preset", "fourier", "chebyshev"}
_WEIGHT_KINDS = {"constant", "polynomial", "cosine", "fourier", "chebyshev", "stadium_blend"}
_FAMILY_KINDS = {"offset", "fixed"}

BUNDLED_SCENES = (
    "circle_mu1",
    "ellipse_mu1",
    "example1a",
    "example1b",
    "example2_stadium",
    "example3_family",
    "example4",
    "example6_family",
)


@dataclass
class Scene:
    ambient_dim: int
    pairs: list  # [(ArclengthCurve, WeightFunction), ...]
    tolerances: Tolerances
    seed: int
    family_kind: str | None = None
    name: str | None = None
    raw: dict = field(default_factory=dict)


def _require_keys(obj, allowed, where):
    if not isinstance(obj, dict):
        raise SceneError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise SceneError(f"unknown keys in {where}: {sorted(unknown)}")


def parse_scene(doc):
    """Validate and build a Scene from a parsed JSON document."""
    _require_keys(doc, _TOP_KEYS, "scene")
    try:
        dim = int(doc["ambient_dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SceneError("scene needs an integer ambient_dim") from exc
    if dim < 2:
        raise SceneError("ambient_dim must be >= 2")
    comps = doc.get("components")
    weights = doc.get("weights")
    if not isinstance(comps, list) or not comps:
        raise SceneError("scene needs a non-empty components list")
    if not isinstance(weights, list) or len(weights) != len(comps):
        raise SceneError("weights must match components one-to-one")
    toler = DEFAULT_TOLERANCES.with_overrides(doc.get("tolerances", {}) or {})
    toler.require_grid_budget(dim)
    seed = doc.get("seed", 0)
    if not isinstance(seed, int):
        raise SceneError("seed must be an integer")
    family = doc.get("family")
    family_kind = None
    if family is not None:
        _require_keys(family, _FAMILY_KEYS, "family")
        family_kind = family.get("kind")
        if family_kind not in _FAMILY_KINDS:
            raise SceneError(f"unknown family kind {family_kind!r}")
    pairs = []
    for idx, (cdoc, wdoc) in enumerate(zip(comps, weights)):
        _require_keys(cdoc, _COMPONENT_KEYS, f"components[{idx}]")
        _require_keys(wdoc, _WEIGHT_KEYS, f"weights[{idx}]")
        curve = _build_component(cdoc, dim, idx)
        if curve.ambient_dim != dim:
            raise SceneError(f"components[{idx}] has dimension {curve.ambient_dim} != {dim}")
        weight = _build_scene_weight(wdoc, curve, idx)
        try:
            weight.validate_on(curve)
        except WeightedTubesError as exc:
            raise SceneError(f"weights[{idx}]: {exc}") from exc
        pairs.append((curve, weight))
    _check_disjoint(pairs)
    return Scene(
        ambient_dim=dim,
        pairs=pairs,
        tolerances=toler,
        seed=seed,
        family_kind=family_kind,
        name=doc.get("name"),
        raw=doc,
    )


def _build_component(cdoc, dim, idx):
    kind = cdoc.get("kind")
    params = dict(cdoc.get("params", {}) or {})
    try:
        if kind == "preset":
            preset = cdoc.get("preset")
            if preset not in _PRESETS:
                raise SceneError(f"components[{idx}]: unknown preset {preset!r}")
            params.setdefault("ambient_dim", dim)
            if preset in ("ellipse", "stadium", "segment"):
                params.pop("ambient_dim", None)
            return build_arclength_curve(preset, **params)
        if kind in ("fourier", "chebyshev"):
            return build_arclength_curve(kind, **params)
    except SceneError:
        raise
    except WeightedTubesError as exc:
        raise SceneError(f"components[{idx}]: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise SceneError(f"components[{idx}]: bad parameters ({exc})") from exc
    raise SceneError(f"components[{idx}]: unknown kind {kind!r}")


def _build_scene_weight(wdoc, curve, idx):
    kind = wdoc.get("kind")
    if kind not in _WEIGHT_KINDS:
        raise SceneError(f"weights[{idx}]: unknown kind {kind!r}")
    params = dict(wdoc.get("params", {}) or {})
    try:
        return build_weight(kind, curve=curve, **params)
    except WeightedTubesError as exc:
        raise SceneError(f"weights[{idx}]: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise SceneError(f"weights[{idx}]: bad parameters ({exc})") from exc


def _check_disjoint(pairs, samples=512):
    """Components must be pairwise disjoint (sampled minimum distance > 0)."""
    import numpy as np

    clouds = [curve.point(curve.grid(samples)) for curve, _ in pairs]
    for i in range(len(clouds)):
        for j in range(i + 1, len(clouds)):
            d2 = ((clouds[i][:, None, :] - clouds[j][None, :, :]) ** 2).sum(axis=2)
            if float(np.min(d2)) <= 1e-20:
                raise SceneError(f"components {i} and {j} are not disjoint")


def load_scene(source):
    """Load a scene from a path, a bundled scene name, or a dict."""
    if isinstance(source, dict):
        return parse_scene(source)
    text = None
    name = str(source)
    if name in BUNDLED_SCENES:
        text = resources.files("weighted_tubes.scenes").joinpath(f"{name}.json").read_text()
    else:
        try:
            with open(name, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SceneError(f"cannot read scene {name!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneError(f"scene {name!r} is not valid JSON: {exc}") from exc
    return parse_scene(doc)
