"""Declarative scene files: curve components, weights, tolerances, families.

A scene is a JSON document:

    {
      "ambient_dim": 2,
      "components": [{"kind": "preset", "preset": "circle_arc",
                      "params": {"s_start": -1.0, "s_end": 1.0}}, ...],
      "weights":    [{"kind": "polynomial",
                      "params": {"coefficients": [1.0, 0.0, -0.125]}}, ...],
      "family":     {"kind": "offset"},          # optional
      "tolerances": {"grid_samples": 8192},      # optional: config.Tolerances
      "seed": 1
    }

Unknown keys anywhere are rejected, and so is a `preset` on a component
of another kind or a `tolerances` block that is not an object (null counts
as no block). A component's or weight's `params` bind by name to the
constructor its kind names in `curves.CURVE_KINDS` or
`weights.WEIGHT_KINDS`, so a parameter the kind does not take is a
SceneError too. Only the circle presets take the scene's `ambient_dim`;
a weight's `period` (fourier, stadium_blend) or `domain` (chebyshev)
defaults to its curve's. Components and weights are paired by
index. The loader returns a Scene holding constructed (curve, weight)
pairs, the validated sample counts, and the seed for randomized sampling.
"""

import contextlib
import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances, integer_at_least
from .curves import CURVE_KINDS, build_arclength_curve
from .errors import SceneError, WeightedTubesError
from .weights import WEIGHT_KINDS, build_weight

_TOP_KEYS = {"ambient_dim", "components", "weights", "family", "tolerances", "seed", "name"}
_COMPONENT_KEYS = {"kind", "preset", "params", "id"}
_WEIGHT_KEYS = {"kind", "params", "id"}
_FAMILY_KEYS = {"kind"}

_SERIES_KINDS = ("fourier", "chebyshev")  # component kinds of their own; the others are presets
_FAMILY_KINDS = {"offset"}

# The names of the package's scene files, sorted.
BUNDLED_SCENES = tuple(sorted(
    f.name.removesuffix(".json") for f in resources.files("weighted_tubes.scenes").iterdir() if f.name.endswith(".json")
))


@dataclass
class Scene:
    ambient_dim: int
    pairs: list  # [(ArclengthCurve, WeightFunction), ...]
    tolerances: Tolerances
    seed: int
    family_kind: str | None = None
    name: str | None = None


def _require_keys(obj, allowed, where):
    if not isinstance(obj, dict):
        raise SceneError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise SceneError(f"unknown keys in {where}: {sorted(unknown)}")


def parse_scene(doc):
    """Validate and build a Scene from a parsed JSON document."""
    _require_keys(doc, _TOP_KEYS, "scene")
    dim = integer_at_least(doc.get("ambient_dim"), 2, "ambient_dim")
    comps = doc.get("components")
    weights = doc.get("weights")
    if not isinstance(comps, list) or not comps:
        raise SceneError("scene needs a non-empty components list")
    if not isinstance(weights, list) or len(weights) != len(comps):
        raise SceneError("weights must match components one-to-one")
    overrides = doc.get("tolerances")
    if overrides is not None and not isinstance(overrides, dict):
        raise SceneError(f"tolerances must be an object, got {type(overrides).__name__}")
    toler = DEFAULT_TOLERANCES.with_overrides(overrides or {}, dim)
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SceneError(f"seed must be an integer, got {seed!r}")
    family = doc.get("family")
    family_kind = None
    if family is not None:
        _require_keys(family, _FAMILY_KEYS, "family")
        family_kind = _kind(family, "kind", _FAMILY_KINDS, "family")
    pairs = []
    for idx, (cdoc, wdoc) in enumerate(zip(comps, weights)):
        _require_keys(cdoc, _COMPONENT_KEYS, f"components[{idx}]")
        _require_keys(wdoc, _WEIGHT_KEYS, f"weights[{idx}]")
        curve = _build_component(cdoc, dim, idx)
        if curve.ambient_dim != dim:
            raise SceneError(f"components[{idx}] has dimension {curve.ambient_dim} != {dim}")
        pairs.append((curve, _build_scene_weight(wdoc, curve, idx)))
    with _guard("components"):
        _check_disjoint(pairs)
    return Scene(
        ambient_dim=dim,
        pairs=pairs,
        tolerances=toler,
        seed=seed,
        family_kind=family_kind,
        name=doc.get("name"),
    )


def _build_component(cdoc, dim, idx):
    where = f"components[{idx}]"
    kind = _kind(cdoc, "kind", ("preset",) + _SERIES_KINDS, where)
    if kind == "preset":
        kind = _kind(cdoc, "preset", CURVE_KINDS.keys() - set(_SERIES_KINDS), where)
    elif "preset" in cdoc:
        raise SceneError(f"{where}: a {kind} component takes no preset")
    params = _params(cdoc, where)
    if kind in ("unit_circle", "circle_arc"):
        params["ambient_dim"] = integer_at_least(params.get("ambient_dim", dim), 2, f"{where}: ambient_dim")
    with _guard(where):
        return build_arclength_curve(kind, **params)


def _build_scene_weight(wdoc, curve, idx):
    """The weight of component idx, validated on its curve."""
    where = f"weights[{idx}]"
    kind = _kind(wdoc, "kind", WEIGHT_KINDS, where)
    params = _params(wdoc, where)
    with _guard(where):
        return build_weight(kind, curve=curve, **params).validate_on(curve)


def _kind(doc, key, kinds, where):
    """doc[key] if it is one of the names `kinds`."""
    kind = doc.get(key)
    if not (isinstance(kind, str) and kind in kinds):
        raise SceneError(f"{where}: unknown {key} {kind!r}")
    return kind


def _params(doc, where):
    params = doc.get("params") or {}
    if not isinstance(params, dict):
        raise SceneError(f"{where}: params must be an object")
    return dict(params)


@contextlib.contextmanager
def _guard(where):
    """A library error, a parameter a kind does not take or needs, or a
    floating-point overflow, invalid value or division by zero in the block
    becomes a SceneError naming `where`."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except WeightedTubesError as exc:
        raise SceneError(f"{where}: {exc}") from exc
    except (KeyError, TypeError, ValueError, FloatingPointError) as exc:
        raise SceneError(f"{where}: bad parameters ({exc})") from exc


def _check_disjoint(pairs, samples=512):
    """Components must be pairwise disjoint (sampled minimum distance > 0).
    A lone component is sampled too: under the loader's floating-point guard
    its samples check that the curve can be evaluated at all."""
    clouds = [curve.point(curve.grid(samples)) for curve, _ in pairs]
    for i, a in enumerate(clouds):
        for j, b in enumerate(clouds[i + 1:], i + 1):
            # One coordinate at a time: no (samples, samples, n) temporary.
            d2 = sum((a[:, None, k] - b[None, :, k]) ** 2 for k in range(a.shape[1]))
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
