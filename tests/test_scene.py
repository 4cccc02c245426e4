import copy
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weighted_tubes import BUNDLED_SCENES, Scene, SceneError, load_scene, parse_scene
from weighted_tubes.config import DEFAULT_TOLERANCES


# The two counts grid_samples replaced. A scene that names either is refused
# by name before any range or budget check reads the value.
RETIRED_COUNTS = ("focal_samples", "singular_samples")
# The thresholds and caps that are module constants of radii, singular and
# sweeps, not settable tolerances, and the retired counts.
REMOVED_TOLERANCES = (
    "tol_hess_factor", "delta_min_factor", "delta_band_factor", "tol_dc", "tol_sng",
    "flat_factor", "eps_kappa", "eps_gamma", "eps_mu", "eps_r", "eps_p", "ell_min_factor",
    "eps_reg", "tube_tol_factor", "w_margin", "closest_samples", "newton_max_iter",
    *RETIRED_COUNTS,
)
KNOWN = "known: grid_samples, pair_grid"


def count_error(key, message):
    """The error a count under `key` raises: `message`, or, for a retired
    count, unknown tolerance whatever the value."""
    return f"^unknown tolerance '{key}'; {KNOWN}$" if key in RETIRED_COUNTS else message


def minimal_doc():
    return {
        "ambient_dim": 2,
        "components": [
            {"kind": "preset", "preset": "circle_arc", "params": {"s_start": -1.0, "s_end": 1.0}}
        ],
        "weights": [{"kind": "constant", "params": {"value": 1.0}}],
        "seed": 0,
    }


class TestParsing:
    def test_minimal(self):
        scene = parse_scene(minimal_doc())
        assert scene.ambient_dim == 2
        assert len(scene.pairs) == 1
        curve, weight = scene.pairs[0]
        assert curve.length == pytest.approx(2.0)
        assert weight.mu(0.0) == 1.0

    def test_all_bundled_scenes_load(self):
        for name in BUNDLED_SCENES:
            scene = load_scene(name)
            assert scene.pairs
            assert scene.name == name

    def test_round_trip(self, tmp_path):
        doc = minimal_doc()
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc))
        a = load_scene(str(path))
        b = parse_scene(doc)
        assert a.ambient_dim == b.ambient_dim
        assert a.seed == b.seed
        sa = a.pairs[0][0]
        sb = b.pairs[0][0]
        grid = sa.grid(17)
        assert np.allclose(sa.point(grid), sb.point(grid))

    def test_family_kind(self):
        doc = minimal_doc()
        doc["family"] = {"kind": "offset"}
        assert parse_scene(doc).family_kind == "offset"


def preset(name, **params):
    return {"kind": "preset", "preset": name, "params": params}


def entry(kind, **params):
    """A component or weight entry of kind `kind`."""
    return {"kind": kind, "params": params}


ARC = preset("circle_arc", s_start=-1.0, s_end=1.0)
STADIUM = preset("stadium")
UNIT_WEIGHT = entry("constant", value=1.0)
FOURIER = entry("fourier", coefficients=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
CHEBYSHEV = entry("chebyshev", coefficients=[[0.0, 1.0], [0.0, 0.0, 0.5]], raw_domain=[-1.0, 1.0])


class TestValidation:
    def test_unknown_top_key(self):
        doc = minimal_doc()
        doc["extra"] = 1
        with pytest.raises(SceneError, match="unknown keys"):
            parse_scene(doc)

    def test_unknown_component_key(self):
        doc = minimal_doc()
        doc["components"][0]["wat"] = True
        with pytest.raises(SceneError, match="unknown keys"):
            parse_scene(doc)

    def test_unknown_tolerance(self):
        doc = minimal_doc()
        doc["tolerances"] = {"no_such_tol": 1.0}
        with pytest.raises(SceneError, match=f"^unknown tolerance 'no_such_tol'; {KNOWN}$"):
            parse_scene(doc)

    @pytest.mark.parametrize("key", REMOVED_TOLERANCES)
    def test_removed_tolerance_name(self, key):
        doc = minimal_doc()
        doc["tolerances"] = {key: 1e-9}
        with pytest.raises(SceneError, match=f"^unknown tolerance '{key}'; {KNOWN}$"):
            parse_scene(doc)

    def test_nonpositive_tolerance(self):
        doc = minimal_doc()
        doc["tolerances"] = {"pair_grid": -1}
        with pytest.raises(SceneError, match=r"'pair_grid' must be >= 3, got -1"):
            parse_scene(doc)

    @pytest.mark.parametrize("key, value", [
        ("grid_samples", float("nan")),
        ("pair_grid", float("inf")),
        ("grid_samples", float("inf")),
    ])
    def test_non_finite_tolerance(self, key, value):
        doc = minimal_doc()
        doc["tolerances"] = {key: value}
        with pytest.raises(SceneError, match=f"'{key}' must be an integer"):
            parse_scene(doc)

    @pytest.mark.parametrize("key, value", [
        ("grid_samples", True),
        ("pair_grid", False),
        ("grid_samples", 8192.7),
        ("grid_samples", "many"),
        ("pair_grid", None),
        ("grid_samples", [4096]),
    ], ids=["true", "false", "fraction", "word", "null", "list"])
    def test_sample_count_not_an_integer(self, key, value):
        # true used to run as 1 and 8192.7 as 8192, both with exit 0.
        doc = minimal_doc()
        doc["tolerances"] = {key: value}
        with pytest.raises(SceneError, match=f"^tolerance '{key}' must be an integer"):
            parse_scene(doc)

    @pytest.mark.parametrize("key", ["grid_samples", "pair_grid", *RETIRED_COUNTS])
    @pytest.mark.parametrize("value", [0, 1, 2])
    def test_sample_count_below_three(self, key, value):
        # The three-point neighbourhoods of the grid searches wrap onto
        # themselves below 3 samples.
        doc = minimal_doc()
        doc["tolerances"] = {key: value}
        message = count_error(key, f"^tolerance '{key}' must be >= 3, got {value}$")
        with pytest.raises(SceneError, match=message):
            parse_scene(doc)

    def test_integral_counts(self):
        doc = minimal_doc()
        doc["tolerances"] = {"grid_samples": 512.0, "pair_grid": "3"}
        tol = parse_scene(doc).tolerances
        assert (tol.grid_samples, tol.pair_grid) == (512, 3)
        assert type(tol.grid_samples) is int and type(tol.pair_grid) is int

    @pytest.mark.parametrize("value, kind", [
        ([1], "list"), ([], "list"), ("abc", "str"), ("", "str"), (0, "int"), (8192.0, "float"),
        (True, "bool"),
    ])
    def test_tolerances_not_an_object(self, value, kind):
        # [1] and "abc" used to crash with AttributeError (exit 1); [], 0 and
        # "" ran with the defaults without a word.
        doc = minimal_doc()
        doc["tolerances"] = value
        with pytest.raises(SceneError, match=f"^tolerances must be an object, got {kind}$"):
            parse_scene(doc)

    def test_null_tolerances_are_the_defaults(self):
        # As for family and params, null stands for a block left out.
        doc = minimal_doc()
        doc["tolerances"] = None
        assert parse_scene(doc).tolerances == DEFAULT_TOLERANCES

    @pytest.mark.parametrize("dim, largest", [(2, 8192), (3, 6688)])
    def test_pair_grid_memory_budget(self, dim, largest):
        # One N x N x ambient_dim float64 array may take at most 1 GiB.
        doc = minimal_doc()
        doc["ambient_dim"] = dim
        doc["components"][0]["params"]["ambient_dim"] = dim
        doc["tolerances"] = {"pair_grid": largest}
        assert parse_scene(doc).tolerances.pair_grid == largest
        doc["tolerances"] = {"pair_grid": largest + 1}
        with pytest.raises(SceneError, match="budget"):
            parse_scene(doc)

    @pytest.mark.parametrize("key", ["grid_samples", *RETIRED_COUNTS])
    @pytest.mark.parametrize("dim, largest", [(2, 67108864), (3, 44739242)])
    def test_sample_count_memory_budget(self, key, dim, largest):
        # One n x ambient_dim float64 array may take at most 1 GiB; the check
        # runs before any grid is built.
        doc = minimal_doc()
        doc["ambient_dim"] = dim
        doc["components"][0]["params"]["ambient_dim"] = dim
        doc["tolerances"] = {key: largest + 1}
        with pytest.raises(SceneError, match=count_error(key, f"^{key}={largest + 1} needs .* budget$")):
            parse_scene(doc)
        doc["tolerances"] = {key: largest}
        if key in RETIRED_COUNTS:
            with pytest.raises(SceneError, match=f"^unknown tolerance '{key}'; {KNOWN}$"):
                parse_scene(doc)
        else:
            assert parse_scene(doc).tolerances.grid_samples == largest

    def test_mismatched_weights(self):
        doc = minimal_doc()
        doc["weights"] = []
        with pytest.raises(SceneError, match="one-to-one"):
            parse_scene(doc)

    def test_dimension_consistency(self):
        doc = minimal_doc()
        doc["ambient_dim"] = 3
        doc["components"][0] = {
            "kind": "preset",
            "preset": "ellipse",
            "params": {"a": 2.0, "b": 1.0},
        }
        with pytest.raises(SceneError, match="dimension"):
            parse_scene(doc)

    def test_nonpositive_weight_rejected(self):
        doc = minimal_doc()
        doc["weights"][0] = {"kind": "polynomial", "params": {"coefficients": [0.1, 0.0, -1.0]}}
        with pytest.raises(SceneError, match="positive"):
            parse_scene(doc)

    @pytest.mark.parametrize("coefficients", [1.0, [[1.0, 0.1, 0.0]]], ids=["scalar", "nested"])
    def test_fourier_weight_needs_a_flat_list(self, coefficients):
        # A scalar escaped as an IndexError from the first jet (exit 1).
        doc = minimal_doc()
        doc["weights"][0] = {"kind": "fourier", "params": {"coefficients": coefficients}}
        with pytest.raises(SceneError, match=r"Fourier weight needs \[a0, a1, b1, ...\]"):
            parse_scene(doc)

    @pytest.mark.parametrize("where, item, message", [
        ("components", {"kind": "fourier", "params": {"coefficients": [[0, 1, 0], [0, 0, 1]], "period": 0}},
         r"Fourier period must be finite and nonzero with \(k w\)\^3 finite at the top mode k = 1, got 0.0\)"),
        ("weights", {"kind": "fourier", "params": {"coefficients": [1.0, 0.1, 0.0], "period": 0}},
         r"Fourier period must be finite and nonzero with \(k w\)\^3 finite at the top mode k = 1, got 0.0\)"),
        ("weights", {"kind": "fourier", "params": {"coefficients": [1.0, 0.1, 0.0], "period": 1e-300}},
         r"Fourier period must be finite and nonzero with \(k w\)\^3 finite at the top mode k = 1, got 1e-300\)"),
        ("components", {"kind": "chebyshev", "params": {"coefficients": [[0, 1], [0, 0, 0.5]], "raw_domain": []}},
         r"raw_domain needs two finite, distinct numbers, got \[\]"),
        ("components", {"kind": "chebyshev", "params": {"coefficients": [[0, 1], [0, 0, 0.5]], "raw_domain": [1.0]}},
         r"raw_domain needs two finite, distinct numbers, got \[1.0\]"),
        ("components", {"kind": "chebyshev",
                        "params": {"coefficients": [[0, 1], [0, 0, 0.5]], "raw_domain": [-1, 1, 5]}},
         r"raw_domain needs two finite, distinct numbers, got \[-1, 1, 5\]"),
        ("weights", {"kind": "chebyshev", "params": {"coefficients": [1.0, 0.1], "domain": [0.0, float("inf")]}},
         r"domain needs two finite, distinct numbers, got \[0.0, inf\]"),
    ], ids=["fourier_curve_period_0", "fourier_weight_period_0", "fourier_weight_period_1e-300",
            "chebyshev_raw_domain_empty", "chebyshev_raw_domain_one", "chebyshev_raw_domain_three",
            "chebyshev_weight_domain_inf"])
    def test_series_parameters(self, where, item, message):
        # The first five escaped the loader as ZeroDivisionError, OverflowError
        # (from w**order at order 2, after mu alone had passed) and IndexError
        # tracebacks, exit 1; a third raw_domain entry was ignored.
        doc = {"ambient_dim": 2, "components": [preset("unit_circle")], "weights": [UNIT_WEIGHT]}
        doc[where][0] = item
        with pytest.raises(SceneError, match=rf"^{where}\[0\]: bad parameters \({message}"):
            parse_scene(doc)

    @pytest.mark.parametrize("component, weight, jump", [
        (preset("unit_circle"), entry("cosine", frequency=0.5, offset=2.0), "mu is 3.0 at s=0.0 and 1.0 at"),
        (preset("unit_circle"), entry("polynomial", coefficients=[1.0, 0.05]), "mu is 1.0 at s=0.0 and 1.314"),
        (preset("ellipse", a=2.0, b=1.0), entry("fourier", coefficients=[1.0, 0.1, 0.0], period=5.0),
         "mu is 1.1 at s=0.0 and 1.092"),
    ], ids=["circle_cosine", "circle_polynomial", "ellipse_fourier"])
    def test_weight_not_periodic_on_a_closed_curve(self, component, weight, jump):
        # The curve wraps s and the weight did not: each of these reported
        # dir = tir = air with exit 0 (0.367, 0.760 and 0.472).
        doc = {"ambient_dim": 2, "components": [component], "weights": [weight]}
        with pytest.raises(SceneError, match=rf"^weights\[0\]: weight is not periodic on the closed curve: {jump}"):
            parse_scene(doc)

    @pytest.mark.parametrize("component, weight", [
        (preset("unit_circle"), entry("polynomial", coefficients=[1.0, 1e-308])),
        (preset("unit_circle"), entry("cosine", frequency=1.0, offset=2.0)),
        (preset("unit_circle"), entry("fourier", coefficients=[1.0, 0.3, -0.2, 0.0, 0.1])),
        (ARC, entry("cosine", frequency=0.5, offset=2.0)),
    ], ids=["polynomial_tiny_slope", "cosine_whole_turn", "fourier_curve_length", "open_arc"])
    def test_weight_periodic_on_a_closed_curve(self, component, weight):
        # Within the seam band 2^-30 of each order's largest size; an open arc
        # is not checked at all.
        parse_scene({"ambient_dim": 2, "components": [component], "weights": [weight]})

    @pytest.mark.parametrize("name", ["unit_circle", "circle_arc"])
    @pytest.mark.parametrize("value", [float("inf"), 2.5])
    def test_circle_ambient_dim_must_be_an_integer(self, name, value):
        # inf escaped as an OverflowError from int() (exit 1), and 2.5 ran as 2.
        doc = minimal_doc()
        doc["components"][0]["preset"] = name
        doc["components"][0]["params"]["ambient_dim"] = value
        with pytest.raises(SceneError, match=rf"^components\[0\]: ambient_dim must be an integer, got {value}$"):
            parse_scene(doc)

    def test_overlapping_components_rejected(self):
        doc = minimal_doc()
        doc["components"].append(dict(doc["components"][0]))
        doc["weights"].append(dict(doc["weights"][0]))
        with pytest.raises(SceneError, match="disjoint"):
            parse_scene(doc)

    def test_bad_seed(self):
        doc = minimal_doc()
        doc["seed"] = "nope"
        with pytest.raises(SceneError, match="seed"):
            parse_scene(doc)

    @pytest.mark.parametrize("value", [True, False, 1.0, "1", None],
                             ids=["true", "false", "float", "string", "null"])
    def test_seed_not_an_integer(self, value):
        # true and false used to load as seeds 1 and 0.
        doc = minimal_doc()
        doc["seed"] = value
        message = f"^seed must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(SceneError, match=message):
            parse_scene(doc)

    @pytest.mark.parametrize(
        "value", [2.7, True, "two", "2.5", None, [2], float("inf")],
        ids=["fraction", "true", "word", "decimal_fraction", "null", "list", "infinite"],
    )
    def test_ambient_dim_not_an_integer(self, value):
        # 2.7 used to load as a planar scene, and Infinity escaped as an
        # OverflowError (exit 1).
        doc = minimal_doc()
        doc["ambient_dim"] = value
        message = f"^ambient_dim must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(SceneError, match=message):
            parse_scene(doc)

    @pytest.mark.parametrize("value, count", [(1, 1), (0, 0), (-2, -2), (1.0, 1), ("1", 1)],
                             ids=["one", "zero", "negative", "float", "string"])
    def test_ambient_dim_below_two(self, value, count):
        doc = minimal_doc()
        doc["ambient_dim"] = value
        with pytest.raises(SceneError, match=f"^ambient_dim must be >= 2, got {count}$"):
            parse_scene(doc)

    @pytest.mark.parametrize("value", [2.0, "2"], ids=["float", "string"])
    def test_integral_ambient_dim(self, value):
        # The sample counts' rule: an integral float or a decimal string is an integer.
        doc = minimal_doc()
        doc["ambient_dim"] = value
        assert parse_scene(doc).ambient_dim == 2

    def test_missing_file(self):
        with pytest.raises(SceneError, match="cannot read"):
            load_scene("/no/such/scene.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SceneError, match="valid JSON"):
            load_scene(str(path))


# (component, weight, where, key, value): the scene loads as given and is
# rejected once params[key] = value is added at `where`.
CURVE_KEY_CASES = [
    (FOURIER, "perod", 3.0),
    (FOURIER, "tol", 1e-3),
    (FOURIER, "table_n", 8),
    (CHEBYSHEV, "raw_domian", [-1.0, 1.0]),
    (CHEBYSHEV, "tol", 1e-3),
    (CHEBYSHEV, "table_n", 8),
    (preset("unit_circle"), "ambient_dimm", 2),
    (ARC, "s_ned", 1.0),
    (ARC, "closed", True),
    (preset("ellipse", a=2.0, b=1.0), "bb", 0.5),
    (preset("ellipse", a=2.0, b=1.0), "ambient_dim", 2),
    (STADIUM, "line_lenght", 6.0),
    (preset("segment", a=[0.0, 0.0], b=[1.0, 0.0]), "c", [2.0, 0.0]),
]
WEIGHT_KEY_CASES = [
    (ARC, UNIT_WEIGHT, "valeu", 2.0),
    (ARC, entry("polynomial", coefficients=[1.0, 0.0, -0.125]), "coefficient", [1.0]),
    (ARC, entry("cosine"), "amplitud", 0.5),
    (FOURIER, entry("fourier", coefficients=[1.0, 0.1, 0.0]), "perod", 3.0),
    (ARC, entry("chebyshev", coefficients=[1.0, 0.0, 0.1]), "domian", [-1.0, 1.0]),
    (STADIUM, entry("stadium_blend"), "shouldr", 0.3),
]
KEY_CASES = [(c, UNIT_WEIGHT, "components[0]", k, v) for c, k, v in CURVE_KEY_CASES] + [
    (c, w, "weights[0]", k, v) for c, w, k, v in WEIGHT_KEY_CASES
]


def _key_case_id(case):
    component, wdoc, where, key, _ = case
    kind = component.get("preset", component["kind"]) if where == "components[0]" else wdoc["kind"]
    return f"{where[:-3]}-{kind}-{key}"


class TestParams:
    @pytest.mark.parametrize(
        "component, wdoc, where, key, value", KEY_CASES, ids=[_key_case_id(c) for c in KEY_CASES]
    )
    def test_parameter_the_kind_does_not_take(self, component, wdoc, where, key, value):
        doc = {"ambient_dim": 2, "components": [copy.deepcopy(component)],
               "weights": [copy.deepcopy(wdoc)]}
        parse_scene(copy.deepcopy(doc))
        target = doc["components"][0] if where == "components[0]" else doc["weights"][0]
        target["params"][key] = value
        with pytest.raises(SceneError, match=rf"^{re.escape(where)}: .*'{key}'"):
            parse_scene(doc)

    @pytest.mark.parametrize("path, value, message", [
        (("components", 0, "kind"), "ellipse", r"components\[0\]: unknown kind 'ellipse'"),
        (("components", 0, "kind"), ["preset"], r"components\[0\]: unknown kind \['preset'\]"),
        (("components", 0, "preset"), "fourier", r"components\[0\]: unknown preset 'fourier'"),
        (("components", 0, "preset"), ["x"], r"components\[0\]: unknown preset \['x'\]"),
        (("weights", 0, "kind"), ["constant"], r"weights\[0\]: unknown kind \['constant'\]"),
        (("family",), {"kind": ["offset"]}, r"family: unknown kind \['offset'\]"),
        (("family",), {"kind": "fixed"}, r"family: unknown kind 'fixed'"),
    ], ids=["kind_ellipse", "kind_list", "preset_fourier", "preset_list", "weight_kind_list",
            "family_kind_list", "family_kind_fixed"])
    def test_unknown_kind(self, path, value, message):
        # A list where a name belongs used to escape as an unhashable-type
        # TypeError (exit 1) for the weight and family kinds.
        doc = minimal_doc()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(SceneError, match=f"^{message}$"):
            parse_scene(doc)

    @pytest.mark.parametrize("component", [FOURIER, CHEBYSHEV], ids=["fourier", "chebyshev"])
    def test_preset_on_a_series_component(self, component):
        # The preset used to be ignored: the series curve was built, exit 0.
        doc = {"ambient_dim": 2, "components": [component], "weights": [UNIT_WEIGHT]}
        parse_scene(copy.deepcopy(doc))
        doc["components"] = [dict(component, preset="ellipse")]
        kind = component["kind"]
        with pytest.raises(SceneError, match=rf"^components\[0\]: a {kind} component takes no preset$"):
            parse_scene(doc)

    @pytest.mark.parametrize("where", ["components", "weights"])
    def test_params_must_be_an_object(self, where):
        doc = minimal_doc()
        doc[where][0]["params"] = [1.0, 2.0]
        with pytest.raises(SceneError, match=rf"^{where}\[0\]: params must be an object"):
            parse_scene(doc)

    @pytest.mark.parametrize("text", [
        '{"kind": "preset", "preset": "circle_arc", "params": {"s_start": NaN, "s_end": 1.0}}',
        '{"kind": "preset", "preset": "circle_arc", "params": {"s_start": 0.0, "s_end": 1e400}}',
        '{"kind": "preset", "preset": "segment", "params": {"a": [0.0, 0.0], "b": [NaN, 1.0]}}',
    ], ids=["arc_nan_start", "arc_overflowing_end", "segment_nan_end"])
    def test_non_finite_domain(self, tmp_path, text):
        # Each used to build a curve whose report was all inf with exit 0.
        path = tmp_path / "scene.json"
        path.write_text(
            f'{{"ambient_dim": 2, "components": [{text}], '
            f'"weights": [{{"kind": "constant", "params": {{"value": 1.0}}}}]}}'
        )
        with pytest.raises(SceneError, match=r"^components\[0\]: domain needs a finite start"):
            load_scene(str(path))

    @pytest.mark.parametrize("component", [
        preset("circle_arc", s_start=1.0, s_end=1.0),
        preset("circle_arc", s_start=1.0, s_end=0.5),
        preset("segment", a=[1.0, 2.0], b=[1.0, 2.0]),
    ], ids=["arc_empty", "arc_reversed", "segment_point"])
    def test_empty_domain(self, component):
        doc = minimal_doc()
        doc["components"][0] = component
        with pytest.raises(SceneError, match=r"finite length > 0"):
            parse_scene(doc)


class TestToleranceOverrides:
    def test_override_applies(self):
        doc = minimal_doc()
        doc["tolerances"] = {"grid_samples": 512}
        scene = parse_scene(doc)
        assert scene.tolerances.grid_samples == 512
        assert scene.tolerances.pair_grid == 256  # untouched default

    def test_every_tolerance_is_read(self):
        # A field no code reads accepts an override that changes nothing.
        import re
        from dataclasses import fields
        from pathlib import Path

        import weighted_tubes
        from weighted_tubes.config import Tolerances

        src = Path(weighted_tubes.__file__).parent
        text = "\n".join(p.read_text() for p in sorted(src.glob("*.py")) if p.name != "config.py")
        unread = [f.name for f in fields(Tolerances) if not re.search(rf"\.{f.name}\b", text)]
        assert not unread, f"Tolerances fields read by no code: {unread}"

    def test_only_the_sample_counts_are_settable(self):
        from dataclasses import fields

        from weighted_tubes.config import Tolerances

        assert [f.name for f in fields(Tolerances)] == ["grid_samples", "pair_grid"]


def bundled_doc(name, edits=()):
    """A fresh copy of the bundled scene document `name` with each
    (path, value) of `edits` set in order, a path being the keys and list
    indices down to the value."""
    from importlib import resources

    doc = json.loads(resources.files("weighted_tubes.scenes").joinpath(f"{name}.json").read_text())
    for (*path, key), value in edits:
        target = doc
        for k in path:
            target = target[k]
        target[key] = value
    return doc


def leaf_paths(node, path=()):
    """The paths of every value under a document node that is not an
    object: numbers, strings, booleans, null, and lists with their items."""
    if isinstance(node, dict):
        return [p for key, child in node.items() for p in leaf_paths(child, path + (key,))]
    children = enumerate(node) if isinstance(node, list) else ()
    return [path] + [p for k, child in children for p in leaf_paths(child, path + (k,))]


# Extreme, subnormal and non-finite floats, 0, -1, strings, null, booleans,
# and empty and nested lists.
LEAF_VALUES = st.one_of(
    st.sampled_from([0, 0.0, -0.0, -1, -1.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300,
                     1.7976931348623157e308, -1.7976931348623157e308, float("inf"), float("-inf"),
                     float("nan"), True, False, None, "", "x", [], [[]]]),
    st.floats(allow_subnormal=True),
    st.text(max_size=4),
    st.lists(st.floats(), max_size=4),
    st.lists(st.lists(st.floats(), max_size=3), max_size=3),
)


@st.composite
def mutated_scenes(draw):
    """A bundled scene name and one or two leaf edits of its document; a
    path under another drawn path is dropped."""
    name = draw(st.sampled_from(sorted(BUNDLED_SCENES)))
    paths = draw(st.lists(st.sampled_from(leaf_paths(bundled_doc(name))),
                          min_size=1, max_size=2, unique=True))
    paths = [p for p in paths if not any(p != q and p[:len(q)] == q for q in paths)]
    return name, tuple((p, draw(LEAF_VALUES)) for p in paths)


COEFFICIENTS = ("weights", 0, "params", "coefficients")


@example(("example4", ((COEFFICIENTS, []),)))
@example(("example4", ((COEFFICIENTS, [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),)))
@example(("example4", ((COEFFICIENTS, [[]]),)))
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(mutated_scenes())
def test_mutated_bundled_scene_loads_or_raises_scene_error(case):
    name, edits = case
    try:
        scene = load_scene(bundled_doc(name, edits))
    except SceneError:
        return
    assert isinstance(scene, Scene)


def test_ellipse_whose_samples_overflow_raises_scene_error():
    # Its curve builds, but sampling it for the disjointness check overflows
    # in the arclength table's interpolant; that sampling runs under the
    # builds' floating-point guard, so the scene is refused, not loaded.
    doc = bundled_doc("ellipse_mu1", [(("components", 0, "params", "a"), 3.9e134)])
    with pytest.raises(SceneError, match=r"^components: bad parameters \(overflow"):
        parse_scene(doc)
