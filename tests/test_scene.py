import json

import numpy as np
import pytest

from weighted_tubes import BUNDLED_SCENES, SceneError, load_scene, parse_scene


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
        b = parse_scene(json.loads(json.dumps(a.raw)))
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
        with pytest.raises(SceneError, match="unknown tolerance"):
            parse_scene(doc)

    def test_nonpositive_tolerance(self):
        doc = minimal_doc()
        doc["tolerances"] = {"tol_dc": -1.0}
        with pytest.raises(SceneError, match="positive"):
            parse_scene(doc)

    @pytest.mark.parametrize("key, value", [
        ("tol_dc", float("nan")),
        ("delta_band_factor", float("inf")),
        ("focal_samples", float("inf")),
    ])
    def test_non_finite_tolerance(self, key, value):
        doc = minimal_doc()
        doc["tolerances"] = {key: value}
        with pytest.raises(SceneError):
            parse_scene(doc)

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

    def test_missing_file(self):
        with pytest.raises(SceneError, match="cannot read"):
            load_scene("/no/such/scene.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SceneError, match="valid JSON"):
            load_scene(str(path))


class TestToleranceOverrides:
    def test_override_applies(self):
        doc = minimal_doc()
        doc["tolerances"] = {"focal_samples": 512}
        scene = parse_scene(doc)
        assert scene.tolerances.focal_samples == 512
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
