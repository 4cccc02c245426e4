import argparse
import hashlib
import importlib.util
from pathlib import Path

import pytest

from weighted_tubes import cli
from weighted_tubes.scene import BUNDLED_SCENES

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def test_call_digests_are_the_output_bytes(digests, tmp_path):
    out = tmp_path / "tube.csv"
    argv = ["tube", "--scene", "circle_mu1", "--radius", "0.5", "--samples", "16"]
    rc, got = digests.run_call(cli, argv, str(out), str(tmp_path))
    files = [out.read_bytes(), (tmp_path / "tube.overlap.csv").read_bytes()]
    assert rc == 0
    assert got == [_sha(b""), _sha(b"")] + [_sha(x) for x in files]


def test_work_directory_is_masked(digests, tmp_path, capsys):
    # The error names the missing scene by its path under the work directory.
    argv = ["report", "--scene", str(tmp_path / "none.json")]
    assert cli.main(argv) == 2
    raw = capsys.readouterr().err
    assert str(tmp_path) in raw
    rc, got = digests.run_call(cli, argv, str(tmp_path / "r.json"), str(tmp_path))
    assert rc == 2
    assert got == [_sha(b""), _sha(raw.replace(str(tmp_path), "<work>").encode()), "-"]


def test_a_crash_is_an_outcome(digests, tmp_path):
    class Crashing:
        @staticmethod
        def main(argv):
            raise RuntimeError(f"no {argv[-1]}")

    out = str(tmp_path / "r.json")
    rc, got = digests.run_call(Crashing, ["report"], out, str(tmp_path))
    assert rc == "raised-RuntimeError"
    assert got == [_sha(b""), _sha(b"RuntimeError: no <work>/r.json"), "-"]


def test_bundled_set_covers_every_verb_and_scene(digests):
    # Checked without running the set: every (scene, verb) pair once, each
    # argv accepted by the parser, and --format svg on every verb that
    # takes it.
    parser = cli.build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    calls = digests.bundled_calls(BUNDLED_SCENES)
    # Then one labelled call whose feet reach the stadium's straight sides,
    # one with a finite height cutoff whose square overflows, and two sweeps
    # over more than two offsets.
    *calls, straight, overflow, sweep6, sweep3 = calls
    assert straight == {
        "label": "example2_stadium/fibers-straight-sides",
        "argv": ["fibers", "--scene", "example2_stadium", "--s-values=0.5,3.0,20.0", "--samples", "9"],
        "ext": "csv",
    }
    assert overflow == {
        "label": "example1a/singular-ur-1e300",
        "argv": ["singular", "--scene", "example1a", "--ur", "1e300"],
        "ext": "csv",
    }
    assert sweep6 == {
        "label": "example6_family/sweep-21",
        "argv": ["sweep", "--scene", "example6_family", "--t-min=-0.1", "--t-max=0.1", "--t-count=21"],
        "ext": "csv",
    }
    assert sweep3 == {
        "label": "example3_family/sweep-7",
        "argv": ["sweep", "--scene", "example3_family", "--t-min=-0.03", "--t-max=0.03", "--t-count=7"],
        "ext": "csv",
    }
    for call in (sweep6, sweep3):
        assert parser.parse_args(call["argv"]).t_count > 2
    pairs = [(c["argv"][2], c["argv"][0]) for c in calls]
    assert sorted(pairs) == sorted((scene, verb) for scene in BUNDLED_SCENES for verb in verbs)
    for call in calls:
        args = parser.parse_args(call["argv"])
        assert call["label"] == f"{args.scene}/{args.command}"
        assert getattr(args, "format", "svg") == "svg"
        assert getattr(args, "ur", None) is None
