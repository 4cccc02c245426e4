import argparse
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from weighted_tubes import cli
from weighted_tubes.scene import BUNDLED_SCENES

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def digests():
    return _load("output_digests")


@pytest.fixture(scope="module")
def ab_bench():
    return _load("ab_bench")


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
    # one with a finite height cutoff whose square overflows, two sweeps
    # over more than two offsets, one over the offsets -1e-9, 0 and 1e-9
    # where dir and air jump, one whose offsets straddle the band of
    # "g = 0", where example3_family's collapse arc appears and vanishes,
    # and two reports: one whose pair grid nests in the dense grid at a
    # ratio of 32, and one at 3072 / 1024, where it does not.
    *calls, straight, overflow, sweep6, sweep3, semicontinuity, near_zero, nested, not_nested = calls
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
    assert semicontinuity == {
        "label": "example_separation/sweep-semicontinuity",
        "argv": ["sweep", "--scene", "example_separation", "--family", "offset", "--t-values=-1e-9,0,1e-9"],
        "ext": "csv",
    }
    assert near_zero == {
        "label": "example3_family/sweep-near-zero",
        "argv": ["sweep", "--scene", "example3_family", "--t-values=-4e-9,-1e-9,-1e-12,0,1e-12"],
        "ext": "csv",
    }
    assert nested == {
        "label": "ellipse_mu1/report-pair-grid-128",
        "argv": ["report", "--scene", "ellipse_mu1", "--tol-override", "pair_grid=128"],
        "ext": "json",
    }
    assert not_nested == {
        "label": "ellipse_mu1/report-grid-3072-pair-grid-1024",
        "argv": ["report", "--scene", "ellipse_mu1", "--tol-override", "grid_samples=3072",
                 "--tol-override", "pair_grid=1024"],
        "ext": "json",
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


def test_bundled_output_bytes_are_the_recorded_digests(digests, tmp_path):
    # The digest lines of the bundled set, as `tools/output_digests.py bundled`
    # prints them. A change that moves an output byte re-records the file
    # (python3 tools/output_digests.py bundled > tests/data/bundled_digests.txt)
    # and quotes the lines that moved.
    want = (Path(__file__).parent / "data" / "bundled_digests.txt").read_text().splitlines()
    calls = digests.bundled_calls(BUNDLED_SCENES)
    assert list(digests.call_lines(cli, "-", calls, str(tmp_path))) == want


def test_generated_output_bytes_are_the_recorded_digests(digests, tmp_path, monkeypatch):
    # Round 0 of report_mix seed 0 (17 calls: Chebyshev-arc, Fourier, 3D and
    # two-component scenes, the last with the one cross-component pair grid)
    # and of geometry seed 0 (44 calls), which the bundled scenes do not
    # cover. The file holds the lines of `tools/output_digests.py report_mix 0`
    # and `tools/output_digests.py geometry 0` whose label starts with r0/.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    want = (Path(__file__).parent / "data" / "generated_digests.txt").read_text().splitlines()
    got = []
    for workload in ("report_mix", "geometry"):
        work = tmp_path / workload
        inputs = run.Inputs(workload, 0, seconds, work / "seed0")
        got += digests.call_lines(cli, 0, inputs.rounds[0], str(work))
    assert got == want


def _result(units, rss, failed=0):
    return {"correct": True, "attempted": 45, "failed": failed, "metrics": {
        "units_per_cpu_s": {"value": units, "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }}


def test_ab_bench_seed_ranges(ab_bench):
    assert ab_bench.parse_seeds("31-34") == [31, 32, 33, 34]
    assert ab_bench.parse_seeds("7") == [7]
    with pytest.raises(argparse.ArgumentTypeError):
        ab_bench.parse_seeds("5-4")


def test_ab_bench_summary_is_signed_by_the_better_direction(ab_bench):
    specs = [("units_per_cpu_s", "1/s", "higher", 0.25), ("peak_rss_mb", "MB", "lower", 0.1),
             ("absent", "s", "lower", None)]
    parent = [_result(u, r) for u, r in ((80.0, 50.0), (90.0, 50.0), (85.0, 51.0), (100.0, 49.0))]
    change = [_result(u, r) for u, r in ((88.0, 50.5), (99.0, 50.0), (84.0, 50.0), (110.0, 48.0))]
    units, rss = ab_bench.summarize(parent, change, specs)
    assert units["parent_median"] == 87.5 and units["change_median"] == 93.5
    assert (units["parent_q1"], units["parent_q3"]) == (83.75, 92.5)
    assert units["gain"] == 6.0 and units["won"] == 3 and units["pairs"] == 4
    assert units["ratio_min"] == 84.0 / 85.0 and units["ratio_max"] == 1.1
    # Lower is better: a fall is a gain, and a tie is not a win.
    assert rss["gain"] == 0.0 and rss["won"] == 2
    assert units["verdict"] == rss["verdict"] == "within bound"
    rss["gain"] = -1.0
    lines = ab_bench.format_rows([units, rss])
    assert "(within the iqr)" in lines[0] and "(worse by more than the iqr)" in lines[1]


def test_ab_bench_alternates_the_side_that_runs_first(ab_bench, tmp_path, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 45, "end_to_end": [
        {"name": "units_per_cpu_s", "unit": "1/s", "better": "higher"}]}))
    calls = []

    def run(root, workload, seed, seconds, trace, env):
        calls.append((root.name, workload, seed, seconds, trace))
        return _result(90.0 if root.name == "parent" else 99.0, 50.0, failed=int(seed == 4))

    argv = [str(tmp_path / "parent"), str(tmp_path), "--workload", "report_mix", "--seeds", "3-5"]
    assert ab_bench.main(argv, run=run) == 0
    change = tmp_path.name
    assert calls == [("parent", "report_mix", 3, 45, 0), (change, "report_mix", 3, 45, 0),
                     (change, "report_mix", 4, 45, 0), ("parent", "report_mix", 4, 45, 0),
                     ("parent", "report_mix", 5, 45, 0), (change, "report_mix", 5, 45, 0)]
    out = capsys.readouterr().out
    assert "won 3 of 3 pairs" in out and "gain +9" in out
    assert "note: seed 4" not in out  # both sides failed one call


def test_ab_bench_gives_each_side_its_own_fresh_bytecode(ab_bench, tmp_path, monkeypatch):
    # Each side reads bytecode compiled before the first pair into a cache
    # of its own, whatever PYTHONDONTWRITEBYTECODE says, and nothing is
    # written in either checkout.
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.delenv("PYTHONPYCACHEPREFIX", raising=False)
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        (root / "src").mkdir(parents=True)
        (root / "src" / "mod.py").write_text("X = 1\n")
        (root / "perfbench").mkdir()
        (root / "perfbench" / "run.py").write_text("Y = 2\n")
    (change / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 45, "end_to_end": [
        {"name": "units_per_cpu_s", "unit": "1/s", "better": "higher"}]}))
    envs = {}

    def run(root, workload, seed, seconds, trace, env):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        # The cache mirrors each source's absolute path.
        mirror = cache / root.resolve().relative_to(root.resolve().anchor)
        assert list(mirror.glob("src/mod.*.pyc")) and list(mirror.glob("perfbench/run.*.pyc"))
        assert any(cache.rglob("numpy/__init__.*.pyc"))
        envs.setdefault(root.name, []).append(env)
        return _result(90.0, 50.0)

    argv = [str(parent), str(change), "--workload", "report_mix", "--seeds", "3-4"]
    assert ab_bench.main(argv, run=run) == 0
    assert sorted(envs) == ["change", "parent"]
    prefixes = set()
    for side, seen in envs.items():
        assert len(seen) == 2
        assert all("PYTHONDONTWRITEBYTECODE" not in env for env in seen)
        assert len({env["PYTHONPYCACHEPREFIX"] for env in seen}) == 1
        prefixes.add(seen[0]["PYTHONPYCACHEPREFIX"])
    assert len(prefixes) == 2
    assert not list(tmp_path.rglob("__pycache__"))
    assert not any(Path(p).exists() for p in prefixes)


@pytest.mark.parametrize("bad", ["not correct", "failed more"])
def test_ab_bench_exits_1_on_a_run_no_claim_may_rest_on(ab_bench, tmp_path, capsys, bad):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 45, "end_to_end": [
        {"name": "units_per_cpu_s", "unit": "1/s", "better": "higher"}]}))

    def run(root, workload, seed, seconds, trace, env):
        res = _result(90.0 if root.name == "parent" else 99.0, 50.0)
        if seed == 8 and root.name != "parent":
            if bad == "not correct":
                res["correct"] = False
            else:
                res["failed"] = 1
        return res

    argv = [str(tmp_path / "parent"), str(tmp_path), "--workload", "geometry", "--seeds", "7-9"]
    assert ab_bench.main(argv, run=run) == 1
    out = capsys.readouterr().out
    assert "won 3 of 3 pairs" in out
    notes = [line for line in out.splitlines() if line.startswith("note:")]
    assert len(notes) == 1 and notes[0].startswith("note: seed 8 change:")


@pytest.mark.parametrize("trace", [0, 1])
def test_ab_bench_verdicts(ab_bench, tmp_path, capsys, trace):
    # Ten pairs per metric, the parent's medians 100 and its iqr 2 (4 on the
    # last metric). End to end, with bound 0.25 of the parent's median (25):
    # a gain won 9 of 10 pairs by more than the iqr, a metric 30 worse is
    # worse, one whose parent spread exceeds the bound is unresolved unless
    # every change run beats every parent run, and the rest is within
    # bound. Per layer, without a bound, only gain or unresolved.
    parent = [99.0, 101.0] * 5
    wide = [60.0, 140.0] * 5
    metrics = {
        "gain": (parent, [104.0] * 9 + [98.0], "higher"),
        "nine_won_within_iqr": (parent, [101.5] * 9 + [98.0], "higher"),
        "eight_won": (parent, [110.0] * 8 + [90.0] * 2, "higher"),
        "worse": (parent, [130.0] * 10, "lower"),
        "wide": (wide, [99.0] * 10, "lower"),
        "wide_every_run_better": (wide, [59.0] * 10, "lower"),
        "slightly_worse": (parent, [110.0] * 10, "lower"),
    }
    entries = [{"name": name, "unit": "ms", "better": better, "bound": 0.25}
               for name, (_, _, better) in metrics.items()]
    key = "per_layer" if trace else "end_to_end"
    if trace:
        for entry in entries:
            del entry["bound"]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 45, key: entries}))

    def run(root, workload, seed, seconds, t, env):
        k = seed - 10
        side = 0 if root.name == "parent" else 1
        return {"correct": True, "attempted": 45, "failed": 0, "metrics": {
            name: {"value": values[side][k], "unit": "ms"} for name, values in metrics.items()}}

    argv = [str(tmp_path / "parent"), str(tmp_path), "--workload", "report_mix", "--seeds", "10-19",
            "--trace", str(trace)]
    assert ab_bench.main(argv, run=run) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if "verdict:" in line]
    got = {line.split(" ")[0]: line.split("verdict: ")[1] for line in lines}
    if trace:
        assert got == {name: "gain" if name == "gain" else "unresolved" for name in metrics}
        return
    assert got == {
        "gain": "gain", "nine_won_within_iqr": "within bound", "eight_won": "within bound",
        "worse": "worse", "wide": "unresolved", "wide_every_run_better": "within bound",
        "slightly_worse": "within bound",
    }


@pytest.mark.parametrize("trace", [0, 1])
def test_ab_bench_claims_no_gain_on_fewer_than_ten_pairs(ab_bench, tmp_path, capsys, trace):
    # The change wins all 4 pairs by 10, five times the parent's iqr of 2:
    # too few pairs for a gain, so within bound end to end, unresolved per layer.
    entry = {"name": "units_per_cpu_s", "unit": "1/s", "better": "higher"}
    if not trace:
        entry["bound"] = 0.25
    key = "per_layer" if trace else "end_to_end"
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 45, key: [entry]}))

    def run(root, workload, seed, seconds, t, env):
        return _result(110.0 if root.name != "parent" else [99.0, 101.0][seed % 2], 50.0)

    argv = [str(tmp_path / "parent"), str(tmp_path), "--workload", "report_mix", "--seeds", "0-3",
            "--trace", str(trace)]
    assert ab_bench.main(argv, run=run) == 0
    out = capsys.readouterr().out
    assert "iqr 2)" in out and "gain +10 (better by more than the iqr)" in out and "won 4 of 4 pairs" in out
    assert f"verdict: {'unresolved' if trace else 'within bound'}" in out
