"""Digests of every output of a benchmark workload's calls, or of the
bundled call set, to compare the bytes two checkouts produce.

    python3 tools/output_digests.py WORKLOAD SEED [SEED ...] [--root DIR]
    python3 tools/output_digests.py bundled [--root DIR]

For each seed, perfbench/run.py's Inputs writes the scene files and builds
the call plan exactly as the benchmark does, for the run_seconds of
BENCHMARK.json. The `bundled` set (`bundled_calls`) instead runs every verb
on every bundled scene, with --format svg on the verbs that take it and
singular/collapse without --ur, plus the labelled calls of BUNDLED_EXTRA;
its lines carry seed "-". Every call then runs in-process through
`weighted_tubes.cli.main(argv + ["--out", FILE])`.
One line per call is printed: seed, label, exit code, and the sha256 of
stdout, stderr, the output file, for a --format svg call the .csv beside
it and, for a tube call, its .overlap.csv ("-" for a file that was not
written). The work directory reads <work> in the captured stdout
and stderr before they are hashed, so the lines of two checkouts compare
with diff:

    python3 tools/output_digests.py report_mix 0 1 2 > change.txt
    python3 tools/output_digests.py report_mix 0 1 2 --root ../parent > parent.txt
    diff parent.txt change.txt

--root names the checkout whose src/, perfbench/ and BENCHMARK.json are
used (default: the one holding this file).
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path


def _sha(data):
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def _read(path):
    try:
        return Path(path).read_bytes()
    except OSError:
        return None


def run_call(cli, argv, out, work):
    """Exit code (or the exception a call raised) and the digests of one call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv + ["--out", out])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is an outcome to compare, not a tool error
        rc = f"raised-{type(exc).__name__}"
        stderr.write(f"{type(exc).__name__}: {exc}")
    texts = [x.getvalue().replace(work, "<work>").encode() for x in (stdout, stderr)]
    files = [_read(out)]
    if "--format" in argv:
        files.append(_read(out[:-4] + ".csv"))
    if argv[0] == "tube":
        files.append(_read(out[:-4] + ".overlap.csv"))
    return rc, [_sha(x) for x in texts + files]


# The bundled set's calls per scene: verb, arguments beyond --scene, output
# extension. --format svg where a verb takes it, small sample counts, and
# no --ur, so singular and collapse compute theirs.
BUNDLED_VERBS = (
    ("report", [], "json"),
    ("sweep", ["--family", "offset", "--t-values=-0.01,0.01"], "csv"),
    ("fibers", ["--samples", "9", "--format", "svg"], "svg"),
    ("tube", ["--radius", "0.5", "--samples", "32", "--format", "svg"], "svg"),
    ("singular", ["--format", "svg"], "svg"),
    ("collapse", [], "csv"),
    ("check", [], "json"),
)


# Labelled calls the bundled set makes beyond one per (scene, verb): fibers on
# the stadium's straight sides, where the curvature vanishes and the fiber
# direction comes from the normal frame (no default foot lies there),
# singular with a finite height cutoff whose square overflows, two family
# sweeps over more than two offsets, which drive the pair search's
# multi-offset seed loop, two sweeps within the band of "g = 0" around
# t = 0, where the collapse arcs appear and vanish, and two reports whose
# pair grid is every 32nd foot of the dense grid and, at 3072 / 1024, not
# every r-th foot of it, so it evaluates its own feet.
BUNDLED_EXTRA = (
    {"label": "example2_stadium/fibers-straight-sides",
     "argv": ["fibers", "--scene", "example2_stadium", "--s-values=0.5,3.0,20.0", "--samples", "9"],
     "ext": "csv"},
    {"label": "example1a/singular-ur-1e300",
     "argv": ["singular", "--scene", "example1a", "--ur", "1e300"],
     "ext": "csv"},
    {"label": "example6_family/sweep-21",
     "argv": ["sweep", "--scene", "example6_family", "--t-min=-0.1", "--t-max=0.1", "--t-count=21"],
     "ext": "csv"},
    {"label": "example3_family/sweep-7",
     "argv": ["sweep", "--scene", "example3_family", "--t-min=-0.03", "--t-max=0.03", "--t-count=7"],
     "ext": "csv"},
    {"label": "example_separation/sweep-semicontinuity",
     "argv": ["sweep", "--scene", "example_separation", "--family", "offset", "--t-values=-1e-9,0,1e-9"],
     "ext": "csv"},
    {"label": "example3_family/sweep-near-zero",
     "argv": ["sweep", "--scene", "example3_family", "--t-values=-4e-9,-1e-9,-1e-12,0,1e-12"],
     "ext": "csv"},
    {"label": "ellipse_mu1/report-pair-grid-128",
     "argv": ["report", "--scene", "ellipse_mu1", "--tol-override", "pair_grid=128"],
     "ext": "json"},
    {"label": "ellipse_mu1/report-grid-3072-pair-grid-1024",
     "argv": ["report", "--scene", "ellipse_mu1", "--tol-override", "grid_samples=3072",
              "--tol-override", "pair_grid=1024"],
     "ext": "json"},
)


def bundled_calls(scenes):
    """The calls of BUNDLED_VERBS on each of `scenes`, labelled scene/verb,
    then those of BUNDLED_EXTRA."""
    return [
        {"label": f"{scene}/{verb}", "argv": [verb, "--scene", scene] + extra, "ext": ext}
        for scene in scenes
        for verb, extra, ext in BUNDLED_VERBS
    ] + list(BUNDLED_EXTRA)


def call_lines(cli, seed, calls, work):
    """The digest line of each call, its output written under
    work/seed<seed>/out."""
    out_dir = Path(work) / f"seed{seed}" / "out"
    out_dir.mkdir(parents=True)
    for k, call in enumerate(calls):
        out = str(out_dir / f"{k}.{call['ext']}")
        rc, digests = run_call(cli, call["argv"], out, work)
        yield " ".join([str(seed), call["label"], f"rc={rc}", *digests])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("seeds", nargs="*", type=int)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    if (args.workload == "bundled") == bool(args.seeds):
        parser.error("give seeds for a benchmark workload and none for bundled")
    root = args.root.resolve()
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import run as perfbench_run
    import weighted_tubes
    from weighted_tubes import cli
    from weighted_tubes.scene import BUNDLED_SCENES

    where = Path(weighted_tubes.__file__).resolve()
    if root / "src" not in where.parents:
        raise SystemExit(f"weighted_tubes was imported from {where}, not from {root / 'src'}")
    with tempfile.TemporaryDirectory(prefix="output-digests-") as work:
        for seed in args.seeds or ["-"]:
            if seed == "-":
                calls = bundled_calls(BUNDLED_SCENES)
            else:
                inputs = perfbench_run.Inputs(args.workload, seed, seconds, Path(work) / f"seed{seed}")
                calls = [c for calls in inputs.rounds for c in calls]
            for line in call_lines(cli, seed, calls, work):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
