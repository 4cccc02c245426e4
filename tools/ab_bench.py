"""Alternating parent/change runs of a benchmark workload, summarized per
metric, so that a speed claim takes one command:

    python3 tools/ab_bench.py PARENT CHANGE --workload W --seeds A-B [--trace 0|1]

PARENT and CHANGE are checkouts. For each seed from A to B (or the one seed
A), `python3 perfbench/run.py --workload W --seed N --seconds S --trace T`
runs in PARENT and in CHANGE, each from its own root, one after the other:
parent first on even pairs and change first on odd ones, so that a drift
of the machine's speed favours neither side. Each run's last stdout line is
its JSON result. S is the run_seconds of CHANGE's BENCHMARK.json, whose
end_to_end list (--trace 0) or per_layer list (--trace 1) names the
metrics and which way is better.

One line per run is printed as it ends; then, per metric: the median of
each side, the parent's quartiles and interquartile range, the median gain
(change over parent, signed so that > 0 is better), the median, least and
largest paired ratio change / parent, the pairs the change won, and a
verdict. With bound the metric's `bound` in BENCHMARK.json, taken relative
to the parent's median, the verdict is the first that holds of:

- `gain`: at least ten pairs ran, the change won at least nine tenths of
  them (ties count for neither side) and its median gain exceeds the
  parent's interquartile range;
- `worse`: the change's median is worse than the parent's by more than the
  bound;
- `unresolved`: the parent's interquartile range is wider than the bound,
  and some change run does not beat every parent run;
- `within bound`: anything else.

Per-layer metrics have no bound, so they read `gain` or `unresolved`. Runs
whose result is not `correct`, or that failed more calls than their pair
partner, are named below the table, and the tool then exits 1: no claim
may rest on such a run.

Each side runs with its own PYTHONPYCACHEPREFIX in a temporary directory
and without PYTHONDONTWRITEBYTECODE, and its src/ and perfbench/ are
compiled there before the first pair. Otherwise a side whose __pycache__
is stale (a copied checkout's .py files are newer than it) recompiles
every module in every worker while the other side reads valid bytecode,
which biases setup time, call time and peak RSS by the directory rather
than by the code. The tool writes nothing in either checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def parse_seeds(text):
    """The seeds of "A-B" (inclusive) or of one seed "A"."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def side_env(cache):
    """The environment of one side's runs: this process's, with bytecode
    written to and read from the directory cache."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(cache)
    return env


# Compiles the directories named on the command line, then imports numpy so
# that its bytecode (the bulk of what a worker imports) is cached too.
_COMPILE = "\n".join([
    "import compileall, sys",
    "ok = [compileall.compile_dir(d, quiet=1) for d in sys.argv[1:]]",
    "import numpy",
    "sys.exit(not all(ok))",
])


def compile_side(root, env):
    """Compile the checkout root's src/ and perfbench/, and numpy, into env's cache."""
    dirs = [d for d in ("src", "perfbench") if (Path(root) / d).is_dir()]
    if not dirs:
        return
    argv = [sys.executable, "-c", _COMPILE, *dirs]
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"compiling {root} exited {proc.returncode}: "
                           f"{(proc.stdout + proc.stderr).strip()[-2000:]}")


def run_once(root, workload, seed, seconds, trace, env):
    """The JSON result of one perfbench run in the checkout root, under env."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv[1:])} in {root} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(parent, change, specs):
    """One row per metric of specs ((name, unit, better, bound) with better
    "lower" or "higher" and bound relative, or None) that every run reports:
    a dict of the statistics printed by `format_rows`. parent and change are
    lists of run results, paired by position."""
    rows = []
    for name, unit, better, bound in specs:
        try:
            p = [float(r["metrics"][name]["value"]) for r in parent]
            c = [float(r["metrics"][name]["value"]) for r in change]
        except KeyError:
            continue
        sign = 1.0 if better == "higher" else -1.0
        q1, p_med, q3 = quartiles(p)
        c_med = statistics.median(c)
        ratios = [y / x if x else float("nan") for x, y in zip(p, c)]
        row = {
            "name": name, "unit": unit, "better": better,
            "parent_median": p_med, "change_median": c_med,
            "parent_q1": q1, "parent_q3": q3, "parent_iqr": q3 - q1,
            "gain": sign * (c_med - p_med),
            "ratio_median": statistics.median(ratios), "ratio_min": min(ratios),
            "ratio_max": max(ratios),
            "won": sum(sign * (y - x) > 0 for x, y in zip(p, c)), "pairs": len(p),
        }
        row["verdict"] = verdict(row, bound, min(sign * y for y in c) > max(sign * x for x in p))
        rows.append(row)
    return rows


def verdict(row, bound, every_run_better):
    """The verdict of a summary row (see the module docstring); bound is
    relative to the parent's median, or None for a per-layer metric."""
    if row["pairs"] >= 10 and 10 * row["won"] >= 9 * row["pairs"] and row["gain"] > row["parent_iqr"]:
        return "gain"
    if bound is None:
        return "unresolved"
    limit = bound * abs(row["parent_median"])
    if row["gain"] < -limit:
        return "worse"
    if row["parent_iqr"] > limit and not every_run_better:
        return "unresolved"
    return "within bound"


def format_rows(rows):
    """The summary table, one line per metric."""
    out = []
    for r in rows:
        side = "better" if r["gain"] > 0 else "worse"
        spread = f"{side} by more than the iqr" if abs(r["gain"]) > r["parent_iqr"] else "within the iqr"
        out.append(
            f"{r['name']} [{r['unit']}, {r['better']} is better]: "
            f"parent median {r['parent_median']:.6g} (q1 {r['parent_q1']:.6g}, q3 {r['parent_q3']:.6g}, "
            f"iqr {r['parent_iqr']:.6g}), change median {r['change_median']:.6g}, "
            f"gain {r['gain']:+.6g} ({spread}); "
            f"ratio change/parent median {r['ratio_median']:.4f} "
            f"[{r['ratio_min']:.4f}, {r['ratio_max']:.4f}]; won {r['won']} of {r['pairs']} pairs; "
            f"verdict: {r['verdict']}"
        )
    return out


def main(argv=None, run=run_once):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    specs = [(m["name"], m["unit"], m["better"], m.get("bound"))
             for m in bench["per_layer" if args.trace else "end_to_end"]]
    sides = {"parent": args.parent, "change": args.change}
    results = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab-bench-") as caches:
        envs = {side: side_env(Path(caches) / side) for side in sides}
        for side, root in sides.items():
            compile_side(root, envs[side])
        for k, seed in enumerate(args.seeds):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                res = run(sides[side], args.workload, seed, seconds, args.trace, envs[side])
                results[side].append(res)
                shown = ", ".join(f"{name} {res['metrics'][name]['value']:.6g}"
                                  for name, *_ in specs[:5] if name in res["metrics"])
                print(f"pair {k} seed {seed} {side}: correct {res['correct']}, "
                      f"failed {res['failed']} of {res['attempted']}; {shown}", flush=True)
    print(f"{args.workload}, seeds {args.seeds[0]}-{args.seeds[-1]}, {len(args.seeds)} pairs, "
          f"--seconds {seconds:g}, --trace {args.trace}")
    for line in format_rows(summarize(results["parent"], results["change"], specs)):
        print(line)
    status = 0
    for k, seed in enumerate(args.seeds):
        p, c = results["parent"][k], results["change"][k]
        for side, res, other in (("parent", p, c), ("change", c, p)):
            if not res["correct"] or res["failed"] > other["failed"]:
                status = 1
                print(f"note: seed {seed} {side}: correct {res['correct']}, "
                      f"failed {res['failed']} of {res['attempted']} (its pair: {other['failed']})")
    return status


if __name__ == "__main__":
    sys.exit(main())
