"""Record reference outputs of the current commit for the benchmark's checker.

    python3 perfbench/record_reference.py WORKLOAD SEED [SEED ...]

Runs the workload through the same worker as run.py, with the run length
from BENCHMARK.json, and stores for each call that
passes the checks a numeric summary of its output and the output's sha256,
keyed by the digest of the call's input. It also stores the digest of each
seed's round-0 inputs and the machine the reference was recorded on.
Calls that fail (the known exit-3 open arcs) get no reference.
"""

import hashlib
import json
import os
import shutil
import sys

import checker
import run


def record(workload, seed, seconds, ref):
    run_dir = run.WORKSPACE / f"reference-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        inputs = run.Inputs(workload, seed, seconds, run_dir)
        records, verdicts, wrong, _, metrics, _ = run.run_timed(inputs, run_dir, {})
        print(json.dumps({"workload": workload, "seed": seed, "attempted": len(records),
                          "failed": sum(1 for v in verdicts if v), "metrics": metrics}), flush=True)
        if wrong:
            raise SystemExit(f"{workload} seed {seed}: {wrong} calls failed the checks; not recording")
        calls = {c["label"]: c for rounds in inputs.rounds for c in rounds}
        for rec, problems in zip(records, verdicts):
            if problems:
                continue
            call = calls[rec["label"]]
            outputs = {k: v.decode("utf-8") for k, v in run._outputs(call, rec["out"]).items()}
            ref["calls"][call["digest"]] = {
                "summary": checker.summarize(call["kind"], outputs),
                "sha256": hashlib.sha256(outputs["main"].encode()).hexdigest(),
            }
        ref["inputs"][str(seed)] = inputs.round0_digest()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv):
    workload, seeds = argv[0], [int(s) for s in argv[1:]]
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    os.environ.update(run.THREAD_ENV)
    sys.path.insert(0, str(run.SRC))
    run.WORKSPACE.mkdir(exist_ok=True)
    out_dir = run.HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    ref = run.load_reference(workload)
    for seed in seeds:
        record(workload, seed, seconds, ref)
        print(f"{workload} seed {seed}: {len(ref['calls'])} reference calls", flush=True)
    ref["environment"] = run.environment()
    (out_dir / f"{workload}.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n",
                                               encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
