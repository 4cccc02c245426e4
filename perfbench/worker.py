"""One workload interpreter: imports the package from src/, builds the
workload's scenes, reports ready, then runs `cli.main` calls in-process.

    python3 perfbench/worker.py PLAN.json MODE RESULT.json

MODE is "setup" (exit once ready), "timed" (every round of the plan, with a
CPU calibration before every call and after the last) or
"trace" (round 0 untraced, then round 0 again with spans at every layer
boundary).

BLAS and OpenMP pools are pinned to one thread by the parent's environment;
the only other threads are the sweep pool's, at most two.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _os_threads():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def _import_package(src):
    sys.path.insert(0, src)
    import weighted_tubes
    from weighted_tubes import cli, curves, expmap, radii, scene, singular, sweeps, util, weights

    where = os.path.realpath(weighted_tubes.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"weighted_tubes was imported from {where}, not from {src}")
    return {
        "scene": scene, "curves": curves, "weights": weights, "util": util, "radii": radii,
        "singular": singular, "expmap": expmap, "sweeps": sweeps, "cli": cli,
    }


class _Probe:
    def __init__(self, a):
        self.a = a

    def scaled(self, b):
        return self.a * b + 1.0


def calibrate():
    """Process CPU seconds of a fixed mix of the work the package does most:
    interpreter arithmetic, method calls and numpy operations on small
    arrays. Taken between calls, it measures how fast the CPU ran then."""
    import numpy as np

    start = time.process_time()
    acc = 0.0
    for i in range(10000):
        acc += (i * 0.5) ** 0.5
    probe, table = _Probe(2.0), {}
    for i in range(10000):
        table[i & 255] = probe.scaled(i)
    x = np.linspace(0.0, 1.0, 64)
    for _ in range(1000):
        acc += float(np.sqrt(x * x + 1.0).sum())
    return time.process_time() - start


def run_call(cli, call, out_dir, index):
    """One closed-loop call; returns its record: `latency` is wall time and
    `cpu` the process CPU time of the call (every thread), both in seconds."""
    out = os.path.join(out_dir, f"{index}.{call['ext']}")
    stderr = io.StringIO()
    error = None
    start = time.perf_counter()
    cpu0 = time.process_time()
    try:
        with contextlib.redirect_stderr(stderr):
            rc = cli.main(call["argv"] + ["--out", out])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed call, not a benchmark error
        rc, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    return {"rc": rc, "error": error, "latency": latency, "cpu": cpu, "out": out, "stderr": stderr.getvalue()[-400:]}


def run_round(cli, calls, out_dir, before_call=None):
    os.makedirs(out_dir, exist_ok=True)
    records = []
    for k, call in enumerate(calls):
        if before_call is not None:
            before_call(k)
        rec = run_call(cli, call, out_dir, k)
        rec["label"] = call["label"]
        records.append(rec)
    return records


def main():
    plan_path, mode, result_path = sys.argv[1:4]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    t0 = time.perf_counter()
    modules = _import_package(plan["src"])
    t1 = time.perf_counter()
    for path in plan["setup_scenes"]:
        modules["scene"].load_scene(path)
    t2 = time.perf_counter()
    result = {
        "import_ms": (t1 - t0) * 1000.0,
        "scene_build_ms": (t2 - t1) * 1000.0,
        "os_threads_ready": _os_threads(),
    }
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    sys.stdout = sys.stderr  # nobody reads the pipe after this line
    cli = modules["cli"]
    rounds = plan["rounds"]
    out_dir = plan["out_dir"]
    if mode == "timed":
        calls = []
        calibration = []
        for r, round_calls in enumerate(rounds):
            calls += run_round(cli, round_calls, os.path.join(out_dir, f"r{r}"),
                               before_call=lambda k: calibration.append(calibrate()))
        calibration.append(calibrate())
        result["calls"] = calls
        result["calibration_s"] = calibration
    elif mode == "trace":
        import tracer as tracing

        cpu0 = time.process_time()
        start = time.perf_counter()
        result["calls"] = run_round(cli, rounds[0], os.path.join(out_dir, "plain"))
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = time.process_time() - cpu0
        tr = tracing.Tracer()
        tr.install(modules)
        start = time.perf_counter()

        def next_call(k):
            tr.call_id = k + 1

        try:
            result["traced_calls"] = run_round(cli, rounds[0], os.path.join(out_dir, "traced"),
                                               before_call=next_call)
        finally:
            tr.uninstall()
        result["traced_wall_s"] = time.perf_counter() - start
        rec = tr.records()
        metrics = tracing.span_metrics(rec, tr.names)
        result["span_metrics"] = {k: list(v) for k, v in metrics.items()}
        result["span_count"] = int(len(rec["sid"]))
        import numpy as np

        np.savez(plan["spans_path"], names=np.array(tr.names), **rec)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
