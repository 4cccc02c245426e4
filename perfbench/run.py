"""Benchmark of the weighted_tubes CLI: two workloads timed end to end, and
a traced run that splits the same calls by module.

    python3 perfbench/run.py --workload {report_mix,geometry} --seed N --seconds S --trace {0,1}

Run from the repository root. Inputs are generated from the seed as scene
files before anything is timed; the program sees only those files. Each
workload runs in fresh interpreters that import the package from src/ and
call `weighted_tubes.cli.main(argv)` in-process, one client in a closed loop.

--trace 0 prints the end-to-end metrics; --trace 1 runs round 0 untraced and
then traced and prints the per-layer metrics. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKSPACE = ROOT / ".perfbench"

# One BLAS/OpenMP thread per process: with nproc = 2 the sweep pool's two
# workers are then the most compute threads the workload process runs.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_SAMPLES = 5
# Median CPU seconds of worker.calibrate() on the machine the benchmark was
# defined on, when it ran at its usual speed. The worker runs the calibration
# before every call and once after the last; each call's CPU time is scaled
# by CALIBRATION_REFERENCE_S / (median of the calibrations within
# CALIBRATION_HALF_WINDOW samples of it), so a call made while the CPU ran
# slower (a busy sibling hyperthread on a shared host) reads as it would at
# the usual speed. On that host the speed moves within seconds.
CALIBRATION_REFERENCE_S = 0.0078
CALIBRATION_HALF_WINDOW = 4
WORKER_TIMEOUT_S = 170.0
TAIL_BEYOND = 10
# JSON has no infinity; a metric that is infinite (a failed call at the
# reported rank) is written as the largest float, which reads as a regression.
INFINITE = sys.float_info.max

END_TO_END = {
    "setup_s": "s",
    "units_per_cpu_s": "1/s",
    "call_cpu_p50_ms": "ms",
    "call_cpu_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# The same figures in wall time, printed for context but not bounded: on a
# shared virtual machine wall time includes the time the hypervisor gives the
# vCPU to other guests (steal), which moves by tens of percent between runs.
# CPU time of the workload process excludes it; the calibration scale removes
# most of what is left (the CPU itself running slower for minutes at a time).
WALL_CLOCK = {
    "units_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
}


# ---------------------------------------------------------------------------
# Latency statistics
# ---------------------------------------------------------------------------


def tail_rank(n):
    """0-based index, in ascending order, of the highest percentile with at
    least ten calls beyond it; the maximum when there are fewer than 11."""
    if n < 1:
        raise ValueError("no calls")
    return max(n - 1 - TAIL_BEYOND, 0) if n > TAIL_BEYOND else n - 1


def latency_stats(latencies_s, failed):
    """p50 and tail in ms; a failed call counts as infinitely slow."""
    values = sorted(math.inf if bad else t * 1000.0 for t, bad in zip(latencies_s, failed))
    k = tail_rank(len(values))
    return {
        "p50_ms": statistics.median(values),
        "tail_ms": values[k],
        "tail_rank": k + 1,
        "tail_percentile": 100.0 * (k + 1) / len(values),
        "samples": len(values),
    }


def calibration_scales(calibration_s, n_calls):
    """Per call, the factor that reads its CPU time at the reference speed:
    the reference calibration time over the median of the samples from
    CALIBRATION_HALF_WINDOW before the call to as many after it. Sample k
    was taken just before call k."""
    h = CALIBRATION_HALF_WINDOW
    return [CALIBRATION_REFERENCE_S / statistics.median(calibration_s[max(0, k - h):k + h + 2])
            for k in range(n_calls)]


def _finite(x):
    return x if math.isfinite(x) else INFINITE


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


class Inputs:
    """Scene files and the call plan of one run."""

    def __init__(self, workload, seed, seconds, run_dir):
        import plan as planning
        from weighted_tubes import load_scene, radii_report
        from weighted_tubes.errors import WeightedTubesError

        self.workload = workload
        self.scene_dir = run_dir / "scenes"
        self.scene_dir.mkdir(parents=True)
        self.scenes = {}  # key -> file bytes
        self.bundled = set()
        self.rejected = 0
        n_rounds = planning.round_count(workload, seconds)

        def accepts(doc):
            try:
                load_scene(doc)
            except WeightedTubesError:
                return False
            return True

        def generated(kind, r, slot):
            doc, attempts = planning.generate_scene(kind, seed, r, slot, accepts)
            self.rejected += attempts
            return self.add(doc["name"], (json.dumps(doc, indent=1) + "\n").encode())

        if workload == "report_mix":
            for name in planning.FAMILY_SCENES:
                self.add_bundled(name)
            rounds = []
            for r in range(n_rounds):
                keys = []
                if r == 0:
                    keys += [self.add_bundled(name) for name in planning.BUNDLED_DISTINCT]
                    keys += [generated(kind, 0, i) for i, kind in enumerate(planning.OPEN_ARCS)]
                keys += [generated(kind, r, i) for i, kind in enumerate(planning.CLOSED_BATCH)]
                calls = planning.report_round(r, keys)
                for c in calls:
                    c["check"]["known_defect"] = c["check"]["scene"].startswith(
                        ("chebyshev_arc", "circle_arc_mu1"))
                rounds.append(calls + planning.sweep_round(seed, r))
        elif workload == "geometry":
            keys = [self.add_bundled(name) for name in planning.BUNDLED_DISTINCT]
            keys.append(generated("fourier_3d", 0, 0))
            for name in planning.FAMILY_SCENES:
                self.add_bundled(name)
            infos = []
            for key in keys:
                scene = load_scene(str(self.path(key)))
                rep = radii_report(scene.pairs, scene.tolerances)
                curve = scene.pairs[0][0]
                infos.append((key, {"ur": rep.ur, "air": rep.air, "s_min": curve.s_min, "s_max": curve.s_max,
                                    "tube_samples": None if key in self.bundled else planning.GENERATED_TUBE_SAMPLES}))
            rounds = [planning.geometry_round(seed, r, infos) for r in range(n_rounds)]
        else:
            raise ValueError(f"unknown workload {workload!r}")
        self.rounds = rounds
        self.setup_keys = sorted({c["argv"][2] for c in rounds[0]})
        self.resolve()

    def add(self, key, data):
        self.scenes[key] = data
        self.path(key).write_bytes(data)
        return key

    def add_bundled(self, name):
        self.bundled.add(name)
        return self.add(name, (SRC / "weighted_tubes" / "scenes" / f"{name}.json").read_bytes())

    def path(self, key):
        return self.scene_dir / f"{key}.json"

    def resolve(self):
        """Give every call its scene path, output extension and input digest."""
        for calls in self.rounds:
            for c in calls:
                key = c["argv"][2]
                c["digest"] = checker.input_digest(c["argv"], self.scenes[key])
                c["argv"] = c["argv"][:2] + [str(self.path(key))] + c["argv"][3:]
                c["ext"] = "json" if c["kind"] in ("report", "check") else "csv"

    def round0_digest(self):
        h = hashlib.sha256()
        for c in self.rounds[0]:
            h.update(c["digest"].encode())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------


class Worker:
    """A workload interpreter; `ready_s` is spawn-to-ready wall time."""

    def __init__(self, plan_path, mode, result_path, log_path):
        env = dict(os.environ, **THREAD_ENV)
        self.result_path = result_path
        self._log = open(log_path, "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), mode, str(result_path)],
            stdout=subprocess.PIPE, stderr=self._log, cwd=str(ROOT), env=env,
        )
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - start
        if line.strip() != b"ready":
            self.close()
            raise RuntimeError(f"worker did not report ready (log: {log_path})")

    def result(self, timeout):
        try:
            self.proc.wait(timeout=timeout)
        finally:
            self.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        with open(self.result_path, encoding="utf-8") as fh:
            return json.load(fh)

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


def _read(path):
    try:
        return Path(path).read_bytes()
    except OSError:
        return None


def _outputs(call, out):
    outputs = {"main": _read(out)}
    if call["kind"] == "tube":
        outputs["overlap"] = _read(out[:-4] + ".overlap.csv")
    return outputs


def check_calls(calls_by_label, records, reference):
    """Judge every record; returns (verdicts, wrong, compared) where a
    verdict is a list of problems, `wrong` counts calls that did something
    other than pass or hit the known exit-3 defect, and `compared` counts
    calls checked against a reference."""
    verdicts = []
    wrong = compared = 0
    main_bytes = {}
    for rec in records:
        call = calls_by_label[rec["label"]]
        outputs = _outputs(call, rec["out"])
        main_bytes[rec["label"]] = outputs["main"]
        if rec["error"] is None and rec["rc"] == 0 and any(v is None for v in outputs.values()):
            problems = ["output file missing"]
        else:
            partner = main_bytes.get(call["check"].get("same_bytes_as"))
            ref = reference.get(call["digest"])
            compared += ref is not None
            problems = checker.check_call(call, rec["rc"], rec["error"], outputs, partner, ref)
        known = call["check"].get("known_defect") and rec["error"] is None and rec["rc"] == 3
        if problems and not known:
            wrong += 1
        verdicts.append(problems)
    return verdicts, wrong, compared


def load_reference(workload):
    path = HERE / "reference" / f"{workload}.json"
    if not path.is_file():
        return {"inputs": {}, "calls": {}}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def environment():
    import numpy
    import scipy
    import weighted_tubes

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": THREAD_ENV,
        "package_from": os.path.relpath(os.path.dirname(weighted_tubes.__file__), ROOT),
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _plan_file(inputs, run_dir, spans_path=None):
    plan = {
        "src": str(SRC),
        "setup_scenes": [str(inputs.path(k)) for k in inputs.setup_keys],
        "rounds": inputs.rounds,
        "out_dir": str(run_dir / "out"),
        "spans_path": str(spans_path) if spans_path else None,
    }
    path = run_dir / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    return path


def run_timed(inputs, run_dir, reference):
    plan_path = _plan_file(inputs, run_dir)
    log = run_dir / "worker.log"
    ready = []
    for k in range(SETUP_SAMPLES - 1):
        probe = Worker(plan_path, "setup", run_dir / f"setup{k}.json", log)
        ready.append(probe.ready_s)
        probe.result(WORKER_TIMEOUT_S)
    worker = Worker(plan_path, "timed", run_dir / "timed.json", log)
    ready.append(worker.ready_s)
    res = worker.result(WORKER_TIMEOUT_S)
    calls_by_label = {c["label"]: c for calls in inputs.rounds for c in calls}
    verdicts, wrong, compared = check_calls(calls_by_label, res["calls"], reference)
    failed = [bool(v) for v in verdicts]
    cpu_s = [r["cpu"] for r in res["calls"]]
    scales = calibration_scales(res["calibration_s"], len(cpu_s))
    scaled_s = [t * k for t, k in zip(cpu_s, scales)]
    wall_s = [r["latency"] for r in res["calls"]]
    lat = latency_stats(scaled_s, failed)
    wall = latency_stats(wall_s, failed)
    units = sum(calls_by_label[r["label"]]["units"] for r, bad in zip(res["calls"], failed) if not bad)
    metrics = {
        "setup_s": statistics.median(ready),
        "units_per_cpu_s": units / sum(scaled_s),
        "call_cpu_p50_ms": _finite(lat["p50_ms"]),
        "call_cpu_tail_ms": _finite(lat["tail_ms"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    wall_metrics = {
        "units_per_s": units / sum(wall_s),
        "call_p50_ms": _finite(wall["p50_ms"]),
        "call_tail_ms": _finite(wall["tail_ms"]),
    }
    rounds_run = len({r["label"].split("/", 1)[0] for r in res["calls"]})
    notes = [
        f"rounds: {rounds_run}, calls' wall {sum(wall_s):.3f} s, cpu {sum(cpu_s):.3f} s, "
        f"units {units}",
        f"cpu calibration: median {statistics.median(res['calibration_s']) * 1000.0:.4f} ms of "
        f"{len(res['calibration_s'])} against the reference {CALIBRATION_REFERENCE_S * 1000.0:.4f} ms; "
        f"calls' cpu {sum(scaled_s):.3f} s once scaled (scales {min(scales):.4f}-{max(scales):.4f})",
        f"setup samples (s): {', '.join(f'{x:.4f}' for x in ready)}",
        f"call_cpu_tail_ms and call_tail_ms are rank {lat['tail_rank']} of {lat['samples']} calls "
        f"(p{lat['tail_percentile']:.1f}; {TAIL_BEYOND} calls beyond it)",
        f"failed_ratio: {sum(failed) / len(failed):.6f} ({sum(failed)} of {len(failed)} calls)",
        f"os threads at ready: {res['os_threads_ready']}",
        "wall clock (context, not bounded: includes hypervisor steal time):",
    ]
    notes += [f"  {k} = {wall_metrics[k]!r} {u}" for k, u in WALL_CLOCK.items()]
    return res["calls"], verdicts, wrong, compared, metrics, notes


def run_traced(inputs, run_dir, reference):
    spans_path = WORKSPACE / f"spans-{inputs.workload}.npz"
    plan_path = _plan_file(inputs, run_dir, spans_path)
    worker = Worker(plan_path, "trace", run_dir / "trace.json", run_dir / "worker.log")
    res = worker.result(WORKER_TIMEOUT_S)
    calls_by_label = {c["label"]: c for c in inputs.rounds[0]}
    verdicts, wrong, compared = check_calls(calls_by_label, res["calls"], reference)
    mismatched = []
    bytes_out = 0
    for k, (plain, traced) in enumerate(zip(res["calls"], res["traced_calls"])):
        call = calls_by_label[plain["label"]]
        a, b = _outputs(call, plain["out"]), _outputs(call, traced["out"])
        bytes_out += sum(len(v) for v in b.values() if v is not None)
        if a != b or (plain["rc"], plain["error"]) != (traced["rc"], traced["error"]):
            mismatched.append(plain["label"])
            verdicts[k].append("traced output differs")
            wrong += 1
    metrics = {
        "setup.import_ms": (res["import_ms"], "ms"),
        "setup.scene_build_ms": (res["scene_build_ms"], "ms"),
    }
    metrics.update({k: tuple(v) for k, v in res["span_metrics"].items()})
    metrics["cli.bytes_out"] = (bytes_out, "bytes")
    metrics["process.cpu_s"] = (res["cpu_s"], "s")
    metrics["trace.overhead_ratio"] = (res["traced_wall_s"] / res["wall_s"], "ratio")
    notes = [
        f"traced {len(res['traced_calls'])} calls, {res['span_count']} spans written to "
        f"{os.path.relpath(spans_path, ROOT)}",
        f"traced outputs identical to untraced: {not mismatched}"
        + (f" (differ: {', '.join(mismatched)})" if mismatched else ""),
    ]
    return res["calls"], verdicts, wrong, compared, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("report_mix", "geometry"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weighted_tubes" / "__init__.py").is_file():
        print(f"error: {SRC} holds no weighted_tubes package; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))

    WORKSPACE.mkdir(exist_ok=True)
    run_dir = WORKSPACE / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir()
    try:
        inputs = Inputs(args.workload, args.seed, args.seconds, run_dir)
        reference = load_reference(args.workload)
        recorded = reference["inputs"].get(str(args.seed))
        digest = inputs.round0_digest()
        run_workload = run_traced if args.trace else run_timed
        records, verdicts, wrong, compared, metrics, notes = run_workload(inputs, run_dir, reference["calls"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    print(f"inputs: round 0 sha256 {digest} "
          + ("(matches the reference)" if recorded == digest
             else "(no reference recorded for this seed)" if recorded is None
             else "(DIFFERS from the reference)"))
    print(f"generator: {inputs.rejected} loader rejections replaced")
    failed = sum(1 for v in verdicts if v)
    print(f"checker: {len(records)} calls, {len(records) - failed} passed, {failed} failed "
          f"({failed - wrong} known exit-3 open-arc defect), {wrong} wrong; "
          f"{compared} compared with reference values")
    for rec, problems in zip(records, verdicts):
        if problems:
            print(f"  FAIL {rec['label']}: {'; '.join(problems)}")
    for note in notes:
        print(note)
    if args.trace:
        out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        out = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    for name, m in out.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": len(records), "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
