"""Output checks for every benchmark call, and the summaries kept as reference.

A call fails when it exits non-zero, raises, or its output breaks one of:
- the acceptance goldens: example1a dir = 2, air = 2 sqrt 2; example4 gives
  (dir, air) = (2, 4), one singular point (s = 0, R = 2) and no collapse arcs;
  the stadium gives dir = tir = 2 (+- 0.05) and ur >= 3.5;
- the paper's invariants on every report and sweep row: dir <= tir <= air,
  dir = min(dcsd_half, focrad0) and air = min(dcsd_half, focradminus);
- the closed form dir = air = 1 for mu = 1 unit-circle arcs;
- byte-identical sweep output at --threads 1 and --threads 2;
- an empty tube overlap below air;
- agreement with the reference summary recorded for the same input, within
  REL_TOL of each value's scale.
"""

import csv
import hashlib
import io
import json
import math

GOLDEN_TOL = 1e-6
STADIUM_TOL = 0.05
REL_TOL = 1e-6

REPORT_KEYS = ("focrad0", "focradminus", "dcsd_half", "lr", "ur", "dir", "tir", "air")


def _near(value, target, tol=GOLDEN_TOL):
    return abs(value - target) <= tol


def report_problems(payload, scene):
    """Goldens and invariants of one report payload."""
    v = {k: float(payload[k]) for k in REPORT_KEYS}
    problems = []
    if not (v["dir"] <= v["tir"] <= v["air"]):
        problems.append(f"ordering dir <= tir <= air broken: {v['dir']!r}, {v['tir']!r}, {v['air']!r}")
    if v["dir"] != min(v["dcsd_half"], v["focrad0"]):
        problems.append("dir != min(dcsd_half, focrad0)")
    if v["air"] != min(v["dcsd_half"], v["focradminus"]):
        problems.append("air != min(dcsd_half, focradminus)")
    if scene == "example1a" and not (_near(v["dir"], 2.0) and _near(v["air"], 2.0 * math.sqrt(2.0))):
        problems.append(f"example1a golden (2, 2 sqrt 2) missed: ({v['dir']!r}, {v['air']!r})")
    if scene == "example4":
        if not (_near(v["dir"], 2.0) and _near(v["air"], 4.0)):
            problems.append(f"example4 golden (2, 4) missed: ({v['dir']!r}, {v['air']!r})")
        if payload["witnesses"]["collapse_arcs"]:
            problems.append("example4 must have no collapse arcs")
    if scene == "example2_stadium" and not (
        _near(v["dir"], 2.0, STADIUM_TOL) and _near(v["tir"], 2.0, STADIUM_TOL) and v["ur"] >= 3.5
    ):
        problems.append(f"stadium golden missed: dir {v['dir']!r}, tir {v['tir']!r}, ur {v['ur']!r}")
    if scene.startswith("circle_arc_mu1") and not (_near(v["dir"], 1.0) and _near(v["air"], 1.0)):
        problems.append(f"mu = 1 arc closed form dir = air = 1 missed: ({v['dir']!r}, {v['air']!r})")
    return problems


def _rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def sweep_problems(text, t_values):
    _, rows = _rows(text)
    problems = []
    if [float(r[0]) for r in rows] != [float(t) for t in t_values]:
        problems.append("sweep rows do not match the requested t grid")
    for r in rows:
        if r[5] != "ok":
            problems.append(f"sweep row t={r[0]} status {r[5]!r}")
            continue
        d, ti, a = float(r[1]), float(r[2]), float(r[3])
        if not (d <= ti <= a):
            problems.append(f"sweep row t={r[0]}: ordering dir <= tir <= air broken")
    return problems


def csv_summary(text):
    """Row count and per-column sums of a numeric CSV."""
    header, rows = _rows(text)
    sums = [0.0] * len(header)
    scale = [0.0] * len(header)
    for r in rows:
        for i, cell in enumerate(r):
            x = float(cell)
            sums[i] += x
            scale[i] += abs(x)
    return {"rows": len(rows), "sums": sums, "scale": scale}


def summarize(kind, outputs):
    """Numbers kept as the reference for one call; outputs maps file
    suffix ("main", "overlap") to text."""
    text = outputs["main"]
    if kind == "report":
        payload = json.loads(text)
        out = {k: float(payload[k]) for k in REPORT_KEYS}
        out["pair_count"] = payload["witnesses"]["pair_count"]
        out["arcs"] = len(payload["witnesses"]["collapse_arcs"])
        return out
    if kind == "check":
        payload = json.loads(text)
        return {"transversal": payload["transversal"], "witnesses": len(payload["witnesses"])}
    if kind == "sweep":
        header, rows = _rows(text)
        return {name: [float(r[i]) for r in rows] for i, name in enumerate(header[:5])}
    out = {"main": csv_summary(text)}
    if "overlap" in outputs:
        out["overlap"] = csv_summary(outputs["overlap"])
    return out


def _close(a, b, scale):
    if isinstance(a, str) or isinstance(b, str) or isinstance(a, bool):
        return a == b
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(1.0, abs(scale))


def compare(summary, reference, path=""):
    """Differences between a summary and its reference, beyond REL_TOL."""
    problems = []
    if isinstance(reference, dict):
        if set(summary) != set(reference):
            return [f"{path or 'summary'}: keys differ from the reference"]
        if {"rows", "sums", "scale"} <= set(reference):
            if summary["rows"] != reference["rows"]:
                return [f"{path}: {summary['rows']} rows, reference {reference['rows']}"]
            for i, (x, y) in enumerate(zip(summary["sums"], reference["sums"])):
                if not _close(x, y, reference["scale"][i]):
                    problems.append(f"{path}: column {i} sum {x!r}, reference {y!r}")
            return problems
        for key in reference:
            problems += compare(summary[key], reference[key], f"{path}.{key}" if path else key)
        return problems
    if isinstance(reference, list):
        if len(summary) != len(reference):
            return [f"{path}: {len(summary)} values, reference {len(reference)}"]
        for i, (x, y) in enumerate(zip(summary, reference)):
            problems += compare(x, y, f"{path}[{i}]")
        return problems
    if not _close(summary, reference, reference if isinstance(reference, float) else 0.0):
        problems.append(f"{path}: {summary!r}, reference {reference!r}")
    return problems


def check_call(call, rc, error, outputs, partner_bytes=None, reference=None):
    """All problems of one finished call (empty list: the call passed).

    outputs maps "main" / "overlap" to output bytes; partner_bytes is the
    main output of the call this one must match byte for byte.
    """
    if error is not None:
        return [f"raised {error}"]
    if rc != 0:
        return [f"exit code {rc}"]
    kind = call["kind"]
    check = call["check"]
    scene = check.get("scene", "")
    text = outputs["main"].decode("utf-8")
    problems = []
    if kind == "report":
        problems += report_problems(json.loads(text), scene)
    elif kind == "sweep":
        problems += sweep_problems(text, check["t"])
        if check.get("same_bytes_as") and outputs["main"] != partner_bytes:
            problems.append(f"bytes differ from {check['same_bytes_as']}")
    elif kind == "tube" and check.get("below_air"):
        rows = csv_summary(outputs["overlap"].decode("utf-8"))["rows"]
        if rows:
            problems.append(f"{rows} overlap points below air")
    elif kind == "singular" and scene == "example4":
        _, rows = _rows(text)
        if len(rows) != 1 or not (_near(float(rows[0][0]), 0.0) and _near(float(rows[0][1]), 2.0)):
            problems.append("example4 must have one singular point at s = 0, R = 2")
    elif kind == "collapse" and scene == "example4":
        if _rows(text)[1]:
            problems.append("example4 must have no collapse arcs")
    if reference is not None:
        decoded = {k: v.decode("utf-8") for k, v in outputs.items()}
        problems += compare(summarize(kind, decoded), reference["summary"])
    return problems


def input_digest(argv, scene_bytes):
    """Identity of one call's input: its argv (scene path excluded) and the
    scene document's bytes."""
    h = hashlib.sha256()
    h.update("\0".join(argv).encode())
    h.update(b"\0")
    h.update(scene_bytes)
    return h.hexdigest()
