"""Command-line interface: scene ingestion and deterministic data export.

Verbs: report | sweep | fibers | tube | singular | collapse | check.
Global flags: --scene, --out, --tol-override KEY=VALUE (repeatable),
--threads N, --format {json,csv,svg}. Exit codes: 0 ok, 2 configuration
error, 3 numeric failure. All numeric output is serialized with 17
significant digits and LF line endings, so identical invocations produce
identical bytes.
"""

import argparse
import sys

import numpy as np

from . import radii, singular, sweeps
from .errors import SceneError, WeightedTubesError
from .expmap import normal_frame, w_bound
from .scene import load_scene
from .svg import render_svg
from .util import float17

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _json_text(obj, indent=0):
    """17-significant-digit JSON writer (infinities become strings)."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{pad}  "{k}": {_json_text(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        rows = [f"{pad}  {_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        text = float17(obj)
        if text in ("inf", "-inf", "nan"):
            return f'"{text}"'
        return text
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_text(header, rows):
    """CSV with one %-format per column, picked from its cells' types (see
    _cell_format); a row whose columns mix kinds is formatted cell by cell."""
    rows = [tuple(row) for row in rows]
    fmts = [{_cell_format(kind) for kind in set(map(type, col))} for col in zip(*rows)]
    fmt = ",".join(f.pop() for f in fmts) if all(len(f) == 1 for f in fmts) else None
    lines = [(fmt or ",".join(_cell_format(type(cell)) for cell in row)) % row for row in rows]
    return "\n".join([",".join(header)] + lines) + "\n"


def _cell_format(kind):
    """A str as is, an int as %d, anything else as %.17g (float17's bytes)."""
    if issubclass(kind, str):
        return "%s"
    return "%d" if issubclass(kind, (int, np.integer)) else "%.17g"


def _parse_overrides(items):
    out = {}
    for item in items or []:
        if "=" not in item:
            raise SceneError(f"--tol-override expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _load(args):
    scene = load_scene(args.scene)
    overrides = _parse_overrides(args.tol_override)
    if overrides:
        scene.tolerances = scene.tolerances.with_overrides(overrides).require_grid_budget(
            scene.ambient_dim
        )
    return scene


def _report_payload(rep):
    wit = rep.witnesses
    payload = {
        "focrad0": rep.focrad0,
        "focradminus": rep.focradminus,
        "dcsd_half": rep.dcsd_half,
        "lr": rep.lr,
        "ur": rep.ur,
        "dir": rep.dir,
        "tir": rep.tir,
        "air": rep.air,
        "witnesses": {
            "focrad0": _witness_payload(wit["focrad0"]),
            "focradminus": _witness_payload(wit["focradminus"]),
            "dcsd_pair": _pair_payload(wit["dcsd_pair"]),
            "collapse_arcs": [_arc_payload(a) for a in wit["collapse_arcs"]],
            "tir_attained": wit["tir_attained"],
            "pair_count": wit["pair_count"],
        },
    }
    return payload


def _witness_payload(w):
    if w is None:
        return None
    return {"component": w.component, "s": w.s, "value": w.value}


def _pair_payload(p):
    if p is None:
        return None
    return {
        "component_1": p.component_1,
        "component_2": p.component_2,
        "s1": p.s1,
        "s2": p.s2,
        "ratio": p.ratio,
        "residual": p.residual,
    }


def _arc_payload(a):
    return {
        "component": a.component,
        "s_start": a.s_start,
        "s_end": a.s_end,
        "kappa": a.kappa,
        "r": a.r,
        "phase": a.phase,
        "p0": list(map(float, a.p0)),
    }


def cmd_report(args):
    scene = _load(args)
    rep = radii.radii_report(scene.pairs, scene.tolerances)
    payload = _report_payload(rep)
    table = [
        "quantity        value",
        f"focrad0         {float17(rep.focrad0)}",
        f"focradminus     {float17(rep.focradminus)}",
        f"dcsd_half       {float17(rep.dcsd_half)}",
        f"dir (= lr)      {float17(rep.dir)}",
        f"tir             {float17(rep.tir)}",
        f"air (= ur)      {float17(rep.air)}",
    ]
    print("\n".join(table), file=sys.stderr)
    _write_text(args.out, _json_text(payload) + "\n")
    return EXIT_OK


def _numbers(text, flag):
    """The numbers of a comma-separated list flag."""
    try:
        numbers = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise SceneError(f"{flag} expects comma-separated numbers, got {text!r}") from exc
    if not numbers:
        raise SceneError(f"{flag} holds no numbers, got {text!r}")
    return numbers


def _positive(value, flag, finite=True):
    """value, unless it is nan, <= 0 or (when finite) infinite."""
    if not (value > 0 and (np.isfinite(value) or not finite)):
        raise SceneError(f"{flag} must be {'finite and ' if finite else ''}> 0, got {value!r}")
    return value


def _t_grid(args):
    if args.t_values:
        return _numbers(args.t_values, "--t-values")
    if args.t_count is not None:
        if args.t_min is None or args.t_max is None:
            raise SceneError("--t-count needs --t-min and --t-max")
        if args.t_count < 1:
            raise SceneError(f"--t-count must be >= 1, got {args.t_count}")
        return list(np.linspace(args.t_min, args.t_max, args.t_count))
    raise SceneError("sweep needs --t-values or --t-min/--t-max/--t-count")


def cmd_sweep(args):
    scene = _load(args)
    family = scene.family_kind
    if args.family:
        fam_scene = load_scene(args.family) if args.family not in ("offset", "fixed") else None
        family = fam_scene.family_kind if fam_scene else args.family
    if family is None:
        raise SceneError("scene defines no family; pass --family offset|fixed")
    rows = sweeps.radii_sweep(scene.pairs, family, _t_grid(args), scene.tolerances)
    table = [
        (r.t, r.dir, r.tir, r.air, r.collapse_count, r.status) for r in rows
    ]
    _write_text(args.out, _csv_text(["t", "dir", "tir", "air", "collapse_count", "status"], table))
    return EXIT_OK


def _svg_target(args, scene):
    if args.format != "svg":
        return None
    if scene.ambient_dim != 2:
        print("SVG_UNSUPPORTED_DIM: SVG output needs ambient_dim = 2; emitting CSV only",
              file=sys.stderr)
        return None
    if args.out is None:
        raise SceneError("--format svg needs --out PATH")
    return args.out if args.out.endswith(".svg") else args.out + ".svg"


def _curve_polylines(scene, samples=512):
    lines = []
    for curve, _ in scene.pairs:
        sg = curve.grid(samples)
        pts = curve.point(sg)
        if curve.closed:
            pts = np.vstack([pts, pts[:1]])
        lines.append(pts)
    return lines


def cmd_fibers(args):
    scene = _load(args)
    svg_path = _svg_target(args, scene)
    if args.samples < 2:
        raise SceneError("fibers needs --samples N >= 2")
    if not 0 <= args.component < len(scene.pairs):
        raise SceneError(f"--component must be in [0, {len(scene.pairs)}), got {args.component}")
    if args.r_max is not None:
        _positive(args.r_max, "--r-max")
    curve, weight = scene.pairs[args.component]
    if args.s_values:
        feet = _numbers(args.s_values, "--s-values")
    else:
        feet = list(np.linspace(curve.s_min + 0.1 * curve.length,
                                curve.s_max - 0.1 * curve.length, 5))
    rows = []
    polylines = []
    for s in feet:
        frame = curve.frame(s)
        v = frame.principal_normal
        if v is None:
            v = normal_frame(curve, s)[0]
        r_max = args.r_max
        if r_max is None:
            bound = float(w_bound(weight, s))
            r_max = 0.9 * bound if np.isfinite(bound) else 1.0
        rr, pts = sweeps.fiber_trace(curve, weight, s, v, r_max, samples=args.samples)
        polylines.append(pts)
        for r, p in zip(rr, pts):
            rows.append((s, r, *[float(x) for x in p]))
    csv_text = _csv_text(_point_header(scene), rows)
    if svg_path:
        _write_text(svg_path, render_svg(curves=_curve_polylines(scene), fibers=polylines))
        _write_text(svg_path[:-4] + ".csv", csv_text)
    else:
        _write_text(args.out, csv_text)
    return EXIT_OK


def cmd_tube(args):
    scene = _load(args)
    svg_path = _svg_target(args, scene)
    if args.radius is None:
        raise SceneError("tube needs --radius R > 0")
    _positive(args.radius, "--radius")
    if args.samples < 1:
        raise SceneError("tube needs --samples N >= 1")
    boundary, overlap = sweeps.tube_boundary(
        scene.pairs, args.radius, s_samples=args.samples, tol=scene.tolerances
    )
    header = _point_header(scene)
    rows = [(s, args.radius, *[float(x) for x in p]) for (_, s, p, _) in boundary]
    over_rows = [(s, args.radius, *[float(x) for x in p]) for (_, s, p, _) in overlap]
    csv_text = _csv_text(header, rows)
    over_text = _csv_text(header, over_rows)
    out = args.out
    if svg_path:
        pts = np.array([p for (_, _, p, _) in boundary]) if boundary else np.zeros((0, 2))
        _write_text(svg_path, render_svg(curves=_curve_polylines(scene), tube_points=pts))
        out = svg_path[:-4] + ".csv"
    _write_text(out, csv_text)
    if out is not None:
        base = out[:-4] if out.endswith(".csv") else out
        _write_text(base + ".overlap.csv", over_text)
    elif over_rows:
        print(f"{len(over_rows)} overlap points (inside the tube interior)", file=sys.stderr)
    return EXIT_OK


def _ur(args, scene):
    """The height cutoff: --ur (> 0, inf allowed), else the scene's computed ur."""
    if args.ur is None:
        return radii.radii_report(scene.pairs, scene.tolerances).ur
    return _positive(args.ur, "--ur", finite=False)


def _point_header(scene):
    """The s,R,x1..xn header of the point tables."""
    return ["s", "R"] + [f"x{i + 1}" for i in range(scene.ambient_dim)]


def cmd_singular(args):
    scene = _load(args)
    svg_path = _svg_target(args, scene)
    points = singular.singular_set(scene.pairs, _ur(args, scene), scene.tolerances)
    rows = [(p.s, p.R, *[float(x) for x in p.location]) for p in points]
    csv_text = _csv_text(_point_header(scene), rows)
    if svg_path:
        pts = np.array([p.location for p in points]) if points else np.zeros((0, 2))
        _write_text(svg_path, render_svg(curves=_curve_polylines(scene), singular_points=pts))
        _write_text(svg_path[:-4] + ".csv", csv_text)
    else:
        _write_text(args.out, csv_text)
    return EXIT_OK


def cmd_collapse(args):
    scene = _load(args)
    arcs = singular.detect_collapse_arcs(scene.pairs, _ur(args, scene), scene.tolerances)
    header = ["component", "s_start", "s_end", "kappa", "r", "phase"] + [
        f"p0_x{i + 1}" for i in range(scene.ambient_dim)
    ]
    rows = [
        (a.component, a.s_start, a.s_end, a.kappa, a.r, a.phase, *[float(x) for x in a.p0])
        for a in arcs
    ]
    _write_text(args.out, _csv_text(header, rows))
    return EXIT_OK


def cmd_check(args):
    scene = _load(args)
    pairs = scene.pairs
    if args.t is not None:
        if scene.family_kind is None:
            raise SceneError("scene defines no family; --t needs one")
        pairs = sweeps.family_weights(pairs, scene.family_kind, args.t)
        for curve, weight in pairs:
            weight.validate_on(curve)
    ok, witnesses = singular.transversality_check(pairs, scene.tolerances)
    payload = {
        "transversal": ok,
        "witnesses": [
            {"component": c, "s": s, "slope": g} for (c, s, g) in witnesses
        ],
    }
    _write_text(args.out, _json_text(payload) + "\n")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wtube",
        description="Nonuniform tubular thickness of weighted curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scene", required=True, help="scene file or bundled scene name")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--tol-override", action="append", metavar="KEY=VALUE",
                       help="override a named tolerance (repeatable)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; output does not depend on it")
        p.add_argument("--format", choices=("json", "csv", "svg"), default=None)

    p = sub.add_parser("report", help="radii report (JSON + table on stderr)")
    common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sweep", help="weight-family sweep (CSV)")
    common(p)
    p.add_argument("--family", default=None, help="family kind or family file")
    p.add_argument("--t-values", default=None, help="comma-separated t grid")
    p.add_argument("--t-min", type=float, default=None)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--t-count", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fibers", help="fiber traces (CSV, SVG for planar scenes)")
    common(p)
    p.add_argument("--s-values", default=None, help="comma-separated feet")
    p.add_argument("--component", type=int, default=0)
    p.add_argument("--r-max", type=float, default=None)
    p.add_argument("--samples", type=int, default=257)
    p.set_defaults(func=cmd_fibers)

    p = sub.add_parser("tube", help="tube-boundary samples (CSV + overlap file)")
    common(p)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--samples", type=int, default=256)
    p.set_defaults(func=cmd_tube)

    p = sub.add_parser("singular", help="singular-set points (CSV)")
    common(p)
    p.add_argument("--ur", type=float, default=None, help="height cutoff (default: computed)")
    p.set_defaults(func=cmd_singular)

    p = sub.add_parser("collapse", help="collapse arcs (CSV)")
    common(p)
    p.add_argument("--ur", type=float, default=None)
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("check", help="transversality diagnostic (JSON)")
    common(p)
    p.add_argument("--t", type=float, default=None, help="family parameter")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SceneError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WeightedTubesError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
