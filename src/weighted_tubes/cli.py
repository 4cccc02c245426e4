"""Command-line interface: scene ingestion and deterministic data export.

Verbs: report | sweep | fibers | tube | singular | collapse | check. Every
verb loads its scene once (--scene), computes, and writes to --out (default:
stdout). Flags beyond those two go only to the verbs that read them:
--tol-override KEY=VALUE (repeatable; KEY is one of the sample counts
grid_samples, pair_grid) to report, sweep, singular, collapse and check;
--threads N (accepted for compatibility; output does not depend on it) to
report and sweep; --format {csv,svg} to the point tables fibers, tube and
singular. Any other flag exits 2. Exit codes: 0 ok, 2
configuration error, 3 numeric failure. All numeric output is serialized
with 17 significant digits and LF line endings, so identical invocations
produce identical bytes.
"""

import argparse
import functools
import sys

import numpy as np

from . import radii, singular, sweeps
from .config import check_budget
from .errors import OutOfDomainError, SceneError, WeightedTubesError
from .expmap import _rownorm, normal_frames, w_bound
from .scene import load_scene
from .svg import render_svg
from .util import float17

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# Record fields in output order.
_RADII = ("focrad0", "focradminus", "dcsd_half", "lr", "ur", "dir", "tir", "air")
_WITNESS = ("component", "s", "value")
_ARC = ("component", "s_start", "s_end", "kappa", "r", "phase")
_SWEEP = ("t", "dir", "tir", "air", "collapse_count", "status")
# Rows of the stderr table of `report`; a label's first word is its field.
_TABLE = ("focrad0", "focradminus", "dcsd_half", "dir (= lr)", "tir", "air (= ur)")
# Feet per curve polyline of an SVG drawing.
_SVG_CURVE_SAMPLES = 512


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
    if isinstance(obj, (list, tuple, np.ndarray)):
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


def _fields(obj, names):
    """{name: obj.name} in the order of `names`; None passes through."""
    return None if obj is None else {k: getattr(obj, k) for k in names}


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv_text(header, rows):
    """CSV of rows (or a 2-D array), column by column: a column of floats
    formats each distinct value once, keyed by its bits (-0.0, 0.0 and each
    nan keep their text), any other column each cell by its type (_cell_format)."""
    texts = []
    for col in rows.T if isinstance(rows, np.ndarray) else zip(*rows):
        if (isinstance(col, np.ndarray) and col.dtype.kind == "f") or all(
                issubclass(kind, (float, np.floating)) for kind in set(map(type, col))):
            keys, at = np.unique(np.asarray(col, dtype=float).view(np.int64), return_inverse=True)
            texts.append(np.array(["%.17g" % x for x in keys.view(float).tolist()], dtype=object)[at])
        else:
            texts.append([_cell_format(type(cell)) % cell for cell in col])
    return "\n".join([",".join(header)] + list(map(",".join, zip(*texts)))) + "\n"


def _cell_format(kind):
    """A str as is, an int as %d, anything else as %.17g (float17's bytes)."""
    if issubclass(kind, str):
        return "%s"
    return "%d" if issubclass(kind, (int, np.integer)) else "%.17g"


def _point_csv(scene, s, R, points):
    """The s,R,x1..xn table of the point verbs: one row per point, R a
    height per point or one for all."""
    s = np.asarray(s, dtype=float)
    points = np.reshape(points, (len(s), scene.ambient_dim))
    table = np.column_stack([s, np.broadcast_to(R, s.shape), points])
    return _csv_text(["s", "R"] + [f"x{i + 1}" for i in range(scene.ambient_dim)], table)


def _write_points(args, scene, s, R, points, **layers):
    """Write the point table of (s, R, points) to --out. With --format svg,
    the drawing's path is --out (".svg" appended unless present) and the
    table goes beside it as .csv; a planar scene's curves are drawn there
    with `layers` (render_svg's keywords), and a scene in 3 or more
    dimensions writes no SVG. Returns the table's path (None: stdout)."""
    out = args.out
    planar = scene.ambient_dim == 2
    if args.format == "svg" and not planar:
        print("SVG_UNSUPPORTED_DIM: SVG output needs ambient_dim = 2; emitting CSV only",
              file=sys.stderr)
    elif args.format == "svg" and out is None:
        raise SceneError("--format svg needs --out PATH")
    if args.format == "svg" and out is not None:
        svg = out if out.endswith(".svg") else out + ".svg"
        out = svg[:-4] + ".csv"
        if planar:
            curves = []
            for curve, _ in scene.pairs:
                pts = curve.point(curve.grid(_SVG_CURVE_SAMPLES))
                curves.append(np.vstack([pts, pts[:1]]) if curve.closed else pts)
            _write_text(svg, render_svg(curves=curves, **layers))
    _write_text(out, _point_csv(scene, s, R, points))
    return out


def _parse_overrides(items):
    out = {}
    for item in items or []:
        if "=" not in item:
            raise SceneError(f"--tol-override expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _numbers(text, flag):
    """The numbers of a comma-separated list flag."""
    try:
        numbers = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise SceneError(f"{flag} expects comma-separated numbers, got {text!r}") from exc
    if not numbers:
        raise SceneError(f"{flag} holds no numbers, got {text!r}")
    return numbers


def _finite(value, flag):
    """value, unless it is nan or infinite."""
    if not np.isfinite(value):
        raise SceneError(f"{flag} must be finite, got {value!r}")
    return value


def _positive(value, flag, finite=True):
    """value, unless it is nan, <= 0 or (when finite) infinite."""
    if not (value > 0 and (np.isfinite(value) or not finite)):
        raise SceneError(f"{flag} must be {'finite and ' if finite else ''}> 0, got {value!r}")
    return value


def _t_grid(args, grid_samples):
    """The sweep's t list. Its focal stage builds (t, foot) arrays over
    grid_samples feet, so their size must fit the budget, checked before a
    --t-count list is built."""
    if args.t_values:
        ts = _numbers(args.t_values, "--t-values")
        count = len(ts)
    elif args.t_count is None:
        raise SceneError("sweep needs --t-values or --t-min/--t-max/--t-count")
    elif args.t_min is None or args.t_max is None:
        raise SceneError("--t-count needs --t-min and --t-max")
    elif args.t_count < 1:
        raise SceneError(f"--t-count must be >= 1, got {args.t_count}")
    else:
        ts, count = None, args.t_count
        lo, hi = _finite(args.t_min, "--t-min"), _finite(args.t_max, "--t-max")
    check_budget(f"sweep of {count} offsets x {grid_samples} feet", count * grid_samples)
    return list(np.linspace(lo, hi, count)) if ts is None else ts


def _ur(args, scene):
    """The height cutoff: --ur (> 0, inf allowed), else the scene's computed ur."""
    if args.ur is None:
        return radii.radii_report(scene.pairs, scene.tolerances).ur
    return _positive(args.ur, "--ur", finite=False)


def cmd_report(args, scene):
    rep = radii.radii_report(scene.pairs, scene.tolerances)
    wit = rep.witnesses
    pair = wit["dcsd_pair"]  # a pair row without its t column
    payload = _fields(rep, _RADII)
    payload["witnesses"] = {
        "focrad0": _fields(wit["focrad0"], _WITNESS),
        "focradminus": _fields(wit["focradminus"], _WITNESS),
        "dcsd_pair": None if pair is None else dict(zip(radii.PAIR_COLUMNS[1:7], pair)),
        "collapse_arcs": [_fields(a, _ARC + ("p0",)) for a in wit["collapse_arcs"]],
        "tir_attained": wit["tir_attained"],
        "pair_count": wit["pair_count"],
    }
    table = [f"{'quantity':<16}value"]
    table += [f"{label:<16}{float17(payload[label.split()[0]])}" for label in _TABLE]
    print("\n".join(table), file=sys.stderr)
    _write_text(args.out, _json_text(payload) + "\n")
    return EXIT_OK


def cmd_sweep(args, scene):
    if scene.family_kind is None and args.family is None:
        raise SceneError("scene defines no family; pass --family offset")
    rows = sweeps.radii_sweep(scene.pairs, _t_grid(args, scene.tolerances.grid_samples),
                              scene.tolerances)
    _write_text(args.out, _csv_text(_SWEEP, [[getattr(r, k) for k in _SWEEP] for r in rows]))
    return EXIT_OK


def cmd_fibers(args, scene):
    if args.samples < 2:
        raise SceneError("fibers needs --samples N >= 2")
    if not 0 <= args.component < len(scene.pairs):
        raise SceneError(f"--component must be in [0, {len(scene.pairs)}), got {args.component}")
    if args.r_max is not None and not np.isfinite(2.0 * _positive(args.r_max, "--r-max")):
        raise SceneError(f"--r-max must be at most half the largest float (the grid spans [-r, r]), got {args.r_max!r}")
    curve, weight = scene.pairs[args.component]
    if args.s_values:
        feet = np.array([_finite(s, "--s-values") for s in _numbers(args.s_values, "--s-values")])
        try:
            curve.wrap(feet)
        except OutOfDomainError as exc:
            raise SceneError(f"--s-values: {exc}") from exc
    else:
        feet = np.linspace(curve.s_min + 0.1 * curve.length, curve.s_max - 0.1 * curve.length, 5)
    # The principal normal, or the first normal-frame vector where kappa <= kappa_tol.
    d2 = curve.jet(feet, 2)[2]
    kap = _rownorm(d2)
    flat = kap <= curve.kappa_tol
    v = d2 / np.where(flat, 1.0, kap)[:, None]
    if flat.any():
        v[flat] = normal_frames(curve, feet[flat])[:, 0]
    r_max = args.r_max
    if r_max is None:
        bound = w_bound(weight, feet)
        r_max = np.where(np.isfinite(bound), 0.9 * bound, 1.0)
    rr, pts = sweeps.fiber_trace(curve, weight, feet, v, r_max, samples=args.samples)
    _write_points(args, scene, np.repeat(feet, args.samples), rr.ravel(),
                  pts.reshape(-1, curve.ambient_dim), fibers=pts)
    return EXIT_OK


def cmd_tube(args, scene):
    if args.radius is None:
        raise SceneError("tube needs --radius R > 0")
    _positive(args.radius, "--radius")
    if args.samples < 1:
        raise SceneError("tube needs --samples N >= 1")
    boundary, overlap = sweeps.tube_boundary(scene.pairs, args.radius, s_samples=args.samples)
    # Rows of both arrays are (component, s, G, x1..xn).
    out = _write_points(args, scene, boundary[:, 1], args.radius, boundary[:, 3:],
                        tube_points=boundary[:, 3:])
    if out is not None:
        base = out[:-4] if out.endswith(".csv") else out
        _write_text(base + ".overlap.csv", _point_csv(scene, overlap[:, 1], args.radius, overlap[:, 3:]))
    elif len(overlap):
        print(f"{len(overlap)} overlap points (inside the tube interior)", file=sys.stderr)
    return EXIT_OK


def cmd_singular(args, scene):
    table = singular.singular_set(scene.pairs, _ur(args, scene), scene.tolerances)
    # Rows are (component, s, R, residual, x1..xn).
    _write_points(args, scene, table[:, 1], table[:, 2], table[:, 4:], singular_points=table[:, 4:])
    return EXIT_OK


def cmd_collapse(args, scene):
    # Without --ur, the report's arcs: it searched them below its own ur.
    if args.ur is None:
        arcs = radii.radii_report(scene.pairs, scene.tolerances).witnesses["collapse_arcs"]
    else:
        arcs = singular.detect_collapse_arcs(scene.pairs, _ur(args, scene), scene.tolerances)
    header = list(_ARC) + [f"p0_x{i + 1}" for i in range(scene.ambient_dim)]
    rows = [[getattr(a, k) for k in _ARC] + a.p0.tolist() for a in arcs]
    _write_text(args.out, _csv_text(header, rows))
    return EXIT_OK


def cmd_check(args, scene):
    pairs = scene.pairs
    if args.t is not None:
        if scene.family_kind is None:
            raise SceneError("scene defines no family; --t needs one")
        pairs = sweeps.family_weights(pairs, _finite(args.t, "--t"))
    ok, witnesses = singular.transversality_check(pairs, scene.tolerances)
    payload = {
        "transversal": ok,
        "witnesses": [dict(zip(("component", "s", "slope"), w)) for w in witnesses],
    }
    _write_text(args.out, _json_text(payload) + "\n")
    return EXIT_OK


@functools.cache
def build_parser():
    """The wtube parser, built on the first call and shared after it (each
    parse_args call fills a fresh namespace)."""
    parser = argparse.ArgumentParser(
        prog="wtube",
        description="Nonuniform tubular thickness of weighted curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, func, help, counts=False, threads=False, formats=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("--scene", required=True, help="scene file or bundled scene name")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if counts:
            p.add_argument("--tol-override", action="append", metavar="KEY=VALUE",
                           help="set grid_samples or pair_grid (repeatable)")
        if threads:
            p.add_argument("--threads", type=int, default=1,
                           help="accepted for compatibility; output does not depend on it")
        if formats:
            p.add_argument("--format", choices=("csv", "svg"), default="csv",
                           help="svg: draw planar scenes to --out, the CSV beside it")
        p.set_defaults(func=func)
        return p

    verb("report", cmd_report, "radii report (JSON + table on stderr)", counts=True, threads=True)

    p = verb("sweep", cmd_sweep, "weight-family sweep (CSV)", counts=True, threads=True)
    p.add_argument("--family", choices=("offset",), default=None,
                   help="sweep the offset family mu + t of a scene with no family block")
    p.add_argument("--t-values", default=None, help="comma-separated t grid")
    p.add_argument("--t-min", type=float, default=None)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--t-count", type=int, default=None)

    p = verb("fibers", cmd_fibers, "fiber traces (CSV, SVG for planar scenes)", formats=True)
    p.add_argument("--s-values", default=None, help="comma-separated feet")
    p.add_argument("--component", type=int, default=0)
    p.add_argument("--r-max", type=float, default=None)
    p.add_argument("--samples", type=int, default=257)

    p = verb("tube", cmd_tube, "tube-boundary samples (CSV + overlap file)", formats=True)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--samples", type=int, default=256)

    p = verb("singular", cmd_singular, "singular-set points (CSV)", counts=True, formats=True)
    p.add_argument("--ur", type=float, default=None, help="height cutoff (default: computed)")

    p = verb("collapse", cmd_collapse, "collapse arcs (CSV)", counts=True)
    p.add_argument("--ur", type=float, default=None)

    p = verb("check", cmd_check, "transversality diagnostic (JSON)", counts=True)
    p.add_argument("--t", type=float, default=None, help="family parameter")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        scene = load_scene(args.scene)
        if "tol_override" in args:
            overrides = _parse_overrides(args.tol_override)
            scene.tolerances = scene.tolerances.with_overrides(overrides, scene.ambient_dim)
        return args.func(args, scene)
    except SceneError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WeightedTubesError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
