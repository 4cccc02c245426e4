"""Spans at the package's layer boundaries, installed from outside the package.

The layers are the package's modules. Each public function of a layer is
replaced by a wrapper at every lookup site: modules import names with
`from .x import y`, so `singular.exp_mu` is a separate binding from
`expmap.exp_mu` and both are patched. Curve evaluators are methods of
`ArclengthCurve` and weight derivatives are defined per subclass, so those
are patched on each class that defines them.

A span records its name, start, end, parent span and the id of the
`cli.main` call it belongs to. Public functions open a span on every call,
so nested calls inside one module still split self time correctly; methods
open a span only when entered from another module, because their internal
calls (curvature -> second_derivative) are one evaluation. Counts are taken
only on entry from another module (so golden_max's inner golden_min counts
once), except for find_double_critical_pairs, whose only caller is
radii_report in its own module. Objectives passed to golden_min/golden_max
and scipy's brentq run in spans named after the caller's open span, so their
arithmetic is the caller's self time, not the solver's. Spans stay in
per-thread buffers until `records()` collects them at the end.

util is wrapped only at golden_min/golden_max: its other helpers are leaf
arithmetic whose time belongs to the caller (float17 is the CLI's
serialisation, gauss_legendre and the smoothsteps are curve evaluation).
"""

import array
import inspect
import itertools
import sys
import threading
import time
import types

import numpy as np

PACKAGE = "weighted_tubes"
CURVE_METHODS = (
    "point", "tangent", "second_derivative", "third_derivative", "curvature", "curvature_rate", "frame",
)
WEIGHT_METHODS = ("mu", "d1", "d2", "d3", "validate_on")
UTIL_FUNCTIONS = ("golden_min", "golden_max")
FOREIGN = (("singular", "brentq", "scipy.brentq"),)
COUNTED_INSIDE = ("radii.find_double_critical_pairs",)


_COLUMNS = (
    ("sid", np.int64), ("parent", np.int64), ("call", np.int64), ("code", np.int64),
    ("counted", np.int8), ("start", np.float64), ("end", np.float64), ("a", np.int64), ("b", np.int64),
)


class _Buffer:
    """Columns of finished spans for one thread."""

    def __init__(self):
        self.sid = array.array("q")
        self.parent = array.array("q")
        self.call = array.array("q")
        self.code = array.array("q")
        self.counted = array.array("b")
        self.start = array.array("d")
        self.end = array.array("d")
        self.a = array.array("q")
        self.b = array.array("q")


def _sample_counts(args, kwargs, result, state):
    s = args[1] if len(args) > 1 else kwargs.get("s")
    ndim = getattr(s, "ndim", 0)
    size = getattr(s, "size", 1)
    return int(size), int(ndim == 0)


def _len_result(args, kwargs, result, state):
    return len(result), 0


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _component_count(pairs):
    if isinstance(pairs, (list, tuple)) and pairs and isinstance(pairs[0], (list, tuple)):
        return len(pairs)
    return 1


def _counter_for(layer, name, fn):
    """(a, b) count function for spans of layer.name, or None."""
    if layer == "radii" and name == "find_double_critical_pairs":
        def pair_counts(args, kwargs, result, state):
            bound = _bind(fn, args, kwargs)
            p = _component_count(bound["pairs"])
            return len(result), p * (p + 1) // 2 * int(bound["tol"].pair_grid) ** 2
        return pair_counts
    if layer == "expmap" and name == "g_potential":
        def g_counts(args, kwargs, result, state):
            bound = _bind(fn, args, kwargs)
            m = len(result[0])
            return m, m * int(bound["samples"]) * _component_count(bound["pairs"])
        return g_counts
    if (layer, name) in (("singular", "singular_set"), ("singular", "detect_collapse_arcs"),
                         ("sweeps", "radii_sweep")):
        return _len_result
    if (layer, name) == ("singular", "transversality_check"):
        return lambda args, kwargs, result, state: (len(result[1]), 0)
    if (layer, name) == ("sweeps", "tube_boundary"):
        return lambda args, kwargs, result, state: (len(result[0]), len(result[1]))
    if layer == "util":
        return lambda args, kwargs, result, state: (state[0], 0)
    return None


def _wrap_objective(tracer, args, kwargs, caller_code):
    """Count a solver's objective evaluations and run each one in a span
    named after the caller's open span."""
    calls = [0]
    f = args[0]

    def objective(*xs):
        calls[0] += 1
        if caller_code is None:
            return f(*xs)
        return tracer.span(caller_code, f, xs, {}, False)

    return (objective,) + tuple(args[1:]), kwargs, calls


class Tracer:
    """Records spans while installed; `records()` returns them as columns."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers = []
        self._codes = {}
        self.names = []
        self._patches = []
        self._main = threading.main_thread()
        self._main_stack = None
        self.call_id = 0

    # -- recording -----------------------------------------------------------

    def code(self, name):
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            if threading.current_thread() is self._main:
                self._main_stack = local.stack
            local.buf = _Buffer()
            self._buffers.append(local.buf)
        return local

    def span(self, code, fn, args, kwargs, counted, counter=None, solver=False):
        """Call fn inside a span named by `code`; counts (and a solver's
        objective wrapping) are taken only when `counted`."""
        local = self._state()
        stack = local.stack
        sid = next(self._ids)
        if stack:
            parent = stack[-1][0]
        elif threading.current_thread() is self._main or not self._main_stack:
            parent = 0
        else:  # a pool thread works for the span open on the main thread
            parent = self._main_stack[-1][0]
        state = None
        if counted and solver:
            args, kwargs, state = _wrap_objective(self, args, kwargs, stack[-1][1] if stack else None)
        stack.append((sid, code))
        a = b = 0
        start = self._clock()
        try:
            result = fn(*args, **kwargs)
            if counted and counter is not None:
                a, b = counter(args, kwargs, result, state)
            return result
        finally:
            end = self._clock()
            stack.pop()
            buf = local.buf
            buf.sid.append(sid)
            buf.parent.append(parent)
            buf.call.append(self.call_id)
            buf.code.append(code)
            buf.counted.append(1 if counted else 0)
            buf.start.append(start)
            buf.end.append(end)
            buf.a.append(a)
            buf.b.append(b)

    def records(self):
        """All finished spans as numpy columns, ordered by span id."""
        cols = {}
        for k, dtype in _COLUMNS:
            parts = [np.frombuffer(getattr(buf, k), dtype=dtype) for buf in self._buffers]
            cols[k] = np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)
        order = np.argsort(cols["sid"], kind="stable")
        return {k: v[order] for k, v in cols.items()}

    # -- wrappers --------------------------------------------------------------

    def _function_wrapper(self, fn, layer, name):
        code = self.code(f"{layer}.{name}")
        owner = fn.__module__
        counter = _counter_for(layer, name, fn)
        solver = layer == "util"
        always = f"{layer}.{name}" in COUNTED_INSIDE
        tracer = self

        def wrapper(*args, **kwargs):
            counted = always or sys._getframe(1).f_globals.get("__name__") != owner
            return tracer.span(code, fn, args, kwargs, counted, counter, solver)

        wrapper.__wrapped__ = fn
        return wrapper

    def _method_wrapper(self, fn, layer, name, owner):
        code = self.code(f"{layer}.{name}")
        counter = _sample_counts if name != "validate_on" else None
        tracer = self

        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == owner:
                return fn(*args, **kwargs)
            return tracer.span(code, fn, args, kwargs, True, counter)

        wrapper.__wrapped__ = fn
        return wrapper

    def _foreign_wrapper(self, fn, span_name):
        code = self.code(span_name)
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.span(code, fn, args, kwargs, True, None, True)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, target, name, value):
        self._patches.append((target, name, target.__dict__[name]))
        setattr(target, name, value)

    def install(self, modules):
        """Patch every lookup site in `modules` ({layer: module})."""
        wrapped = {}
        for layer, mod in modules.items():
            for name, val in list(vars(mod).items()):
                if not isinstance(val, types.FunctionType) or name.startswith("_"):
                    continue
                owner = val.__module__ or ""
                if not owner.startswith(PACKAGE + "."):
                    continue
                owner_layer = owner.split(".", 1)[1]
                if owner_layer not in modules:
                    continue
                if owner_layer == "util" and val.__name__ not in UTIL_FUNCTIONS:
                    continue
                if id(val) not in wrapped:
                    wrapped[id(val)] = self._function_wrapper(val, owner_layer, val.__name__)
                self._patch(mod, name, wrapped[id(val)])
        for layer, attr, span_name in FOREIGN:
            if layer in modules and hasattr(modules[layer], attr):
                self._patch(modules[layer], attr, self._foreign_wrapper(getattr(modules[layer], attr), span_name))
        for layer, methods in (("curves", CURVE_METHODS), ("weights", WEIGHT_METHODS)):
            mod = modules.get(layer)
            if mod is None:
                continue
            for cls in vars(mod).values():
                if not isinstance(cls, type) or cls.__module__ != mod.__name__:
                    continue
                for name in methods:
                    fn = cls.__dict__.get(name)
                    if isinstance(fn, types.FunctionType):
                        self._patch(cls, name, self._method_wrapper(fn, layer, name, mod.__name__))

    def uninstall(self):
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches = []


# ---------------------------------------------------------------------------
# Self time and per-layer metrics
# ---------------------------------------------------------------------------


def self_times(sid, parent, start, end):
    """Each span's duration minus the union of the intervals its children
    cover. Spans are ordered by id; children on pool threads may overlap."""
    sid, parent = np.asarray(sid), np.asarray(parent)
    start, end = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
    out = end - start
    if len(sid) == 0:
        return out
    pos = np.clip(np.searchsorted(sid, parent), 0, len(sid) - 1)
    has_parent = sid[pos] == parent
    kids = np.nonzero(has_parent)[0]
    kids = kids[np.lexsort((start[kids], pos[kids]))]
    p, s0, s1 = pos[kids], start[kids], end[kids]
    # Sorted by start, a parent's children are disjoint unless some child
    # starts before the previous one ends; only those parents need a union.
    overlap = (p[1:] == p[:-1]) & (s0[1:] < s1[:-1])
    tangled = np.zeros(len(sid), dtype=bool)
    tangled[p[1:][overlap]] = True
    simple = ~tangled[p]
    out -= np.bincount(p[simple], weights=(s1 - s0)[simple], minlength=len(sid))
    for parent_pos in np.nonzero(tangled)[0]:
        covered_to = -np.inf
        covered = 0.0
        for lo, hi in zip(s0[p == parent_pos], s1[p == parent_pos]):
            lo = max(lo, covered_to)
            if hi > lo:
                covered += hi - lo
                covered_to = hi
        out[parent_pos] -= covered
    return out


def _names(layer, items):
    return tuple(f"{layer}.{x}" for x in items)


EVAL_CURVES = _names("curves", CURVE_METHODS)
EVAL_WEIGHTS = _names("weights", ("mu", "d1", "d2", "d3"))
GOLDEN = _names("util", UTIL_FUNCTIONS)
F_SECOND = _names("expmap", ("f_second", "f_second_critical", "f_second_at_offset"))

# name -> (unit, better, how, span names); how is "self_ms", "count" (spans
# counted at entry), "a" or "b" (counts summed over those spans).
SPAN_METRICS = {
    "scene.load_ms": ("ms", "lower", "self_ms", ("scene.load_scene", "scene.parse_scene")),
    "scene.loads": ("count", "lower", "count", ("scene.load_scene",)),
    "curves.build_ms": ("ms", "lower", "self_ms", ("curves.build_arclength_curve", "curves.make_stadium")),
    "curves.eval_calls": ("count", "lower", "count", EVAL_CURVES),
    "curves.eval_scalar_calls": ("count", "lower", "b", EVAL_CURVES),
    "curves.eval_samples": ("count", "lower", "a", EVAL_CURVES),
    "curves.eval_ms": ("ms", "lower", "self_ms", EVAL_CURVES),
    "weights.eval_calls": ("count", "lower", "count", EVAL_WEIGHTS),
    "weights.eval_scalar_calls": ("count", "lower", "b", EVAL_WEIGHTS),
    "weights.eval_ms": ("ms", "lower", "self_ms", EVAL_WEIGHTS),
    "weights.validate_ms": ("ms", "lower", "self_ms", ("weights.validate_on",)),
    "util.golden_calls": ("count", "lower", "count", GOLDEN),
    "util.golden_fevals": ("count", "lower", "a", GOLDEN),
    "util.golden_ms": ("ms", "lower", "self_ms", GOLDEN),
    "radii.focal_ms": ("ms", "lower", "self_ms", ("radii.focal_radii",)),
    "radii.pair_search_ms": ("ms", "lower", "self_ms", ("radii.find_double_critical_pairs",)),
    "radii.pair_grid_cells": ("count", "lower", "b", ("radii.find_double_critical_pairs",)),
    "radii.pairs_found": ("count", "higher", "a", ("radii.find_double_critical_pairs",)),
    "radii.reports": ("count", "lower", "count", ("radii.radii_report",)),
    "radii.report_ms": ("ms", "lower", "self_ms", ("radii.radii_report",)),
    "singular.set_ms": ("ms", "lower", "self_ms", ("singular.singular_set",)),
    "singular.set_points": ("count", "higher", "a", ("singular.singular_set",)),
    "singular.brentq_calls": ("count", "lower", "count", ("scipy.brentq",)),
    "singular.collapse_ms": ("ms", "lower", "self_ms", ("singular.detect_collapse_arcs",)),
    "singular.arcs": ("count", "higher", "a", ("singular.detect_collapse_arcs",)),
    "singular.check_ms": ("ms", "lower", "self_ms", ("singular.transversality_check",)),
    "singular.check_witnesses": ("count", "higher", "a", ("singular.transversality_check",)),
    "expmap.exp_calls": ("count", "lower", "count", ("expmap.exp_mu",)),
    "expmap.exp_batch_calls": ("count", "lower", "count", ("expmap.exp_mu_batch",)),
    "expmap.f_second_calls": ("count", "lower", "count", F_SECOND),
    "expmap.normal_frame_calls": ("count", "lower", "count", ("expmap.normal_frame",)),
    "expmap.exp_ms": ("ms", "lower", "self_ms", "expmap.*-expmap.g_potential"),
    "expmap.g_potential_ms": ("ms", "lower", "self_ms", ("expmap.g_potential",)),
    "expmap.g_points": ("count", "lower", "a", ("expmap.g_potential",)),
    "expmap.g_cells": ("count", "lower", "b", ("expmap.g_potential",)),
    "sweeps.sweep_ms": ("ms", "lower", "self_ms", ("sweeps.radii_sweep", "sweeps.family_weights")),
    "sweeps.rows": ("count", "higher", "a", ("sweeps.radii_sweep",)),
    "sweeps.tube_ms": ("ms", "lower", "self_ms", ("sweeps.tube_boundary",)),
    "sweeps.tube_boundary_points": ("count", "higher", "a", ("sweeps.tube_boundary",)),
    "sweeps.tube_overlap_points": ("count", "higher", "b", ("sweeps.tube_boundary",)),
    "sweeps.fiber_ms": ("ms", "lower", "self_ms", ("sweeps.fiber_trace",)),
    "cli.self_ms": ("ms", "lower", "self_ms", "cli.*"),
}


def _selected(selector, names):
    """Span codes a metric covers; "layer.*-layer.fn" means a whole layer
    except one function."""
    if isinstance(selector, str):
        keep, _, drop = selector.partition("-")
        prefix = keep[:-1]
        return {c for c, n in enumerate(names) if n.startswith(prefix) and n != drop}
    return {c for c, n in enumerate(names) if n in selector}


def span_metrics(rec, names):
    """Per-layer metrics {name: (value, unit)} from collected span records."""
    selfs = self_times(rec["sid"], rec["parent"], rec["start"], rec["end"])
    counted = rec["counted"].astype(bool)
    out = {}
    for metric, (unit, _, how, selector) in SPAN_METRICS.items():
        mask = np.isin(rec["code"], sorted(_selected(selector, names)))
        if how == "self_ms":
            out[metric] = (float(selfs[mask].sum()) * 1000.0, unit)
        elif how == "count":
            out[metric] = (int(np.count_nonzero(mask & counted)), unit)
        else:
            out[metric] = (int(rec[how][mask & counted].sum()), unit)
    return out
