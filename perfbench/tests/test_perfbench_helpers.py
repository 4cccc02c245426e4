"""Tests of the benchmark's own helpers: tail rank, self time, tracer
installation and the output checker."""

import io
import json
import math
import sys
from contextlib import redirect_stderr
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


# -- tail rank ---------------------------------------------------------------


@pytest.mark.parametrize("n, index", [(11, 0), (12, 1), (40, 29), (100, 89)])
def test_tail_rank_leaves_ten_calls_beyond(n, index):
    assert run.tail_rank(n) == index
    assert n - 1 - run.tail_rank(n) == 10


def test_tail_rank_falls_back_to_max_below_eleven_calls():
    assert run.tail_rank(1) == 0
    assert run.tail_rank(10) == 9
    with pytest.raises(ValueError):
        run.tail_rank(0)


def test_failed_calls_count_as_infinitely_slow():
    lat = [0.001 * k for k in range(1, 31)]
    stats = run.latency_stats(lat, [False] * 29 + [True])
    assert stats["samples"] == 30 and stats["tail_rank"] == 20
    assert stats["tail_ms"] == pytest.approx(20.0)
    stats = run.latency_stats(lat, [False] * 19 + [True] * 11)
    assert math.isinf(stats["tail_ms"])
    assert run._finite(stats["tail_ms"]) == sys.float_info.max


def test_calibration_scales_follow_the_speed_near_each_call():
    ref = run.CALIBRATION_REFERENCE_S
    assert run.calibration_scales([ref] * 4, 3) == pytest.approx([1.0] * 3)
    # the CPU halves its speed after call 9; one sample is far off
    samples = [ref] * 10 + [2 * ref] * 10 + [ref]
    samples[3] = 100 * ref
    scales = run.calibration_scales(samples, 20)
    assert scales[:5] == pytest.approx([1.0] * 5)
    assert scales[-5:] == pytest.approx([0.5] * 5)


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    # 1 [0, 10] > 2 [1, 4] > 3 [2, 3];  1 > 4 [5, 6]
    sid, parent = [1, 2, 3, 4], [0, 1, 2, 1]
    start, end = [0.0, 1.0, 2.0, 5.0], [10.0, 4.0, 3.0, 6.0]
    assert list(tracer.self_times(sid, parent, start, end)) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_takes_the_union_of_overlapping_children():
    # two pool threads under one span: [1, 5] and [2, 6] cover 5 of 10
    sid, parent = [1, 2, 3], [0, 1, 1]
    start, end = [0.0, 1.0, 2.0], [10.0, 5.0, 6.0]
    assert list(tracer.self_times(sid, parent, start, end)) == [5.0, 4.0, 4.0]


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_same_module_spans_split_self_time_but_count_once():
    tr = tracer.Tracer(clock=_Clock())
    outer = tr.code("radii.radii_report")
    inner = tr.code("radii.focal_radii")

    def focal():
        return 1

    def report():
        # A same-module call: a span of its own, but not an entry.
        return tr.span(inner, focal, (), {}, False)

    tr.span(outer, report, (), {}, True)
    rec = tr.records()
    assert list(rec["parent"]) == [0, 1]
    assert list(rec["counted"]) == [1, 0]
    # clock ticks: outer 1..4, inner 2..3
    assert list(tracer.self_times(rec["sid"], rec["parent"], rec["start"], rec["end"])) == [2.0, 1.0]
    metrics = tracer.span_metrics(rec, tr.names)
    assert metrics["radii.reports"] == (1, "count")
    assert metrics["radii.focal_ms"] == (1000.0, "ms")
    assert metrics["radii.report_ms"] == (2000.0, "ms")


def test_tracer_patches_every_lookup_site_and_keeps_outputs(tmp_path):
    pytest.importorskip("weighted_tubes")
    from weighted_tubes import cli, curves, expmap, radii, scene, singular, sweeps, util, weights

    modules = {"scene": scene, "curves": curves, "weights": weights, "util": util, "radii": radii,
               "singular": singular, "expmap": expmap, "sweeps": sweeps, "cli": cli}
    originals = (singular.exp_mu, expmap.exp_mu, weights.PolynomialWeight.d2, curves.ArclengthCurve.point)

    def report(path):
        with redirect_stderr(io.StringIO()):
            assert cli.main(["report", "--scene", "example4", "--out", str(path)]) == 0
        return path.read_bytes()

    plain = report(tmp_path / "plain.json")
    tr = tracer.Tracer()
    tr.install(modules)
    try:
        assert singular.exp_mu is not originals[0] and expmap.exp_mu is not originals[1]
        assert singular.exp_mu.__wrapped__ is originals[0]
        assert weights.PolynomialWeight.d2 is not originals[2]
        traced = report(tmp_path / "traced.json")
    finally:
        tr.uninstall()
    assert (singular.exp_mu, expmap.exp_mu, weights.PolynomialWeight.d2,
            curves.ArclengthCurve.point) == originals
    assert traced == plain
    metrics = tracer.span_metrics(tr.records(), tr.names)
    assert metrics["scene.loads"][0] == 1
    assert metrics["radii.reports"][0] == 1
    assert metrics["radii.pair_grid_cells"][0] == 256 * 256
    assert metrics["util.golden_fevals"][0] > metrics["util.golden_calls"][0] > 0
    assert metrics["weights.eval_calls"][0] > 0


# -- checker -----------------------------------------------------------------


def _report(**values):
    payload = {"focrad0": 2.0, "focradminus": 2.8284271247461903, "dcsd_half": "inf", "lr": 2.0,
               "ur": 2.8284271247461903, "dir": 2.0, "tir": 2.0, "air": 2.8284271247461903,
               "witnesses": {"collapse_arcs": [], "pair_count": 0}}
    payload.update(values)
    return {"main": json.dumps(payload).encode()}


REPORT_CALL = {"kind": "report", "check": {"scene": "example1a"}}


def test_checker_accepts_the_golden_report():
    assert checker.check_call(REPORT_CALL, 0, None, _report()) == []


def test_checker_flags_a_perturbed_golden():
    out = _report(focrad0=2.001, lr=2.001, dir=2.001, tir=2.001)
    problems = checker.check_call(REPORT_CALL, 0, None, out)
    assert any("example1a golden" in p for p in problems)


def test_checker_flags_a_broken_invariant():
    problems = checker.check_call(REPORT_CALL, 0, None, _report(tir=3.0))
    assert any("ordering" in p for p in problems)


def test_checker_flags_a_nonzero_exit_and_a_crash():
    assert checker.check_call(REPORT_CALL, 3, None, {"main": None}) == ["exit code 3"]
    assert checker.check_call(REPORT_CALL, None, "ValueError: x", {"main": None}) == ["raised ValueError: x"]


def test_checker_flags_a_thread_count_byte_mismatch():
    rows = "t,dir,tir,air,collapse_count,status\n-0.01,2,4,4,0,ok\n0.02,1.9,1.9,3,0,ok\n"
    call = {"kind": "sweep", "check": {"scene": "example6_family", "t": [-0.01, 0.02],
                                        "same_bytes_as": "g0/threads1"}}
    out = {"main": rows.encode()}
    assert checker.check_call(call, 0, None, out, partner_bytes=rows.encode()) == []
    other = rows.replace("1.9,1.9", "1.9000000000000001,1.9").encode()
    problems = checker.check_call(call, 0, None, out, partner_bytes=other)
    assert problems == ["bytes differ from g0/threads1"]


def test_checker_compares_with_the_reference_within_tolerance():
    ref = {"summary": checker.summarize("report", {"main": _report()["main"].decode()})}
    assert checker.check_call(REPORT_CALL, 0, None, _report(), reference=ref) == []
    ref["summary"]["ur"] = 2.83
    problems = checker.check_call(REPORT_CALL, 0, None, _report(), reference=ref)
    assert any(p.startswith("ur:") for p in problems)
