"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion. Oracles here are independent of the code paths they check:
quadrature and circle intersections are recomputed from scratch, the root
scan is a dense sign scan, and the potential used for tube membership is a
direct dense re-minimization.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from weighted_tubes import (
    exp_mu,
    f_prime,
    f_second,
    f_second_critical,
    f_value,
    fiber_geometry,
    g_potential,
    is_singular,
    radii_report,
    radii_sweep,
    singular_set,
    detect_collapse_arcs,
    NumericError,
)
from weighted_tubes.expmap import w_bound

from conftest import circle_circle_intersections
from oracles import fd_differential, lemma3_roots, random_unit_normals
from test_radii import scan_roots


def report_line(num, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}: {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def reports(scenes):
    out = {}
    for name in ("circle_mu1", "ellipse_mu1", "example1a", "example2_stadium", "example4"):
        scene = scenes[name]
        out[name] = radii_report(scene.pairs, scene.tolerances)
    return out


def random_offsets(scene, count, r_cap=6.0, margin=0.05):
    """Deterministic in-range offsets (s, v, R) for one-component scenes."""
    rng = np.random.default_rng(scene.seed)
    curve, weight = scene.pairs[0]
    s = rng.uniform(curve.s_min, curve.s_max, size=count)
    v = random_unit_normals(curve, s, rng)
    bounds = np.asarray(w_bound(weight, s), dtype=float)
    caps = np.minimum(bounds * (1.0 - margin), r_cap)
    R = rng.uniform(0.02, 1.0, size=count) * caps
    return s, v, R


def test_criterion_01_example1a_golden(reports):
    t0 = time.time()
    rep = reports["example1a"]
    elapsed = time.time() - t0  # report computed in fixture; recompute bound below
    ok = abs(rep.focrad0 - 2.0) <= 1e-6 and abs(rep.focradminus - 2 * np.sqrt(2)) <= 1e-6
    # Runtime bound measured on a fresh computation.
    from weighted_tubes import load_scene

    scene = load_scene("example1a")
    t0 = time.time()
    radii_report(scene.pairs, scene.tolerances)
    elapsed = time.time() - t0
    ok = ok and elapsed < 5.0
    report_line(
        1,
        ok,
        f"half-circle golden focrad0={rep.focrad0:.9f}, focradminus={rep.focradminus:.9f}, "
        f"runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_02_collapse_identity(scenes):
    worst = 0.0
    for name, target in (("example1a", [-1.0, 0.0]), ("example1b", [-1.0, 0.0, 0.0])):
        curve, weight = scenes[name].pairs[0]
        ss = np.linspace(curve.s_min, curve.s_max, 200)
        normals = curve.second_derivative(ss) / curve.curvature(ss)[:, None]
        pts = exp_mu(curve, weight, ss, normals, np.full(200, 2.0))
        worst = max(worst, float(np.max(np.linalg.norm(pts - np.asarray(target), axis=1))))
    ok = worst <= 1e-9
    report_line(2, ok, f"collapse identity max |exp - p0| = {worst:.3e} <= 1e-9")


def test_criterion_03_example4_golden(scenes, reports):
    rep = reports["example4"]
    scene = scenes["example4"]
    pts = singular_set(scene.pairs, rep.ur, scene.tolerances)
    arcs = detect_collapse_arcs(scene.pairs, rep.ur, scene.tolerances)
    ok = (
        abs(rep.focrad0 - 2.0) <= 1e-6
        and abs(rep.focradminus - 4.0) <= 1e-6
        and len(pts) == 1
        and abs(pts[0, 1]) <= 1e-6
        and abs(pts[0, 2] - 2.0) <= 1e-6
        and arcs == []
    )
    report_line(
        3,
        ok,
        f"isolated-singularity scene: focal ({rep.focrad0:.9f}, {rep.focradminus:.9f}), "
        f"{len(pts)} singular point(s) at (s={pts[0, 1]:.2e}, R={pts[0, 2]:.9f}), "
        f"{len(arcs)} collapse arcs",
    )


def test_criterion_04_second_intersection(scenes):
    # Oracle: plain circle-circle intersection against the closed-form polar
    # angle s + 2 arctan((8 - s^2) / (4 s)).
    curve, weight = scenes["example4"].pairs[0]
    worst = 0.0
    for s in (0.25, 0.5, 0.75):
        fib = fiber_geometry(curve, weight, s)
        assert fib.kind == "SPHERE"
        p1, p2 = circle_circle_intersections([0.0, 0.0], 1.0, fib.center, fib.radius)
        foot = curve.point(s)
        other = p2 if np.linalg.norm(p1 - foot) < np.linalg.norm(p2 - foot) else p1
        theta = float(np.mod(np.arctan2(other[1], other[0]), 2 * np.pi))
        formula = float(np.mod(s + 2 * np.arctan((8 - s * s) / (4 * s)), 2 * np.pi))
        worst = max(worst, abs(theta - formula))
    ok = worst <= 1e-8
    report_line(4, ok, f"fiber second-intersection angle gap {worst:.3e} <= 1e-8")


def test_criterion_05_uniform_reduction(reports, scenes):
    circ = reports["circle_mu1"]
    ell = reports["ellipse_mu1"]
    ok = all(abs(v - 1.0) <= 1e-8 for v in (circ.dir, circ.tir, circ.air))
    ok = ok and abs(ell.ur - 0.5) <= 1e-6
    # Focal witness must sit at the max-curvature vertex (2, 0).
    wit = ell.witnesses["focradminus"]
    curve = scenes["ellipse_mu1"].pairs[0][0]
    at_vertex = float(np.linalg.norm(curve.point(wit.s) - [2.0, 0.0])) <= 1e-6
    ok = ok and at_vertex
    report_line(
        5,
        ok,
        f"uniform weights: circle radii ({circ.dir:.9f}, {circ.tir:.9f}, {circ.air:.9f}), "
        f"ellipse ur={ell.ur:.9f} witnessed at the max-curvature vertex: {at_vertex}",
    )


def test_criterion_06_stadium(reports):
    rep = reports["example2_stadium"]
    ok = abs(rep.tir - 2.0) <= 0.05 and abs(rep.dir - 2.0) <= 0.05 and rep.ur >= 3.5
    report_line(
        6, ok, f"stadium: dir={rep.dir:.6f}, tir={rep.tir:.6f} (2 +- 0.05), ur={rep.ur:.6f} >= 3.5"
    )


def test_criterion_07_semicontinuity(scenes):
    s6 = scenes["example6_family"]
    rows6 = radii_sweep(s6.pairs, [-0.05, 0.05], s6.tolerances)
    ok6 = abs(rows6[0].tir - 4.0) <= 1e-3 and rows6[1].tir < 2.0
    s3 = scenes["example3_family"]
    rows3 = radii_sweep(s3.pairs, [-0.05, 0.05], s3.tolerances)
    drop = rows3[0].air - rows3[1].air
    ok3 = drop >= 1.5
    report_line(
        7,
        ok6 and ok3,
        f"semicontinuity: arc family tir({rows6[0].t})={rows6[0].tir:.6f}, "
        f"tir({rows6[1].t})={rows6[1].tir:.6f}; stadium family air drop {drop:.3f} >= 1.5",
    )


SUITE_SCENES = (
    "circle_mu1",
    "ellipse_mu1",
    "example1a",
    "example1b",
    "example2_stadium",
    "example3_family",
    "example4",
    "example6_family",
)


def test_criterion_08_property_suites(scenes):
    n_cases = 1000
    worst = {"dist": 0.0, "angle": 0.0, "fiber": 0.0, "fd1": 0.0, "fd2": 0.0, "eta": 0.0,
             "gradg": 0.0}
    for name in SUITE_SCENES:
        scene = scenes[name]
        curve, weight = scene.pairs[0]
        s, v, R = random_offsets(scene, n_cases)
        pts = exp_mu(curve, weight, s, v, R)
        feet = curve.point(s)
        mu = np.asarray(weight.mu(s), dtype=float)
        d1 = np.asarray(weight.d1(s), dtype=float)
        # Height law |p - q| = R mu(q).
        gap = np.abs(np.linalg.norm(pts - feet, axis=1) - R * mu)
        worst["dist"] = max(worst["dist"], float(np.max(gap / np.maximum(1.0, R * mu))))
        # Angle law cos(angle(grad mu, u)) = -R |mu'|.
        u = (pts - feet) / np.linalg.norm(pts - feet, axis=1, keepdims=True)
        tans = curve.tangent(s)
        cosa = np.sign(d1) * np.einsum("ij,ij->i", u, tans)
        gap = np.abs(cosa + R * np.abs(d1))
        worst["angle"] = max(worst["angle"], float(np.max(gap)))
        # Fiber containment in the division-free form
        # mu' |p-q|^2 + mu (p-q).T = 0.
        rel = pts - feet
        resid = d1 * np.einsum("ij,ij->i", rel, rel) + mu * np.einsum("ij,ij->i", rel, tans)
        scale = np.maximum(1.0, np.abs(d1) * (R * mu) ** 2 + mu * R * mu)
        worst["fiber"] = max(worst["fiber"], float(np.max(np.abs(resid) / scale)))
        # Derivative closed forms vs centered differences, checked at the
        # feet of the map (the configuration the theory actually uses; the
        # closed critical-foot form and the general form are also compared).
        # The second difference is Richardson-extrapolated: a single step
        # sits on the h^2-truncation / roundoff-over-h^2 crossover.
        h1 = 1e-5 * min(curve.length, 2 * np.pi)
        h2 = 5e-5 * min(curve.length, 2 * np.pi)
        for k in range(0, n_cases, 5):
            se, p = float(s[k]), pts[k]
            if not curve.closed:
                se = float(np.clip(se, curve.s_min + 2 * h2, curve.s_max - 2 * h2))
            f0 = float(f_value(curve, weight, se, p))
            d1v = float(f_prime(curve, weight, se, p))
            d2v = float(f_second(curve, weight, se, p))
            fp = float(f_value(curve, weight, se + h1, p))
            fm = float(f_value(curve, weight, se - h1, p))
            worst["fd1"] = max(
                worst["fd1"], abs((fp - fm) / (2 * h1) - d1v) / max(1.0, abs(d1v), f0)
            )

            def second_diff(h):
                return (
                    float(f_value(curve, weight, se + h, p))
                    - 2 * f0
                    + float(f_value(curve, weight, se - h, p))
                ) / h**2

            rich = (4.0 * second_diff(h2) - second_diff(2 * h2)) / 3.0
            worst["fd2"] = max(
                worst["fd2"], abs(rich - d2v) / max(1.0, abs(d2v), f0)
            )
            if abs(se - s[k]) < 1e-12:
                closed = float(f_second_critical(curve, weight, se, p))
                worst["fd2"] = max(worst["fd2"], abs(closed - d2v) / max(1.0, abs(d2v)))
        # Constant-height foot curves: d(eta)/ds . gamma' = (mu^2/2) F''.
        worst["eta"] = max(worst["eta"], _eta_identity_gap(curve, weight, scene.seed))
        # Gradient of the potential points from the foot, with the radial
        # magnitude bound.
        worst["gradg"] = max(worst["gradg"], _grad_direction_gap(scene))
    ok = (
        worst["dist"] <= 1e-10
        and worst["angle"] <= 1e-10
        and worst["fiber"] <= 1e-10
        and worst["fd1"] <= 1e-6
        and worst["fd2"] <= 1e-6
        and worst["eta"] <= 1e-5
        and worst["gradg"] <= 1e-3
    )
    # The root algebra vs the dense sign scan (independent oracle).
    mismatches = 0
    rng = np.random.default_rng(2024)
    for _ in range(100):
        a, b, c = abs(rng.normal()), abs(rng.normal()), rng.normal(scale=2.0)
        try:
            roots = lemma3_roots(a, b, c)
        except NumericError:
            roots = ()
        oracle = scan_roots(a, b, c, n=100_000, t_hi=12.0)
        if b == 0:
            roots = tuple(r for r in roots if r <= 12.0)
        if len(roots) != len(oracle) or any(
            abs(r - o) > 1e-7 for r, o in zip(roots, oracle)
        ):
            mismatches += 1
    ok = ok and mismatches == 0
    report_line(
        8,
        ok,
        "property suites (1000 cases x 8 scenes): "
        f"height {worst['dist']:.1e}, angle {worst['angle']:.1e}, "
        f"fiber {worst['fiber']:.1e}, F'/F'' vs FD {worst['fd1']:.1e}/{worst['fd2']:.1e}, "
        f"foot-curve identity {worst['eta']:.1e}, grad direction {worst['gradg']:.1e} rad, "
        f"root-scan mismatches {mismatches}",
    )


def _eta_identity_gap(curve, weight, seed, count=60):
    rng = np.random.default_rng(seed + 2)
    h = 1e-5 * min(curve.length, 2 * np.pi)
    worst = 0.0
    tried = 0
    while tried < count:
        s = float(rng.uniform(curve.s_min + 2 * h, curve.s_max - 2 * h))
        kaps = curve.curvature(np.array([s - h, s, s + h]))
        if np.min(kaps) < 0.05:
            continue
        tried += 1
        bound = float(w_bound(weight, s))
        R = min(0.5 * bound, 1.5)
        if R <= 1e-3:
            continue

        def eta(ss):
            d2 = curve.second_derivative(ss)
            return exp_mu(curve, weight, ss, d2 / np.linalg.norm(d2), R)

        p = eta(s)
        deta = (eta(s + h) - eta(s - h)) / (2 * h)
        lhs = float(deta @ curve.tangent(s))
        mu = float(weight.mu(s))
        rhs = 0.5 * mu * mu * f_second_critical(curve, weight, s, p)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        dmu = float(weight.d1(s))
        if abs(dmu) > 1e-3:
            center = curve.point(s) - mu / (2 * dmu) * curve.tangent(s)
            lhs2 = float(deta @ (p - center))
            rhs2 = mu**3 / (4 * dmu) * f_second_critical(curve, weight, s, p)
            worst = max(worst, abs(lhs2 - rhs2) / max(1.0, abs(rhs2)))
    return worst


def _grad_direction_gap(scene, count=1000):
    curve, weight = scene.pairs[0]
    rep_cap = 0.5  # stay well inside the injective range on every scene
    rng = np.random.default_rng(scene.seed + 3)
    s = rng.uniform(curve.s_min, curve.s_max, size=count)
    v = random_unit_normals(curve, s, rng)
    bounds = np.asarray(w_bound(weight, s), dtype=float)
    R = rng.uniform(0.05, 1.0, size=count) * np.minimum(rep_cap, 0.5 * bounds)
    pts = exp_mu(curve, weight, s, v, R)
    feet = curve.point(s)
    n = curve.ambient_dim
    h = 1e-6
    shifts = np.zeros((2 * n, n))
    for i in range(n):
        shifts[2 * i, i] = h
        shifts[2 * i + 1, i] = -h
    worst = 0.0
    for lo in range(0, count, 250):
        hi = min(lo + 250, count)
        batch = pts[lo:hi]
        stacked = (batch[:, None, :] + shifts[None, :, :]).reshape(-1, n)
        vals, _, _ = g_potential(scene.pairs, stacked, samples=2048)
        vals = vals.reshape(hi - lo, 2 * n)
        grads = (vals[:, 0::2] - vals[:, 1::2]) / (2 * h)
        for k in range(hi - lo):
            g = grads[k]
            mag = float(np.linalg.norm(g))
            u = batch[k] - feet[lo + k]
            dist = float(np.linalg.norm(u))
            if mag <= 0 or dist <= 1e-9:
                continue
            cosang = float(np.clip(g @ u / (mag * dist), -1.0, 1.0))
            worst = max(worst, float(np.arccos(cosang)))
    return worst


def test_criterion_09_singularity_test_agreement(scenes):
    disagreements = 0
    total = 0
    for name in SUITE_SCENES:
        scene = scenes[name]
        curve, weight = scene.pairs[0]
        s, v, R = random_offsets(scene, 1000, r_cap=4.0, margin=0.1)
        mu = np.asarray(weight.mu(s), dtype=float)
        _, hess = is_singular(curve, weight, s, v, R)
        det = np.linalg.det(fd_differential(curve, weight, s, v, R))
        hess_scale = 2.0 / mu**2 * np.maximum(1.0, R**2)
        det_scale = mu**curve.ambient_dim
        near_zero_hess = np.abs(hess) <= 1e-4 * hess_scale
        near_zero_det = np.abs(det) <= 1e-4 * det_scale
        gray = ((1e-6 * hess_scale < np.abs(hess)) & (np.abs(hess) < 1e-2 * hess_scale)) | (
            (1e-6 * det_scale < np.abs(det)) & (np.abs(det) < 1e-2 * det_scale)
        )
        total += len(s)
        disagreements += int(np.sum(~gray & (near_zero_hess != near_zero_det)))
    ok = disagreements == 0
    report_line(
        9,
        ok,
        f"second-derivative vs finite-difference Jacobian tests: "
        f"{disagreements} disagreements in {total} offsets",
    )


def test_criterion_10_determinism(tmp_path):
    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "weighted_tubes", *args],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    blobs = {}
    for threads in ("1", "8"):
        rep = tmp_path / f"rep{threads}.json"
        sw = tmp_path / f"sweep{threads}.csv"
        run("report", "--scene", "example1a", "--threads", threads, "--out", str(rep))
        run(
            "sweep", "--scene", "example6_family", "--t-values=-0.04,0.02",
            "--threads", threads, "--out", str(sw),
        )
        blobs[threads] = (rep.read_bytes(), sw.read_bytes())
    ok = blobs["1"] == blobs["8"]
    report_line(10, ok, "report and sweep bytes identical for --threads 1 vs 8")
