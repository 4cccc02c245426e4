"""Seeded inputs of the benchmark: scene documents and the calls of each round.

Everything here is a pure function of the seed. A workload runs in rounds;
a round is a fixed list of `wtube` calls. --seconds sets the number of
rounds through the workload's round length at the commit that defined the
benchmark (ROUND_SECONDS), never through a clock, so every commit runs the
same calls and a faster program simply finishes sooner.

- report_mix: every form of the radii report. Round 0 reports every
  distinct bundled geometry and the open arcs (which carry the known exit-3
  defect); every round reports a fresh batch of seeded closed scenes and
  sweeps a seeded arc-family grid and one stadium-family value.
  Each sweep runs with --threads 1 and --threads 2. No two reports of a run
  share an input, and the failing open arcs run once per run, so the number
  of failed calls does not grow with the speed of the program.
- geometry: the drawing verbs on every bundled scene plus one seeded 3D
  scene, with heights, feet and t values drawn per round.
"""

import math

import numpy as np

# example3_family repeats example2_stadium's geometry and example6_family
# repeats example4's, so only one of each pair is reported.
BUNDLED_DISTINCT = (
    "circle_mu1",
    "ellipse_mu1",
    "example1a",
    "example1b",
    "example2_stadium",
    "example4",
)
FAMILY_SCENES = ("example3_family", "example6_family")

# Typical seconds per round when the benchmark was defined (2-CPU Xeon VM;
# its speed drifts by up to 1.5x over minutes).
ROUND_SECONDS = {"report_mix": 9.0, "geometry": 15.0}

# Closed scenes per report_mix round, by generator name.
CLOSED_BATCH = ("fourier_planar", "fourier_3d", "two_component")
OPEN_ARCS = ("chebyshev_arc", "chebyshev_arc", "circle_arc_mu1", "circle_arc_mu1")
GENERATED_TUBE_SAMPLES = 32

_TAGS = {
    "fourier_planar": 1,
    "fourier_3d": 2,
    "two_component": 3,
    "chebyshev_arc": 4,
    "circle_arc_mu1": 5,
    "sweep": 6,
    "geometry": 7,
}


def round_count(workload, seconds):
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def rng_for(seed, *path):
    """Independent generator for one (seed, path) position."""
    return np.random.default_rng([int(seed), *[int(p) for p in path]])


# ---------------------------------------------------------------------------
# Scene generators. Perturbations stay small so closed curves stay embedded:
# mode k carries amplitude amp / k^2, which keeps the curvature change below
# amp per mode and the curve far from self-contact.
# ---------------------------------------------------------------------------


def _closed_coeffs(rng, radius, center, amp, modes=(2, 3, 4)):
    cx = [float(center[0]), float(radius), 0.0]
    cy = [float(center[1]), 0.0, float(radius)]
    for k in modes:
        a = amp * radius / k**2
        px, py = rng.uniform(0.0, 2.0 * math.pi, 2)
        cx += [a * math.cos(px), a * math.sin(px)]
        cy += [a * math.cos(py), a * math.sin(py)]
    return [cx, cy]


def _fourier_weight(rng, amp=0.1, modes=(1, 2)):
    w = [1.0]
    for k in modes:
        ph = rng.uniform(0.0, 2.0 * math.pi)
        w += [amp / k * math.cos(ph), amp / k * math.sin(ph)]
    return {"kind": "fourier", "params": {"coefficients": w}}


def fourier_planar(rng):
    return {
        "ambient_dim": 2,
        "components": [{"kind": "fourier", "params": {"coefficients": _closed_coeffs(rng, 1.0, (0, 0), 0.04)}}],
        "weights": [_fourier_weight(rng)],
    }


def fourier_3d(rng):
    coeffs = _closed_coeffs(rng, 1.0, (0, 0), 0.04)
    ph = rng.uniform(0.0, 2.0 * math.pi)
    lift = rng.uniform(0.1, 0.2)
    coeffs.append([0.0, 0.0, 0.0, lift * math.cos(ph), lift * math.sin(ph)])
    return {
        "ambient_dim": 3,
        "components": [{"kind": "fourier", "params": {"coefficients": coeffs}}],
        "weights": [_fourier_weight(rng)],
    }


def two_component(rng):
    jitter = rng.uniform(-0.05, 0.05, 2)
    left = _closed_coeffs(rng, 0.6, (-1.0, jitter[0]), 0.04)
    right = _closed_coeffs(rng, 0.6, (1.0, jitter[1]), 0.04)
    return {
        "ambient_dim": 2,
        "components": [
            {"kind": "fourier", "params": {"coefficients": left}},
            {"kind": "fourier", "params": {"coefficients": right}},
        ],
        "weights": [
            _fourier_weight(rng),
            {"kind": "constant", "params": {"value": float(rng.uniform(0.7, 0.9))}},
        ],
    }


def chebyshev_arc(rng):
    """Random cubic arc; most of these reach the known exit-3 defect."""
    c = rng.normal(0.0, 0.3, (2, 4))
    c[0, 1] += 1.0
    c[1, 2] += 0.5
    w = [1.0, float(rng.uniform(-0.1, 0.1)), float(rng.uniform(-0.05, 0.05))]
    return {
        "ambient_dim": 2,
        "components": [{"kind": "chebyshev", "params": {"coefficients": c.tolist(), "raw_domain": [-1.0, 1.0]}}],
        "weights": [{"kind": "chebyshev", "params": {"coefficients": w}}],
    }


def circle_arc_mu1(rng):
    """Unit-circle arc longer than pi with mu = 1: closed form dir = air = 1."""
    length = float(rng.uniform(math.pi + 0.3, 2.0 * math.pi - 0.3))
    start = float(rng.uniform(-math.pi, math.pi))
    return {
        "ambient_dim": 2,
        "components": [{"kind": "preset", "preset": "circle_arc", "params": {"s_start": start, "s_end": start + length}}],
        "weights": [{"kind": "constant", "params": {"value": 1.0}}],
    }


GENERATORS = {
    "fourier_planar": fourier_planar,
    "fourier_3d": fourier_3d,
    "two_component": two_component,
    "chebyshev_arc": chebyshev_arc,
    "circle_arc_mu1": circle_arc_mu1,
}


def generate_scene(kind, seed, round_index, slot, accepts, max_attempts=32):
    """Scene of `kind` for one slot; a document the loader rejects is replaced
    by the next attempt's document, deterministically."""
    for attempt in range(max_attempts):
        doc = GENERATORS[kind](rng_for(seed, _TAGS[kind], round_index, slot, attempt))
        doc["name"] = f"{kind}-r{round_index}-{slot}"
        if accepts(doc):
            return doc, attempt
    raise RuntimeError(f"no loadable {kind} scene after {max_attempts} attempts")


# ---------------------------------------------------------------------------
# Call plans
# ---------------------------------------------------------------------------


def call(label, argv, kind, units=1, **check):
    return {"label": label, "argv": argv, "kind": kind, "units": units, "check": check}


def report_round(r, keys):
    """One report per scene key, in order."""
    return [call(f"r{r}/report/{key}", ["report", "--scene", key], "report", scene=key) for key in keys]


def sweep_round(seed, r):
    """Seeded t values near the jump at t = 0, each grid swept at 1 and 2
    threads: twenty values straddling t = 0 on example6_family (a few
    hundredths of a second per row) and one on example3_family (about a
    second per row), below t = 0 in even rounds and above it in odd ones.

    Both sweeps cost about the same CPU time (1.1-1.4 s) whatever the seed.
    With the bundled stadium report they make a cluster of 21 calls that
    holds both call_cpu_p50_ms and call_cpu_tail_ms however many open arcs
    fail, so neither statistic follows the seeded scenes' costs."""
    rng = rng_for(seed, _TAGS["sweep"], r)
    neg = np.sort(rng.uniform(0.005, 0.1, 10))[::-1]
    pos = np.sort(rng.uniform(0.005, 0.1, 10))
    stadium_t = float(rng.uniform(0.005, 0.03)) * (1.0 if r % 2 else -1.0)
    grids = [
        ("example6_family", [-float(x) for x in neg] + [float(x) for x in pos]),
        ("example3_family", [stadium_t]),
    ]
    calls = []
    for scene, ts in grids:
        values = ",".join(repr(t) for t in ts)
        base = f"r{r}/sweep/{scene}"
        for threads in (1, 2):
            calls.append(
                call(
                    f"{base}/threads{threads}",
                    ["sweep", "--scene", scene, f"--t-values={values}", "--threads", str(threads)],
                    "sweep",
                    units=len(ts),
                    scene=scene,
                    t=ts,
                    same_bytes_as=f"{base}/threads1" if threads == 2 else None,
                )
            )
    return calls


def geometry_round(seed, r, scenes):
    """scenes: [(scene key, {"ur", "air", "s_min", "s_max", "tube_samples"})];
    heights, feet and t are drawn per round. Each tube foot costs a scalar
    map evaluation per direction, slow on an arclength-inverted 3D curve,
    so the generated scene's tubes use fewer feet than the default 256."""
    rng = rng_for(seed, _TAGS["geometry"], r)
    calls = []
    for key, info in scenes:
        ur = repr(float(info["ur"]))
        air = float(info["air"])
        span = info["s_max"] - info["s_min"]
        feet = np.sort(rng.uniform(info["s_min"] + 0.1 * span, info["s_max"] - 0.1 * span, 3))
        low = float(rng.uniform(0.5, 0.7)) * air
        high = float(rng.uniform(1.2, 1.4)) * air
        base = f"r{r}/{key}"
        samples = ["--samples", str(info["tube_samples"])] if info.get("tube_samples") else []
        calls += [
            call(f"{base}/singular", ["singular", "--scene", key, "--ur", ur], "singular", scene=key),
            call(f"{base}/collapse", ["collapse", "--scene", key, "--ur", ur], "collapse", scene=key),
            call(f"{base}/check", ["check", "--scene", key], "check", scene=key),
            call(
                f"{base}/fibers",
                ["fibers", "--scene", key, "--s-values=" + ",".join(repr(float(s)) for s in feet)],
                "fibers",
                scene=key,
            ),
            call(f"{base}/tube_below", ["tube", "--scene", key, "--radius", repr(low)] + samples, "tube",
                 scene=key, below_air=True),
            call(f"{base}/tube_above", ["tube", "--scene", key, "--radius", repr(high)] + samples, "tube",
                 scene=key, below_air=False),
        ]
    for key in FAMILY_SCENES:
        t = float(rng.uniform(-0.05, 0.05))
        calls.append(call(f"r{r}/{key}/check_t", ["check", "--scene", key, f"--t={t!r}"], "check", scene=key))
    return calls
