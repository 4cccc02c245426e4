import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from test_scene import KNOWN, REMOVED_TOLERANCES, bundled_doc


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "weighted_tubes", *args],
        capture_output=True,
        text=True,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


class TestReport:
    def test_example1a_values(self, tmp_path):
        out = tmp_path / "rep.json"
        run_cli("report", "--scene", "example1a", "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["dir"] == pytest.approx(2.0, abs=1e-6)
        assert doc["air"] == pytest.approx(2 * np.sqrt(2.0), abs=1e-6)
        assert doc["dcsd_half"] == "inf"
        assert set(doc) == {
            "focrad0", "focradminus", "dcsd_half", "lr", "ur", "dir", "tir", "air", "witnesses",
        }

    def test_circle_all_one(self, tmp_path):
        out = tmp_path / "rep.json"
        run_cli("report", "--scene", "circle_mu1", "--out", str(out))
        doc = json.loads(out.read_text())
        for key in ("dir", "tir", "air"):
            assert doc[key] == pytest.approx(1.0, abs=1e-8)

    def test_stdout_json(self):
        proc = run_cli("report", "--scene", "circle_mu1")
        doc = json.loads(proc.stdout)
        assert doc["tir"] == pytest.approx(1.0, abs=1e-8)
        assert "focrad0" in proc.stderr  # human table on stderr

    def test_tol_override(self, tmp_path):
        out = tmp_path / "rep.json"
        run_cli(
            "report", "--scene", "circle_mu1", "--out", str(out),
            "--tol-override", "grid_samples=512",
        )
        doc = json.loads(out.read_text())
        assert doc["dir"] == pytest.approx(1.0, abs=1e-8)


VERBS = ("report", "check", "singular")


class TestErrors:
    def test_schema_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"ambient_dim": 2, "components": [], "weights": []}))
        proc = run_cli("report", "--scene", str(bad), check=False)
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr

    def test_unknown_key_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        doc = {
            "ambient_dim": 2,
            "components": [{"kind": "preset", "preset": "unit_circle", "params": {}}],
            "weights": [{"kind": "constant", "params": {"value": 1.0}}],
            "bogus": 1,
        }
        bad.write_text(json.dumps(doc))
        proc = run_cli("report", "--scene", str(bad), check=False)
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "scene, override",
        [("example4", "pair_grid=inf"), ("example2_stadium", "grid_samples=nan")],
    )
    def test_non_finite_tolerance_exit_2(self, scene, override):
        proc = run_cli("report", "--scene", scene, "--tol-override", override, check=False)
        assert proc.returncode == 2
        assert "must be an integer" in proc.stderr

    @pytest.mark.parametrize("override, message", [
        # pair_grid=1 used to report dcsd_half = inf and pair_grid=2 a value
        # of 2 on ellipse_mu1 (the true one is 1), both with exit 0.
        ("pair_grid=1", "'pair_grid' must be >= 3, got 1"),
        ("pair_grid=2", "'pair_grid' must be >= 3, got 2"),
        ("grid_samples=2", "'grid_samples' must be >= 3, got 2"),
        ("grid_samples=0", "'grid_samples' must be >= 3, got 0"),
        ("grid_samples=8192.7", "'grid_samples' must be an integer, got '8192.7'"),
        ("grid_samples=true", "'grid_samples' must be an integer, got 'true'"),
        # 10^12 x 2 float64 would be 16 TB; the dense grid used to end in a
        # numpy _ArrayMemoryError traceback with exit 1.
        ("grid_samples=1000000000000", "grid_samples=1000000000000 needs"),
        # The two counts grid_samples replaced are refused by name, whatever
        # the value.
        ("focal_samples=1000000000000", "focal_samples'; known: grid_samples, pair_grid"),
        ("singular_samples=1000000000000", "singular_samples'; known: grid_samples, pair_grid"),
    ])
    def test_bad_sample_count_override_exit_2(self, override, message):
        proc = run_cli("report", "--scene", "ellipse_mu1", "--tol-override", override, check=False)
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr and message in proc.stderr

    @pytest.mark.parametrize("value, message", [
        (True, "'grid_samples' must be an integer, got True"),
        (8192.7, "'grid_samples' must be an integer, got 8192.7"),
        (2, "'grid_samples' must be >= 3, got 2"),
        (10**12, "budget"),
    ], ids=["true", "fraction", "two", "huge"])
    def test_bad_sample_count_in_scene_exit_2(self, tmp_path, value, message):
        # In a scene's tolerances block, true used to run as 1 and 8192.7 as
        # 8192, both with exit 0.
        doc = {
            "ambient_dim": 2,
            "components": [{"kind": "preset", "preset": "unit_circle", "params": {}}],
            "weights": [{"kind": "constant", "params": {"value": 1.0}}],
            "tolerances": {"grid_samples": value},
        }
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("report", "--scene", str(path), check=False)
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr and message in proc.stderr

    def test_tolerances_list_exit_2(self, tmp_path, capsys):
        # It used to crash with AttributeError and exit 1.
        from weighted_tubes import cli

        path = tmp_path / "scene.json"
        path.write_text(json.dumps({
            "ambient_dim": 2,
            "components": [{"kind": "preset", "preset": "unit_circle", "params": {}}],
            "weights": [{"kind": "constant", "params": {"value": 1.0}}],
            "tolerances": [1],
        }))
        assert cli.main(["report", "--scene", str(path)]) == 2
        assert capsys.readouterr().err == "configuration error: tolerances must be an object, got list\n"

    @pytest.mark.parametrize("name", REMOVED_TOLERANCES)
    def test_removed_tolerance_override_exit_2(self, capsys, name):
        from weighted_tubes import cli

        assert cli.main(["report", "--scene", "circle_mu1", "--tol-override", f"{name}=1"]) == 2
        assert f"configuration error: unknown tolerance '{name}'; {KNOWN}\n" == capsys.readouterr().err

    def test_unread_tolerance_name_exit_2(self):
        # kappa_tol_factor is a curve constructor argument, not a tolerance.
        proc = run_cli("report", "--scene", "example4", "--tol-override",
                       "kappa_tol_factor=1e-3", check=False)
        assert proc.returncode == 2
        assert "unknown tolerance 'kappa_tol_factor'" in proc.stderr

    def test_oversized_pair_grid_exit_2(self):
        # 200000^2 x 2 float64 would be 640 GB; the budget check rejects it
        # before any grid is built.
        proc = run_cli("report", "--scene", "example4", "--tol-override", "pair_grid=200000",
                       check=False)
        assert proc.returncode == 2
        assert "pair_grid=200000" in proc.stderr and "budget" in proc.stderr

    @pytest.mark.parametrize("args, message", [
        (("tube", "--scene", "example4", "--radius", "1", "--samples", "-3"), "--samples N >= 1"),
        (("tube", "--scene", "circle_mu1", "--radius", "0.5", "--samples", "0"), "--samples N >= 1"),
        (("fibers", "--scene", "example4", "--samples", "1"), "--samples N >= 2"),
        # 10^9 feet x 16 directions x 3 float64 would be 384 GB.
        (("tube", "--scene", "example1b", "--radius", "1", "--samples", "1000000000"), "budget"),
    ])
    def test_bad_sample_count_exit_2(self, args, message):
        proc = run_cli(*args, check=False)
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr and message in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("args, message", [
        (("sweep", "--scene", "example6_family", "--t-count", "5"), "--t-count needs --t-min and --t-max"),
        (("sweep", "--scene", "example6_family", "--t-min=0", "--t-max=1", "--t-count=-1"),
         "--t-count must be >= 1"),
        (("sweep", "--scene", "example6_family", "--t-min=0", "--t-max=1", "--t-count=0"),
         "--t-count must be >= 1"),
        (("sweep", "--scene", "example6_family", "--t-values=abc"), "--t-values expects"),
        (("fibers", "--scene", "example1a", "--s-values=x"), "--s-values expects"),
        (("fibers", "--scene", "example1a", "--component", "5"), "--component must be in [0, 1)"),
        (("fibers", "--scene", "example1a", "--component", "-1"), "--component must be in [0, 1)"),
        (("fibers", "--scene", "example1a", "--r-max", "nan"), "--r-max must be finite and > 0"),
        (("fibers", "--scene", "example1a", "--r-max", "-1"), "--r-max must be finite and > 0"),
        (("tube", "--scene", "example1a", "--radius", "nan"), "--radius must be finite and > 0"),
        (("tube", "--scene", "example1a", "--radius", "inf"), "--radius must be finite and > 0"),
        (("singular", "--scene", "example1a", "--ur", "nan"), "--ur must be > 0"),
        (("singular", "--scene", "example1a", "--ur", "-1"), "--ur must be > 0"),
        (("collapse", "--scene", "example1a", "--ur", "nan"), "--ur must be > 0"),
        (("collapse", "--scene", "example1a", "--ur", "-1"), "--ur must be > 0"),
        (("sweep", "--scene", "example6_family", "--t-values=,"), "--t-values holds no numbers"),
        (("fibers", "--scene", "example1a", "--s-values=,"), "--s-values holds no numbers"),
        (("fibers", "--scene", "example1a", "--s-values=nan"), "--s-values must be finite"),
        (("fibers", "--scene", "circle_mu1", "--s-values=0.5,nan"), "--s-values must be finite"),
        (("fibers", "--scene", "circle_mu1", "--s-values=inf"), "--s-values must be finite"),
        (("check", "--scene", "example6_family", "--t", "nan"), "--t must be finite"),
        (("check", "--scene", "example6_family", "--t", "inf"), "--t must be finite"),
        (("sweep", "--scene", "example6_family", "--t-min", "0", "--t-max", "inf", "--t-count", "2"),
         "--t-max must be finite"),
        (("sweep", "--scene", "example6_family", "--t-min", "nan", "--t-max", "0", "--t-count", "2"),
         "--t-min must be finite"),
    ])
    def test_bad_number_exit_2(self, args, message):
        proc = run_cli(*args, check=False)
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr and message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_infinite_ur_allowed(self):
        # No height cutoff: the whole collapse arc of example1a (r = 2).
        proc = run_cli("collapse", "--scene", "example1a", "--ur", "inf")
        assert len(proc.stdout.splitlines()) == 2

    def test_numeric_failure_exit_3(self, tmp_path):
        proc = run_cli(
            "fibers", "--scene", "example1a", "--s-values", "1.0", "--r-max", "100.0",
            check=False,
        )
        assert proc.returncode == 3
        assert "numeric failure" in proc.stderr
        assert "R=100.0 exceeds admissible bound" in proc.stderr

    @pytest.mark.parametrize("args", [
        ("fibers", "--scene", "circle_mu1", "--samples", "3", "--r-max", "1e200"),
        ("tube", "--scene", "circle_mu1", "--radius", "1e200", "--samples", "4"),
    ])
    def test_non_finite_image_exit_3(self, args):
        # mu' = 0 bounds no height, but R^2 overflows: no nan rows.
        proc = run_cli(*args, check=False)
        assert proc.returncode == 3
        assert "numeric failure" in proc.stderr and "not finite" in proc.stderr
        assert "Warning" not in proc.stderr and proc.stdout == ""

    def test_nan_t_value_is_a_failed_row(self):
        proc = run_cli("sweep", "--scene", "example6_family", "--t-values=nan,0.01")
        rows = proc.stdout.splitlines()[1:]
        assert rows[0].startswith("nan,") and "failed:" in rows[0]
        assert rows[1].endswith(",ok")

    def test_out_of_domain_feet_exit_3(self):
        # All feet are evaluated in one call, so the range spans every foot.
        proc = run_cli("fibers", "--scene", "example1a", "--s-values=0.5,5.0", check=False)
        assert proc.returncode == 3
        assert "numeric failure" in proc.stderr and "got range [0.5, 5.0]" in proc.stderr
        assert proc.stdout == ""

    def test_overflowing_sweep_rows_fail(self):
        proc = run_cli("sweep", "--scene", "example6_family",
                       "--t-values=0,10,1e100,1e150,1e155,1e160,1e308")
        rows = proc.stdout.splitlines()[1:]
        assert rows[:4] == [
            "0,2,4,4,0,ok",
            "10,0.093074821508815367,0.093074821508815367,0.093074821508815367,0,ok",
            "1e+100,1e-100,1e-100,1e-100,0,ok",
            "9.9999999999999998e+149,1e-150,1e-150,1e-150,0,ok",
        ]
        assert len(rows) == 7
        for row, t in zip(rows[4:], ("1e+155", "1e+160", "1e+308")):
            assert row.startswith(f"{t},nan,nan,nan,0,failed: ") and "overflow" in row

    def test_overflowing_report_exit_3(self, tmp_path):
        # Every radius of a unit circle with mu = 1e160 is 1e-160, but the
        # report's squares of mu overflow: a failure, not a wrong number.
        scene = tmp_path / "circle_1e160.json"
        scene.write_text(json.dumps({
            "ambient_dim": 2,
            "components": [{"kind": "preset", "preset": "unit_circle", "params": {}}],
            "weights": [{"kind": "constant", "params": {"value": 1e160}}],
        }))
        proc = run_cli("report", "--scene", str(scene), check=False)
        assert proc.returncode == 3
        assert "numeric failure" in proc.stderr and "overflow" in proc.stderr
        assert "Warning" not in proc.stderr and proc.stdout == ""

    @pytest.mark.parametrize("name, edits, verbs, code", [
        # A stadium piece that rounds to zero width was divided by its width.
        ("example2_stadium", {("components", 0, "params", "line_length"): 1e300}, VERBS, 2),
        ("example2_stadium", {("components", 0, "params", "transition"): 1e-300}, VERBS, 2),
        # The blend's shoulder polynomials divided by rb^5, which underflowed ...
        ("example2_stadium", {("components", 0, "params", "line_length"): 70.0,
                              ("weights", 0, "params", "shoulder"): 1e-300}, VERBS, 2),
        # ... and raised ta to its cube, which overflowed.
        ("example2_stadium", {("weights", 0, "params", "period"): 1e300,
                              ("weights", 0, "params", "stage_a"): 1e200}, VERBS, 2),
        # frequency^2 overflowed in every jet of order 2.
        ("example1a", {("weights", 0, "params", "frequency"): 1e300}, VERBS, 2),
        # Brent's method needed more than 100 iterations on a sign change
        # where g is flat; its budget now grows with the grid step.
        ("example2_stadium", {("weights", 0, "params", "cos_end"): 4e-6}, ("check", "singular"), 0),
        # Polynomial coefficients that are empty or not 1-D reached numpy's
        # polyval (IndexError, ValueError) in the weight's validation.
        ("example4", {("weights", 0, "params", "coefficients"): []}, VERBS, 2),
        ("example4", {("weights", 0, "params", "coefficients"): [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]},
         VERBS, 2),
        ("example4", {("weights", 0, "params", "coefficients"): [[]]}, VERBS, 2),
    ], ids=["stadium_line_length", "stadium_transition", "blend_shoulder", "blend_stage_a",
            "cosine_frequency", "blend_cos_end", "polynomial_empty", "polynomial_2d",
            "polynomial_empty_2d"])
    def test_fuzzed_scene_exit_code(self, tmp_path, capsys, name, edits, verbs, code):
        # Each of these bundled scenes with one edit used to end in a
        # traceback (exit 1) on every verb listed.
        from weighted_tubes import cli

        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(bundled_doc(name, edits.items())))
        prefix = {2: "configuration error: ", 3: "numeric failure: "}.get(code)
        for verb in verbs:
            assert cli.main([verb, "--scene", str(scene)]) == code
            err = capsys.readouterr().err
            assert err.startswith(prefix) if prefix else err == ""

    def test_height_cutoff_whose_square_overflows(self, tmp_path, capsys):
        # --ur 1e300 raised OverflowError (exit 1) at ur**2; it now acts as
        # --ur inf, byte for byte.
        from weighted_tubes import cli

        outs = []
        for ur in ("1e300", "inf"):
            out = tmp_path / f"singular-{ur}.csv"
            assert cli.main(["singular", "--scene", "example1a", "--ur", ur, "--out", str(out)]) == 0
            assert capsys.readouterr().err == ""
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] and outs[0].count(b"\n") > 1

    @pytest.mark.parametrize("verb", ["singular", "collapse"])
    def test_overflowing_graph_height_exit_3(self, tmp_path, capsys, verb):
        # With amplitude 1e160 the whole arc of example1a is singular at
        # R = 2e-160, but (mu')^2 overflows: singular printed an empty table
        # and collapse raised ZeroDivisionError; both are numeric failures,
        # as the report already was.
        from weighted_tubes import cli

        scene = tmp_path / "scene.json"
        edit = (("weights", 0, "params", "amplitude"), 1e160)
        scene.write_text(json.dumps(bundled_doc("example1a", [edit])))
        for argv in ([verb, "--ur", "inf"], ["report"]):
            assert cli.main(argv + ["--scene", str(scene), "--out", str(tmp_path / "out")]) == 3
            err = capsys.readouterr().err
            assert err.startswith("numeric failure: ") and "overflowed: overflow" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [1e160, 1e300])
    def test_overflow_of_g_products_is_harmless(self, tmp_path, capsys, value):
        # A product of neighbouring g values overflows for a constant weight
        # this large; the sign test compares signs instead, so nothing warns,
        # and the tables stay empty.
        import warnings

        from weighted_tubes import cli

        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({
            "ambient_dim": 2,
            "components": [{"kind": "preset", "preset": "unit_circle", "params": {}}],
            "weights": [{"kind": "constant", "params": {"value": value}}],
        }))
        for verb, extra in (("singular", ["--ur", "inf"]), ("check", [])):
            out = tmp_path / f"{verb}.out"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert cli.main([verb, "--scene", str(scene), "--out", str(out)] + extra) == 0
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            assert capsys.readouterr().err == ""
            text = out.read_text()
            assert text == ("s,R,x1,x2\n" if verb == "singular"
                            else '{\n  "transversal": true,\n  "witnesses": []\n}\n')


class TestSweep:
    def test_example6_semicontinuity(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli(
            "sweep", "--scene", "example6_family",
            "--t-values=-0.05,0.05", "--out", str(out),
        )
        lines = out.read_text().split("\n")
        assert lines[0] == "t,dir,tir,air,collapse_count,status"
        row_neg = lines[1].split(",")
        row_pos = lines[2].split(",")
        assert float(row_neg[2]) == pytest.approx(4.0, abs=1e-3)
        assert float(row_pos[2]) < 2.0
        assert out.read_bytes().count(b"\r") == 0  # LF endings

    def test_grid_flags(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli(
            "sweep", "--scene", "example6_family", "--t-min=-0.02", "--t-max=0.02",
            "--t-count", "3", "--out", str(out),
        )
        assert len(out.read_text().strip().split("\n")) == 4


class TestPointExports:
    def test_fibers_csv(self, tmp_path):
        out = tmp_path / "fib.csv"
        run_cli(
            "fibers", "--scene", "example1a", "--s-values", "0.0",
            "--r-max", "2.0", "--samples", "5", "--out", str(out),
        )
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "s,R,x1,x2"
        assert len(lines) == 6
        # The fiber through s = 0 is the x-axis.
        for line in lines[1:]:
            assert abs(float(line.split(",")[3])) <= 1e-12

    def test_fibers_default_feet_on_chosen_component(self, tmp_path):
        # Two arcs of the unit circle; the default feet lie in the middle
        # 80% of the component that --component names.
        scene = tmp_path / "two_arcs.json"
        scene.write_text(json.dumps({
            "ambient_dim": 2,
            "components": [
                {"kind": "preset", "preset": "circle_arc", "params": {"s_start": -1.0, "s_end": 1.0}},
                {"kind": "preset", "preset": "circle_arc", "params": {"s_start": 2.0, "s_end": 2.5}},
            ],
            "weights": [{"kind": "constant", "params": {"value": 1.0}}] * 2,
        }))
        proc = run_cli("fibers", "--scene", str(scene), "--component", "1", "--samples", "2")
        rows = [line.split(",") for line in proc.stdout.strip().split("\n")[1:]]
        feet = sorted({float(r[0]) for r in rows})
        assert feet == pytest.approx(np.linspace(2.05, 2.45, 5), abs=1e-12)
        for s, r, x1, x2 in (map(float, row) for row in rows):
            # mu = 1: the fiber runs along the inward normal of the unit circle.
            assert (x1, x2) == pytest.approx(((1 - r) * np.cos(s), (1 - r) * np.sin(s)), abs=1e-12)

    def test_fibers_at_a_weight_piece_start(self, tmp_path):
        # s = 6 starts a piece of the stadium's weight; the weight's slope
        # there used to be uninitialised memory, and the call exited 3 with
        # "R=0.9 exceeds admissible bound 0.16666666666666666 at s=6.0".
        from weighted_tubes import cli

        out = tmp_path / "fib.csv"
        argv = ["fibers", "--scene", "example2_stadium", "--samples", "3", "--out", str(out)]
        assert cli.main(argv + ["--s-values", "6"]) == 0
        at = np.loadtxt(out, delimiter=",", skiprows=1)
        assert cli.main(argv + ["--s-values", repr(float(np.nextafter(6.0, 7.0)))]) == 0
        np.testing.assert_allclose(at, np.loadtxt(out, delimiter=",", skiprows=1), rtol=1e-12)

    def test_fibers_read_one_curve_jet_and_map_once(self, tmp_path, monkeypatch):
        from weighted_tubes import cli, load_scene, sweeps

        scene = load_scene("example2_stadium")
        curve = scene.pairs[0][0]
        args = cli.build_parser().parse_args([
            "fibers", "--scene", "example2_stadium", "--s-values=0.5,3.0,20.0,40.0",
            "--samples", "9", "--out", str(tmp_path / "fib.csv"),
        ])
        calls = []
        jet, exp_mu = curve.jet, sweeps.exp_mu
        monkeypatch.setattr(curve, "jet", lambda s, order: (
            calls.append(("jet", np.size(s), order)) or jet(s, order)))
        monkeypatch.setattr(sweeps, "exp_mu", lambda *a: calls.append(("exp_mu",)) or exp_mu(*a))
        assert cli.cmd_fibers(args, scene) == 0
        # The feet's jet, the tangents of the two straight-side feet for their
        # normal frames, then exp_mu and the jet it evaluates on the feet.
        assert calls == [("jet", 4, 2), ("jet", 2, 1), ("exp_mu",), ("jet", 4, 1)]

    @pytest.mark.parametrize("feet", [["--s-values", "0,0.5"], []])
    def test_fibers_share_one_r_max_over_many_feet(self, tmp_path, feet):
        from weighted_tubes import cli, fiber_trace, load_scene

        # The README call (two feet) and the five default feet, each foot
        # traced on its own along its principal normal.
        curve, weight = load_scene("example1a").pairs[0]
        out = tmp_path / "fib.csv"
        argv = ["fibers", "--scene", "example1a", *feet, "--r-max", "2", "--out", str(out)]
        assert cli.main(argv) == 0
        s_values = [0.0, 0.5] if feet else np.linspace(
            curve.s_min + 0.1 * curve.length, curve.s_max - 0.1 * curve.length, 5)
        rows = []
        for s in s_values:
            d2 = curve.jet(float(s), 2)[2]
            rr, pts = fiber_trace(curve, weight, float(s), d2 / np.linalg.norm(d2), 2.0, 257)
            rows.append(np.column_stack([np.full(257, s), rr, pts]))
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        assert table.tobytes() == np.concatenate(rows).tobytes()

    def test_fibers_on_a_straight_side_take_the_normal_frame(self, tmp_path):
        from weighted_tubes import cli, fiber_trace, load_scene, normal_frames, w_bound

        curve, weight = load_scene("example2_stadium").pairs[0]
        feet = np.array([0.5, 3.0, 20.0])
        d2 = curve.second_derivative(feet)
        kappa = np.linalg.norm(d2, axis=-1)
        assert kappa.tolist() == [0.0, 0.0, kappa[2]] and kappa[2] > curve.kappa_tol
        dirs = np.concatenate([normal_frames(curve, feet[:2])[:, 0], d2[2:] / kappa[2]])
        # Default half-widths: 0.9 of the admissible bound, 1 where none.
        bound = w_bound(weight, feet)
        assert bound[2] == np.inf
        rr, pts = fiber_trace(curve, weight, feet, dirs, [0.9 * bound[0], 0.9 * bound[1], 1.0], 9)
        out = tmp_path / "fib.csv"
        argv = ["fibers", "--scene", "example2_stadium", "--s-values=0.5,3.0,20.0",
                "--samples", "9", "--out", str(out)]
        assert cli.main(argv) == 0
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        assert table.tobytes() == np.column_stack(
            [np.repeat(feet, 9), rr.ravel(), pts.reshape(-1, 2)]).tobytes()

    def test_singular_csv(self, tmp_path):
        out = tmp_path / "sing.csv"
        run_cli("singular", "--scene", "example4", "--out", str(out))
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "s,R,x1,x2"
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert abs(float(cells[0])) <= 1e-6
        assert float(cells[1]) == pytest.approx(2.0, abs=1e-6)

    def test_singular_empty_for_constant_weight(self, tmp_path):
        out = tmp_path / "sing.csv"
        run_cli("singular", "--scene", "circle_mu1", "--out", str(out))
        assert out.read_text().strip() == "s,R,x1,x2"

    def test_collapse_csv(self, tmp_path):
        out = tmp_path / "col.csv"
        run_cli("collapse", "--scene", "example1a", "--out", str(out))
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert float(cells[3]) == pytest.approx(1.0, abs=1e-9)  # kappa
        assert float(cells[4]) == pytest.approx(2.0, abs=1e-9)  # r

    def test_collapse_without_ur_finds_the_arcs_once(self, monkeypatch, tmp_path):
        # The report behind the computed ur finds the arcs at that ur, so the
        # verb prints them instead of searching again; --ur still searches.
        from weighted_tubes import cli, singular

        calls = []
        detect = singular.detect_collapse_arcs

        def counting(*args, **kwargs):
            calls.append(args[1])
            return detect(*args, **kwargs)

        monkeypatch.setattr(singular, "detect_collapse_arcs", counting)
        out = tmp_path / "col.csv"
        assert cli.main(["collapse", "--scene", "example1a", "--out", str(out)]) == 0
        assert len(calls) == 1
        assert cli.main(["collapse", "--scene", "example1a", "--out", str(tmp_path / "ur.csv"),
                         "--ur", repr(float(calls[0][0]))]) == 0
        assert len(calls) == 2 and (tmp_path / "ur.csv").read_text() == out.read_text()

    def test_singular_without_ur_evaluates_each_dense_grid_once(self, monkeypatch, tmp_path):
        # The report behind the computed ur and the zero set of g read one
        # dense grid (order-3 jets of grid_samples feet); --ur set to that
        # ur prints the same bytes.
        from weighted_tubes import cli, load_scene, radii
        from weighted_tubes.curves import ArclengthCurve

        scene = load_scene("example2_stadium")
        calls = []
        jet = ArclengthCurve.jet
        monkeypatch.setattr(ArclengthCurve, "jet", lambda curve, s, order: (
            calls.append((np.size(s), order)) or jet(curve, s, order)))
        out = tmp_path / "sing.csv"
        assert cli.main(["singular", "--scene", "example2_stadium", "--out", str(out)]) == 0
        assert calls.count((scene.tolerances.grid_samples, 3)) == 1
        ur = radii.radii_report(scene.pairs, scene.tolerances).ur
        assert cli.main(["singular", "--scene", "example2_stadium", "--out", str(tmp_path / "ur.csv"),
                         "--ur", repr(ur)]) == 0
        assert (tmp_path / "ur.csv").read_text() == out.read_text()
        assert len(out.read_text().splitlines()) > 1

    def test_tube_overlap_file(self, tmp_path):
        out = tmp_path / "tube.csv"
        run_cli(
            "tube", "--scene", "circle_mu1", "--radius", "0.5",
            "--samples", "32", "--out", str(out),
        )
        assert out.exists()
        overlap = tmp_path / "tube.overlap.csv"
        assert overlap.exists()
        assert overlap.read_text().strip() == "s,R,x1,x2"

    def test_svg_output(self, tmp_path):
        out = tmp_path / "fib.svg"
        run_cli(
            "fibers", "--scene", "example1a", "--s-values", "0.5", "--r-max", "1.0",
            "--samples", "9", "--format", "svg", "--out", str(out),
        )
        text = out.read_text()
        assert text.startswith("<?xml")
        assert 'id="curve"' in text and 'id="fibers"' in text
        assert (tmp_path / "fib.csv").exists()

    def test_svg_rejected_for_3d(self, tmp_path):
        out = tmp_path / "fib3"
        proc = run_cli(
            "fibers", "--scene", "example1b", "--s-values", "0.5", "--r-max", "1.0",
            "--samples", "5", "--format", "svg", "--out", str(out),
        )
        assert "SVG_UNSUPPORTED_DIM" in proc.stderr
        assert (tmp_path / "fib3.csv").exists()  # CSV still emitted, where a planar scene's goes
        assert not out.exists() and not (tmp_path / "fib3.svg").exists()

    @pytest.mark.parametrize("argv", [
        ["fibers", "--samples", "3"],
        ["tube", "--radius", "0.5", "--samples", "4"],
        ["singular", "--ur", "inf"],
    ], ids=["fibers", "tube", "singular"])
    def test_svg_on_3d_writes_the_csv_beside(self, tmp_path, argv):
        # `--out plot.svg` used to receive the CSV itself.
        from weighted_tubes import cli

        out = tmp_path / "plot.svg"
        assert cli.main(argv + ["--scene", "example1b", "--format", "svg", "--out", str(out)]) == 0
        assert not out.exists()
        assert cli.main(argv + ["--scene", "example1b", "--out", str(tmp_path / "t.csv")]) == 0
        assert (tmp_path / "plot.csv").read_bytes() == (tmp_path / "t.csv").read_bytes()
        if argv[0] == "tube":
            assert (tmp_path / "plot.overlap.csv").read_bytes() == (tmp_path / "t.overlap.csv").read_bytes()


class TestVerbFlags:
    # Flags a verb does not read used to be accepted and ignored: `report
    # --format svg` wrote JSON and `tube --format json --threads 9
    # --tol-override pair_grid=300` wrote CSV, both with exit 0.
    @pytest.mark.parametrize("argv", [
        ["fibers", "--scene", "example1a", "--tol-override", "pair_grid=300"],
        ["tube", "--scene", "example1a", "--radius", "0.5", "--tol-override", "pair_grid=300"],
        *[[verb, "--scene", "example1a", "--threads", "2"]
          for verb in ("fibers", "tube", "singular", "collapse", "check")],
        *[[verb, "--scene", "example1a", "--format", "csv"]
          for verb in ("report", "sweep", "collapse", "check")],
        *[[verb, "--scene", "example1a", "--format", "json"] for verb in ("fibers", "tube", "singular")],
        # offset is the one family; --family once also took a scene to read its kind from.
        *[["sweep", "--scene", "example1a", "--family", family, "--t-values=0"]
          for family in ("fixed", "example6_family")],
    ], ids=lambda argv: " ".join(argv[:1] + argv[3:]))
    def test_unread_flag_exit_2(self, capsys, argv):
        from weighted_tubes import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "wtube" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, layer", [
        (["fibers", "--s-values", "0.5", "--r-max", "1.0", "--samples", "9"], 'id="fibers"><polyline'),
        (["tube", "--radius", "0.5", "--samples", "16"], 'id="tube"><circle'),
        (["singular", "--ur", "inf"], 'id="singular"><circle'),
    ], ids=["fibers", "tube", "singular"])
    def test_svg_draws_its_points(self, tmp_path, argv, layer):
        from weighted_tubes import cli

        out = tmp_path / "plot"
        assert cli.main(argv + ["--scene", "example4", "--format", "svg", "--out", str(out)]) == 0
        svg = (tmp_path / "plot.svg").read_text()
        assert svg.replace("\n", "").count(layer) == 1
        # The table beside the drawing is the one --format csv writes.
        assert cli.main(argv + ["--scene", "example4", "--out", str(tmp_path / "t.csv")]) == 0
        assert (tmp_path / "plot.csv").read_bytes() == (tmp_path / "t.csv").read_bytes()
        assert len((tmp_path / "plot.csv").read_text().splitlines()) > 1

    def test_parser_is_built_once(self):
        from weighted_tubes import cli

        assert cli.build_parser() is cli.build_parser()

    def test_calls_share_no_parsed_state(self, monkeypatch, tmp_path):
        # The parser is shared by every main call; the namespaces are not.
        from weighted_tubes import cli, singular

        seen = []

        def spy(pairs, tol):
            seen.append(tol.grid_samples)
            return True, []

        monkeypatch.setattr(singular, "transversality_check", spy)
        out = str(tmp_path / "check.json")
        assert cli.main(["check", "--scene", "circle_mu1", "--out", out,
                         "--tol-override", "grid_samples=300"]) == 0
        assert cli.main(["check", "--scene", "circle_mu1", "--out", out]) == 0
        assert seen == [300, 4096]


class TestCheck:
    def test_flat_scene_not_transversal(self):
        proc = run_cli("check", "--scene", "example1a")
        doc = json.loads(proc.stdout)
        assert doc["transversal"] is False

    def test_family_member_transversal(self):
        proc = run_cli("check", "--scene", "example3_family", "--t", "0.05")
        doc = json.loads(proc.stdout)
        assert doc["transversal"] is True


class TestDeterminism:
    def test_report_bytes_identical_across_threads(self, tmp_path):
        outs = []
        for threads in ("1", "8"):
            out = tmp_path / f"rep_{threads}.json"
            run_cli(
                "report", "--scene", "example1a", "--threads", threads, "--out", str(out)
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_sweep_bytes_identical_across_threads(self, tmp_path):
        outs = []
        for threads in ("1", "8"):
            out = tmp_path / f"sweep_{threads}.csv"
            run_cli(
                "sweep", "--scene", "example6_family", "--t-values=-0.03,0.01,0.04",
                "--threads", threads, "--out", str(out),
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_repeated_runs_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            run_cli(
                "singular", "--scene", "example4", "--out", str(path)
            )
        assert a.read_bytes() == b.read_bytes()


# sha256 of the tube CSV and its overlap file, one height below air and one
# above (ellipse_mu1: air 0.5; example2_stadium: air 4.14), recorded while G
# was still refined by golden section.
TUBE_SHA256 = {
    ("ellipse_mu1", "0.3"): (
        "58db662b3e263c18058e5f0db972b38949a1015c9ec0ed663a5241637480ace0",
        "0b5aad20baf0289afe0b0968471f70166d539b70facb2836b641a2a9a92852f2",
    ),
    ("ellipse_mu1", "0.65"): (
        "e38589e992e29d12d4c129b4628a86eb21550a57770537c9dd96791c4db08102",
        "7d6743eba05d931987be8eedb32d173eb0cd1daaf3bf5d2c894cc41d9a40a8c0",
    ),
    ("example2_stadium", "2.5"): (
        "bbd3ab2beef956434d5d75869c2c6a88b45a85cb602c0c4ea42129fd7febdee8",
        "0b5aad20baf0289afe0b0968471f70166d539b70facb2836b641a2a9a92852f2",
    ),
    ("example2_stadium", "5.4"): (
        "0edb6621269e34f318c2b8a64f08ca7d148e453a4ac53439e98570ed2dc9cd45",
        "b7d67cdcbb32db2a97c35d1ebe055aaef72481015746ca6ca167c2b7907724c3",
    ),
}


@pytest.mark.parametrize("scene, radius", sorted(TUBE_SHA256))
def test_tube_bytes_pinned(tmp_path, scene, radius):
    out = tmp_path / "tube.csv"
    run_cli("tube", "--scene", scene, "--radius", radius, "--out", str(out))
    digests = tuple(
        hashlib.sha256(path.read_bytes()).hexdigest() for path in (out, tmp_path / "tube.overlap.csv")
    )
    assert digests == TUBE_SHA256[(scene, radius)]


def _fourier(*coordinates):
    return {"kind": "fourier", "params": {"coefficients": [list(c) for c in coordinates]}}


def _fourier_weight(*coefficients):
    return {"kind": "fourier", "params": {"coefficients": list(coefficients)}}


# Three Fourier scenes with fixed coefficients and the sha256 of their
# `wtube report` stdout, recorded while every partial arclength cell took 16
# Gauss-Legendre nodes.
FOURIER_REPORT_SCENES = {
    "planar": (
        {
            "ambient_dim": 2,
            "components": [_fourier([0.0, 1.0, 0.0, 0.008, -0.005, 0.003, 0.0025, -0.0015, 0.002],
                                    [0.0, 0.0, 1.0, -0.006, 0.007, 0.002, -0.003, 0.001, 0.0018])],
            "weights": [_fourier_weight(1.0, 0.06, -0.07, 0.03, 0.04)],
        },
        "24630c5464b86a55081c06e71a2d4425c46bd68cd6b61ff2cc9c5a601dc3661a",
    ),
    "3d": (
        {
            "ambient_dim": 3,
            "components": [_fourier([0.0, 1.0, 0.0, 0.007, 0.006, -0.003, 0.002, 0.0012, -0.002],
                                    [0.0, 0.0, 1.0, 0.005, -0.008, 0.004, 0.001, -0.002, 0.0011],
                                    [0.0, 0.0, 0.0, 0.12, -0.09])],
            "weights": [_fourier_weight(1.0, -0.05, 0.08, 0.04, -0.02)],
        },
        "a64d7fb972fdd21a0599c0bc30a3433312d1992bb43dfbbcd47f7b58bc4c9ae4",
    ),
    "two_component": (
        {
            "ambient_dim": 2,
            "components": [
                _fourier([-1.0, 0.6, 0.0, 0.005, 0.004, -0.002, 0.0018, 0.001, -0.0012],
                         [0.02, 0.0, 0.6, -0.003, 0.006, 0.0015, 0.002, -0.0011, 0.0009]),
                _fourier([1.0, 0.6, 0.0, -0.004, 0.005, 0.0021, -0.0016, 0.0013, 0.001],
                         [-0.03, 0.0, 0.6, 0.006, -0.002, -0.0019, 0.0012, 0.0008, -0.0014]),
            ],
            "weights": [_fourier_weight(1.0, 0.07, 0.05, -0.03, 0.04),
                        {"kind": "constant", "params": {"value": 0.8}}],
        },
        "89e63736a96278d48817ceec68f205b8f1367ffb616f750063b557c12c9e5d6d",
    ),
}


@pytest.mark.parametrize("name", sorted(FOURIER_REPORT_SCENES))
def test_fourier_report_bytes_pinned(tmp_path, name):
    scene, digest = FOURIER_REPORT_SCENES[name]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    proc = run_cli("report", "--scene", str(path))
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


# sha256 of `wtube sweep` stdout on the two family scenes: example6_family at
# t = -2 (the weight turns negative, so the row fails) and t = +-2^-k,
# k = 1..10; example3_family on an 11-point --t-min/--t-max grid.
SWEEP_SHA256 = {
    "example6_family": (
        ("--t-values=" + ",".join(
            ["-2"] + [repr(-2.0**-k) for k in range(1, 11)] + [repr(2.0**-k) for k in range(10, 0, -1)]
        ),),
        "e925a58e8dffe12be1d9f80774c67188179dde938020ae7d601c082db85e9046",
    ),
    "example3_family": (
        ("--t-min=-0.05", "--t-max=0.05", "--t-count=11"),
        "521b8ca9926a425037a9c2be1fd5050737680158de48ea800265a8e23a1ec0f2",
    ),
}


@pytest.mark.parametrize("scene", sorted(SWEEP_SHA256))
def test_sweep_bytes_pinned(scene):
    args, digest = SWEEP_SHA256[scene]
    proc = run_cli("sweep", "--scene", scene, *args)
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest
    assert proc.stderr == ""


# `wtube check --t` on the family scenes: (exit code, sha256 of stdout, sha256
# of stderr). t = 0 is not transversal, t = 0.05 is, and at t = -2 the weight
# is negative somewhere (exit 3).
EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
TRANSVERSAL_SHA256 = "7cdcc4dfb4fd97246cba84e1a4e32ec366965fb1c8a020e7e26d6c5fffa2731a"
CHECK_SHA256 = {
    ("example3_family", "0"): (
        0, "793c1cba95803b0b4d5151236f983a5ae6e35cab30e1cee9b7d9e99b75d68ef2", EMPTY_SHA256,
    ),
    ("example3_family", "0.05"): (0, TRANSVERSAL_SHA256, EMPTY_SHA256),
    ("example3_family", "-2"): (
        3, EMPTY_SHA256, "dcdfaa4b401f054c20ecb822fe53b1309293edc42556afd2677bd5543edef169",
    ),
    ("example6_family", "0"): (
        0, "bb4728737b6a61416952f45bf67a3265b332815bd2badb44b2c5fa301284fa84", EMPTY_SHA256,
    ),
    ("example6_family", "0.05"): (0, TRANSVERSAL_SHA256, EMPTY_SHA256),
    ("example6_family", "-2"): (
        3, EMPTY_SHA256, "ef7aa09ee5113d824c50818ad942ce4c0b7f83fed6697ebcbaa534f4df05c2bf",
    ),
}


@pytest.mark.parametrize("scene, t", sorted(CHECK_SHA256))
def test_check_bytes_pinned(scene, t):
    proc = run_cli("check", "--scene", scene, f"--t={t}", check=False)
    digests = tuple(hashlib.sha256(x.encode()).hexdigest() for x in (proc.stdout, proc.stderr))
    assert (proc.returncode, *digests) == CHECK_SHA256[(scene, t)]


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests as an
    # oracle only.
    code = (
        "import sys, weighted_tubes\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def per_cell_csv(header, rows):
    """The CSV writer that formatted every cell on its own (oracle)."""
    from weighted_tubes.util import float17

    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, str):
                cells.append(cell)
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            else:
                cells.append(float17(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_csv_columns_format_like_float17_per_cell():
    from weighted_tubes.cli import _csv_text

    rng = np.random.default_rng(7)
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
                1e300, 0.1, 1.0 / 3.0]
    scales = 10.0 ** rng.integers(-300, 300, 200)
    values = np.concatenate([specials, rng.standard_normal(200) * scales])
    header = ["py", "np64", "np32", "int", "npint", "flag", "status"]
    with np.errstate(over="ignore"):  # float32 cells overflow to inf
        rows = [
            (float(x), np.float64(-x), np.float32(x), k - 5, np.int64(3 * k), k % 2 == 0,
             f"row {k}")
            for k, x in enumerate(values)
        ]
    assert _csv_text(header, rows) == per_cell_csv(header, rows)
    # A column mixing floats, ints and strings falls back to its cells.
    mixed = [(1, 2.5, "a"), (np.float64(-0.0), np.int32(7), 3.0), ("b", np.nan, 4)]
    assert _csv_text(["a", "b", "c"], mixed) == per_cell_csv(["a", "b", "c"], mixed)
    assert _csv_text(["a"], []) == "a\n"
