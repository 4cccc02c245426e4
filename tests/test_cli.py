import json
import subprocess
import sys

import numpy as np
import pytest


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
            "--tol-override", "focal_samples=512",
        )
        doc = json.loads(out.read_text())
        assert doc["dir"] == pytest.approx(1.0, abs=1e-8)


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
        [("example4", "delta_band_factor=inf"), ("example2_stadium", "tol_dc=nan")],
    )
    def test_non_finite_tolerance_exit_2(self, scene, override):
        proc = run_cli("report", "--scene", scene, "--tol-override", override, check=False)
        assert proc.returncode == 2
        assert "must be finite" in proc.stderr

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

    def test_numeric_failure_exit_3(self, tmp_path):
        proc = run_cli(
            "fibers", "--scene", "example1a", "--s-values", "1.0", "--r-max", "100.0",
            check=False,
        )
        assert proc.returncode == 3
        assert "numeric failure" in proc.stderr


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
        assert out.exists()  # CSV still emitted
        assert not (tmp_path / "fib3.svg").exists()


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
