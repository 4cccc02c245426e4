import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import weighted_tubes

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"
SRC = pathlib.Path(weighted_tubes.__file__).resolve().parents[1]


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("[0-9]*.py")))
def test_demo_runs(tmp_path, name):
    # Each demo runs from a copy, so its output/ directory lands in tmp_path.
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
