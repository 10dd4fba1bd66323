"""Each narrative script in demos/ runs to completion against the package.

A demo is copied into a temporary directory first, so the CSV and
figure files it writes next to itself land there, not in the checkout.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dickeqfi

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    src = str(Path(dickeqfi.__file__).resolve().parents[1])
    env = dict(os.environ, MPLBACKEND="Agg",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
