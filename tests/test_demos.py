"""Smoke test: every demo script runs to completion in a fresh interpreter."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import batteryauth

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(batteryauth.__file__)))
_DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_six_demos_found():
    assert len(_DEMOS) == 6


@pytest.mark.parametrize("demo", _DEMOS, ids=[d.stem for d in _DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
