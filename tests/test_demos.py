"""The demo scripts run to completion against the current API."""

import os
import subprocess
import sys

import pytest

import cylshell

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("name", ["rect_inequalities", "ansatz_limits", "classical_load",
                                  "fixedbc_limit", "korn_scaling"])
def test_demo_exits_cleanly(name, tmp_path):
    src = os.path.dirname(os.path.dirname(cylshell.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, f"{name}_demo.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert list(tmp_path.iterdir()) == []
