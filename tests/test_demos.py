"""The narrative scripts in demos/ run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gent

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    src = os.path.dirname(os.path.dirname(gent.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # pytest's filterwarnings does not reach a subprocess: the interpreter takes the same rule
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
