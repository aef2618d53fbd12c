"""The benchmark under perfbench/ still runs against the library.

perfbench looks gent's functions up by name, so renaming or deleting one
breaks the benchmark without failing any other test.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("scipy")  # perfbench's checks use scipy and mpmath
pytest.importorskip("mpmath")

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_functions_exist(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look themselves up
    spec.loader.exec_module(tracing)
    for mod_name, fn_name, _span in tracing.TRACED:
        module = importlib.import_module("gent." + mod_name)
        assert callable(getattr(module, fn_name, None)), f"gent.{mod_name}.{fn_name}"


def test_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
