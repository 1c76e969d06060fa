from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import svdrank
from svdrank.selftest import run_selftest

# With sys.modules["scipy"] set to None, any import of scipy or of one of its
# submodules raises ImportError.
WITHOUT_SCIPY = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None
import svdrank
for info in pkgutil.iter_modules(svdrank.__path__):
    importlib.import_module("svdrank." + info.name)
from svdrank.cli import main
sys.exit(main(["selftest"]))
"""


def test_selftest_passes():
    assert run_selftest(verbose=False)


def test_runs_with_numpy_only():
    src = str(Path(svdrank.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
