"""Every demo runs to completion against the current package.

Each script runs in its own interpreter with `src` on the path and a
temporary working directory, since some demos write files there.  A
name the package no longer has, or a changed signature, then fails here
instead of breaking a demo silently.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path, tmp_path):
    # running the script resolves every import and every call
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
