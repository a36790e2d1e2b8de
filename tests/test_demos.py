"""Smoke test of the example scripts in ``demos/``: each runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS  # else the parametrized test below would run nothing


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, str(demo)], cwd=ROOT, timeout=120,
                       env=dict(os.environ, PYTHONPATH=path),
                       capture_output=True, text=True, check=False)
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout.strip()
