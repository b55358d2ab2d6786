"""Every demo script runs to completion against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import matchforge

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# The directory holding the imported package, so the demos import the same code.
PACKAGE_ROOT = str(Path(matchforge.__file__).resolve().parents[1])


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
