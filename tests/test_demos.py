"""Smoke test: the fast demos run to completion.  02 (about 5 s) and 04
(about 12 s) are left to be run by hand."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_point_evaluation.py",
                                  "03_functional_equations.py",
                                  "05_lfunctions_and_polylogs.py"])
def test_demo_exits_zero(name):
    # the child imports the package from where this process found it
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)), timeout=120)
    assert proc.returncode == 0, proc.stderr
