"""Smoke test: every demo runs to completion.  The two zero-map demos, 02
and 04, take about 0.4 s and 0.5 s, since a scan cell evaluates its sigma
grid in one vector pass."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_point_evaluation.py",
                                  "02_nonvanishing_regions.py",
                                  "03_functional_equations.py",
                                  "04_zero_tracking.py",
                                  "05_lfunctions_and_polylogs.py"])
def test_demo_exits_zero(name):
    # the child imports the package from where this process found it
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)), timeout=120)
    assert proc.returncode == 0, proc.stderr
