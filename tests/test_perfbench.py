"""The benchmark's self-test, run in its own interpreter as its docstring
says: it patches the package's module attributes under a tracer, so it
stays out of this process."""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    # it pins the functions the tracer wraps and the scalar route's counts
    # per fresh z = 1 evaluate (5 coefficient builds, 150 bernoulli_poly
    # calls), so a package change that moves either fails here too
    pytest.importorskip("mpmath")
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
