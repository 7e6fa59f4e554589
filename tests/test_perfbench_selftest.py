"""The benchmark harness's own checks run with the test suite.

``perfbench/selftest.py`` checks the harness's correctness gate, its pair
counts on fixed inputs and its naive cross-checks.  Running it here makes
a change that breaks them fail the suite, not only the benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
