"""The benchmark's own self-test, run against this checkout's ``src/``.

``perfbench/`` drives the library through its public API (``ReachParams``,
``AssumptionSet.of``, the report round trip, ``dataclasses.replace`` on a
report), so an API change that breaks the benchmark fails here first.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest passed"
