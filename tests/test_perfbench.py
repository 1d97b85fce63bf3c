"""The benchmark's own self-test, run against this checkout's ``src/``.

``perfbench/`` drives the library through its public API (``ReachParams``,
``AssumptionSet.of``, the report round trip, ``dataclasses.replace`` on a
report), so an API change that breaks the benchmark fails here first.
The traced per-layer counts, which the self-test never takes, are run
here too.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest passed"


#: One analysis of each in-process workload at the self-test's sizes: its
#: per-layer counts and the number of step entries in its report file,
#: printed with the benchmark's list of per-layer metric names.
TRACED_COUNTS = """
import json, sys
sys.path.insert(0, "perfbench")
import run, spans, workloads
vc = run.import_vulnchain()
workloads.CHAIN_STATES, workloads.BLOCKED_STATES, workloads.DENSE_STATES = 120, 120, 150
out = {}
for name in ("chain", "blocked", "queries"):
    work = workloads.make(name, vc, 7, run.ROOT, run.OUT / "selftest")
    try:
        raw = work.analysis(0, spans.direct)
        witnesses = json.loads(raw["report_text"])["witnesses"]
        out[name] = (work.counts(raw), sum(len(w["steps"]) for w in witnesses))
    finally:
        work.close()
print(json.dumps({"per_layer": run.PER_LAYER, "workloads": out}))
"""


def test_traced_counts_name_per_layer_metrics_and_match_the_report():
    proc = subprocess.run([sys.executable, "-c", TRACED_COUNTS], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert set(got["workloads"]) == {"chain", "blocked", "queries"}
    for name, (counts, report_steps) in got["workloads"].items():
        assert set(counts) <= set(got["per_layer"]), name
        assert counts["reach.witness_steps"] == report_steps, name
