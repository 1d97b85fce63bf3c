#!/usr/bin/env python3
"""Benchmark of vulnchain, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 24 --trace 0

It imports vulnchain from ``src/`` of the checkout (nothing needs
installing), sets the workload up several times, times whole rounds of
analyses for ``--seconds`` seconds in one closed loop, checks every output
and prints one JSON object as the last line of standard output:
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer ones
from spans recorded around each call into vulnchain. See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

# Set-ups run this many times before the timed phase and again after it, so
# that the median spans the run instead of one moment of the host's speed.
SETUP_REPEATS = 3
# The tail is the slowest analysis with ten analyses beyond it, so a run
# keeps going past --seconds until it has at least this many.
MIN_ANALYSES = 40

END_TO_END_UNITS = {
    "analysis_p50_s": "s", "analysis_tail_s": "s", "analyses_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MiB", "machine_json_bytes": "bytes",
}
PER_LAYER = (
    "ingest.parse_findings_s", "ingest.parse_crawl_list_s", "ingest.findings",
    "builder.build_fsm_s", "builder.states", "builder.conditions", "builder.edges",
    "report.fsm_to_json_s", "report.fsm_from_json_s", "report.machine_json_bytes",
    "reach.reach_s", "reach.paper_dfs_s", "reach.fired_states",
    "reach.extract_witness_s", "reach.witness_steps", "reach.goals_reached",
    "report.to_report_s", "report.report_to_json_s", "report.to_dot_s",
    "report.report_json_bytes", "report.dot_bytes",
    "cli.build_s", "cli.analyze_s", "cli.export_dot_s", "cli.import_s", "cli.interpreter_s",
    "trace.overhead_s",
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


def import_vulnchain():
    """Import vulnchain afresh from the checkout's ``src/``."""
    if sys.path[0] != str(ROOT / "src"):
        sys.path.insert(0, str(ROOT / "src"))
    for name in [m for m in sys.modules if m == "vulnchain" or m.startswith("vulnchain.")]:
        del sys.modules[name]
    vc = importlib.import_module("vulnchain")
    if not Path(vc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"vulnchain was imported from {vc.__file__}, not from this checkout")
    return vc


class Run:
    """One benchmark run: set-up, the timed closed loop, then the checks.

    Every interval is recorded with ``self.clock`` and scaled to the nominal
    host speed once the probes after it are taken (see speed.py).
    """

    def __init__(self, args):
        self.args = args
        self.clock = speed.Clock()
        self.refs: dict[int, workloads.Digest] = {}
        self.errors: list[str] = []  # analyses that failed
        self.wrong: list[str] = []   # outputs that are incorrect

    def set_up(self):
        """Set up ``SETUP_REPEATS`` times; returns the last workload object,
        still open, and the interval of each set-up."""
        intervals, work = [], None
        for _ in range(SETUP_REPEATS):
            if work is not None:
                work.close()
            self.clock.restart()
            t0 = perf_counter()
            vc = import_vulnchain()
            work = workloads.make(self.args.workload, vc, self.args.seed, ROOT,
                                  OUT / f"work-{os.getpid()}")
            work.analysis(0, spans.direct)
            intervals.append(self.clock.interval(perf_counter() - t0))
        return work, intervals

    def one(self, work, slot, tracer=None):
        """One analysis, under an ``analysis`` root span when traced.

        Returns its interval and raw outputs, or None if it failed.
        """
        root = tracer.begin("analysis") if tracer else None
        t0 = perf_counter()
        try:
            raw = work.analysis(slot, tracer.call if tracer else spans.direct)
        except Exception as exc:  # a failed analysis is counted, not fatal
            if not self.errors:
                traceback.print_exc(file=sys.stderr)
            self.errors.append(f"slot {slot}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if tracer:
                tracer.end(root)
        interval = self.clock.interval(perf_counter() - t0)
        digest = work.digest(raw)
        ref = self.refs.setdefault(slot, digest)
        if digest.texts != ref.texts:
            self.wrong.append(f"slot {slot}: outputs differ between analyses")
        return interval, raw

    def timed(self, work) -> list:
        """Whole rounds, untraced, until --seconds and MIN_ANALYSES are met;
        the interval of each analysis."""
        intervals = []
        self.clock.restart()
        start = perf_counter()
        while True:
            for slot in range(work.round_size):
                done = self.one(work, slot)
                if done:
                    intervals.append(done[0])
            if perf_counter() - start >= self.args.seconds and len(intervals) + len(self.errors) >= MIN_ANALYSES:
                return intervals

    def traced(self, work, tracer) -> tuple[list[float], list[float], list[dict]]:
        """Alternate an untraced and a traced round until --seconds; scaled
        times of the untraced and the traced analyses, and the per-layer
        values of each traced one."""
        plain, spanned = [], []  # intervals; traced ones with their layers
        self.clock.restart()
        start = perf_counter()
        while len(spanned) < 2 * work.round_size or perf_counter() - start < self.args.seconds:
            for slot in range(work.round_size):
                done = self.one(work, slot)
                if done:
                    plain.append(done[0])
            for slot in range(work.round_size):
                first = len(tracer.spans)
                done = self.one(work, slot, tracer)
                if done:
                    interval, raw = done
                    spanned.append((interval, tracer.self_times(first), work.counts(raw)))
        layers = []
        for interval, self_times, counts in spanned:
            factor = self.clock.scaled(interval) / interval[0]
            layers.append({**{f"{name}_s": t * factor for name, t in self_times.items()}, **counts})
        return ([self.clock.scaled(i) for i in plain],
                [self.clock.scaled(i) for i, _, _ in spanned], layers)


def tail(times: list[float]) -> float:
    """The slowest analysis that still has ten slower ones beyond it."""
    return sorted(times)[max(0, len(times) - 11)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    run = Run(args)
    try:
        work, setups = run.set_up()
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            tracer = spans.Tracer()
            plain, spanned, layers = run.traced(work, tracer)
            values = spans.per_layer(layers, PER_LAYER)
            values["trace.overhead_s"] = statistics.median(spanned) - statistics.median(plain)
            if args.workload == "fixtures":
                values.update(workloads.time_cli_start(ROOT, run.clock))
            tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
            metrics = {name: {"value": values[name], "unit": unit_of(name)} for name in PER_LAYER}
            attempted = len(plain) + len(spanned) + len(run.errors)
        else:
            intervals = run.timed(work)
            times = [run.clock.scaled(i) for i in intervals]
            values = {
                "analysis_p50_s": statistics.median(times),
                "analysis_tail_s": tail(times),
                "analyses_per_s": len(times) / sum(times),
                "peak_rss_mb": work.peak_rss_mb(),
                "machine_json_bytes": work.machine_json_bytes(run.refs),
            }
            attempted = len(times) + len(run.errors)
        try:
            work.check(run.refs)
        except CheckFailed as exc:
            run.wrong.append(f"check failed: {exc}")
    finally:
        work.close()
    if not args.trace:
        later, more = run.set_up()
        later.close()
        setups += more
        values["setup_s"] = statistics.median(run.clock.scaled(i) for i in setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    correct = not run.wrong
    result = {"correct": correct, "attempted": attempted, "failed": len(run.errors), "metrics": metrics}
    for problem in run.errors + run.wrong:
        print(f"perfbench: {problem}", file=sys.stderr)
    unscaled = {"setup_samples_s": [seconds for seconds, _ in setups],
                "probe_p50_s": statistics.median(run.clock.probes)}
    if not args.trace:
        unscaled["analysis_p50_s"] = statistics.median(seconds for seconds, _ in intervals)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "unscaled": unscaled}, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{name:28} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
