"""The four workloads. Each one is a closed loop: one client, one thread.

A workload object is made by set-up and then offers:

* ``round_size``: analyses per round; a run times whole rounds only, so
  every slot of a round is measured equally often;
* ``analysis(slot, call)``: one timed analysis, every call into vulnchain
  made through ``call(span_name, fn, *args)``;
* ``digest(raw)``: the outputs to compare between analyses of one slot;
* ``counts(raw)``: per-layer counts, taken only in a traced run;
* ``check(refs)``: the independent checks on the first output of each slot;
* ``peak_rss_mb()`` and ``machine_json_bytes(refs)``: two end-to-end metrics;
* ``close()``: removes what set-up left on disk.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import inputs
from checks import Machine, require
from inputs import norm

CHAIN_STATES = 1000
BLOCKED_STATES = 1000
DENSE_STATES = 1500
QUERY_SETS = 8
FIXTURE_SITES = ("minimal", "vulnweb", "teacher")
# What the installed ``vulnchain`` console script runs.
CLI_ENTRY = "import sys; from vulnchain.cli import main; sys.exit(main())"


class AnalysisFailed(Exception):
    """An analysis did not complete; it counts as failed, not as wrong."""


@dataclass
class Digest:
    """Outputs of one analysis; later analyses of its slot must equal them."""

    texts: tuple
    report: object = None


def _peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _ids(labels) -> frozenset[str]:
    return frozenset(norm(a) for a in labels)


class Pipeline:
    """``chain`` and ``blocked``: the whole build side in process, from the
    findings bytes to the report and the DOT."""

    round_size = 1
    peak_rss_mb = staticmethod(_peak_rss_self_mb)

    def __init__(self, vc, gen: inputs.Generated):
        self.vc, self.gen = vc, gen
        self.params = vc.ReachParams(assumptions=vc.AssumptionSet.of(*gen.expected.assumed))

    def analysis(self, slot, call):
        vc, gen = self.vc, self.gen
        findings = call("ingest.parse_findings", vc.parse_findings, gen.findings_bytes)
        tree = call("ingest.parse_crawl_list", vc.parse_crawl_list, gen.crawl_bytes)
        built = call("builder.build_fsm", vc.build_fsm, findings, tree)
        machine = call("report.fsm_to_json", vc.fsm_to_json, built)
        fsm = call("report.fsm_from_json", vc.fsm_from_json, machine)
        result = call("reach.reach", vc.reach, fsm, self.params)
        witnesses = {goal: call("reach.extract_witness", vc.extract_witness, fsm, result, goal)
                     for goal in sorted(vc.collect_goals(result, fsm))}
        report = call("report.to_report", vc.to_report, fsm, result, witnesses)
        report_text = call("report.report_to_json", vc.report_to_json, report)
        dot = call("report.to_dot", vc.to_dot, fsm, result)
        return dict(findings=findings, machine=machine, fsm=fsm, result=result,
                    witnesses=witnesses, report=report, report_text=report_text, dot=dot)

    def digest(self, raw) -> Digest:
        return Digest((raw["machine"], raw["report_text"], raw["dot"]), raw["report"])

    def counts(self, raw) -> dict[str, float]:
        return {"ingest.findings": len(raw["findings"].findings),
                **_machine_counts(raw), **_reach_counts(raw),
                "report.dot_bytes": len(raw["dot"].encode())}

    def machine_json_bytes(self, refs) -> int:
        return len(refs[0].texts[0].encode())

    def check(self, refs) -> None:
        machine_text, report_text, dot = refs[0].texts
        exp = self.gen.expected
        m = Machine(machine_text)
        checks.check_machine_input(m, self.gen.findings, self.gen.facts)
        doc = checks.check_report(m, report_text, _ids(exp.assumed))
        checks.check_expected(m, doc, exp)
        checks.check_dot(m, dot, doc["reachable_states"], exp.in_nodes)
        checks.check_machine_round_trip(self.vc, machine_text)
        checks.check_report_round_trip(self.vc, report_text, refs[0].report)

    def close(self) -> None:
        pass


def _machine_counts(raw) -> dict[str, float]:
    fsm = raw["fsm"]
    return {"builder.states": len(fsm.non_start_states),
            "builder.conditions": len(fsm.condition_ids),
            "builder.edges": len(fsm.edges),
            "report.machine_json_bytes": len(raw["machine"].encode())}


def _reach_counts(raw) -> dict[str, float]:
    return {"reach.fired_states": len(raw["result"].visited) - 1,
            "reach.witness_steps": sum(len(w.steps) for w in raw["witnesses"].values()),
            "reach.goals_reached": len(raw["witnesses"]),
            "report.report_json_bytes": len(raw["report_text"].encode())}


class Queries:
    """``queries``: one dense machine built and saved in set-up; each
    analysis loads it and answers one seeded assumption set under both
    semantics."""

    peak_rss_mb = staticmethod(_peak_rss_self_mb)

    def __init__(self, vc, seed: int):
        self.vc = vc
        self.gen = inputs.dense(seed, DENSE_STATES)
        fsm = vc.build_fsm(vc.parse_findings(self.gen.findings_bytes),
                           vc.parse_crawl_list(self.gen.crawl_bytes))
        self.machine = vc.fsm_to_json(fsm)
        self.sets = inputs.assumption_sets(seed, self.gen.user_actions, QUERY_SETS)
        self.round_size = len(self.sets)
        self.fixed = [vc.ReachParams(assumptions=vc.AssumptionSet.of(*s)) for s in self.sets]
        self.dfs = [vc.ReachParams(semantics=vc.Semantics.PAPER_DFS, assumptions=p.assumptions)
                    for p in self.fixed]

    def analysis(self, slot, call):
        vc = self.vc
        fsm = call("report.fsm_from_json", vc.fsm_from_json, self.machine)
        result = call("reach.reach", vc.reach, fsm, self.fixed[slot])
        dfs = call("reach.paper_dfs", vc.reach, fsm, self.dfs[slot])
        witnesses = {goal: call("reach.extract_witness", vc.extract_witness, fsm, result, goal)
                     for goal in sorted(vc.collect_goals(result, fsm))}
        report = call("report.to_report", vc.to_report, fsm, result, witnesses)
        report_text = call("report.report_to_json", vc.report_to_json, report)
        return dict(machine=self.machine, fsm=fsm, result=result, dfs=dfs,
                    witnesses=witnesses, report=report, report_text=report_text)

    def digest(self, raw) -> Digest:
        return Digest((raw["report_text"], raw["dfs"].visited), raw["report"])

    def counts(self, raw) -> dict[str, float]:
        return {**_machine_counts(raw), **_reach_counts(raw)}

    def machine_json_bytes(self, refs) -> int:
        return len(self.machine.encode())

    def check(self, refs) -> None:
        m = Machine(self.machine)
        checks.check_machine_input(m, self.gen.findings, self.gen.facts)
        for slot, ref in sorted(refs.items()):
            assumed = _ids(self.sets[slot])
            doc = checks.check_report(m, ref.texts[0], assumed)
            visited, _ = m.closure(assumed)
            require(frozenset(doc["reachable_states"]) == visited,
                    f"set {slot}: reach differs from the brute-force closure")
            dfs = ref.texts[1]
            require(dfs <= visited, f"set {slot}: paper-dfs visits states outside the fixed point")
            require(dfs == m.descent(assumed), f"set {slot}: paper-dfs differs from a single descent")
            checks.check_report_round_trip(self.vc, ref.texts[0], ref.report)
        checks.check_machine_round_trip(self.vc, self.machine)

    def close(self) -> None:
        pass


class Fixtures:
    """``fixtures``: the paper's sites through the CLI, one fresh
    interpreter per command, cycling minimal, vulnweb, teacher."""

    round_size = len(FIXTURE_SITES)

    def __init__(self, vc, root: Path, work: Path):
        self.vc, self.root, self.work = vc, root, work
        work.mkdir(parents=True, exist_ok=True)
        self.env = _child_env(root)
        self.assume = []
        for site in FIXTURE_SITES:
            doc = json.loads((root / "fixtures" / site / "findings.json").read_bytes())
            self.assume.append(sorted({p["condition"] for f in doc["findings"]
                                       for p in f.get("preconditions", [])
                                       if p.get("requires_user_action")}))

    def _files(self, slot):
        site = FIXTURE_SITES[slot]
        return [str(self.work / f"{site}.{ext}") for ext in ("fsm.json", "report.json", "dot")]

    def _run(self, *args) -> None:
        proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *args], env=self.env,
                              capture_output=True, timeout=120)
        if proc.returncode != 0:
            raise AnalysisFailed(f"vulnchain {args[0]} exited {proc.returncode}: "
                                 f"{proc.stderr.decode(errors='replace').strip()[-300:]}")

    def analysis(self, slot, call):
        src = self.root / "fixtures" / FIXTURE_SITES[slot]
        machine, report, dot = self._files(slot)
        call("cli.build", self._run, "build", "--findings", str(src / "findings.json"),
             "--crawl", str(src / "crawl.txt"), "--out", machine)
        assume = [arg for cond in self.assume[slot] for arg in ("--assume", cond)]
        call("cli.analyze", self._run, "analyze", "--fsm", machine, *assume, "--out", report)
        call("cli.export_dot", self._run, "export-dot", "--fsm", machine, "--reach", report, "--out", dot)
        return slot

    def digest(self, slot) -> Digest:
        return Digest(tuple(Path(p).read_text(encoding="utf-8") for p in self._files(slot)))

    def counts(self, slot) -> dict[str, float]:
        return {}

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def machine_json_bytes(self, refs) -> int:
        return sum(len(ref.texts[0].encode()) for ref in refs.values())

    def check(self, refs) -> None:
        for slot, ref in sorted(refs.items()):
            site = FIXTURE_SITES[slot]
            machine_text, report_text, dot = ref.texts
            m = Machine(machine_text)
            assumed = _ids(self.assume[slot])
            doc = checks.check_report(m, report_text, assumed)
            visited, _ = m.closure(assumed)
            require(frozenset(doc["reachable_states"]) == visited, f"{site}: reach differs from brute force")
            checks.check_fixture(site, m, doc)
            checks.check_dot(m, dot, visited)
            checks.check_machine_round_trip(self.vc, machine_text)
            checks.check_report_round_trip(self.vc, report_text)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _child_env(root: Path) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(root / "src")}


def time_cli_start(root: Path, clock, pairs: int = 10) -> dict[str, float]:
    """Bare interpreter start and the extra cost of ``import vulnchain.cli``,
    as medians over alternating child processes, scaled by ``clock``."""
    env = _child_env(root)
    bare, imported = [], []
    clock.restart()
    for _ in range(pairs):
        for code, out in (("pass", bare), ("import vulnchain.cli", imported)):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            out.append(clock.interval(perf_counter() - t0))
    bare_s = statistics.median(clock.scaled(i) for i in bare)
    return {"cli.interpreter_s": bare_s,
            "cli.import_s": statistics.median(clock.scaled(i) for i in imported) - bare_s}


def make(name: str, vc, seed: int, root: Path, work: Path):
    if name == "chain":
        return Pipeline(vc, inputs.chain(seed, CHAIN_STATES))
    if name == "blocked":
        return Pipeline(vc, inputs.blocked(seed, BLOCKED_STATES))
    if name == "queries":
        return Queries(vc, seed)
    return Fixtures(vc, root, work)


WORKLOADS = ("fixtures", "chain", "blocked", "queries")
