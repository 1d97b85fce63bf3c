"""Acceptance suite: every exit criterion, timed, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from vulnchain import (
    AssumptionSet,
    ReachParams,
    Semantics,
    collect_goals,
    extract_witness,
    isolated_goals,
    reach,
)
from vulnchain.cli import cli_main

from tests.helpers import (
    FIXTURES,
    closure_by_exhaustion,
    ids_for,
    labels_of,
    machine_of,
    random_assumptions,
    random_finding_set,
    start_successors,
    true_conditions,
)

CORPUS_SEED = 20240809
CORPUS_SIZE = 1000


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        verdict = "PASS" if not failed and elapsed < budget_seconds else "FAIL"
        print(f"criterion {number} ({description}): {verdict} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def _corpus():
    """Deterministic random corpus shared by criteria 5-7."""
    rng = random.Random(CORPUS_SEED)
    for _ in range(CORPUS_SIZE):
        finding_set = random_finding_set(rng, max_states=10, max_conditions=15)
        fsm = machine_of(finding_set)
        yield finding_set, fsm, random_assumptions(rng, fsm)


def test_criterion_1_minimal_instance_fidelity(minimal_fsm):
    with criterion(1, "minimal instance fidelity", 1.0):
        assert len(minimal_fsm.non_start_states) == 4
        result = reach(minimal_fsm)
        labels = labels_of(minimal_fsm)
        assert {labels[sid] for sid in result.visited} == {"start", "S1", "S2", "S3"}
        assert "x2" not in true_conditions(result)


def test_criterion_2_vulnweb_instance_fidelity(vulnweb_fsm):
    with criterion(2, "ten-state instance fidelity", 1.0):
        assert len(vulnweb_fsm.non_start_states) == 10
        assert start_successors(vulnweb_fsm) == ids_for(
            vulnweb_fsm, "S1", "S2", "S3", "S5", "S9")

        all_assumed = AssumptionSet(frozenset(vulnweb_fsm.user_action_condition_ids))
        assert len(all_assumed.granted_user_actions) == 3
        with_assumptions = reach(vulnweb_fsm, ReachParams(assumptions=all_assumed))
        assert collect_goals(with_assumptions, vulnweb_fsm) == ids_for(
            vulnweb_fsm, "S4", "S7", "S10")

        without = reach(vulnweb_fsm)
        assert collect_goals(without, vulnweb_fsm) == ids_for(vulnweb_fsm, "S4", "S10")


def test_criterion_3_teacher_instance_fidelity(teacher_fsm):
    with criterion(3, "seven-state instance fidelity", 1.0):
        assert len(teacher_fsm.non_start_states) == 7
        result = reach(teacher_fsm)
        goals = collect_goals(result, teacher_fsm)
        assert goals == ids_for(teacher_fsm, "S7")

        (goal,) = goals
        path = extract_witness(teacher_fsm, result, goal)
        labels = labels_of(teacher_fsm)
        order = [labels[sid] for sid in path.steps]
        assert order.index("S3") < order.index("S5")
        assert order.index("S4") < order.index("S5")
        assert order.index("S5") < order.index("S7")
        assert order.index("S6") < order.index("S7")


def test_criterion_4_chaining_amplification(vulnweb_fsm, teacher_fsm):
    with criterion(4, "chaining amplification", 1.0):
        all_assumed = AssumptionSet(frozenset(vulnweb_fsm.user_action_condition_ids))
        vw = reach(vulnweb_fsm, ReachParams(assumptions=all_assumed))
        assert isolated_goals(vulnweb_fsm, vw) == frozenset()
        assert collect_goals(vw, vulnweb_fsm) == ids_for(vulnweb_fsm, "S4", "S7", "S10")

        t = reach(teacher_fsm)
        assert isolated_goals(teacher_fsm, t) == frozenset()
        assert collect_goals(t, teacher_fsm) == ids_for(teacher_fsm, "S7")


def test_criterion_5_oracle_equivalence():
    with criterion(5, "fixed point equals brute-force closure on 1000 machines", 60.0):
        checked = 0
        for _, fsm, assumptions in _corpus():
            result = reach(fsm, ReachParams(assumptions=assumptions))
            expected_visited, expected_true = closure_by_exhaustion(
                fsm, assumptions.granted_user_actions)
            assert result.visited == expected_visited
            assert true_conditions(result) == expected_true
            checked += 1
        assert checked == CORPUS_SIZE


def test_criterion_6_scan_order_dfs_soundness():
    with criterion(6, "scan-order dfs sound and strictly weaker somewhere", 60.0):
        strict = 0
        for _, fsm, assumptions in _corpus():
            dfs = reach(fsm, ReachParams(
                semantics=Semantics.PAPER_DFS, assumptions=assumptions))
            fp = reach(fsm, ReachParams(assumptions=assumptions))
            assert dfs.visited <= fp.visited
            if dfs.visited < fp.visited:
                strict += 1
        assert strict >= 1, "no generated case exhibited strict under-approximation"


def test_criterion_7_monotonicity():
    with criterion(7, "monotonicity under single mutations", 120.0):
        for finding_set, fsm, assumptions in _corpus():
            params = ReachParams(assumptions=assumptions)
            base = reach(fsm, params).visited

            remaining = sorted(
                fsm.user_action_condition_ids - assumptions.granted_user_actions)
            if remaining:
                grown = AssumptionSet(
                    assumptions.granted_user_actions | {remaining[0]})
                assert base <= reach(fsm, ReachParams(assumptions=grown)).visited

            initial = {c.id for c in finding_set.environment_facts}
            fact_candidates = sorted(set(fsm.condition_ids) - initial)
            if fact_candidates:
                from vulnchain import normalize_condition
                mutated = replace(
                    finding_set,
                    environment_facts=finding_set.environment_facts
                    + (normalize_condition(fact_candidates[0]),),
                )
                assert base <= reach(machine_of(mutated), params).visited

            cleared = _clear_first_false_positive(finding_set)
            if cleared is not None:
                assert base <= reach(machine_of(cleared), params).visited


def _clear_first_false_positive(finding_set):
    for i, finding in enumerate(finding_set.findings):
        for j, ref in enumerate(finding.postconditions):
            if ref.false_positive:
                posts = list(finding.postconditions)
                posts[j] = replace(ref, false_positive=False)
                findings = list(finding_set.findings)
                findings[i] = replace(finding, postconditions=tuple(posts))
                return replace(finding_set, findings=tuple(findings))
    return None


def test_criterion_8_determinism_and_golden_dot(tmp_path):
    with criterion(8, "byte-identical pipeline runs and graph conventions", 5.0):
        outputs = {}
        for run in (1, 2):
            run_dir = tmp_path / f"run{run}"
            run_dir.mkdir()
            for name in ("minimal", "vulnweb", "teacher"):
                fsm_path = run_dir / f"{name}.fsm.json"
                report_path = run_dir / f"{name}.report.json"
                dot_path = run_dir / f"{name}.dot"
                assert cli_main([
                    "build",
                    "--findings", str(FIXTURES / name / "findings.json"),
                    "--crawl", str(FIXTURES / name / "crawl.txt"),
                    "--out", str(fsm_path),
                ]) == 0
                assert cli_main([
                    "analyze", "--fsm", str(fsm_path), "--out", str(report_path),
                ]) == 0
                assert cli_main([
                    "export-dot", "--fsm", str(fsm_path), "--out", str(dot_path),
                ]) == 0
                outputs.setdefault(name, []).append((
                    fsm_path.read_bytes(), report_path.read_bytes(), dot_path.read_bytes(),
                ))
        for name, runs in outputs.items():
            assert runs[0] == runs[1], f"{name} pipeline output differs between runs"

        vulnweb_dot = outputs["vulnweb"][0][2].decode("utf-8")
        dashed_edges = [
            line for line in vulnweb_dot.splitlines()
            if "->" in line and "style=dashed" in line and "color=red" not in line
        ]
        assert len(dashed_edges) == 3
        assert vulnweb_dot.count("fillcolor=red") == 3


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
