#!/usr/bin/env python3
"""Run the full pipeline over the bundled fixtures.

Builds each machine, runs reachability with and without every user-action
assumption granted, writes machine/report/graph files, and prints the
chaining-amplification summary per site.

Usage: python scripts/analyze_fixtures.py [--out-dir OUT]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vulnchain import (  # noqa: E402
    AssumptionSet,
    ReachParams,
    build_fsm,
    fsm_to_json,
    parse_crawl_list,
    parse_findings,
    reach,
    report_to_json,
    to_dot,
    to_report,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def show(fsm, ids):
    return " ".join(sorted(fsm.label_of(sid) for sid in ids)) or "(none)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out", help="where to write artifacts")
    args = parser.parse_args()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for name in ("minimal", "vulnweb", "teacher"):
        finding_set = parse_findings((FIXTURES / name / "findings.json").read_bytes())
        crawled = parse_crawl_list((FIXTURES / name / "crawl.txt").read_bytes())
        fsm = build_fsm(finding_set, crawled)

        assumptions = AssumptionSet(frozenset(fsm.user_action_condition_ids))
        result = reach(fsm, ReachParams(assumptions=assumptions))
        report = to_report(fsm, result)

        (out_dir / f"{name}.fsm.json").write_bytes(fsm_to_json(fsm).encode())
        (out_dir / f"{name}.report.json").write_bytes(report_to_json(report).encode())
        (out_dir / f"{name}.dot").write_bytes(to_dot(fsm, result).encode())

        print(f"== {fsm.site} ==")
        print(f"states: {len(fsm.non_start_states)}  goals: {len(fsm.goal_ids)}  "
              f"assumptions granted: {len(assumptions.granted_user_actions)}")
        print(f"goals reached by chaining: {show(fsm, report.reachable_goals)}")
        print(f"goals reachable in isolation: {show(fsm, report.isolated_goals)}")
        print(f"chaining-only goals: {show(fsm, report.chained_only_goals)}")
        for witness in report.witnesses:
            steps = " -> ".join(fsm.label_of(step["state"]) for step in witness["steps"])
            print(f"witness for {fsm.label_of(witness['goal'])}: {steps}")
        print()
    print(f"artifacts written to {out_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
