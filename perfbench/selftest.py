#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks, at tiny sizes.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

For every workload it produces real outputs, shows that the checks accept
them, then tampers with them one way at a time (a dropped reachable state,
a dropped witness step, a wrong missing condition, a DOT without an ``in:``
node, a flipped false-positive flag, ...) and shows that the checks reject
each one. Exits 1 if any check accepts a tampered output.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import Digest  # noqa: E402


def json_edit(fn):
    """An edit of a JSON output text that applies ``fn`` to the document."""
    def edit(text):
        doc = json.loads(text)
        fn(doc)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return edit


def drop_reachable(doc):
    doc["reachable_states"].remove(next(s for s in doc["reachable_states"] if s != "start"))


def drop_witness_step(doc):
    longest = max(doc["witnesses"], key=lambda w: len(w["steps"]))
    del longest["steps"][len(longest["steps"]) // 2 - 1]


def drop_witness(doc):
    doc["witnesses"].pop()


def blank_missing(doc):
    doc["unreachable_goals"][0]["missing_conditions"] = []


def drop_reached_goal(doc):
    doc["reachable_goals"].pop()


def claim_isolated(doc):
    doc["isolated_goals"].append(doc["chained_only_goals"][0])


def flip_false_positive(doc):
    ref = next(r for s in doc["states"] for r in s["postconditions"] if r["false_positive"])
    ref["false_positive"] = False


def drop_in_node(dot):
    lines = dot.splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith('  "in:'))
    return "".join(lines[:first] + lines[first + 1:])


def drop_bold(dot):
    return dot.replace(', style="bold"', "", 1)


REPORT_CASES = [
    ("reachable state dropped", drop_reachable),
    ("witness step dropped", drop_witness_step),
    ("witness dropped", drop_witness),
    ("missing condition blanked", blank_missing),
    ("chained goal claimed isolated", claim_isolated),
]


def cases_for(name: str):
    """(case, slot, index of the output text to edit, edit) per workload."""
    if name in ("chain", "blocked"):
        cases = [(c, 0, 1, json_edit(fn)) for c, fn in REPORT_CASES]
        cases += [("DOT in: node dropped", 0, 2, drop_in_node),
                  ("DOT bold outline dropped", 0, 2, drop_bold),
                  ("machine false positive flipped", 0, 0, json_edit(flip_false_positive))]
    elif name == "queries":
        cases = [(c, 0, 0, json_edit(fn)) for c, fn in REPORT_CASES]
        cases += [("paper-dfs beyond the fixed point", 0, 1, lambda v: v | {"no-such-state"}),
                  ("paper-dfs state dropped", 0, 1, lambda v: v - {max(v - {"start"})})]
    else:  # fixtures: minimal is slot 0, vulnweb 1, teacher 2
        cases = [(c, 2, 1, json_edit(fn)) for c, fn in REPORT_CASES if c != "missing condition blanked"]
        cases += [("vulnweb reached goal dropped", 1, 1, json_edit(drop_reached_goal)),
                  ("minimal false positive flipped", 0, 0, json_edit(flip_false_positive)),
                  ("teacher DOT bold outline dropped", 2, 2, drop_bold)]
    return cases


def main() -> int:
    missed = 0
    vc = run.import_vulnchain()
    workloads.CHAIN_STATES, workloads.BLOCKED_STATES, workloads.DENSE_STATES = 120, 120, 150
    for name in workloads.WORKLOADS:
        work = workloads.make(name, vc, 7, run.ROOT, run.OUT / "selftest")
        try:
            refs = {slot: work.digest(work.analysis(slot, spans.direct))
                    for slot in range(work.round_size)}
            work.check(refs)
            print(f"{name}: untampered outputs pass")
            cases = cases_for(name)
            if name != "fixtures":
                good = refs[0].report
                cases.append(("report object differs from its file", 0, None, None))
            for case, slot, index, edit in cases:
                texts = list(refs[slot].texts)
                report = None
                if index is None:
                    report = replace(good, site=good.site + "-tampered")
                else:
                    texts[index] = edit(texts[index])
                bad = {**refs, slot: Digest(tuple(texts), report)}
                try:
                    work.check(bad)
                except CheckFailed as exc:
                    print(f"{name}: {case}: rejected ({exc})")
                else:
                    print(f"{name}: {case}: ACCEPTED")
                    missed += 1
        finally:
            work.close()
    print("selftest failed" if missed else "selftest passed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
