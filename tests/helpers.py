"""Shared test machinery: fixture loading, random machines, and oracles.

The oracles here deliberately re-derive results from first principles
(re-scanning raw states, enumerating firing sequences) instead of reusing
the package's worklist, so they stay independent of the code they check.
"""

from __future__ import annotations

import random
from pathlib import Path

from vulnchain import (
    AssumptionSet,
    AttackPath,
    AttackState,
    Condition,
    FindingSet,
    Fsm,
    PostconditionRef,
    PreconditionRef,
    build_fsm,
    normalize_condition,
    normalize_uri,
    parse_crawl_list,
    parse_findings,
    serialize_findings,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_finding_set(name: str) -> FindingSet:
    return parse_findings((FIXTURES / name / "findings.json").read_bytes())


def load_tree(name: str):
    return parse_crawl_list((FIXTURES / name / "crawl.txt").read_bytes())


def load_fsm(name: str) -> Fsm:
    return build_fsm(load_finding_set(name), load_tree(name))


def labels_of(fsm: Fsm) -> dict[str, str]:
    """state id -> fixture label (start maps to 'start')."""
    out = {fsm.start.id: "start"}
    out.update({s.id: s.label or s.id for s in fsm.non_start_states})
    return out


def ids_for(fsm: Fsm, *labels: str) -> set[str]:
    by_label = {v: k for k, v in labels_of(fsm).items()}
    return {by_label[lb] for lb in labels}


# ---------------------------------------------------------------------------
# Random machine corpus
# ---------------------------------------------------------------------------

def random_finding_set(
    rng: random.Random,
    max_states: int = 10,
    max_conditions: int = 15,
) -> FindingSet:
    """One random machine input: states draw pre/postconditions from a
    shared pool with random user-action, false-positive, and goal flags."""
    n_conds = rng.randint(1, max_conditions)
    pool = [normalize_condition(f"c{i}") for i in range(n_conds)]
    n_states = rng.randint(0, max_states)

    findings = []
    for i in range(n_states):
        pres = tuple(
            PreconditionRef(condition=c, requires_user_action=rng.random() < 0.2)
            for c in rng.sample(pool, k=rng.randint(0, min(3, n_conds)))
        )
        posts = tuple(
            PostconditionRef(condition=c, false_positive=rng.random() < 0.2)
            for c in rng.sample(pool, k=rng.randint(0, min(3, n_conds)))
        )
        findings.append(AttackState(
            vulnerability_name=f"v{i:02d}",
            uri=normalize_uri(f"/r{i:02d}"),
            preconditions=pres,
            postconditions=posts,
            is_goal=rng.random() < 0.3,
            label=f"S{i + 1}",
        ))
    facts = tuple(rng.sample(pool, k=rng.randint(0, min(2, n_conds))))
    raw = FindingSet(site="random", environment_facts=facts, findings=tuple(findings))
    # One parse pass canonicalizes ordering and computes content warnings.
    return parse_findings(serialize_findings(raw))


def random_assumptions(rng: random.Random, fsm: Fsm) -> AssumptionSet:
    pool = sorted(fsm.user_action_condition_ids)
    if not pool:
        return AssumptionSet()
    k = rng.randint(0, len(pool))
    return AssumptionSet(frozenset(rng.sample(pool, k=k)))


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def _fireable(state, true: set[str], assumed: frozenset[str]) -> bool:
    for ref in state.preconditions:
        if ref.condition.id in true:
            continue
        if ref.requires_user_action and ref.condition.id in assumed:
            continue
        return False
    return True


def closure_by_exhaustion(fsm: Fsm, assumed: frozenset[str] = frozenset()):
    """Brute-force closure: iterate all states to exhaustion, no indices,
    no ordering discipline. Returns (visited ids, true condition ids)."""
    visited = {fsm.start.id}
    true = set(fsm.initial_conditions)
    changed = True
    while changed:
        changed = False
        for state in fsm.states:
            if state.is_start or state.id in visited:
                continue
            if _fireable(state, true, assumed):
                visited.add(state.id)
                for ref in state.postconditions:
                    if not ref.false_positive:
                        true.add(ref.condition.id)
                changed = True
    return visited, true | set(assumed)


def firing_order_by_restart_scan(fsm: Fsm, assumed: frozenset[str] = frozenset()):
    """Lowest-id-first closure by naive rescanning: after every fire, scan
    the unfired states in id order again and fire the first ready one.
    Returns (firing order starting with the start state, true condition ids)."""
    order = [fsm.start.id]
    true = set(fsm.initial_conditions)
    unfired = sorted((s for s in fsm.states if not s.is_start), key=lambda s: s.id)
    while True:
        ready = next((s for s in unfired if _fireable(s, true, assumed)), None)
        if ready is None:
            return order, true | set(assumed)
        unfired.remove(ready)
        order.append(ready.id)
        for ref in ready.postconditions:
            if not ref.false_positive:
                true.add(ref.condition.id)


def union_over_all_firing_sequences(fsm: Fsm, assumed: frozenset[str] = frozenset()) -> set[str]:
    """Union of visited sets over every maximal firing sequence. Exponential;
    only call on tiny machines."""
    non_start = [s for s in fsm.states if not s.is_start]
    reached: set[str] = set()

    def explore(visited: frozenset[str], true: frozenset[str]) -> None:
        fireable = [
            s for s in non_start
            if s.id not in visited and _fireable(s, set(true), assumed)
        ]
        if not fireable:
            reached.update(visited)
            return
        for s in fireable:
            grants = frozenset(
                r.condition.id for r in s.postconditions if not r.false_positive)
            explore(visited | {s.id}, true | grants)

    explore(frozenset({fsm.start.id}), frozenset(fsm.initial_conditions))
    return reached


def replay_witness(fsm: Fsm, path: AttackPath) -> bool:
    """Simulator for the witness invariant: grant only the initial conditions
    plus the path's assumptions, fire steps in order, and demand that every
    precondition is satisfied when its step fires."""
    true = set(fsm.initial_conditions) | set(path.assumptions_used)
    for sid, grants in path.steps:
        state = fsm.by_id[sid]
        for ref in state.preconditions:
            if ref.condition.id not in true:
                return False
        true.update(grants)
    return bool(path.steps) and path.steps[-1][0] == path.goal


def single_finding(vuln: str, uri: str, pres=(), posts=(), *, is_goal=False, label=None) -> AttackState:
    """Terse constructor for hand-built machines in tests.

    ``pres`` items may be "cond" or "!cond" (user action); ``posts`` items
    may be "cond" or "?cond" (false positive).
    """
    pre_refs = []
    for text in pres:
        ua = text.startswith("!")
        pre_refs.append(PreconditionRef(
            condition=normalize_condition(text[1:] if ua else text),
            requires_user_action=ua,
        ))
    post_refs = []
    for text in posts:
        fp = text.startswith("?")
        post_refs.append(PostconditionRef(
            condition=normalize_condition(text[1:] if fp else text),
            false_positive=fp,
        ))
    return AttackState(
        vulnerability_name=vuln,
        uri=normalize_uri(uri),
        preconditions=tuple(pre_refs),
        postconditions=tuple(post_refs),
        is_goal=is_goal,
        label=label,
    )


def fsm_of(*findings: AttackState, facts: tuple[Condition, ...] = (), site: str = "test") -> Fsm:
    return build_fsm(FindingSet(site=site, environment_facts=facts, findings=tuple(findings)))
