"""Goal reachability over the machine, plus witnesses and the chaining diff.

Two semantics are provided:

* ``fixed-point`` (default, normative): the least closed set of states
  under the firing rule, a Horn least fixed point. It is computed by unit
  propagation (Dowling & Gallier 1984): each waiting state tracks its
  preconditions that are not yet true, a condition turning true is crossed
  off at its consumers, and a state with nothing left joins a min-heap of
  ready ids. The lowest-id ready state always fires first, which fixes the
  firing order that witnesses and reports depend on. The cost is linear in
  states plus edges, plus one heap pop and at most one push per fired
  state.
* ``paper-dfs``: a single recursive descent that scans the states once in
  id order, firing and granting as it goes, and never revisits positions it
  has already passed. Conditions enabled late in the descent cannot unlock
  earlier-scanned states, so this variant may under-approximate; it never
  over-approximates. It is kept for comparison and regression analysis.

A state fires when every ordinary precondition is in the true set and every
user-action precondition is in the true set or the assumption set. Firing
grants the state's non-false-positive postconditions; false positives are
never granted under either semantics.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum

from .errors import GoalNotReached, InvalidAssumption, ResultFsmMismatch
from .model import (
    START_STATE_ID,
    AssumptionSet,
    AttackPath,
    AttackState,
    Fsm,
    ReachResult,
)


class Semantics(str, Enum):
    FIXED_POINT = "fixed-point"
    PAPER_DFS = "paper-dfs"


@dataclass(frozen=True)
class ReachParams:
    """Knobs for one reachability run."""

    semantics: Semantics = Semantics.FIXED_POINT
    assumptions: AssumptionSet = field(default_factory=AssumptionSet)


@dataclass(frozen=True)
class IsolationDiff:
    """Goals reachable by chaining vs. by firing a single state.

    ``chained_only`` quantifies the chaining amplification: harm that no
    isolated vulnerability can cause on its own.
    """

    isolated: frozenset[str]
    chained: frozenset[str]
    chained_only: frozenset[str]


def _satisfied(state: AttackState, true: set[str] | frozenset[str], assumed: frozenset[str]) -> bool:
    for ref in state.preconditions:
        cid = ref.condition.id
        if cid in true:
            continue
        if ref.requires_user_action and cid in assumed:
            continue
        return False
    return True


def reach(fsm: Fsm, params: ReachParams | None = None) -> ReachResult:
    """Compute the set of visitable states under the chosen semantics.

    Each state fires at most once, so no run can fire more states than the
    machine has. Raises :class:`InvalidAssumption` if an assumed condition
    is not a user-action precondition anywhere in the machine.
    Deterministic: ties are broken by lexicographic state id, so repeated
    runs return identical results including the firing order.
    """
    params = params or ReachParams()
    assumed = params.assumptions.granted_user_actions
    unknown = assumed - fsm.user_action_condition_ids
    if unknown:
        raise InvalidAssumption(
            "not user-action preconditions of any state: "
            + ", ".join(repr(c) for c in sorted(unknown)))

    if params.semantics is Semantics.FIXED_POINT:
        firing_order, true = _closure_fixed_point(fsm, assumed)
    else:
        firing_order, true = _closure_single_descent(fsm, assumed)

    return ReachResult(
        visited=frozenset(firing_order),
        true_conditions=frozenset(true) | assumed,
        firing_order=tuple(firing_order),
        semantics=params.semantics.value,
        assumptions=assumed,
    )


def _closure_fixed_point(fsm: Fsm, assumed: frozenset[str]):
    true = set(fsm.initial_conditions)
    # State id -> the preconditions it still waits for. Initial conditions
    # and assumed user actions are never waited for, so a later grant of
    # either crosses nothing off.
    waiting: dict[str, set[str]] = {}
    ready: list[str] = []
    for state in fsm.non_start_states:
        needed = {
            ref.condition.id for ref in state.preconditions
            if ref.condition.id not in true
            and not (ref.requires_user_action and ref.condition.id in assumed)
        }
        if needed:
            waiting[state.id] = needed
        else:
            ready.append(state.id)
    # The states come sorted by id, so ``ready`` is already a min-heap.
    consumers = fsm.consumers
    firing_order = [START_STATE_ID]
    while ready:
        sid = heapq.heappop(ready)
        firing_order.append(sid)
        for cid in fsm.by_id[sid].granted_condition_ids():
            if cid in true:
                continue
            true.add(cid)
            for consumer in consumers[cid]:
                needed = waiting.get(consumer)
                if needed and cid in needed:
                    needed.remove(cid)
                    if not needed:
                        heapq.heappush(ready, consumer)
    return firing_order, true


def _closure_single_descent(fsm: Fsm, assumed: frozenset[str]):
    firing_order = [START_STATE_ID]
    true = set(fsm.initial_conditions)
    # One forward pass in id order: each fire grants its postconditions and
    # the descent continues from the next position, never looking back.
    for state in fsm.non_start_states:
        if _satisfied(state, true, assumed):
            firing_order.append(state.id)
            true.update(state.granted_condition_ids())
    return firing_order, true


def collect_goals(result: ReachResult, fsm: Fsm) -> frozenset[str]:
    """Visited goal-flagged states.

    Raises :class:`ResultFsmMismatch` if the result mentions state ids the
    machine does not have.
    """
    unknown = result.visited - set(fsm.by_id)
    if unknown:
        raise ResultFsmMismatch(
            "result references unknown states: " + ", ".join(sorted(unknown)))
    return result.visited & fsm.goal_ids


def extract_witness(fsm: Fsm, result: ReachResult, goal: str) -> AttackPath:
    """Build a replayable attack path for one reached goal.

    Walks backward from the goal, picking for each needed condition the
    visited producer with the earliest firing position (ties by state id),
    then orders the collected states by firing position. The path is
    valid but not guaranteed globally minimal. User-action preconditions are
    preferentially charged to the assumption set when available.
    """
    if goal not in result.visited or goal not in fsm.by_id:
        raise GoalNotReached(f"goal {goal!r} is not in the visited set")

    position = result.firing_position
    collected = {goal}
    assumptions_used: set[str] = set()
    frontier = [goal]
    while frontier:
        state = fsm.by_id[frontier.pop()]
        for ref in state.preconditions:
            cid = ref.condition.id
            if cid in fsm.initial_conditions:
                continue
            if ref.requires_user_action and cid in result.assumptions:
                assumptions_used.add(cid)
                continue
            # Not an initial condition, so the start state never produces it.
            candidates = fsm.producers.get(cid, frozenset()) & result.visited
            if not candidates:
                raise ResultFsmMismatch(
                    f"no visited producer for condition {cid!r} needed by {state.id}")
            producer = min(candidates, key=lambda sid: (position[sid], sid))
            if producer not in collected:
                collected.add(producer)
                frontier.append(producer)

    ordered = sorted(collected, key=lambda sid: position[sid])
    steps = tuple(
        (sid, fsm.by_id[sid].granted_condition_ids()) for sid in ordered
    )
    return AttackPath(goal=goal, steps=steps, assumptions_used=frozenset(assumptions_used))


def diff_isolated_vs_chained(fsm: Fsm, result: ReachResult) -> IsolationDiff:
    """Compare the goals ``result`` reaches by chaining against single-state
    firings under the same assumptions; the closure is not run again.

    A goal counts as isolated-reachable when it can fire directly from the
    initial conditions (environment facts and assumptions are free; no other
    state may fire first). Raises :class:`ResultFsmMismatch` like
    :func:`collect_goals`.
    """
    chained = collect_goals(result, fsm)
    isolated = frozenset(
        s.id for s in fsm.non_start_states
        if s.is_goal and _satisfied(s, fsm.initial_conditions, result.assumptions)
    )
    return IsolationDiff(isolated=isolated, chained=chained, chained_only=chained - isolated)
