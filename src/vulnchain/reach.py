"""Goal reachability over the machine, plus witnesses and the isolated goals.

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
user-action precondition is in the true set or the assumption set, that is
when :func:`unmet_conditions` is empty. Firing grants the state's
non-false-positive postconditions; false positives are never granted.
"""

from __future__ import annotations

import heapq
from collections.abc import Container
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


def unmet_conditions(state: AttackState, true: Container[str], assumed: Container[str]) -> set[str]:
    """The firing rule: the ids of ``state``'s preconditions neither in
    ``true`` nor an ``assumed`` user action; the state fires when none are."""
    return {ref.condition.id for ref in state.preconditions
            if ref.condition.id not in true
            and not (ref.requires_user_action and ref.condition.id in assumed)}


def check_result_fsm(result: ReachResult, fsm: Fsm) -> None:
    """Raise :class:`ResultFsmMismatch` unless ``fsm`` is ``result.fsm``
    itself; any other machine object, equal or not, is refused."""
    if result.fsm is not fsm:
        raise ResultFsmMismatch("the result was computed on another machine object; pass result.fsm")


def reach(fsm: Fsm, params: ReachParams | None = None) -> ReachResult:
    """Compute the set of visitable states under the chosen semantics.

    Each state fires at most once, so no run can fire more states than the
    machine has. Raises :class:`InvalidAssumption` if an assumed condition
    is not a user-action precondition anywhere in the machine.
    Deterministic: ties are broken by lexicographic state id, so repeated
    runs return identical results including the firing order.
    """
    params = params or ReachParams()
    semantics = Semantics(params.semantics)
    assumed = params.assumptions.granted_user_actions
    unknown = assumed - fsm.user_action_condition_ids
    if unknown:
        raise InvalidAssumption(
            "not user-action preconditions of any state: "
            + ", ".join(repr(c) for c in sorted(unknown)))

    if semantics is Semantics.FIXED_POINT:
        firing_order, granted_by = _closure_fixed_point(fsm, assumed)
    else:
        firing_order, granted_by = _closure_single_descent(fsm, assumed)

    return ReachResult(
        visited=frozenset(firing_order),
        firing_order=tuple(firing_order),
        semantics=semantics.value,
        assumptions=assumed,
        granted_by=granted_by,
        fsm=fsm,
    )


def _closure_fixed_point(fsm: Fsm, assumed: frozenset[str]):
    # Condition id -> the state that made it true: the true set and the
    # first-grant record in one dict.
    true = dict.fromkeys(fsm.initial_conditions, START_STATE_ID)
    # State id -> the preconditions it still waits for. Initial conditions
    # and assumed user actions are never waited for, so a later grant of
    # either crosses nothing off.
    waiting: dict[str, set[str]] = {}
    ready: list[str] = []
    for state in fsm.non_start_states:
        needed = unmet_conditions(state, true, assumed)
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
            true[cid] = sid
            for consumer in consumers[cid]:
                needed = waiting.get(consumer)
                if needed and cid in needed:
                    needed.remove(cid)
                    if not needed:
                        heapq.heappush(ready, consumer)
    return firing_order, true


def _closure_single_descent(fsm: Fsm, assumed: frozenset[str]):
    firing_order = [START_STATE_ID]
    true = dict.fromkeys(fsm.initial_conditions, START_STATE_ID)
    # One forward pass in id order: each fire grants its postconditions and
    # the descent continues from the next position, never looking back.
    for state in fsm.non_start_states:
        if not unmet_conditions(state, true, assumed):
            firing_order.append(state.id)
            for cid in state.granted_condition_ids():
                true.setdefault(cid, state.id)
    return firing_order, true


def collect_goals(result: ReachResult, fsm: Fsm) -> frozenset[str]:
    """Visited goal-flagged states. Raises :class:`ResultFsmMismatch` if
    ``result`` is of another machine."""
    check_result_fsm(result, fsm)
    return result.visited & fsm.goal_ids


def extract_witness(fsm: Fsm, result: ReachResult, goal: str) -> AttackPath:
    """Build a replayable attack path for one reached goal.

    Walks backward from the goal, charging each needed condition to the
    state ``result.granted_by`` names, the visited producer with the
    earliest firing position, then orders the collected states by firing
    position. The path is valid but not guaranteed globally minimal. An
    initial condition needs no step; a user-action precondition is
    charged to the assumption set when it is assumed. Raises
    :class:`ResultFsmMismatch` if ``result`` is of another machine.
    """
    check_result_fsm(result, fsm)
    if goal not in result.visited:
        raise GoalNotReached(f"goal {goal!r} is not in the visited set")

    by_id, granted_by = fsm.by_id, result.granted_by
    collected = {goal}
    assumptions_used: set[str] = set()
    frontier = [goal]
    while frontier:
        state = by_id[frontier.pop()]
        for ref in state.preconditions:
            cid = ref.condition.id
            producer = granted_by.get(cid)
            if producer == START_STATE_ID:
                continue
            if ref.requires_user_action and cid in result.assumptions:
                assumptions_used.add(cid)
                continue
            if producer not in collected:
                collected.add(producer)
                frontier.append(producer)

    steps = tuple(sorted(collected, key=result.firing_position.__getitem__))
    return AttackPath(goal=goal, steps=steps, assumptions_used=frozenset(assumptions_used))


def isolated_goals(fsm: Fsm, result: ReachResult) -> frozenset[str]:
    """Goals that fire from the initial conditions plus ``result.assumptions``
    alone, with no other state firing first; the closure is not run again.

    The goals only chaining reaches, the paper's amplification, are
    ``collect_goals(result, fsm) - isolated_goals(fsm, result)``. Raises
    :class:`ResultFsmMismatch` if ``result`` is of another machine.
    """
    check_result_fsm(result, fsm)
    return frozenset(
        sid for sid in fsm.goal_ids
        if not unmet_conditions(fsm.by_id[sid], fsm.initial_conditions, result.assumptions))
