"""Property-based checks over randomly generated machines."""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from vulnchain import (
    AssumptionSet,
    AttackState,
    FindingSet,
    Fsm,
    PostconditionRef,
    PreconditionRef,
    ReachParams,
    Semantics,
    build_fsm,
    collect_goals,
    extract_witness,
    fsm_from_json,
    fsm_to_json,
    normalize_condition,
    normalize_uri,
    parse_findings,
    reach,
)

from tests.helpers import (
    closure_by_exhaustion,
    replay_witness,
    serialize_findings,
    true_conditions,
    union_over_all_firing_sequences,
)


@st.composite
def machines(draw, max_states=8, max_conditions=12):
    """A built machine plus a valid assumption set for it."""
    n_conds = draw(st.integers(1, max_conditions))
    pool = [normalize_condition(f"c{i}") for i in range(n_conds)]
    n_states = draw(st.integers(0, max_states))

    findings = []
    for i in range(n_states):
        pre_conds = draw(st.lists(
            st.sampled_from(pool), max_size=3,
            unique_by=lambda c: c.id))
        pres = tuple(
            PreconditionRef(condition=c, requires_user_action=draw(st.booleans()))
            for c in pre_conds
        )
        post_conds = draw(st.lists(
            st.sampled_from(pool), max_size=3,
            unique_by=lambda c: c.id))
        posts = tuple(
            PostconditionRef(condition=c, false_positive=draw(st.booleans()))
            for c in post_conds
        )
        findings.append(AttackState(
            vulnerability_name=f"v{i:02d}",
            uri=normalize_uri(f"/r{i:02d}"),
            preconditions=pres,
            postconditions=posts,
            is_goal=draw(st.booleans()),
            label=f"S{i + 1}",
        ))
    facts = tuple(draw(st.lists(st.sampled_from(pool), max_size=2, unique_by=lambda c: c.id)))
    fsm = build_fsm(FindingSet(site="gen", environment_facts=facts, findings=tuple(findings)))

    ua = sorted(fsm.user_action_condition_ids)
    assumed = frozenset(c for c in ua if draw(st.booleans()))
    return fsm, AssumptionSet(assumed)


@given(machines())
@settings(max_examples=150, deadline=None)
def test_fixed_point_matches_exhaustion_oracle(case):
    fsm, assumptions = case
    result = reach(fsm, ReachParams(assumptions=assumptions))
    expected_visited, expected_true = closure_by_exhaustion(
        fsm, assumptions.granted_user_actions)
    assert result.visited == expected_visited
    assert true_conditions(result) == expected_true


@given(machines(max_states=4, max_conditions=5))
@settings(max_examples=60, deadline=None)
def test_fixed_point_equals_union_over_all_firing_sequences(case):
    fsm, assumptions = case
    result = reach(fsm, ReachParams(assumptions=assumptions))
    assert result.visited == union_over_all_firing_sequences(
        fsm, assumptions.granted_user_actions)


@given(machines())
@settings(max_examples=150, deadline=None)
def test_paper_dfs_is_sound(case):
    fsm, assumptions = case
    dfs = reach(fsm, ReachParams(semantics=Semantics.PAPER_DFS, assumptions=assumptions))
    fp = reach(fsm, ReachParams(assumptions=assumptions))
    assert dfs.visited <= fp.visited
    assert true_conditions(dfs) <= true_conditions(fp)


@given(machines())
@settings(max_examples=100, deadline=None)
def test_monotone_in_assumptions(case):
    fsm, assumptions = case
    base = reach(fsm, ReachParams(assumptions=assumptions))
    remaining = fsm.user_action_condition_ids - assumptions.granted_user_actions
    if not remaining:
        return
    grown = AssumptionSet(assumptions.granted_user_actions | {sorted(remaining)[0]})
    bigger = reach(fsm, ReachParams(assumptions=grown))
    assert base.visited <= bigger.visited
    assert true_conditions(base) <= true_conditions(bigger)


@given(machines())
@settings(max_examples=75, deadline=None)
def test_monotone_in_environment_facts(case):
    fsm, assumptions = case
    candidates = sorted(set(fsm.condition_ids) - set(fsm.initial_conditions))
    if not candidates:
        return
    base = reach(fsm, ReachParams(assumptions=assumptions))
    richer = _with_extra_fact(fsm, candidates[0])
    grown = reach(richer, ReachParams(assumptions=assumptions))
    assert base.visited <= grown.visited
    assert true_conditions(base) <= true_conditions(grown)


@given(machines())
@settings(max_examples=75, deadline=None)
def test_monotone_in_cleared_false_positive(case):
    fsm, assumptions = case
    cleared = _with_first_false_positive_cleared(fsm)
    if cleared is None:
        return
    base = reach(fsm, ReachParams(assumptions=assumptions))
    grown = reach(cleared, ReachParams(assumptions=assumptions))
    assert base.visited <= grown.visited
    assert true_conditions(base) <= true_conditions(grown)


def _with_extra_fact(fsm, condition_id):
    facts = [r.condition for r in fsm.start.postconditions]
    facts.append(normalize_condition(condition_id))
    return Fsm(site=fsm.site, findings=fsm.non_start_states, facts=facts)


def _with_first_false_positive_cleared(fsm):
    from dataclasses import replace
    for state in fsm.non_start_states:
        for j, ref in enumerate(state.postconditions):
            if ref.false_positive:
                posts = list(state.postconditions)
                posts[j] = replace(ref, false_positive=False)
                states = [
                    replace(s, postconditions=tuple(posts)) if s.id == state.id else s
                    for s in fsm.non_start_states
                ]
                facts = [r.condition for r in fsm.start.postconditions]
                return Fsm(site=fsm.site, findings=states, facts=facts)
    return None


@given(machines())
@settings(max_examples=100, deadline=None)
def test_degree_bounds_and_no_false_positive_edges(case):
    fsm, _ = case
    fp_pairs = {
        (s.id, r.condition.id)
        for s in fsm.states for r in s.postconditions if r.false_positive
    }
    for src, _, cid in fsm.edges:
        assert (src, cid) not in fp_pairs

    for state in fsm.non_start_states:
        incoming_conds = {cid for _, dst, cid in fsm.edges if dst == state.id}
        assert len(incoming_conds) <= len(state.preconditions)
        outgoing_conds = {cid for src, _, cid in fsm.edges if src == state.id}
        assert outgoing_conds <= set(state.granted_condition_ids())


@given(machines())
@settings(max_examples=100, deadline=None)
def test_false_positive_only_conditions_never_true(case):
    fsm, assumptions = case
    granted_somewhere = set(fsm.initial_conditions) | assumptions.granted_user_actions
    for s in fsm.states:
        granted_somewhere.update(s.granted_condition_ids())
    fp_only = set()
    for s in fsm.states:
        for ref in s.postconditions:
            if ref.false_positive and ref.condition.id not in granted_somewhere:
                fp_only.add(ref.condition.id)
    result = reach(fsm, ReachParams(assumptions=assumptions))
    assert fp_only.isdisjoint(true_conditions(result))


@given(machines())
@settings(max_examples=100, deadline=None)
def test_reach_is_idempotent(case):
    fsm, assumptions = case
    params = ReachParams(assumptions=assumptions)
    first = reach(fsm, params)
    second = reach(fsm, params)
    assert first == second
    assert first.firing_order == second.firing_order


@given(machines())
@settings(max_examples=100, deadline=None)
def test_every_witness_replays(case):
    fsm, assumptions = case
    result = reach(fsm, ReachParams(assumptions=assumptions))
    for goal in sorted(collect_goals(result, fsm)):
        path = extract_witness(fsm, result, goal)
        assert replay_witness(fsm, path)
        assert path.assumptions_used <= assumptions.granted_user_actions


@given(machines())
@settings(max_examples=75, deadline=None)
def test_visited_preconditions_were_satisfied(case):
    fsm, assumptions = case
    result = reach(fsm, ReachParams(assumptions=assumptions))
    for sid in result.visited:
        state = fsm.by_id[sid]
        for ref in state.preconditions:
            cid = ref.condition.id
            if ref.requires_user_action:
                assert cid in true_conditions(result) or cid in result.assumptions
            else:
                assert cid in true_conditions(result)


@given(machines())
@settings(max_examples=75, deadline=None)
def test_machine_serialization_round_trips(case):
    fsm, _ = case
    text = fsm_to_json(fsm)
    loaded = fsm_from_json(text)
    assert loaded == fsm
    assert fsm_to_json(loaded) == text


def test_finding_set_round_trip_under_random_inputs():
    rng = random.Random(7)
    from tests.helpers import random_finding_set
    for _ in range(50):
        fs = random_finding_set(rng)
        assert parse_findings(serialize_findings(fs)) == fs


@given(st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E), min_size=1))
@settings(max_examples=200, deadline=None)
def test_uri_normalization_idempotent_on_printable_input(raw):
    from vulnchain import MalformedUri, normalize_uri
    try:
        uri = normalize_uri(raw)
    except MalformedUri:
        return
    again = normalize_uri(uri.canonical)
    assert again.canonical == uri.canonical


@given(st.text(min_size=1).filter(lambda s: s.strip()))
@settings(max_examples=200, deadline=None)
def test_condition_normalization_idempotent(label):
    cond = normalize_condition(label)
    assert normalize_condition(cond.id).id == cond.id
    assert normalize_condition(cond.label).id == cond.id
