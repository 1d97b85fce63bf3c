"""Reachability semantics, goal collection, witnesses, and the isolated goals."""

import dataclasses
import importlib
import random

import pytest

from vulnchain import (
    AssumptionSet,
    AttackState,
    Fsm,
    GoalNotReached,
    InvalidAssumption,
    ReachParams,
    ResultFsmMismatch,
    Semantics,
    collect_goals,
    extract_witness,
    isolated_goals,
    normalize_condition,
    reach,
    to_dot,
    to_report,
)

from tests.helpers import (
    closure_by_exhaustion,
    firing_order_by_restart_scan,
    fsm_of,
    ids_for,
    isolated_goals_by_scan,
    labels_of,
    load_fsm,
    machine_of,
    random_assumptions,
    random_finding_set,
    reference_extract_witness,
    replay_witness,
    single_finding,
    true_conditions,
)


def _visited_labels(fsm, result):
    labels = labels_of(fsm)
    return {labels[sid] for sid in result.visited}


def _all_assumptions(fsm):
    return AssumptionSet(frozenset(fsm.user_action_condition_ids))


class TestFixedPoint:
    def test_minimal_false_positive_blocks_goal(self, minimal_fsm):
        result = reach(minimal_fsm)
        assert _visited_labels(minimal_fsm, result) == {"start", "S1", "S2", "S3"}
        assert true_conditions(result) == {"x1", "x3", "z1"}
        assert "x2" not in true_conditions(result)

    def test_vulnweb_with_all_assumptions(self, vulnweb_fsm):
        result = reach(vulnweb_fsm, ReachParams(assumptions=_all_assumptions(vulnweb_fsm)))
        goals = collect_goals(result, vulnweb_fsm)
        assert goals == ids_for(vulnweb_fsm, "S4", "S7", "S10")

    def test_vulnweb_without_assumptions(self, vulnweb_fsm):
        result = reach(vulnweb_fsm)
        visited = _visited_labels(vulnweb_fsm, result)
        assert {"S6", "S7", "S8"}.isdisjoint(visited)
        assert collect_goals(result, vulnweb_fsm) == ids_for(vulnweb_fsm, "S4", "S10")

    def test_empty_machine(self):
        fsm = Fsm(site="", findings=(), facts=())
        result = reach(fsm)
        assert result.visited == {fsm.start.id}
        assert true_conditions(result) == fsm.initial_conditions

    def test_matches_exhaustion_oracle_on_fixtures(self, minimal_fsm, vulnweb_fsm, teacher_fsm):
        for fsm in (minimal_fsm, vulnweb_fsm, teacher_fsm):
            expected_visited, expected_true = closure_by_exhaustion(fsm)
            result = reach(fsm)
            assert result.visited == expected_visited
            assert true_conditions(result) == expected_true

    def test_firing_order_matches_restart_scan_oracle(self):
        # Witnesses and goldens depend on the firing order, not only on the
        # visited set, so the order itself is checked on a random corpus.
        rng = random.Random(7)
        for _ in range(3000):
            fsm = machine_of(random_finding_set(rng, 12, 10))
            assumptions = random_assumptions(rng, fsm)
            result = reach(fsm, ReachParams(assumptions=assumptions))
            order, true = firing_order_by_restart_scan(fsm, assumptions.granted_user_actions)
            assert result.firing_order == tuple(order)
            assert true_conditions(result) == true

    def test_idempotent(self, vulnweb_fsm):
        params = ReachParams(assumptions=_all_assumptions(vulnweb_fsm))
        assert reach(vulnweb_fsm, params) == reach(vulnweb_fsm, params)

    def test_invalid_assumption_rejected(self, vulnweb_fsm):
        params = ReachParams(assumptions=AssumptionSet.of("no such condition"))
        with pytest.raises(InvalidAssumption):
            reach(vulnweb_fsm, params)

    def test_assumed_condition_must_be_user_action_somewhere(self, vulnweb_fsm):
        # A producible but ordinary condition is not a valid assumption.
        params = ReachParams(assumptions=AssumptionSet.of("Narrow search space of password."))
        with pytest.raises(InvalidAssumption):
            reach(vulnweb_fsm, params)

    def test_cycle_without_entry_never_fires(self):
        fsm = fsm_of(
            single_finding("A", "/a", pres=("x",), posts=("y",), label="S1"),
            single_finding("B", "/b", pres=("y",), posts=("x",), label="S2"),
        )
        assert _visited_labels(fsm, reach(fsm)) == {"start"}

    def test_self_granting_state_cannot_bootstrap(self):
        fsm = fsm_of(single_finding("A", "/a", pres=("c",), posts=("c",), label="S1"))
        assert _visited_labels(fsm, reach(fsm)) == {"start"}

    def test_assumption_does_not_satisfy_ordinary_precondition(self):
        # "c" is user-action on S1 but ordinary on S2: assuming it unlocks
        # only S1; S2 still needs a producer.
        fsm = fsm_of(
            single_finding("A", "/a", pres=("!c",), label="S1"),
            single_finding("B", "/b", pres=("c",), label="S2"),
        )
        result = reach(fsm, ReachParams(assumptions=AssumptionSet.of("c")))
        assert _visited_labels(fsm, result) == {"start", "S1"}


def _state(name, pres=(), posts=()):
    return single_finding(name, f"/{name.lower()}", pres=pres, posts=posts, label=name)


class TestFiringOrder:
    """Exact firing orders where a condition turns true more than once, is
    true from the start, or is never granted at all."""

    def test_environment_fact_granted_again(self):
        a = _state("A", posts=("e", "x"))
        b = _state("B", pres=("e", "x"))
        e = _state("E", pres=("e",))
        fsm = fsm_of(a, b, e, facts=(normalize_condition("e"),))
        assert e.id < a.id
        assert reach(fsm).firing_order == ("start", e.id, a.id, b.id)

    def test_assumed_user_action_granted_again(self):
        # C1 is ready from the start and fires before P grants "u". C2 still
        # waits for "x" after P grants "u". C3 is ready before P grants "u"
        # and still fires only once.
        c1 = _state("C1", pres=("!u",))
        c2 = _state("C2", pres=("!u", "x"))
        c3 = _state("C3", pres=("!u", "y"))
        y = _state("Y", posts=("y",))
        p = _state("P", pres=("y",), posts=("u",))
        x = _state("X", pres=("u",), posts=("x",))
        fsm = fsm_of(c1, c2, c3, y, p, x)
        assert c1.id < p.id and c2.id < x.id
        result = reach(fsm, ReachParams(assumptions=AssumptionSet.of("u")))
        assert result.firing_order == ("start", c1.id, y.id, p.id, x.id, c2.id, c3.id)

    def test_false_positive_grant_never_unlocks(self):
        f = _state("F", posts=("?f",))
        g = _state("G", posts=("g",))
        c = _state("C", pres=("f", "g"))
        fsm = fsm_of(f, g, c)
        assert g.id < f.id
        assert reach(fsm).firing_order == ("start", g.id, f.id)

    def test_condition_granted_by_two_states(self):
        # "c" turns true once; C still waits for "d", which D grants only
        # after both A and B have fired.
        a = _state("A", posts=("c", "a2"))
        b = _state("B", posts=("c", "b2"))
        d = _state("D", pres=("a2", "b2"), posts=("d",))
        c = _state("C", pres=("c", "d"))
        fsm = fsm_of(a, b, c, d)
        assert b.id < a.id and c.id < d.id
        assert reach(fsm).firing_order == ("start", b.id, a.id, d.id, c.id)


class TestPaperDfs:
    def test_subset_of_fixed_point_on_fixtures(self, minimal_fsm, vulnweb_fsm, teacher_fsm):
        for fsm in (minimal_fsm, vulnweb_fsm, teacher_fsm):
            dfs = reach(fsm, ReachParams(semantics=Semantics.PAPER_DFS))
            fp = reach(fsm)
            assert dfs.visited <= fp.visited

    def test_strict_under_approximation_case(self):
        # The enabler sorts after the consumer in id order, so the single
        # descent passes the consumer before its precondition turns true.
        enabler = single_finding("zz-enabler", "/zz", posts=("c",), label="S2")
        consumer = single_finding("aa-consumer", "/aa", pres=("c",), label="S1")
        fsm = fsm_of(enabler, consumer)
        order = [s.id for s in fsm.non_start_states]
        assert order[0] == consumer.id  # ids hash deterministically
        dfs = reach(fsm, ReachParams(semantics=Semantics.PAPER_DFS))
        fp = reach(fsm)
        assert consumer.id not in dfs.visited
        assert consumer.id in fp.visited
        assert dfs.visited < fp.visited

    def test_deterministic(self, vulnweb_fsm):
        params = ReachParams(semantics=Semantics.PAPER_DFS)
        assert reach(vulnweb_fsm, params) == reach(vulnweb_fsm, params)


@pytest.mark.parametrize("semantics", list(Semantics), ids=lambda s: s.value)
def test_semantics_given_as_its_string_value(semantics, vulnweb_fsm):
    assumptions = _all_assumptions(vulnweb_fsm)
    by_value = reach(vulnweb_fsm, ReachParams(semantics=semantics.value, assumptions=assumptions))
    assert by_value == reach(vulnweb_fsm, ReachParams(semantics=semantics, assumptions=assumptions))
    assert by_value.semantics == semantics.value


class TestCollectGoals:
    def test_teacher_goal_reached(self, teacher_fsm):
        goals = collect_goals(reach(teacher_fsm), teacher_fsm)
        assert goals == ids_for(teacher_fsm, "S7")

    def test_no_goal_flags_empty_set(self, minimal_fsm):
        assert collect_goals(reach(minimal_fsm), minimal_fsm) == frozenset()

    def test_vulnweb_with_assumptions(self, vulnweb_fsm):
        result = reach(vulnweb_fsm, ReachParams(assumptions=_all_assumptions(vulnweb_fsm)))
        assert collect_goals(result, vulnweb_fsm) == ids_for(vulnweb_fsm, "S4", "S7", "S10")


class TestExtractWitness:
    def test_teacher_partial_order(self, teacher_fsm):
        result = reach(teacher_fsm)
        (goal,) = collect_goals(result, teacher_fsm)
        path = extract_witness(teacher_fsm, result, goal)
        labels = labels_of(teacher_fsm)
        order = [labels[sid] for sid in path.steps]
        assert "S1" in order and "S6" in order
        assert order.index("S3") < order.index("S5")
        assert order.index("S4") < order.index("S5")
        assert order.index("S5") < order.index("S7")
        assert order[-1] == "S7"
        assert replay_witness(teacher_fsm, path)

    def test_precondition_free_goal_single_step(self):
        fsm = fsm_of(single_finding("V", "/x", posts=("done",), is_goal=True, label="S1"))
        result = reach(fsm)
        (goal,) = collect_goals(result, fsm)
        path = extract_witness(fsm, result, goal)
        assert len(path.steps) == 1
        assert path.steps[0] == goal
        assert replay_witness(fsm, path)

    def test_vulnweb_goal_uses_all_three_producers(self, vulnweb_fsm):
        result = reach(vulnweb_fsm)
        labels = labels_of(vulnweb_fsm)
        (goal,) = [g for g in collect_goals(result, vulnweb_fsm) if labels[g] == "S4"]
        path = extract_witness(vulnweb_fsm, result, goal)
        order = [labels[sid] for sid in path.steps]
        assert set(order) == {"S1", "S2", "S3", "S4"}
        assert order[-1] == "S4"
        assert replay_witness(vulnweb_fsm, path)

    def test_assumptions_recorded(self, vulnweb_fsm):
        params = ReachParams(assumptions=_all_assumptions(vulnweb_fsm))
        result = reach(vulnweb_fsm, params)
        labels = labels_of(vulnweb_fsm)
        (goal,) = [g for g in collect_goals(result, vulnweb_fsm) if labels[g] == "S7"]
        path = extract_witness(vulnweb_fsm, result, goal)
        assert path.assumptions_used <= result.assumptions
        assert len(path.assumptions_used) == 2  # click for S6, fill for S7
        assert replay_witness(vulnweb_fsm, path)

    def test_unreached_goal_rejected(self, vulnweb_fsm):
        result = reach(vulnweb_fsm)
        labels = labels_of(vulnweb_fsm)
        (s7,) = [sid for sid, lb in labels.items() if lb == "S7"]
        with pytest.raises(GoalNotReached):
            extract_witness(vulnweb_fsm, result, s7)

    def test_unknown_goal_rejected(self, vulnweb_fsm):
        with pytest.raises(GoalNotReached):
            extract_witness(vulnweb_fsm, reach(vulnweb_fsm), "bogus")

    def test_witnesses_match_the_reference_on_a_random_corpus(self):
        rng = random.Random(17)
        assumed_seen = long_seen = 0
        for _ in range(1000):
            fsm = machine_of(random_finding_set(rng, 10, 15))
            assumptions = random_assumptions(rng, fsm)
            for semantics in Semantics:
                result = reach(fsm, ReachParams(semantics=semantics, assumptions=assumptions))
                for sid in sorted(result.visited):
                    path = extract_witness(fsm, result, sid)
                    assert path == reference_extract_witness(fsm, result, sid)
                    assert replay_witness(fsm, path)
                    assumed_seen += bool(path.assumptions_used)
                    long_seen += len(path.steps) >= 3
        assert assumed_seen and long_seen

    def test_each_path_is_distinct_ids_in_firing_order_ending_at_its_goal(self):
        rng = random.Random(17)
        long_seen = 0
        for _ in range(1000):
            fsm = machine_of(random_finding_set(rng, 10, 15))
            assumptions = random_assumptions(rng, fsm)
            for semantics in Semantics:
                result = reach(fsm, ReachParams(semantics=semantics, assumptions=assumptions))
                for sid in sorted(result.visited):
                    steps = extract_witness(fsm, result, sid).steps
                    assert len(set(steps)) == len(steps)
                    assert steps[-1] == sid
                    fired = iter(result.firing_order)
                    assert all(step in fired for step in steps), "not a subsequence"
                    long_seen += len(steps) >= 3
        assert long_seen


RESULT_CONSUMERS = {
    "collect_goals": lambda fsm, result, goal: collect_goals(result, fsm),
    "isolated_goals": lambda fsm, result, goal: isolated_goals(fsm, result),
    "extract_witness": lambda fsm, result, goal: extract_witness(fsm, result, goal),
    "to_report": lambda fsm, result, goal: to_report(fsm, result),
    "to_dot": lambda fsm, result, goal: to_dot(fsm, result),
}


_PRODUCER = single_finding("P", "/p", posts=("c",), label="S1")
_GOAL = single_finding("G", "/g", pres=("c",), is_goal=True, label="S2")


def _same_ids_other_grants():
    """``P`` grants ``c`` in the result's machine and ``d`` in the other, so
    ``G``, which needs ``c``, is reached only in the first."""
    theirs = fsm_of(single_finding("P", "/p", posts=("d",), label="S1"), _GOAL)
    ours = fsm_of(_PRODUCER, _GOAL)
    assert set(ours.by_id) == set(theirs.by_id)
    return ours, theirs


def _equal_copy():
    teacher = load_fsm("teacher")
    equal = Fsm(teacher.site, teacher.non_start_states,
                [r.condition for r in teacher.start.postconditions], teacher.diagnostics)
    assert equal == teacher and equal is not teacher
    return teacher, equal


#: Builders of (the result's machine, another machine object).
OTHER_MACHINES = {
    "another_fixture": lambda: (load_fsm("teacher"), load_fsm("minimal")),
    "same_ids_other_grants": _same_ids_other_grants,
    "goal_without_its_producer": lambda: (fsm_of(_PRODUCER, _GOAL), fsm_of(_GOAL)),
    "another_producer": lambda: (
        fsm_of(_PRODUCER, _GOAL), fsm_of(single_finding("Q", "/q", posts=("c",)), _GOAL)),
    "equal_copy": _equal_copy,
}


class TestResultOfAnotherMachine:
    """A result is used with the machine object it was computed on: neither
    state ids nor equality tie it to another one."""

    @pytest.mark.parametrize("other", OTHER_MACHINES.values(), ids=OTHER_MACHINES)
    @pytest.mark.parametrize("consumer", RESULT_CONSUMERS.values(), ids=RESULT_CONSUMERS)
    def test_only_the_result_s_own_machine_is_accepted(self, consumer, other, monkeypatch):
        """No machine or state is compared, and nothing is written to the result."""
        ours, theirs = other()
        result = reach(ours)
        (goal,) = collect_goals(result, ours)

        def refuse(self, other):
            raise AssertionError(f"compared a {type(self).__name__}")

        monkeypatch.setattr(Fsm, "__eq__", refuse)
        monkeypatch.setattr(AttackState, "__eq__", refuse)
        consumer(result.fsm, result, goal)
        with pytest.raises(ResultFsmMismatch, match="another machine object; pass result.fsm"):
            consumer(theirs, result, goal)
        assert set(vars(result)) - {"firing_position"} == {f.name for f in dataclasses.fields(result)}


class TestDiffIsolatedVsChained:
    """The isolated goals against the chained ones, ``collect_goals``; the
    chained-only goals are their difference."""

    def test_vulnweb_amplification(self, vulnweb_fsm):
        result = reach(vulnweb_fsm, ReachParams(assumptions=_all_assumptions(vulnweb_fsm)))
        reached = collect_goals(result, vulnweb_fsm)
        isolated = isolated_goals(vulnweb_fsm, result)
        assert isolated == frozenset()
        assert reached == ids_for(vulnweb_fsm, "S4", "S7", "S10")
        assert reached - isolated == reached

    def test_teacher_amplification(self, teacher_fsm):
        result = reach(teacher_fsm)
        reached = collect_goals(result, teacher_fsm)
        isolated = isolated_goals(teacher_fsm, result)
        assert isolated == frozenset()
        assert reached == ids_for(teacher_fsm, "S7")
        assert reached - isolated == reached

    def test_precondition_free_goal_is_isolated(self):
        f = single_finding("V", "/x", posts=("done",), is_goal=True, label="S1")
        fsm = fsm_of(f)
        result = reach(fsm)
        reached = collect_goals(result, fsm)
        isolated = isolated_goals(fsm, result)
        assert isolated == reached == {f.id}
        assert reached - isolated == frozenset()

    def test_goal_fireable_from_facts_counts_as_isolated(self):
        from vulnchain import normalize_condition
        f = single_finding("V", "/x", pres=("banner",), is_goal=True, label="S1")
        fsm = fsm_of(f, facts=(normalize_condition("banner"),))
        assert isolated_goals(fsm, reach(fsm)) == {f.id}

    def test_paper_dfs_result_gives_its_own_goals_as_chained(self, vulnweb_fsm):
        result = reach(vulnweb_fsm, ReachParams(
            semantics=Semantics.PAPER_DFS, assumptions=_all_assumptions(vulnweb_fsm)))
        reached = collect_goals(result, vulnweb_fsm)
        assert to_report(vulnweb_fsm, result).chained_goals == sorted(reached)
        assert reached == ids_for(vulnweb_fsm, "S4", "S10")

    @pytest.mark.parametrize("name", ["minimal", "vulnweb", "teacher"])
    def test_consumers_never_recompute_the_closure(self, name, monkeypatch):
        # The package re-exports the function ``reach`` under the module's name.
        reach_module = importlib.import_module("vulnchain.reach")
        fsm = load_fsm(name)
        result = reach(fsm, ReachParams(assumptions=_all_assumptions(fsm)))

        def refuse(*args):
            raise AssertionError("the closure was computed again")

        monkeypatch.setattr(reach_module, "_closure_fixed_point", refuse)
        monkeypatch.setattr(reach_module, "_closure_single_descent", refuse)
        report = to_report(fsm, result)
        reached = collect_goals(result, fsm)
        isolated = isolated_goals(fsm, result)
        assert report.chained_goals == report.reachable_goals == sorted(reached)
        assert report.isolated_goals == sorted(isolated)
        assert report.chained_only_goals == sorted(reached - isolated)

    def test_goal_sets_match_the_scan_on_a_random_corpus(self):
        rng = random.Random(16)
        isolated_seen = chained_only_seen = 0
        for _ in range(1000):
            fsm = machine_of(random_finding_set(rng, 10, 15))
            assumptions = random_assumptions(rng, fsm)
            for semantics in Semantics:
                result = reach(fsm, ReachParams(semantics=semantics, assumptions=assumptions))
                reached = collect_goals(result, fsm)
                isolated = isolated_goals(fsm, result)
                assert isolated == isolated_goals_by_scan(fsm, assumptions.granted_user_actions)
                assert isolated <= reached
                report = to_report(fsm, result)
                assert report.isolated_goals == sorted(isolated)
                assert report.chained_goals == sorted(reached)
                assert report.chained_only_goals == sorted(reached - isolated)
                isolated_seen += bool(isolated)
                chained_only_seen += bool(reached - isolated)
        assert isolated_seen and chained_only_seen
