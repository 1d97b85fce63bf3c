"""Machine assembly: state construction, start wiring, and edge derivation."""

import random

import pytest

from vulnchain import (
    FindingSet,
    START_STATE_ID,
    Fsm,
    VulnchainError,
    build_fsm,
    fsm_to_json,
    normalize_condition,
)

from tests.helpers import (fsm_of, ids_for, labels_of, load_finding_set, load_fsm, load_tree,
                           machine_of, random_finding_set, reference_condition_ids,
                           reference_consumers, reference_edge_count, reference_edges,
                           reference_producers, single_finding, start_successors)


class TestBuildStates:
    """Each finding is the state it becomes: build_fsm adds only the start."""

    @pytest.mark.parametrize("name,count", [("minimal", 4), ("vulnweb", 10), ("teacher", 7)])
    def test_one_state_per_finding(self, name, count):
        finding_set = load_finding_set(name)
        states = build_fsm(finding_set, load_tree(name)).non_start_states
        assert len(states) == count
        assert set(states) == set(finding_set.findings)
        assert not any(s.is_start for s in states)

    def test_empty_map(self):
        assert build_fsm(FindingSet(site="x"), frozenset({"/"})).non_start_states == ()

    def test_flags_carried_over(self):
        by_label = {s.label: s for s in load_fsm("vulnweb").non_start_states}
        assert by_label["S4"].is_goal
        assert any(r.requires_user_action for r in by_label["S6"].preconditions)

    def test_duplicate_defensive_check(self):
        f = single_finding("V", "/x")
        with pytest.raises(VulnchainError, match="duplicate state id"):
            Fsm("x", (f, f), ())


class TestAttachStartState:
    def test_vulnweb_start_wiring(self, vulnweb_fsm):
        expected = ids_for(vulnweb_fsm, "S1", "S2", "S3", "S5", "S9")
        assert start_successors(vulnweb_fsm) == expected

    def test_teacher_start_wiring(self, teacher_fsm):
        assert start_successors(teacher_fsm) == ids_for(teacher_fsm, "S1", "S2", "S6")

    def test_zero_states_zero_facts(self):
        fsm = Fsm(site="", findings=(), facts=())
        assert len(fsm.states) == 1
        assert fsm.start.id == START_STATE_ID
        assert fsm.initial_conditions == frozenset()

    def test_start_grants_exactly_the_facts(self):
        fact = normalize_condition("Apache 2.4 detected")
        fsm = Fsm(site="", findings=(), facts=(fact,))
        assert fsm.initial_conditions == {fact.id}
        assert fsm.start.granted_condition_ids() == (fact.id,)
        assert set(fsm.producers[fact.id]) == {START_STATE_ID}

    def test_repeated_fact_keeps_its_first_label(self):
        """As in a findings document, the first label of a fact wins."""
        fsm = Fsm("s", [], [normalize_condition("Apache"), normalize_condition("apache")])
        assert [r.condition.label for r in fsm.start.postconditions] == ["Apache"]
        assert '"environment_facts":["Apache"]' in fsm_to_json(fsm)

    def test_facts_satisfy_preconditions_for_start_wiring(self):
        fact = normalize_condition("banner")
        f = single_finding("V", "/x", pres=("banner",), label="S1")
        fsm = Fsm(site="", findings=(next(iter(fsm_of(f).non_start_states)),), facts=(fact,))
        assert start_successors(fsm) == {f.id}

    def test_findings_in_any_order_give_the_same_machine(self):
        """The start state comes first and the findings follow in id order,
        whatever order they are given in."""
        rng, shuffler = random.Random(15), random.Random(16)
        for _ in range(1000):
            fs = random_finding_set(rng)
            in_order = Fsm(site=fs.site, findings=fs.findings, facts=fs.environment_facts)
            shuffled = list(fs.findings)
            shuffler.shuffle(shuffled)
            for findings in (shuffled, fs.findings[::-1]):
                fsm = Fsm(site=fs.site, findings=findings, facts=fs.environment_facts)
                assert fsm == in_order
                assert fsm.states[0].is_start
                assert fsm.non_start_states == fsm.states[1:]
                assert [s.id for s in fsm.non_start_states] == sorted(f.id for f in fs.findings)
                assert fsm_to_json(fsm) == fsm_to_json(in_order)

    def test_rejects_second_start(self, minimal_fsm):
        with pytest.raises(Exception, match="start state"):
            Fsm(site="", findings=minimal_fsm.states, facts=())


class TestDeriveEdges:
    def test_minimal_edges_skip_false_positive(self, minimal_fsm):
        labels = labels_of(minimal_fsm)
        edges = {(labels[u], labels[v], c) for u, v, c in minimal_fsm.edges}
        assert ("S1", "S3", "x1") in edges
        assert ("S2", "S3", "x3") in edges
        assert not any(u == "S1" and v == "S4" for u, v, _ in edges)
        assert "x2" not in {c for _, _, c in edges}

    def test_s6_degree(self, vulnweb_fsm):
        (s6,) = [s for s in vulnweb_fsm.non_start_states if s.label == "S6"]
        assert len(s6.preconditions) == 3
        assert len(s6.postconditions) == 1
        incoming = [e for e in vulnweb_fsm.edges if e[1] == s6.id]
        # Two of the three preconditions have producing states; the third is
        # a user-action condition satisfied only by assumption.
        assert len(incoming) == 2

    def test_single_state_no_conditions_no_edges(self):
        fsm = fsm_of(single_finding("V", "/x"))
        assert fsm.edges == ()

    def test_every_condition_indexed(self, vulnweb_fsm):
        mentioned = set()
        for s in vulnweb_fsm.states:
            mentioned.update(r.condition.id for r in s.preconditions)
            mentioned.update(r.condition.id for r in s.postconditions)
        for cid in mentioned:
            assert cid in vulnweb_fsm.producers
            assert cid in vulnweb_fsm.consumers

    def test_unproducible_precondition_keeps_empty_producer_set(self, minimal_fsm):
        assert set(minimal_fsm.producers["x2"]) == set()
        assert minimal_fsm.consumers["x2"]

    def test_indexes_match_the_reference_walks_on_a_random_corpus(self):
        rng = random.Random(17)
        for _ in range(1000):
            fsm = machine_of(random_finding_set(rng, 10, 15))
            producers, consumers = reference_producers(fsm), reference_consumers(fsm)
            assert fsm.condition_ids == reference_condition_ids(fsm)
            assert {cid: set(p) for cid, p in fsm.producers.items()} == producers
            assert {cid: set(c) for cid, c in fsm.consumers.items()} == consumers
            # Keys in the order the walk first meets them; each list in
            # state order, without repeats.
            first_seen = dict.fromkeys(r.condition.id for s in fsm.states
                                       for r in (*s.preconditions, *s.postconditions))
            assert list(fsm.producers) == list(fsm.consumers) == list(first_seen)
            position = {s.id: i for i, s in enumerate(fsm.states)}
            for ids in (*fsm.producers.values(), *fsm.consumers.values()):
                positions = [position[sid] for sid in ids]
                assert positions == sorted(set(positions))
            assert fsm.edges == reference_edges(fsm)
            assert fsm.edge_count == reference_edge_count(fsm) == (
                len(fsm.edges) + len(fsm.unconditional_start_targets))


class TestBuildFsm:
    @pytest.mark.parametrize("name,count,goals", [
        ("minimal", 4, set()),
        ("vulnweb", 10, {"S4", "S7", "S10"}),
        ("teacher", 7, {"S7"}),
    ])
    def test_counts_and_goals(self, name, count, goals):
        fsm = load_fsm(name)
        labels = labels_of(fsm)
        assert len(fsm.non_start_states) == count
        assert {labels[g] for g in fsm.goal_ids} == goals

    def test_deterministic_under_serialization(self):
        assert fsm_to_json(load_fsm("vulnweb")) == fsm_to_json(load_fsm("vulnweb"))

    @pytest.mark.parametrize("name", ["minimal", "vulnweb", "teacher"])
    def test_no_edge_from_false_positive(self, name):
        fsm = load_fsm(name)
        fp_pairs = {
            (s.id, r.condition.id)
            for s in fsm.states for r in s.postconditions if r.false_positive
        }
        for src, _, cid in fsm.edges:
            assert (src, cid) not in fp_pairs

    def test_start_has_no_incoming_edges_and_is_not_goal(self, vulnweb_fsm):
        assert all(dst != START_STATE_ID for _, dst, _ in vulnweb_fsm.edges)
        assert not vulnweb_fsm.start.is_goal
        assert vulnweb_fsm.start.preconditions == ()

    def test_self_granting_state_allowed_structurally(self):
        fsm = fsm_of(single_finding("V", "/x", pres=("c",), posts=("c",)))
        assert len(fsm.non_start_states) == 1
        (state,) = fsm.non_start_states
        assert (state.id, state.id, "c") in fsm.edges
