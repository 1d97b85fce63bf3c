"""DOT export, machine serialization, and analysis reports."""

import gc
import json
import random
import re
from dataclasses import fields
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from vulnchain import (
    AnalysisReport,
    AssumptionSet,
    AttackState,
    Condition,
    Fsm,
    NormalizedUri,
    PostconditionRef,
    PreconditionRef,
    ReachParams,
    ResultFsmMismatch,
    SchemaViolation,
    Semantics,
    build_fsm,
    collect_goals,
    extract_witness,
    fsm_from_json,
    fsm_to_json,
    normalize_condition,
    reach,
    report_from_json,
    report_to_json,
    to_dot,
    to_report,
)
from vulnchain.report import _json_text

from tests.helpers import (
    closure_by_exhaustion,
    fsm_of,
    granted_by_visited,
    labels_of,
    load_fsm,
    machine_of,
    random_assumptions,
    random_finding_set,
    reference_build_warnings,
    reference_fsm_to_json,
    reference_missing_conditions,
    reference_to_dot,
    single_finding,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_REPORTS = sorted(GOLDEN.glob("*/report*.json"))

#: Text from every Unicode category: non-ASCII and astral characters, quotes
#: and backslashes, and, often, lone surrogates (Cs) and control characters (Cc).
JSON_TEXT = (st.text(st.characters(categories=["L", "M", "N", "P", "S", "Z", "C"]))
             | st.text(st.characters(categories=["Cs", "Cc"])))
#: The same, less lone surrogates.
ENCODABLE_TEXT = st.text(st.characters(exclude_categories=["Cs"]))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**200, 2**200) | JSON_TEXT,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(JSON_TEXT, inner)),
    max_leaves=30)

EDGE_RE = re.compile(r'^\s*"(?P<src>[^"]+)" -> "(?P<dst>[^"]+)"(?: \[(?P<attrs>[^\]]*)\])?;$')


def _edges(dot: str):
    out = []
    for line in dot.splitlines():
        m = EDGE_RE.match(line)
        if m:
            out.append((m.group("src"), m.group("dst"), m.group("attrs") or ""))
    return out


def _state_nodes(dot: str):
    nodes = []
    for line in dot.splitlines():
        m = re.match(r'^\s*"([^"]+)" \[(.*)\];$', line)
        if m and "shape=point" not in m.group(2) and "->" not in line:
            nodes.append(m.group(1))
    return nodes


class TestToDot:
    def test_minimal_structure(self, minimal_fsm):
        dot = to_dot(minimal_fsm)
        assert len(_state_nodes(dot)) == 5  # start + four states

        labels = labels_of(minimal_fsm)
        by_label = {v: k for k, v in labels.items()}
        edges = _edges(dot)

        fp = [e for e in edges if "color=red" in e[2]]
        assert len(fp) == 1
        src, dst, attrs = fp[0]
        assert labels[src] == "S1" and labels[dst] == "S4"
        assert 'label="x2"' in attrs and "style=dashed" in attrs

        solid_labels = {
            re.search(r'label="([^"]*)"', attrs).group(1)
            for _, _, attrs in edges
            if "label=" in attrs and "dashed" not in attrs
        }
        assert {"x1", "x3", "z1", "z2"} <= solid_labels

        start_edges = [e for e in edges if e[0] == "start"]
        assert {labels[dst] for _, dst, _ in start_edges} == {"S1", "S2"}

    def test_start_only_machine(self):
        dot = to_dot(Fsm(site="", findings=(), facts=()))
        assert _state_nodes(dot) == ["start"]
        assert _edges(dot) == []
        assert "doublecircle" in dot

    def test_vulnweb_dashed_and_red_counts(self, vulnweb_fsm):
        dot = to_dot(vulnweb_fsm)
        dashed_non_red = [
            e for e in _edges(dot) if "style=dashed" in e[2] and "color=red" not in e[2]
        ]
        assert len(dashed_non_red) == 3
        assert dot.count("fillcolor=red") == 3

    def test_dashed_edges_enter_the_user_action_states(self, vulnweb_fsm):
        labels = labels_of(vulnweb_fsm)
        dot = to_dot(vulnweb_fsm)
        targets = {
            labels[dst] for _, dst, attrs in _edges(dot)
            if "style=dashed" in attrs and "color=red" not in attrs
        }
        assert targets == {"S6", "S7", "S8"}

    def test_visited_states_bold(self, vulnweb_fsm):
        result = reach(vulnweb_fsm)
        dot = to_dot(vulnweb_fsm, result)
        labels = labels_of(vulnweb_fsm)
        for line in dot.splitlines():
            m = re.match(r'^\s*"([^"]+)" \[(.*)\];$', line)
            if not m or "shape=point" in m.group(2):
                continue
            sid, attrs = m.group(1), m.group(2)
            assert ("bold" in attrs) == (sid in result.visited), labels.get(sid, sid)

    def test_byte_deterministic(self, vulnweb_fsm):
        assert to_dot(vulnweb_fsm) == to_dot(vulnweb_fsm)

    def test_produced_user_action_precondition_draws_dashed_producer_edge(self):
        producer = single_finding("A", "/a", posts=("clicked",), label="S1")
        consumer = single_finding("B", "/b", pres=("!clicked",), label="S2")
        fsm = fsm_of(producer, consumer)
        dot = to_dot(fsm)
        dashed = [e for e in _edges(dot) if "style=dashed" in e[2]]
        assert len(dashed) == 1
        assert dashed[0][0] == producer.id
        assert dashed[0][1] == consumer.id


    def test_quotes_and_backslashes_in_node_names_are_escaped(self):
        fsm = fsm_of(single_finding("V", "/x", pres=('say "hi"',), posts=("c:\\tmp",)))
        (state,) = fsm.non_start_states
        dot = to_dot(fsm)
        assert '  "in:say \\"hi\\"" [shape=point];' in dot.splitlines()
        assert f'  "in:say \\"hi\\"" -> "{state.id}" [label="say \\"hi\\""];' in dot
        assert f'  "{state.id}" -> "out:c:\\\\tmp" [label="c:\\\\tmp"];' in dot
        assert '"in:say "hi""' not in dot


#: name -> (change to one ref entry given its flag key, expected message).
REPEATED_REF_TAMPERS = {
    "flag 1": (lambda ref, flag: ref.update({flag: 1}), "field '{flag}' must be bool"),
    "flag 0": (lambda ref, flag: ref.update({flag: 0}), "field '{flag}' must be bool"),
    "list condition": (lambda ref, flag: ref.update(condition=[1]),
                       "field 'condition' must be str"),
    "object condition": (lambda ref, flag: ref.update(condition={}),
                         "field 'condition' must be str"),
    "extra key": (lambda ref, flag: ref.update(extra=True), "unknown fields: extra"),
    "missing flag": (lambda ref, flag: ref.pop(flag), "missing required field '{flag}'"),
}


class TestFsmSerialization:
    @pytest.mark.parametrize("fixture", ["minimal_fsm", "vulnweb_fsm", "teacher_fsm"])
    def test_round_trip(self, fixture, request):
        fsm = request.getfixturevalue(fixture)
        assert fsm_from_json(fsm_to_json(fsm)) == fsm

    def test_out_of_order_refs_resave_in_canonical_order(self, minimal_fsm):
        text = fsm_to_json(minimal_fsm)
        doc = json.loads(text)
        for entry in doc["states"]:
            entry["preconditions"].reverse()
            entry["postconditions"].reverse()
        assert json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n" != text
        assert fsm_to_json(fsm_from_json(json.dumps(doc))) == text

    @pytest.mark.parametrize("fixture", ["minimal_fsm", "vulnweb_fsm", "teacher_fsm"])
    def test_written_compact_on_one_line_with_sorted_keys(self, fixture, request):
        text = fsm_to_json(request.getfixturevalue(fixture))
        assert text == json.dumps(json.loads(text), separators=(",", ":"), sort_keys=True) + "\n"

    def test_writer_matches_the_reference_on_a_random_corpus(self):
        rng = random.Random(20)
        for _ in range(1_000):
            fsm = build_fsm(random_finding_set(rng, punctuation_variants=True),
                            frozenset({"/", "/r00", "/r03"}))
            assert fsm_to_json(fsm) == reference_fsm_to_json(fsm)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_writer_matches_the_reference_on_any_text(self, data):
        """Every text the file stores, from any Unicode category: the site,
        the notes, fact and ref labels, sources, URIs and vulnerability
        names, and labels present, absent or empty. A vulnerability name
        is hashed as UTF-8 into its state's id, so it holds no lone
        surrogate."""
        texts = st.lists(JSON_TEXT, max_size=3)

        def refs(make):
            labels = data.draw(st.lists(JSON_TEXT, max_size=4))
            return tuple(make(Condition(id=f"c{i}", label=label), data.draw(st.booleans()))
                         for i, label in enumerate(labels))

        states = [AttackState(
            vulnerability_name=f"v{i} " + data.draw(ENCODABLE_TEXT),
            uri=NormalizedUri(raw=data.draw(JSON_TEXT), canonical=f"/r{i}"),
            preconditions=refs(PreconditionRef), postconditions=refs(PostconditionRef),
            is_goal=data.draw(st.booleans()), source=data.draw(JSON_TEXT),
            label=data.draw(st.none() | JSON_TEXT)) for i in range(data.draw(st.integers(0, 3)))]
        facts = [Condition(id=f"f{i}", label=label) for i, label in enumerate(data.draw(texts))]
        fsm = Fsm(data.draw(JSON_TEXT), states, facts, tuple(data.draw(texts)))
        assert fsm_to_json(fsm) == reference_fsm_to_json(fsm)

    def test_condition_spelled_two_ways_keeps_each_label(self):
        spellings = ("SQL  Injection", "sql injection")
        fsm = fsm_of(
            *(single_finding("Producer", f"/p{i}", posts=[text], label=text)
              for i, text in enumerate(spellings)),
            *(single_finding("Consumer", f"/c{i}", pres=[text], label=text)
              for i, text in enumerate(spellings)),
        )
        text = fsm_to_json(fsm)
        loaded = fsm_from_json(text)
        assert fsm_to_json(loaded) == text
        for state in loaded.non_start_states:
            (ref,) = state.preconditions or state.postconditions
            assert ref.condition.id == "sql injection"
            assert ref.condition.label == state.label

    @pytest.mark.parametrize("fixture", ["minimal_fsm", "vulnweb_fsm", "teacher_fsm"])
    def test_stores_no_derived_indices(self, fixture, request):
        doc = json.loads(fsm_to_json(request.getfixturevalue(fixture)))
        assert doc["format_version"] == 2
        assert set(doc) == {"format_version", "site", "environment_facts", "states", "diagnostics"}

    def test_version_checked(self):
        with pytest.raises(SchemaViolation, match="format_version"):
            fsm_from_json('{"format_version": 99}')

    def test_version_1_rejected(self, minimal_fsm):
        doc = json.loads(fsm_to_json(minimal_fsm))
        doc["format_version"] = 1
        with pytest.raises(SchemaViolation, match="^format_version: unsupported format_version 1;"):
            fsm_from_json(json.dumps(doc))

    def test_tampered_start_entry_rejected(self):
        fact = normalize_condition("Server banner exposed")
        text = fsm_to_json(Fsm(site="", findings=(), facts=(fact,)))
        tampers = [
            lambda start, facts: start["postconditions"].append(
                {"condition": "extra", "false_positive": False}),
            lambda start, facts: start["postconditions"][0].update(false_positive=True),
            lambda start, facts: start["preconditions"].append(
                {"condition": "x", "requires_user_action": False}),
            lambda start, facts: start.update(is_goal=True),
            lambda start, facts: start.update(is_goal=0),
            lambda start, facts: start["postconditions"][0].update(false_positive=0.0),
            lambda start, facts: start.update(label="S9"),
            lambda start, facts: facts.append("another fact"),
        ]
        for tamper in tampers:
            doc = json.loads(text)
            tamper(doc["states"][0], doc["environment_facts"])
            with pytest.raises(SchemaViolation,
                               match=r"states\[0\]: start entry does not match the start "
                                     "state of environment_facts"):
                fsm_from_json(json.dumps(doc))

    def test_bad_site_reported_before_a_tampered_start_entry(self):
        doc = json.loads(fsm_to_json(Fsm(site="", findings=(), facts=())))
        doc["states"][0]["is_goal"] = True
        doc["site"] = 7
        with pytest.raises(SchemaViolation, match=r"^\$: field 'site' must be str$"):
            fsm_from_json(json.dumps(doc))

    def test_second_start_entry_rejected(self, minimal_fsm):
        doc = json.loads(fsm_to_json(minimal_fsm))
        doc["states"][1]["is_start"] = True
        with pytest.raises(SchemaViolation, match="exactly one start state, found 2"):
            fsm_from_json(json.dumps(doc))

    def test_unknown_field_rejected(self, minimal_fsm):
        doc = json.loads(fsm_to_json(minimal_fsm))
        doc["states"][2]["producers"] = []
        with pytest.raises(SchemaViolation, match=r"states\[2\]: unknown fields: producers"):
            fsm_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key, flag", [("preconditions", "requires_user_action"),
                                           ("postconditions", "false_positive")])
    @pytest.mark.parametrize("tamper", sorted(REPEATED_REF_TAMPERS))
    def test_tampered_repeat_of_a_checked_ref_rejected(self, key, flag, tamper):
        """A ref entry that repeats one already loaded from the same file is
        checked in full: tampering with only its later occurrence is caught
        at that occurrence's path, with the message of a first occurrence."""
        fsm = fsm_of(single_finding("A", "/a", pres=("alpha", "shared"),
                                    posts=("beta", "granted")),
                     single_finding("B", "/b", pres=("shared",), posts=("granted",)))
        doc = json.loads(fsm_to_json(fsm))
        text = "shared" if key == "preconditions" else "granted"
        i, j = [(i, j) for i, entry in enumerate(doc["states"])
                for j, ref in enumerate(entry[key]) if ref["condition"] == text][-1]
        change, message = REPEATED_REF_TAMPERS[tamper]
        change(doc["states"][i][key][j], flag)
        with pytest.raises(SchemaViolation) as caught:
            fsm_from_json(json.dumps(doc))
        assert (i, j) == (2, 1)
        assert str(caught.value) == f"states[{i}].{key}[{j}]: {message.format(flag=flag)}"


class TestToReport:
    def test_vulnweb_unreachable_goal_diagnostics(self, vulnweb_fsm):
        result = reach(vulnweb_fsm)
        report = to_report(vulnweb_fsm, result)
        labels = labels_of(vulnweb_fsm)
        unreachable = {labels[g["state"]]: g for g in report.unreachable_goals}
        assert set(unreachable) == {"S7"}
        missing = unreachable["S7"]["missing_conditions"]
        assert "user fills up the login form on the third-party web page." in missing
        assert "user redirected to a third-party web page." in missing

    def test_missing_conditions_match_the_reference_on_a_random_corpus(self):
        """An assumption meets only user-action preconditions, so a condition
        a goal needs as an ordinary precondition is missing until a visited
        state grants it, assumed or not. The fixed point is closed, so each
        goal it leaves unreachable misses at least one condition."""
        rng = random.Random(29)
        assumed_but_missing = 0
        for _ in range(1000):
            fsm = machine_of(random_finding_set(rng))
            assumptions = random_assumptions(rng, fsm)
            assumed = assumptions.granted_user_actions
            closed, _ = closure_by_exhaustion(fsm, assumed)
            for semantics in Semantics:
                result = reach(fsm, ReachParams(semantics, assumptions))
                granted = granted_by_visited(
                    fsm, closed if semantics is Semantics.FIXED_POINT else result.visited)
                for goal in to_report(fsm, result).unreachable_goals:
                    missing = goal["missing_conditions"]
                    assert missing == reference_missing_conditions(
                        fsm, goal["state"], granted, assumed)
                    if semantics is Semantics.FIXED_POINT:
                        assert missing
                    assumed_but_missing += bool(assumed.intersection(missing))
        assert assumed_but_missing

    def test_step_grants_match_the_machine_on_a_random_corpus(self):
        """Each step entry's grants are its state's non-false-positive
        postconditions, by id, read here from the refs themselves."""
        rng = random.Random(17)
        entries = false_positives_left_out = 0
        for _ in range(1000):
            fsm = machine_of(random_finding_set(rng, 10, 15))
            assumptions = random_assumptions(rng, fsm)
            for semantics in Semantics:
                report = to_report(fsm, reach(fsm, ReachParams(semantics, assumptions)))
                for witness in report.witnesses:
                    for step in witness["steps"]:
                        refs = fsm.by_id[step["state"]].postconditions
                        assert step["grants"] == sorted(
                            r.condition.id for r in refs if not r.false_positive)
                        entries += 1
                        false_positives_left_out += any(r.false_positive for r in refs)
        assert entries and false_positives_left_out

    def test_paper_dfs_goal_blocked_by_scan_order_misses_nothing(self):
        """The descent scans ``G`` before ``P`` grants what ``G`` needs, so
        ``G`` stays unreachable with every precondition met."""
        goal = single_finding("G", "/g", pres=("c",), is_goal=True, label="S1")
        producer = single_finding("P", "/p", posts=("c",), label="S2")
        assert goal.id < producer.id
        fsm = fsm_of(goal, producer)
        report = to_report(fsm, reach(fsm, ReachParams(Semantics.PAPER_DFS)))
        assert report.unreachable_goals == [
            {"state": goal.id, "label": "S1", "missing_conditions": []}]
        assert to_report(fsm, reach(fsm)).reachable_goals == [goal.id]

    def test_reachable_plus_unreachable_covers_all_goals(self, vulnweb_fsm):
        report = to_report(vulnweb_fsm, reach(vulnweb_fsm))
        goals = set(report.reachable_goals) | {g["state"] for g in report.unreachable_goals}
        assert goals == set(vulnweb_fsm.goal_ids)
        assert report.fsm["goals"] == 3

    def test_teacher_witness_length(self, teacher_fsm):
        result = reach(teacher_fsm)
        (goal,) = collect_goals(result, teacher_fsm)
        report = to_report(
            teacher_fsm, result, {goal: extract_witness(teacher_fsm, result, goal)})
        assert [w["goal"] for w in report.witnesses] == [goal]
        assert len(report.witnesses[0]["steps"]) >= 4

    def test_witnesses_are_those_extracted_per_reached_goal(self):
        """With no map, the report holds what ``extract_witness`` gives for
        each reached goal, as a map of them gives it, on a fresh result."""
        rng = random.Random(31)
        cases = []
        for name in ("minimal", "vulnweb", "teacher"):
            fsm = load_fsm(name)
            cases += [(fsm, AssumptionSet()), (fsm, AssumptionSet(fsm.user_action_condition_ids))]
        for _ in range(1000):
            fsm = machine_of(random_finding_set(rng))
            cases.append((fsm, random_assumptions(rng, fsm)))
        witnesses = 0
        for fsm, assumptions in cases:
            for semantics in Semantics:
                params = ReachParams(semantics, assumptions)
                result = reach(fsm, params)
                extracted = {goal: extract_witness(fsm, result, goal)
                             for goal in sorted(collect_goals(result, fsm))}
                expected = report_to_json(to_report(fsm, result, extracted))
                report = to_report(fsm, reach(fsm, params))
                assert report_to_json(report) == expected
                assert [w["goal"] for w in report.witnesses] == report.reachable_goals
                witnesses += len(report.witnesses)
        assert witnesses > 1000

    def test_witness_map_must_name_exactly_the_reached_goals(self, vulnweb_fsm):
        result = reach(vulnweb_fsm)
        reached = sorted(collect_goals(result, vulnweb_fsm))
        (unreached,) = vulnweb_fsm.goal_ids - set(reached)
        paths = {goal: extract_witness(vulnweb_fsm, result, goal) for goal in reached}
        assert len(reached) == 2
        # With a goal missing and one not reached, the lower id is named.
        first = min(reached[0], unreached)
        for witnesses, goal, fault in [
            ({}, reached[0], "missing"),
            ({reached[0]: paths[reached[0]]}, reached[1], "missing"),
            ({**paths, unreached: paths[reached[0]]}, unreached, "not reached"),
            ({reached[1]: paths[reached[1]], unreached: paths[reached[1]]},
             first, "missing" if first == reached[0] else "not reached"),
        ]:
            with pytest.raises(ValueError) as caught:
                to_report(vulnweb_fsm, result, witnesses)
            assert str(caught.value) == f"witnesses: goal {goal!r} is {fault}"

    def test_empty_machine_report(self):
        fsm = Fsm(site="", findings=(), facts=())
        report = to_report(fsm, reach(fsm))
        assert report.fsm["states"] == 0
        assert report.fsm["goals"] == 0
        assert report.reachable_states == ["start"]

    def test_isolation_diff_included(self, teacher_fsm):
        report = to_report(teacher_fsm, reach(teacher_fsm))
        assert report.isolated_goals == []
        assert len(report.chained_goals) == 1
        assert report.chained_only_goals == report.chained_goals

    def test_edge_count_matches_the_edges_on_a_random_corpus(self):
        rng = random.Random(11)
        for _ in range(1000):
            fsm = machine_of(random_finding_set(rng))
            assert fsm.edge_count == len(fsm.edges) + len(fsm.unconditional_start_targets)

    @pytest.mark.parametrize("name", ["minimal", "vulnweb", "teacher"])
    def test_loaded_machine_reports_without_listing_its_edges(self, name):
        fsm = fsm_from_json((GOLDEN / name / "machine.json").read_bytes())
        report = to_report(fsm, reach(fsm))
        assert "edges" not in fsm.__dict__
        golden = json.loads((GOLDEN / name / "report.json").read_bytes())
        assert report.fsm["edges"] == golden["fsm"]["edges"]
        dot = to_dot(fsm)
        assert "edges" not in fsm.__dict__
        assert dot == (GOLDEN / name / "machine.dot").read_text(encoding="utf-8")

    @pytest.mark.parametrize("fixture", ["minimal_fsm", "vulnweb_fsm", "teacher_fsm"])
    def test_result_used_with_the_reloaded_machine(self, fixture, request):
        """The machine its file loads gives, from its own result, the same
        report and DOT bytes as the original; a result of one used with the
        other raises."""
        fsm = request.getfixturevalue(fixture)
        reloaded = fsm_from_json(fsm_to_json(fsm))
        assert reloaded is not fsm
        params = ReachParams(assumptions=AssumptionSet(fsm.user_action_condition_ids))
        result, reloaded_result = reach(fsm, params), reach(reloaded, params)

        def outputs(machine, result):
            witnesses = {goal: extract_witness(machine, result, goal)
                         for goal in sorted(collect_goals(result, machine))}
            return report_to_json(to_report(machine, result, witnesses)), to_dot(machine, result)

        assert outputs(reloaded, reloaded_result) == outputs(fsm, result)
        for machine, other_result in ((fsm, reloaded_result), (reloaded, result)):
            with pytest.raises(ResultFsmMismatch):
                to_report(machine, other_result)
            with pytest.raises(ResultFsmMismatch):
                to_dot(machine, other_result)

    def test_assumptions_echoed(self, vulnweb_fsm):
        assumed = frozenset(vulnweb_fsm.user_action_condition_ids)
        result = reach(vulnweb_fsm, ReachParams(assumptions=AssumptionSet(assumed)))
        report = to_report(vulnweb_fsm, result)
        assert report.assumptions == sorted(assumed)
        assert report.semantics == "fixed-point"


class TestConditionRelationOracle:
    def test_warnings_and_dot_match_the_reference_on_a_random_corpus(self):
        """Seeded machines, some with punctuation near-misses and uncrawled
        URIs: the build warnings and both DOT exports match the standalone
        reference derivations in ``tests.helpers``."""
        rng = random.Random(20261018)
        near_misses = diagnosed = 0
        for _ in range(1000):
            fs = random_finding_set(rng, punctuation_variants=True)
            crawled = frozenset({"/"} | {f.uri.canonical for f in fs.findings if rng.random() < 0.7})
            fsm = build_fsm(fs, crawled)
            assert fsm.warnings == reference_build_warnings(fs, fsm)
            near_misses += any("differ only in punctuation" in w for w in fsm.warnings)
            diagnosed += bool(fsm.diagnostics)
            result = reach(fsm, ReachParams(assumptions=random_assumptions(rng, fsm)))
            assert to_dot(fsm) == reference_to_dot(fsm)
            assert to_dot(fsm, result) == reference_to_dot(fsm, result)
        assert near_misses > 100 and diagnosed > 100

    def test_dot_matches_the_reference_on_hostile_text(self):
        """Condition texts with ``"`` and ``\\``, as source points, sinks and
        edge labels, and vulnerability names and labels that add a newline:
        both DOT exports escape them as the reference does."""
        rng = random.Random(20261020)
        sources = sinks = 0
        for _ in range(1000):
            fsm = machine_of(random_finding_set(rng, hostile_text=True))
            result = reach(fsm, ReachParams(assumptions=random_assumptions(rng, fsm)))
            dot = to_dot(fsm)
            assert dot == reference_to_dot(fsm)
            assert to_dot(fsm, result) == reference_to_dot(fsm, result)
            sources += dot.count('"in:c')
            sinks += dot.count('"out:c')
        assert sources > 1000 and sinks > 1000


class TestReportSerialization:
    def test_round_trip(self, vulnweb_fsm):
        result = reach(vulnweb_fsm)
        witnesses = {
            g: extract_witness(vulnweb_fsm, result, g)
            for g in collect_goals(result, vulnweb_fsm)
        }
        report = to_report(vulnweb_fsm, result, witnesses)
        assert report_from_json(report_to_json(report)) == report

    @pytest.mark.parametrize("golden", GOLDEN_REPORTS, ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_golden_round_trip(self, golden):
        data = golden.read_bytes()
        assert report_to_json(report_from_json(data)).encode("utf-8") == data

    def test_report_path_leaves_nothing_for_the_cyclic_collector(self, vulnweb_fsm):
        """The console script turns the cyclic collector off, so the
        witnesses, the report and its text must be freed by reference
        counts alone."""
        result, fresh = reach(vulnweb_fsm), reach(vulnweb_fsm)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            witnesses = {g: extract_witness(vulnweb_fsm, result, g)
                         for g in collect_goals(result, vulnweb_fsm)}
            report_to_json(to_report(vulnweb_fsm, result, witnesses))
            del witnesses
            report_to_json(to_report(vulnweb_fsm, fresh))
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_fields_are_the_file_keys(self):
        doc = json.loads((GOLDEN / "vulnweb" / "report.json").read_bytes())
        assert {f.name for f in fields(AnalysisReport)} == set(doc) - {"format_version"}

    def test_deterministic(self, teacher_fsm):
        report = to_report(teacher_fsm, reach(teacher_fsm))
        assert report_to_json(report) == report_to_json(report)

    def test_bad_version(self):
        with pytest.raises(SchemaViolation, match="^format_version: unsupported report "
                                                  "format_version 0; expected 1$"):
            report_from_json('{"format_version": 0}')

    @given(JSON_VALUES)
    @example("plain ascii")
    @example("caf\xe9 \u2028 \U0001f600")
    @example('say "hi" \\ there\n')
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_writer_matches_indented_json_dumps(self, value):
        assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("place", [
        lambda v: [v, v, "x", v],
        lambda v: {"a": v, "b": [v, [v]], "c": {"d": {"e": v}}},
        lambda v: [{"k": v, "l": [v]}, v, ({"m": v},)],
    ], ids=["one depth", "several depths", "in a list and in a dict"])
    @pytest.mark.parametrize("shared", [
        {"state": "s1", "label": None, "grants": ["a", "b"]},
        [1, ["a", {"b": True}], {}],
        {}, [], ("t", ("u",)),
    ], ids=["step", "nested list", "empty dict", "empty list", "tuple"])
    def test_writer_matches_indented_json_dumps_on_a_repeated_object(self, place, shared):
        value = place(shared)
        assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    @given(JSON_VALUES)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_writer_matches_indented_json_dumps_with_a_value_repeated(self, v):
        value = [v, v, {"k": v}]
        assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [1.5, {1: "a"}, {"a": {2, 3}}, [b"x"]], ids=repr)
    def test_writer_rejects_other_types(self, value):
        with pytest.raises(TypeError):
            _json_text(value)

    def test_writer_matches_indented_json_dumps_on_a_random_corpus(self):
        rng = random.Random(13)
        for _ in range(1000):
            fsm = machine_of(random_finding_set(rng))
            result = reach(fsm, ReachParams(assumptions=random_assumptions(rng, fsm)))
            witnesses = {g: extract_witness(fsm, result, g) for g in collect_goals(result, fsm)}
            report = to_report(fsm, result, witnesses)
            doc = {"format_version": 1, **vars(report)}
            assert report_to_json(report) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("name", ["minimal", "vulnweb", "teacher"])
    def test_writer_never_reaches_the_pure_python_encoder(self, name, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("json.encoder._make_iterencode called")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        with pytest.raises(AssertionError):
            json.dumps([], indent=2)
        for golden in sorted((GOLDEN / name).glob("report*.json")):
            data = golden.read_bytes()
            assert report_to_json(report_from_json(data)).encode("utf-8") == data
