"""The read side does work that scales with the machine, not with repeats.

Wall time on a shared host is too noisy to gate on, so work is counted
instead. The fixed-point closure is linear in states plus edges: every
state it reads from ``fsm.non_start_states``, every precondition ref it
iterates, every consumer entry it reads from ``fsm.consumers`` and every
heap push is counted. The counters are installed on one built machine,
after its indices are derived, so only the closure is counted. The bound is
one constant for every shape and size; a closure that rescans states it has
already visited, or a consumer's preconditions on every grant, exceeds it
already at the smallest size.

One walk over the refs derives the condition indexes, reading each ref
once. The witnesses of one result read its firing order once in all and
never the machine's producers, and a result used with the machine it was
computed on is checked by identity alone. However many goals' paths pass
through a state, the witnesses build its step once, the report builds
one entry for it and the report writer quotes at most four strings per
state plus edge. Loading a machine file or a findings document
normalizes each distinct condition text and builds each distinct ref
once, type-checks through the loader's helpers only the document-level
fields and the distinct texts, and splits no URI that is already
canonical, absolute or not. Loading a machine file derives each state's
id once and sorts no ref list that the file stores in ascending order,
and writing one builds no dict per state or per ref. Each record stores
each of its fields once.
"""

import dataclasses
import dis
import functools
import heapq
import importlib
import json
import sys
import types
from collections.abc import Mapping
from pathlib import Path

import pytest

from vulnchain import (
    AssumptionSet,
    AttackState,
    Condition,
    Fsm,
    NormalizedUri,
    PostconditionRef,
    PreconditionRef,
    ReachParams,
    Semantics,
    collect_goals,
    extract_witness,
    fsm_from_json,
    fsm_to_json,
    isolated_goals,
    parse_crawl_list,
    parse_findings,
    reach,
    report_to_json,
    to_report,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
SIZES = (1_000, 4_000, 16_000)
#: Counted operations allowed per state plus edge.
BOUND = 4


class Counter:
    def __init__(self) -> None:
        self.n = 0


class CountingTuple(tuple):
    """A tuple that counts every item an iteration over it yields."""

    def __new__(cls, items, counter: Counter):
        self = super().__new__(cls, items)
        self.counter = counter
        return self

    def __iter__(self):
        for item in tuple.__iter__(self):
            self.counter.n += 1
            yield item


class CountingMapping(Mapping):
    """A read-only mapping that counts the entries of every value read."""

    def __init__(self, data, counter: Counter) -> None:
        self._data = data
        self._counter = counter

    def __getitem__(self, key):
        value = self._data[key]
        self._counter.n += len(value)
        return value

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)


@functools.cache  # one object per condition within a machine
def _cond(name: str) -> Condition:
    return Condition(id=name, label=name)


def _state(i: int, pres=(), ua_pres=(), posts=(), fp_posts=(), is_goal=False) -> AttackState:
    return AttackState(
        vulnerability_name=f"v{i}",
        uri=NormalizedUri(raw=f"/r{i}", canonical=f"/r{i}"),
        preconditions=tuple(PreconditionRef(_cond(c)) for c in pres)
        + tuple(PreconditionRef(_cond(c), requires_user_action=True) for c in ua_pres),
        postconditions=tuple(PostconditionRef(_cond(c)) for c in posts)
        + tuple(PostconditionRef(_cond(c), false_positive=True) for c in fp_posts),
        is_goal=is_goal,
    )


def chain(n: int):
    """State i needs ``c{i}`` and grants ``c{i+1}``; ``c0`` is a fact.
    State ids are hashes, so the chain runs in no relation to id order."""
    states = [_state(i, pres=(f"c{i}",), posts=(f"c{i + 1}",)) for i in range(n)]
    return Fsm(site="", findings=states, facts=[_cond("c0")]), AssumptionSet()


def fan_out(n: int):
    """One root grants ``hub``; n - 2 leaves need it and grant ``g{i}`` and
    ``u{i}``; one sink needs every ``g{i}`` and, as an assumed user action,
    every ``u{i}``."""
    leaves = range(1, n - 1)
    states = [_state(0, posts=("hub",))]
    states += [_state(i, pres=("hub",), posts=(f"g{i}", f"u{i}")) for i in leaves]
    states.append(_state(
        n - 1, pres=[f"g{i}" for i in leaves], ua_pres=[f"u{i}" for i in leaves]))
    return Fsm(site="", findings=states, facts=()), AssumptionSet(frozenset(f"u{i}" for i in leaves))


def blocked(n: int):
    """Every tenth state is a link of a chain that fires; each other state
    needs a chain condition and a condition nothing grants."""
    states = []
    for i in range(n):
        link = i // 10
        if i % 10 == 0:
            states.append(_state(i, pres=(f"c{link}",), posts=(f"c{link + 1}",)))
        else:
            states.append(_state(i, pres=(f"c{link}", f"never{i}"), posts=(f"d{i}",)))
    return Fsm(site="", findings=states, facts=[_cond("c0")]), AssumptionSet()


def count_closure_work(fsm, assumptions, monkeypatch) -> int:
    """Run the fixed-point closure on ``fsm`` and return its counted work."""
    counter = Counter()
    # Derive every index reach reads before counting starts.
    for name in ("by_id", "consumers", "initial_conditions", "user_action_condition_ids"):
        getattr(fsm, name)
    fsm.__dict__["non_start_states"] = CountingTuple(fsm.non_start_states, counter)
    fsm.__dict__["consumers"] = CountingMapping(fsm.consumers, counter)
    for state in fsm.states:
        object.__setattr__(state, "preconditions", CountingTuple(state.preconditions, counter))

    def heappush(heap, item):
        counter.n += 1
        heapq.heappush(heap, item)

    counting_heapq = types.SimpleNamespace(heappush=heappush, heappop=heapq.heappop)
    reach_module = importlib.import_module("vulnchain.reach")
    monkeypatch.setattr(reach_module, "heapq", counting_heapq, raising=False)
    reach(fsm, ReachParams(assumptions=assumptions))
    return counter.n


@pytest.mark.parametrize("shape", [chain, fan_out, blocked], ids=lambda f: f.__name__)
def test_closure_work_is_linear_in_states_plus_edges(shape, monkeypatch):
    for n in SIZES:
        fsm, assumptions = shape(n)
        _cond.cache_clear()
        size = len(fsm.states) + len(fsm.edges)
        work = count_closure_work(fsm, assumptions, monkeypatch)
        assert work <= BOUND * size, (
            f"{shape.__name__} at {n} states: {work} operations for "
            f"{size} states + edges ({work / size:.2f} each, bound {BOUND})")


class Refusing(Mapping):
    """A mapping that fails the test on any read."""

    def __getitem__(self, key):
        raise AssertionError(f"read {key!r}")

    def __iter__(self):
        raise AssertionError("iterated")

    def __len__(self):
        raise AssertionError("sized")


def test_index_walk_reads_each_ref_once():
    states = [_state(i, pres=(f"c{i % 7}",), ua_pres=(f"u{i % 3}",),
                     posts=(f"c{(i + 1) % 7}",), fp_posts=(f"f{i % 5}",))
              for i in range(4_000)]
    fsm = Fsm(site="", findings=states, facts=[_cond("c0")])
    _cond.cache_clear()
    counter = Counter()
    refs = 0
    for state in fsm.states:
        for name in ("preconditions", "postconditions"):
            refs += len(getattr(state, name))
            object.__setattr__(state, name, CountingTuple(getattr(state, name), counter))
    for name in ("condition_ids", "producers", "consumers", "edge_count"):
        getattr(fsm, name)
    assert counter.n <= refs, f"{counter.n} ref reads for {refs} refs"
    assert fsm.edge_count == len(fsm.edges) + len(fsm.unconditional_start_targets)


@pytest.mark.parametrize("semantics", list(Semantics), ids=lambda s: s.value)
def test_witnesses_never_read_the_producers(semantics):
    states = [_state(i, pres=(f"c{i % 7}",), ua_pres=(f"u{i % 3}",),
                     posts=(f"c{(i + 1) % 7}",), is_goal=i % 10 == 9)
              for i in range(1_000)]
    fsm = Fsm(site="", findings=states, facts=[_cond("c0")])
    _cond.cache_clear()
    result = reach(fsm, ReachParams(semantics, AssumptionSet(frozenset({"u0", "u1", "u2"}))))
    fsm.__dict__["producers"] = Refusing()
    goals = sorted(collect_goals(result, fsm))
    assert goals
    steps = [len(extract_witness(fsm, result, goal).steps) for goal in goals]
    assert max(steps) >= 3


def test_a_result_of_the_same_machine_is_checked_by_identity(monkeypatch):
    """The machine check compares no machine and no state when the result
    was computed on the very machine given, and ``collect_goals`` then reads
    nothing of it but the goal ids."""
    states = [_state(i, pres=(f"c{i}",), posts=(f"c{i + 1}",), is_goal=i % 100 == 99)
              for i in range(4_000)]
    fsm = Fsm(site="", findings=states, facts=[_cond("c0")])
    _cond.cache_clear()
    result = reach(fsm)
    expected = result.visited & fsm.goal_ids
    isolated = isolated_goals(fsm, result)

    def refuse(self, other):
        raise AssertionError(f"compared a {type(self).__name__}")

    monkeypatch.setattr(Fsm, "__eq__", refuse)
    monkeypatch.setattr(AttackState, "__eq__", refuse)
    assert isolated_goals(fsm, result) == isolated
    fsm.__dict__["by_id"] = Refusing()
    assert collect_goals(result, fsm) == expected and len(expected) == 40


def test_witnesses_read_the_firing_order_once():
    n = 4_000
    states = [_state(i, pres=(f"c{i}",), posts=(f"c{i + 1}",), is_goal=i % 100 == 99)
              for i in range(n)]
    fsm = Fsm(site="", findings=states, facts=[_cond("c0")])
    _cond.cache_clear()
    counter = Counter()
    result = reach(fsm)
    result = dataclasses.replace(
        result, firing_order=CountingTuple(result.firing_order, counter))
    goals = sorted(collect_goals(result, fsm))
    assert len(goals) == n // 100
    for goal in goals:
        extract_witness(fsm, result, goal)
    assert counter.n <= len(result.firing_order), (
        f"{len(goals)} witnesses read {counter.n} firing-order entries "
        f"of {len(result.firing_order)}")


def _counting(make, counter: Counter):
    def counted(*args, **kwargs):
        counter.n += 1
        return make(*args, **kwargs)
    return counted


def _repeated_ref_machine() -> tuple[str, dict, set, set]:
    """2,000 states draw their refs from seven conditions, three user
    actions and five false positives, so nearly every ref repeats one seen
    earlier in the file. Returns the machine file, its document, and its
    distinct (list, text, flag) triples and texts."""
    states = [_state(i, pres=(f"c{i % 7}",), ua_pres=(f"u{i % 3}",),
                     posts=(f"c{(i + 1) % 7}",), fp_posts=(f"f{i % 5}",))
              for i in range(2_000)]
    text = fsm_to_json(Fsm(site="", findings=states, facts=[_cond("c0")]))
    _cond.cache_clear()
    doc = json.loads(text)
    flags = {"preconditions": "requires_user_action", "postconditions": "false_positive"}
    triples = {(key, ref["condition"], ref[flag])
               for entry in doc["states"] if not entry["is_start"]
               for key, flag in flags.items() for ref in entry[key]}
    return text, doc, triples, {cond for _, cond, _ in triples}


def _findings_document(doc: dict) -> str:
    """The findings document of the states of machine document ``doc``."""
    return json.dumps({
        "site": doc["site"], "environment_facts": doc["environment_facts"],
        "findings": [{k: v for k, v in entry.items() if k not in ("id", "is_start")}
                     for entry in doc["states"] if not entry["is_start"]]})


def _count_checks(monkeypatch) -> Counter:
    """Count the calls of ``_typed``, the loaders' type check, which ``_get``
    calls too; the machine and findings loaders both live in ``ingest``."""
    ingest_module = importlib.import_module("vulnchain.ingest")
    checks = Counter()
    monkeypatch.setattr(ingest_module, "_typed", _counting(ingest_module._typed, checks))
    return checks


def _count_reads(monkeypatch) -> tuple[Counter, Counter]:
    """Count condition normalizations and ref constructions in the reader."""
    ingest_module = importlib.import_module("vulnchain.ingest")
    normalized, constructed = Counter(), Counter()
    monkeypatch.setattr(ingest_module, "normalize_condition",
                        _counting(ingest_module.normalize_condition, normalized))
    for name in ("PreconditionRef", "PostconditionRef"):
        monkeypatch.setattr(ingest_module, name,
                            _counting(getattr(ingest_module, name), constructed))
    return normalized, constructed


def test_machine_load_work_scales_with_distinct_refs(monkeypatch):
    text, doc, triples, texts = _repeated_ref_machine()
    normalized, constructed = _count_reads(monkeypatch)
    loaded = fsm_from_json(text)

    assert fsm_to_json(loaded) == text
    assert normalized.n <= len(texts) + len(doc["environment_facts"]), (
        f"{normalized.n} normalizations for {len(texts)} distinct texts")
    assert constructed.n <= len(triples), (
        f"{constructed.n} refs built for {len(triples)} distinct refs")


@pytest.mark.parametrize("name", ["repeated", "minimal", "vulnweb", "teacher"])
def test_machine_load_checks_scale_with_fields_and_texts(name, monkeypatch):
    """Each state's fields pass ``_get``'s exact-type test; only the
    document-level fields, each fact and note, and each distinct condition
    text go through ``_typed``."""
    if name == "repeated":
        text, doc, _, texts = _repeated_ref_machine()
    else:
        text = (GOLDEN / name / "machine.json").read_text()
        doc = json.loads(text)
        texts = {ref["condition"] for entry in doc["states"] if not entry["is_start"]
                 for key in ("preconditions", "postconditions") for ref in entry[key]}
    checks = _count_checks(monkeypatch)
    loaded = fsm_from_json(text)

    assert fsm_to_json(loaded) == text
    bound = len(doc) + len(doc["environment_facts"]) + len(doc["diagnostics"]) + len(texts)
    assert checks.n <= bound, (
        f"{checks.n} type checks for {len(doc['states'])} states, bound {bound}")


def test_findings_parse_work_scales_with_distinct_refs(monkeypatch):
    """The findings document of the same 2,000 states is read as cheaply."""
    text, doc, triples, texts = _repeated_ref_machine()
    findings = _findings_document(doc)
    expected = fsm_from_json(text).non_start_states
    normalized, constructed = _count_reads(monkeypatch)
    checks = _count_checks(monkeypatch)
    parsed = parse_findings(findings)

    assert checks.n <= 3 + len(doc["environment_facts"]) + len(texts), (
        f"{checks.n} type checks for {len(texts)} distinct texts")
    assert normalized.n <= len(texts) + len(doc["environment_facts"]), (
        f"{normalized.n} normalizations for {len(texts)} distinct texts")
    assert constructed.n <= len(triples), (
        f"{constructed.n} refs built for {len(triples)} distinct refs")
    assert parsed.findings == expected


def test_canonical_uris_never_reach_the_general_path(monkeypatch):
    """A URI already in canonical form is its own canonical, and one after
    a plain ``scheme://host:port`` has its path as canonical: loading the
    machine file, the findings document and a crawl list of such URIs
    splits and percent-decodes none of them."""
    text, doc, _, _ = _repeated_ref_machine()
    findings = _findings_document(doc)
    crawl = "".join(f"/d{i}/r{i}\n" for i in range(2_000))
    absolute_doc = json.loads(findings)
    for entry in absolute_doc["findings"]:
        entry["uri"] = f"http://h.example:8080{entry['uri']}"
    absolute_crawl = "".join(f"http://h.example:8080/d{i}/r{i}\n" for i in range(2_000))

    def general_path(*args, **kwargs):
        raise AssertionError("a canonical URI took the general path")

    model_module = importlib.import_module("vulnchain.model")
    monkeypatch.setattr(model_module, "urlsplit", general_path)
    monkeypatch.setattr(model_module, "unquote", general_path)
    loaded = fsm_from_json(text)
    assert fsm_to_json(loaded) == text
    assert parse_findings(findings).findings == loaded.non_start_states
    assert len(parse_crawl_list(crawl)) == 1 + 2 * 2_000
    absolute = parse_findings(json.dumps(absolute_doc)).findings
    assert absolute == loaded.non_start_states
    assert [s.uri.raw for s in absolute] == [f"http://h.example:8080{s.uri.raw}"
                                             for s in loaded.non_start_states]
    assert parse_crawl_list(absolute_crawl) == parse_crawl_list(crawl)


def test_machine_load_derives_each_state_id_once(monkeypatch):
    text, doc, _, _ = _repeated_ref_machine()
    model_module = importlib.import_module("vulnchain.model")
    derived = Counter()
    monkeypatch.setattr(model_module, "state_id", _counting(model_module.state_id, derived))
    loaded = fsm_from_json(text)
    assert derived.n == len(loaded.non_start_states) == len(doc["states"]) - 1


def _count_ref_sorts(monkeypatch) -> Counter:
    """Count the ``sorted`` calls of :mod:`vulnchain.model` on a list of
    refs; the machine's own sorts of states and condition ids are not
    counted."""
    model_module = importlib.import_module("vulnchain.model")
    sorts = Counter()
    ref_types = (PreconditionRef, PostconditionRef)

    def counting_sorted(items, **kwargs):
        items = list(items)
        if items and isinstance(items[0], ref_types):
            sorts.n += 1
        return sorted(items, **kwargs)

    monkeypatch.setattr(model_module, "sorted", counting_sorted, raising=False)
    return sorts


def test_machine_load_sorts_no_ascending_ref_list(monkeypatch):
    """The file stores each ref list in id order, and the loader takes it
    as it is; a list stored out of order is still sorted, once."""
    text, doc, _, _ = _repeated_ref_machine()
    sorts = _count_ref_sorts(monkeypatch)
    loaded = fsm_from_json(text)
    assert sorts.n == 0
    assert fsm_to_json(loaded) == text

    entry = doc["states"][1]
    assert len(entry["preconditions"]) >= 2
    entry["preconditions"].reverse()
    assert fsm_to_json(fsm_from_json(json.dumps(doc))) == text
    assert sorts.n == 1


#: Opcodes that build or fill a dict.
_DICT_OPCODES = frozenset(dis.opmap[name] for name in (
    "BUILD_MAP", "BUILD_CONST_KEY_MAP", "DICT_MERGE", "DICT_UPDATE", "MAP_ADD")
    if name in dis.opmap)


def _count_dicts_built(call) -> tuple:
    """``(call(), the dict-building opcodes run by Python code within it)``,
    from an opcode trace."""
    built = Counter()
    offsets: dict = {}

    def trace(frame, event, arg):
        frame.f_trace_opcodes = True
        if event == "opcode":
            code = frame.f_code
            if code not in offsets:
                offsets[code] = {i.offset: i.opcode for i in dis.get_instructions(code)}
            if offsets[code].get(frame.f_lasti) in _DICT_OPCODES:
                built.n += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, built.n


def test_records_store_each_field_once():
    """Each per-state record is built by its own ``__init__``, which stores
    each field through its slot once: there is no ``__post_init__`` storing
    fields a second time, and no ``__setattr__`` by name."""
    for cls in (Condition, NormalizedUri, PreconditionRef, PostconditionRef, AttackState):
        assert not hasattr(cls, "__post_init__"), cls.__name__
        assert "__setattr__" not in cls.__init__.__code__.co_names, cls.__name__


def test_machine_write_builds_no_dict_per_state_or_ref():
    """The writer puts each entry's text together directly; the counter
    itself is checked on a call that builds one dict per state."""
    text, doc, _, _ = _repeated_ref_machine()
    fsm = fsm_from_json(text)
    states = len(fsm.states)
    written, built = _count_dicts_built(lambda: fsm_to_json(fsm))
    assert written == text
    assert built < states, f"{built} dicts built for {states} states"
    _, control = _count_dicts_built(lambda: [{"id": s.id} for s in fsm.states])
    assert control == states


def _goal_chain(n: int) -> Fsm:
    """The chain of ``test_witnesses_read_the_firing_order_once``: every
    100th state a goal, so each state lies on the path of every later goal."""
    states = [_state(i, pres=(f"c{i}",), posts=(f"c{i + 1}",), is_goal=i % 100 == 99)
              for i in range(n)]
    fsm = Fsm(site="", findings=states, facts=[_cond("c0")])
    _cond.cache_clear()
    return fsm


@pytest.mark.parametrize("n", SIZES[:2])
def test_each_witness_step_is_built_and_written_once_per_state(n, monkeypatch):
    """The witnesses read no state's grants, the report reads them once and
    builds one step entry per distinct state, and the writer quotes a
    bounded number of strings per state plus edge, however many goals'
    paths share a state."""
    fsm = _goal_chain(n)
    result = reach(fsm)
    grants_read = Counter()
    counted_grants = _counting(AttackState.granted_condition_ids, grants_read)
    monkeypatch.setattr(AttackState, "granted_condition_ids", counted_grants)
    witnesses = {goal: extract_witness(fsm, result, goal)
                 for goal in collect_goals(result, fsm)}
    assert len(witnesses) == n // 100
    assert grants_read.n == 0, f"grants read {grants_read.n} times to extract the witnesses"
    distinct = {sid for path in witnesses.values() for sid in path.steps}
    to_report(fsm, result, witnesses)
    assert grants_read.n <= len(distinct), (
        f"grants read {grants_read.n} times for {len(distinct)} distinct steps")

    # The counting wrapper's ``**kwargs`` is a dict of its own, so the
    # report's dicts are counted with the original method back in place.
    monkeypatch.undo()
    report, dicts = _count_dicts_built(lambda: to_report(fsm, result, witnesses))
    # One per distinct step and one per witness, plus the machine counts,
    # the step table and the labels, which hold the start state's label.
    assert dicts <= len(distinct) + len(witnesses) + 4, (
        f"{dicts} dicts built for {len(distinct)} distinct steps")

    report_module = importlib.import_module("vulnchain.report")
    quotes = Counter()
    monkeypatch.setattr(report_module, "_quote", _counting(report_module._quote, quotes))
    text = report_to_json(report)
    size = len(fsm.states) + fsm.edge_count
    assert quotes.n <= BOUND * size, f"{quotes.n} strings quoted for {size} states plus edges"

    # With no map, to_report extracts the same witnesses itself and reads
    # each distinct state's grants once. Past the dicts counted above it
    # builds the map of witnesses and an entry per goal; the result's
    # firing positions are read beforehand.
    fresh = reach(fsm)
    grants_read.n = 0
    monkeypatch.setattr(AttackState, "granted_condition_ids", counted_grants)
    assert report_to_json(to_report(fsm, fresh)) == text
    assert grants_read.n <= len(distinct), (
        f"grants read {grants_read.n} times for {len(distinct)} distinct steps")
    monkeypatch.undo()
    fresh = reach(fsm)
    assert len(fresh.firing_position) == len(fresh.visited)
    _, dicts = _count_dicts_built(lambda: to_report(fsm, fresh))
    assert dicts <= len(distinct) + 2 * len(witnesses) + 6, (
        f"{dicts} dicts built for {len(distinct)} distinct steps")
