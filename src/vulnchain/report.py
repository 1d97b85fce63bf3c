"""Serialization surfaces: DOT export, machine JSON, and analysis reports.

All emission is byte-deterministic: collections serialize sorted, JSON is
written with sorted keys, and files end with a single newline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Mapping

from .errors import SchemaViolation
from .ingest import (_FINDING_KEYS, _child, _decode_json_object, _environment_facts, _expect,
                     _finding, _finding_entry, _objects, _optional, _reject_duplicate_states,
                     _reject_unknown, _typed)
from .model import START_STATE_ID, AttackPath, AttackState, Fsm, ReachResult
from .reach import Semantics, collect_goals, isolated_goals

FSM_FORMAT_VERSION = 2
REPORT_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def _esc(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def to_dot(fsm: Fsm, result: ReachResult | None = None) -> str:
    """Render the machine as a deterministic Graphviz digraph.

    Conventions: the start state is a double circle; goal states are filled
    red; edges are labeled with condition ids; false-positive postcondition
    edges are dashed red; user-action precondition edges are dashed. A
    precondition with no drawable source gets a small point node feeding it,
    and a postcondition nobody consumes gets a point sink, so every state
    shows its full in/out degree. When a reach result is given, visited
    states get bold outlines.
    """
    visited = set(result.visited) if result is not None else set()
    user_action = {(s.id, r.condition.id) for s in fsm.states for r in s.preconditions
                   if r.requires_user_action}

    # (src, dst, label, kind), each at most once. A postcondition nobody
    # consumes feeds its point sink.
    edges = [(START_STATE_ID, sid, "", "plain") for sid in fsm.unconditional_start_targets]
    posted: set[str] = set()
    for s in fsm.states:
        for ref in s.postconditions:
            cid = ref.condition.id
            posted.add(cid)
            for dst in fsm.consumers[cid] or (f"out:{cid}",):
                kind = "dashed" if (dst, cid) in user_action else "solid"
                edges.append((s.id, dst, cid, "fp" if ref.false_positive else kind))
    # A precondition has a drawable source iff some state lists it as a
    # postcondition, granted or false positive.
    sources = [cid for cid in fsm.condition_ids if cid not in posted]
    edges.extend((f"in:{cid}", dst, cid, "dashed" if (dst, cid) in user_action else "solid")
                 for cid in sources for dst in fsm.consumers[cid])
    points = sorted([f"in:{cid}" for cid in sources]
                    + [f"out:{cid}" for cid in posted if not fsm.consumers[cid]])

    lines = ["digraph vulnerability_chains {", "  rankdir=LR;"]
    for state in fsm.states:
        attrs = [f'label="{_esc(_node_label(state))}"']
        if state.is_start:
            attrs.append("shape=doublecircle")
        else:
            attrs.append("shape=ellipse")
        styles = []
        if state.is_goal:
            styles.append("filled")
            attrs.append("fillcolor=red")
        if state.id in visited:
            styles.append("bold")
        if styles:
            attrs.append(f'style="{",".join(styles)}"')
        lines.append(f'  "{_esc(state.id)}" [{", ".join(attrs)}];')
    for node in points:
        lines.append(f'  "{_esc(node)}" [shape=point];')

    for src, dst, label, kind in sorted(edges):
        attrs = []
        if label:
            attrs.append(f'label="{_esc(label)}"')
        if kind == "fp":
            attrs.append("style=dashed")
            attrs.append("color=red")
        elif kind == "dashed":
            attrs.append("style=dashed")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{_esc(src)}" -> "{_esc(dst)}"{suffix};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _node_label(state: AttackState) -> str:
    if state.is_start:
        return START_STATE_ID
    name = state.vulnerability_name
    if state.label:
        name = f"{state.label}: {name}"
    return f"{name}\n{state.uri.display()}"


# ---------------------------------------------------------------------------
# Machine on-disk format
# ---------------------------------------------------------------------------

def _state_entry(state: AttackState) -> dict[str, Any]:
    return {"id": state.id, "is_start": state.is_start, **_finding_entry(state)}


def fsm_to_json(fsm: Fsm) -> str:
    """Serialize the machine so later commands can skip re-ingestion.

    Only the states, the environment facts and the diagnostics are stored;
    every index is derived again on load. The file is an intermediate, not
    a report, so it is written on one line with compact separators.
    """
    doc = {
        "format_version": FSM_FORMAT_VERSION,
        "site": fsm.site,
        "environment_facts": [r.condition.label for r in fsm.start.postconditions],
        "states": [_state_entry(s) for s in fsm.states],
        "diagnostics": list(fsm.diagnostics),
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


def fsm_from_json(document: str | bytes) -> Fsm:
    """Load a machine written by :func:`fsm_to_json`.

    Every field is type-checked where it is read, and errors name the JSON
    path. Each state is read by the same reader as a finding, which here
    demands both ref lists, ``is_goal`` and every flag and never a ``null``
    label; its stored ``id`` must be the derived one, and a repeated
    vulnerability and URI is rejected by the same check as a repeated
    finding. The machine is then assembled by the :class:`Fsm` constructor,
    like a freshly built one, and the start entry must be exactly the entry
    of its start state. Files of another ``format_version`` are rejected.

    Condition texts recur across states, so each distinct text is
    normalized once per call and the immutable refs are shared; a ref
    entry equal to one already checked is accepted by that equality, and a
    text's label is kept as written. Any JSON layout loads.
    """
    doc = _decode_json_object(document, what="machine file")
    version = _optional(doc, "format_version", int, None, path="$")
    if version != FSM_FORMAT_VERSION:
        raise SchemaViolation(
            f"unsupported format_version {version!r}; expected {FSM_FORMAT_VERSION} "
            "(rebuild the machine with 'vulnchain build')")
    _reject_unknown(doc, {"format_version", "site", "environment_facts", "states", "diagnostics"},
                    path="$")
    facts = _environment_facts(doc)
    diagnostics = [
        _typed(note, str, f"diagnostics[{i}]")
        for i, note in enumerate(_expect(doc, "diagnostics", list, path="$"))
    ]

    states = []
    start_entries = []
    shared: dict = {}
    for path, entry in _objects(doc, "states", _FINDING_KEYS | {"id", "is_start"}, "$"):
        if _expect(entry, "is_start", bool, path=path):
            start_entries.append((path, entry))
            continue
        stored_id = _expect(entry, "id", str, path=path)
        state = _finding(entry, path, shared, complete=True)
        if stored_id != state.id:
            raise SchemaViolation(
                f"id {stored_id!r} differs from {state.id!r}, the id of its vulnerability and URI",
                path=f"{path}.id")
        states.append((path, state))
    _reject_duplicate_states(states)
    if len(start_entries) != 1:
        raise SchemaViolation(f"expected exactly one start state, found {len(start_entries)}",
                              path="states")
    fsm = Fsm(_expect(doc, "site", str, path="$"), (state for _, state in states), facts,
              diagnostics)
    path, entry = start_entries[0]
    if entry != _state_entry(fsm.start):
        raise SchemaViolation(
            "start entry does not match the start state of environment_facts", path=path)
    return fsm


# ---------------------------------------------------------------------------
# Analysis reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisReport:
    """Machine-readable outcome of one analysis run, in the shape of its
    file: each field is one top-level key and holds that key's JSON value.

    ``fsm["states"]`` excludes the start state; ``fsm["edges"]`` counts
    labeled condition edges plus the plain start edges to precondition-free
    states.
    """

    site: str
    semantics: str
    assumptions: list[str]
    fsm: dict[str, int]
    reachable_states: list[str]
    reachable_goals: list[str]
    unreachable_goals: list[dict[str, Any]]
    isolated_goals: list[str]
    chained_goals: list[str]
    chained_only_goals: list[str]
    witnesses: list[dict[str, Any]]
    labels: dict[str, str]


def to_report(
    fsm: Fsm,
    result: ReachResult,
    witnesses: Mapping[str, AttackPath] | None = None,
) -> AnalysisReport:
    """Assemble the report for one reach result.

    ``witnesses`` maps reachable goal ids to extracted attack paths; pass
    the output of :func:`vulnchain.reach.extract_witness` per goal.
    """
    reached = collect_goals(result, fsm)
    isolated = isolated_goals(fsm, result)
    return AnalysisReport(
        site=fsm.site,
        semantics=result.semantics,
        assumptions=sorted(result.assumptions),
        fsm={"states": len(fsm.non_start_states), "edges": fsm.edge_count,
             "goals": len(fsm.goal_ids)},
        reachable_states=sorted(result.visited),
        reachable_goals=sorted(reached),
        unreachable_goals=[
            {"state": sid, "label": fsm.by_id[sid].label, "missing_conditions": sorted(
                r.condition.id for r in fsm.by_id[sid].preconditions
                if r.condition.id not in result.true_conditions)}
            for sid in sorted(fsm.goal_ids - result.visited)
        ],
        isolated_goals=sorted(isolated),
        chained_goals=sorted(reached),
        chained_only_goals=sorted(reached - isolated),
        witnesses=[
            {"goal": goal, "label": fsm.by_id[goal].label,
             "assumptions_used": sorted(path.assumptions_used),
             "steps": [{"state": sid, "label": fsm.by_id[sid].label, "grants": list(grants)}
                       for sid, grants in path.steps]}
            for goal, path in sorted((witnesses or {}).items())
        ],
        labels={s.id: s.label for s in fsm.states if s.label is not None},
    )


def report_to_json(report: AnalysisReport) -> str:
    """The report file: the layout of ``json.dumps(indent=2,
    sort_keys=True)`` byte for byte (two-space indent, sorted keys,
    non-ASCII as ``\\uXXXX`` escapes) and one trailing newline.

    It is written by :func:`_json_text`, because ``json.dumps`` with an
    indent falls back to the pure-Python encoder.
    """
    doc = {"format_version": REPORT_FORMAT_VERSION, **vars(report)}
    text = _json_text(doc, "\n")
    text += "\n"  # in place, not a second copy of what can be many megabytes
    return text


def _json_text(value: Any, newline: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes
    it, where ``newline`` is the line break and indent of its own level.

    Strings go through the C string encoder. A tuple is written as a list;
    dict keys must be str, and a float or any other type raises
    :class:`TypeError`.
    """
    if isinstance(value, str):
        return _quote(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [_quote(k) + ": " + _json_text(v, inner)
             for k, v in sorted(value.items())]) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join(
            [_json_text(v, inner) for v in value]) + newline + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_REPORT_KEYS = {"format_version"} | {f.name for f in fields(AnalysisReport)}


def report_from_json(document: str | bytes) -> AnalysisReport:
    """Load a report written by :func:`report_to_json`.

    Like :func:`fsm_from_json`, every field is type-checked, unknown fields
    are rejected and errors name the JSON path. The checked document, less
    its ``format_version``, is the report.
    """
    doc = _decode_json_object(document, what="report")
    if _optional(doc, "format_version", int, None, path="$") != REPORT_FORMAT_VERSION:
        raise SchemaViolation("unsupported or missing report format_version")
    _reject_unknown(doc, _REPORT_KEYS, path="$")
    semantics = _expect(doc, "semantics", str, path="$")
    if semantics not in {s.value for s in Semantics}:
        raise SchemaViolation(f"unknown semantics {semantics!r}", path="semantics")
    counts = _expect(doc, "fsm", dict, path="$")
    _reject_unknown(counts, {"states", "edges", "goals"}, path="fsm")
    _expect(doc, "site", str, path="$")
    _strings(doc, "assumptions", "$")
    for key in ("states", "edges", "goals"):
        _expect(counts, key, int, path="fsm")
    _strings(doc, "reachable_states", "$")
    _strings(doc, "reachable_goals", "$")
    for path, goal in _objects(doc, "unreachable_goals",
                               {"state", "label", "missing_conditions"}, "$"):
        _expect(goal, "state", str, path=path)
        _label(goal, path)
        _strings(goal, "missing_conditions", path)
    for key in ("isolated_goals", "chained_goals", "chained_only_goals"):
        _strings(doc, key, "$")
    for path, witness in _objects(doc, "witnesses",
                                  {"goal", "label", "assumptions_used", "steps"}, "$"):
        _expect(witness, "goal", str, path=path)
        _label(witness, path)
        _strings(witness, "assumptions_used", path)
        for step_path, step in _objects(witness, "steps", {"state", "label", "grants"}, path):
            _expect(step, "state", str, path=step_path)
            _label(step, step_path)
            _strings(step, "grants", step_path)
    for sid, label in _expect(doc, "labels", dict, path="$").items():
        _typed(label, str, f"labels.{sid}")
    del doc["format_version"]
    return AnalysisReport(**doc)


def _strings(obj: dict, key: str, path: str) -> None:
    """Check that ``obj[key]`` is a list of strings."""
    for i, v in enumerate(_expect(obj, key, list, path=path)):
        _typed(v, str, f"{_child(path, key)}[{i}]")


def _label(obj: dict, path: str) -> None:
    """Check that ``obj["label"]`` is present and a string or null."""
    if "label" not in obj or obj["label"] is not None:
        _expect(obj, "label", str, path=path)
