"""Outputs: the analysis report and the DOT export, plus the report loader.

All emission is byte-deterministic: collections serialize sorted, JSON is
written with sorted keys, and files end with a single newline. The machine
file is written and read in :mod:`vulnchain.ingest`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Mapping

from .errors import SchemaViolation
from .ingest import _child, _decode_json_object, _get, _objects, _reject_unknown, _typed
from .model import START_STATE_ID, AttackPath, AttackState, Fsm, ReachResult
from .reach import (Semantics, check_result_fsm, collect_goals, extract_witness, isolated_goals,
                    unmet_conditions)

REPORT_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def _esc(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


#: A state's attributes after its shape, by (goal, visited).
_NODE_STYLES = {(False, False): "", (False, True): ', style="bold"',
                (True, False): ', fillcolor=red, style="filled"',
                (True, True): ', fillcolor=red, style="filled,bold"'}


def to_dot(fsm: Fsm, result: ReachResult | None = None) -> str:
    """Render the machine as a deterministic Graphviz digraph.

    Conventions: the start state is a double circle; goal states are filled
    red; edges are labeled with condition ids; false-positive postcondition
    edges are dashed red; user-action precondition edges are dashed. A
    precondition with no drawable source gets a small point node feeding it,
    and a postcondition nobody consumes gets a point sink, so every state
    shows its full in/out degree. State ids (12 hex digits or ``start``) are
    written as they are; point names and labels are escaped. When a reach
    result is given, visited states get bold outlines, and one of another
    machine raises :class:`ResultFsmMismatch`.
    """
    if result is not None:
        check_result_fsm(result, fsm)
    visited = result.visited if result is not None else frozenset()
    dashed = {(s.id, r.condition.id): ", style=dashed" for s in fsm.states
              for r in s.preconditions if r.requires_user_action}

    # (source, target, label, attributes after the label). (source, target,
    # label) is unique, so the attributes never break a tie. A postcondition
    # nobody consumes feeds its point sink.
    edges = [(START_STATE_ID, sid, "", "") for sid in fsm.unconditional_start_targets]
    posted: set[str] = set()
    for s in fsm.states:
        for ref in s.postconditions:
            cid = ref.condition.id
            posted.add(cid)
            for dst in fsm.consumers[cid] or (f"out:{cid}",):
                edges.append((s.id, dst, cid, ", style=dashed, color=red" if ref.false_positive
                              else dashed.get((dst, cid), "")))
    # A precondition has a drawable source iff some state lists it as a
    # postcondition, granted or false positive. Only point names are escaped.
    sources = [cid for cid in fsm.condition_ids if cid not in posted]
    edges.extend((f"in:{cid}", dst, cid, dashed.get((dst, cid), ""))
                 for cid in sources for dst in fsm.consumers[cid])
    points = {name: _esc(name) for name in [f"in:{cid}" for cid in sources]
              + [f"out:{cid}" for cid in posted if not fsm.consumers[cid]]}

    lines = ["digraph vulnerability_chains {", "  rankdir=LR;"]
    lines.extend(f'  "{s.id}" [label="{_esc(_node_label(s))}", '
                 f'shape={"doublecircle" if s.is_start else "ellipse"}'
                 f'{_NODE_STYLES[s.is_goal, s.id in visited]}];' for s in fsm.states)
    lines.extend(f'  "{points[name]}" [shape=point];' for name in sorted(points))
    for src, dst, label, attrs in sorted(edges):
        head = f'  "{points.get(src, src)}" -> "{points.get(dst, dst)}"'
        lines.append(f'{head} [label="{_esc(label)}"{attrs}];' if label else f"{head};")
    return "\n".join(lines) + "\n}\n"


def _node_label(state: AttackState) -> str:
    if state.is_start:
        return START_STATE_ID
    name = state.vulnerability_name
    if state.label:
        name = f"{state.label}: {name}"
    return f"{name}\n{state.uri.display()}"


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
    """Assemble the report for one reach result, with the witness
    :func:`vulnchain.reach.extract_witness` gives each reached goal, or the
    path ``witnesses`` maps it to: a map naming any other set of goals
    raises :class:`ValueError` naming the first, by id.

    The step entries are shared: a step that is one object in several
    paths, as ``extract_witness`` gives each state's step, becomes one
    ``{"state", "label", "grants"}`` dict that every witness listing it
    holds, so changing one changes them all.
    """
    reached = collect_goals(result, fsm)
    if witnesses is None:
        witnesses = {goal: extract_witness(fsm, result, goal) for goal in sorted(reached)}
    elif witnesses.keys() != reached:
        goal = min(reached.symmetric_difference(witnesses))
        raise ValueError(f"witnesses: goal {goal!r} is "
                         f"{'missing' if goal in reached else 'not reached'}")
    isolated = isolated_goals(fsm, result)
    entries: dict[int, dict[str, Any]] = {}

    def entry(step: tuple[str, tuple[str, ...]]) -> dict[str, Any]:
        made = entries.get(id(step))
        if made is None:
            sid, grants = step
            made = entries[id(step)] = {
                "state": sid, "label": fsm.by_id[sid].label, "grants": list(grants)}
        return made

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
                unmet_conditions(fsm.by_id[sid], result.granted_by, result.assumptions))}
            for sid in sorted(fsm.goal_ids - result.visited)
        ],
        isolated_goals=sorted(isolated),
        chained_goals=sorted(reached),
        chained_only_goals=sorted(reached - isolated),
        witnesses=[
            {"goal": goal, "label": fsm.by_id[goal].label,
             "assumptions_used": sorted(path.assumptions_used),
             "steps": [entry(step) for step in path.steps]}
            for goal, path in sorted(witnesses.items())
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
    text = _json_text(doc)
    text += "\n"  # in place, not a second copy of what can be many megabytes
    return text


def _json_text(value: Any) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it.

    The text is gathered as fragments by :func:`_write` and joined once.
    A list or dict that recurs at one indent, such as a report's shared
    step entries, is encoded once: its fragments are found again by its
    identity and indent and repeated. That record lives for the one call.
    A tuple is written as a list; dict keys must be str, and a float or
    any other type raises :class:`TypeError`.
    """
    if not isinstance(value, (dict, list, tuple)) or not value:
        return _scalar_text(value)
    parts: list[str] = []
    _write(value, "\n", parts, {})
    return "".join(parts)


def _write(value: dict | list | tuple, newline: str, parts: list[str],
           spans: dict[tuple[int, str], tuple[int, int]]) -> None:
    """Append the fragments of a non-empty list or dict to ``parts``, or
    repeat those ``spans`` records for it at this indent. Strings go
    through the C string encoder, and a str list item or dict value is
    quoted into its fragment rather than by a call of its own."""
    span = spans.get((id(value), newline))
    if span is not None:
        parts.extend(parts[span[0]:span[1]])
        return
    start = len(parts)
    inner = newline + "  "
    if isinstance(value, dict):
        sep = "{" + inner
        for k, v in sorted(value.items()):
            if type(v) is str:
                parts.append(sep + _quote(k) + ": " + _quote(v))
            elif isinstance(v, (dict, list, tuple)) and v:
                parts.append(sep + _quote(k) + ": ")
                _write(v, inner, parts, spans)
            else:
                parts.append(sep + _quote(k) + ": " + _scalar_text(v))
            sep = "," + inner
        parts.append(newline + "}")
    else:
        sep = "[" + inner
        for v in value:
            if type(v) is str:
                parts.append(sep + _quote(v))
            elif isinstance(v, (dict, list, tuple)) and v:
                parts.append(sep)
                _write(v, inner, parts, spans)
            else:
                parts.append(sep + _scalar_text(v))
            sep = "," + inner
        parts.append(newline + "]")
    spans[id(value), newline] = start, len(parts)


def _scalar_text(value: Any) -> str:
    """The JSON text of a str, an empty list or dict, ``None``, a bool or
    an int."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, dict):
        return "{}"
    if isinstance(value, (list, tuple)):
        return "[]"
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

    Like :func:`vulnchain.ingest.fsm_from_json`, every field is type-checked, unknown fields
    are rejected and errors name the JSON path. The checked document, less
    its ``format_version``, is the report.
    """
    doc = _decode_json_object(document, what="report")
    version = _get(doc, "format_version", int, "$")
    if version != REPORT_FORMAT_VERSION:
        raise SchemaViolation(
            f"unsupported report format_version {version!r}; expected {REPORT_FORMAT_VERSION}",
            path="format_version")
    _reject_unknown(doc, _REPORT_KEYS, path="$")
    semantics = _get(doc, "semantics", str, "$")
    if semantics not in {s.value for s in Semantics}:
        raise SchemaViolation(f"unknown semantics {semantics!r}", path="semantics")
    counts = _get(doc, "fsm", dict, "$")
    _reject_unknown(counts, {"states", "edges", "goals"}, path="fsm")
    _get(doc, "site", str, "$")
    _strings(doc, "assumptions", "$")
    for key in ("states", "edges", "goals"):
        _get(counts, key, int, "fsm")
    _strings(doc, "reachable_states", "$")
    _strings(doc, "reachable_goals", "$")
    for path, goal in _objects(doc, "unreachable_goals",
                               {"state", "label", "missing_conditions"}, "$"):
        _get(goal, "state", str, path)
        _label(goal, path)
        _strings(goal, "missing_conditions", path)
    for key in ("isolated_goals", "chained_goals", "chained_only_goals"):
        _strings(doc, key, "$")
    for path, witness in _objects(doc, "witnesses",
                                  {"goal", "label", "assumptions_used", "steps"}, "$"):
        _get(witness, "goal", str, path)
        _label(witness, path)
        _strings(witness, "assumptions_used", path)
        for step_path, step in _objects(witness, "steps", {"state", "label", "grants"}, path):
            _get(step, "state", str, step_path)
            _label(step, step_path)
            _strings(step, "grants", step_path)
    for sid, label in _get(doc, "labels", dict, "$").items():
        _typed(label, str, f"labels.{sid}")
    del doc["format_version"]
    return AnalysisReport(**doc)


def _strings(obj: dict, key: str, path: str) -> None:
    """Check that ``obj[key]`` is a list of strings."""
    for i, v in enumerate(_get(obj, key, list, path)):
        _typed(v, str, f"{_child(path, key)}[{i}]")


def _label(obj: dict, path: str) -> None:
    """Check that ``obj["label"]`` is present and a string or null."""
    if "label" not in obj or obj["label"] is not None:
        _get(obj, "label", str, path)
