"""Shared test machinery: fixture loading, random machines, and oracles.

The oracles here deliberately re-derive results from first principles
(re-scanning raw states, enumerating firing sequences) instead of reusing
the package's worklist, so they stay independent of the code they check.
"""

from __future__ import annotations

import json
import random
import re
import string
from pathlib import Path
from typing import Any
from urllib.parse import unquote, urlsplit

from vulnchain import (
    START_STATE_ID,
    URI_ALL,
    URI_NULL,
    AssumptionSet,
    AttackPath,
    AttackState,
    Condition,
    FindingSet,
    Fsm,
    GoalNotReached,
    MalformedUri,
    NormalizedUri,
    PostconditionRef,
    PreconditionRef,
    ReachResult,
    ResultFsmMismatch,
    build_fsm,
    normalize_condition,
    normalize_uri,
    parse_crawl_list,
    parse_findings,
)
from vulnchain.ingest import FSM_FORMAT_VERSION

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
_VULNWEB = FIXTURES / "vulnweb"
_VULNWEB_GOLDEN = Path(__file__).resolve().parent / "golden" / "vulnweb"

#: Every input file kind of the CLI -> (its vulnweb file, the commands that
#: read it). ``{input}`` is the file given in its place and ``{out}`` a
#: scratch output file.
CLI_INPUTS = {
    "findings": (_VULNWEB / "findings.json", [
        ["build", "--findings", "{input}", "--crawl", str(_VULNWEB / "crawl.txt"), "--out", "{out}"]]),
    "crawl": (_VULNWEB / "crawl.txt", [
        ["build", "--findings", str(_VULNWEB / "findings.json"), "--crawl", "{input}", "--out", "{out}"]]),
    "machine": (_VULNWEB_GOLDEN / "machine.json", [
        ["analyze", "--fsm", "{input}", "--out", "{out}"],
        ["export-dot", "--fsm", "{input}", "--out", "{out}"]]),
    "report": (_VULNWEB_GOLDEN / "report.assumed.json", [
        ["export-dot", "--fsm", str(_VULNWEB_GOLDEN / "machine.json"), "--reach", "{input}",
         "--out", "{out}"]]),
}


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
    *,
    punctuation_variants: bool = False,
    hostile_text: bool = False,
) -> FindingSet:
    """One random machine input: states draw pre/postconditions from a
    shared pool with random user-action, false-positive, and goal flags.

    With ``punctuation_variants`` the pool also holds ``c3.`` beside ``c3``
    for some conditions, so near-miss warnings occur; without it the draws
    are the same as ever for a given ``rng`` state. With ``hostile_text``
    every condition text holds ``"`` and ``\\``, and every vulnerability
    name and label also a newline; the URIs take turns being ``ALL URI``,
    ``NULL`` and a path holding ``"`` and ``\\``; the draws stay the same.
    """
    quirk = '"q\\' if hostile_text else ""
    n_conds = rng.randint(1, max_conditions)
    pool = [normalize_condition(f"c{i}{quirk}") for i in range(n_conds)]
    if punctuation_variants:
        pool += [normalize_condition(f"c{i}.") for i in range(n_conds) if rng.random() < 0.3]
    n_states = rng.randint(0, max_states)

    findings = []
    for i in range(n_states):
        pres = tuple(
            PreconditionRef(condition=c, requires_user_action=rng.random() < 0.2)
            for c in rng.sample(pool, k=rng.randint(0, min(3, len(pool))))
        )
        posts = tuple(
            PostconditionRef(condition=c, false_positive=rng.random() < 0.2)
            for c in rng.sample(pool, k=rng.randint(0, min(3, len(pool))))
        )
        findings.append(AttackState(
            vulnerability_name=f"v{i:02d}{quirk}\nz" if hostile_text else f"v{i:02d}",
            uri=normalize_uri(("ALL URI", "NULL", f"/r{i:02d}{quirk}")[i % 3] if hostile_text
                              else f"/r{i:02d}"),
            preconditions=pres,
            postconditions=posts,
            is_goal=rng.random() < 0.3,
            label=f"S{i + 1}{quirk}\nz" if hostile_text else f"S{i + 1}",
        ))
    facts = tuple(rng.sample(pool, k=rng.randint(0, min(2, len(pool)))))
    raw = FindingSet(site="random", environment_facts=facts, findings=tuple(findings))
    # The set as the parser gives it, its condition objects shared.
    return parse_findings(serialize_findings(raw))


def serialize_findings(finding_set: FindingSet) -> str:
    """The findings document of ``finding_set``, every field spelled out,
    in the set's order. ``parse_findings`` of the output reproduces the
    set."""
    doc = {
        "site": finding_set.site,
        "environment_facts": [c.label for c in finding_set.environment_facts],
        "findings": [finding_entry(f) for f in finding_set.findings],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def start_successors(fsm: Fsm) -> set[str]:
    """States whose preconditions all hold in the initial conditions alone;
    precondition-free states always qualify."""
    return {s.id for s in fsm.non_start_states
            if all(r.condition.id in fsm.initial_conditions for r in s.preconditions)}


def isolated_goals_by_scan(fsm: Fsm, assumed: frozenset[str]) -> set[str]:
    """Goals each of whose preconditions is an initial condition (one the
    start state lists as a postcondition) or an assumed user action."""
    initial = {r.condition.id for r in fsm.start.postconditions}
    return {s.id for s in fsm.states if s.is_goal and all(
        r.condition.id in initial or (r.requires_user_action and r.condition.id in assumed)
        for r in s.preconditions)}


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


def true_conditions(result: ReachResult) -> frozenset[str]:
    """The true set of a run: its first-grant record's conditions plus its
    assumptions, though an assumption meets only user-action preconditions."""
    return frozenset(result.granted_by) | result.assumptions


def granted_by_visited(fsm: Fsm, visited) -> set[str]:
    """The initial conditions plus every non-false-positive postcondition
    of the ``visited`` states: the true set of a run, less its assumptions."""
    granted = set(fsm.initial_conditions)
    for sid in visited:
        granted.update(r.condition.id for r in fsm.by_id[sid].postconditions
                       if not r.false_positive)
    return granted


def reference_missing_conditions(fsm: Fsm, goal: str, granted: set[str],
                                 assumed: frozenset[str]) -> list[str]:
    """The preconditions of ``goal`` that are not ``granted``, sorted; an
    assumption meets only a user-action precondition."""
    missing = []
    for ref in fsm.by_id[goal].preconditions:
        cid = ref.condition.id
        if cid in granted or (ref.requires_user_action and cid in assumed):
            continue
        missing.append(cid)
    return sorted(missing)


def replay_witness(fsm: Fsm, path: AttackPath) -> bool:
    """Simulator for the witness invariant: grant only the initial conditions
    plus the path's assumptions, fire the path's states in order, each
    granting its own non-false-positive postconditions, and demand that
    every precondition is satisfied when its state fires."""
    true = set(fsm.initial_conditions) | set(path.assumptions_used)
    for sid in path.steps:
        state = fsm.by_id[sid]
        for ref in state.preconditions:
            if ref.condition.id not in true:
                return False
        true.update(state.granted_condition_ids())
    return bool(path.steps) and path.steps[-1] == path.goal


# ---------------------------------------------------------------------------
# Reference URI normalization
# ---------------------------------------------------------------------------
# A standalone copy of ``normalize_uri`` from before a canonical path passed
# through unchanged: every URI takes the general path here.

_REFERENCE_CONTROL_CHARS = re.compile(r"[\x00-\x1f\x7f]")
_REFERENCE_EDGE_SPACE = " "
_REFERENCE_MAX_DECODES = 16


def _reference_decode_path(path: str, raw: str) -> str:
    # Decode percent-escapes to a fixed point so re-normalizing a canonical
    # path can never change it again ("%2520" -> "%20" -> " "). A path that
    # is still changing after the last allowed pass has no canonical form.
    for _ in range(_REFERENCE_MAX_DECODES):
        decoded = unquote(path)
        if decoded == path:
            return path
        path = decoded
    if unquote(path) != path:
        raise MalformedUri(
            f"percent-escapes nested more than {_REFERENCE_MAX_DECODES} levels deep: {raw!r}")
    return path


def reference_normalize_uri(raw: str) -> NormalizedUri:
    """Normalize a URI string; idempotent on its own canonical output.

    "ALL URI" maps to the reserved canonical ``*`` and "NULL" to the empty
    canonical. A scheme and authority, if present, are dropped; relative
    paths gain a leading slash; fragments are discarded.

    Only ASCII spaces are stripped: from the ends of the input, of the
    percent-decoded path and of the query; trailing slashes go with the
    path's trailing spaces.

    Raises :class:`MalformedUri` for whitespace-only input, control
    characters anywhere in the input or its percent-decoded path,
    percent-escapes nested more than 16 levels deep, or paths whose
    percent-decoded form cannot be re-parsed (decoded ``#`` or ``?`` inside
    the path).
    """
    if raw == "":
        # Re-entrant form of the NULL sentinel's canonical.
        return NormalizedUri(raw="", canonical=URI_NULL)
    if raw.isspace():
        raise MalformedUri("URI is whitespace-only")
    if _REFERENCE_CONTROL_CHARS.search(raw):
        raise MalformedUri(f"URI contains control characters: {raw!r}")
    stripped = raw.strip(_REFERENCE_EDGE_SPACE)

    lowered = stripped.lower()
    if lowered == "all uri" or stripped == URI_ALL:
        return NormalizedUri(raw=raw, canonical=URI_ALL)
    if lowered == "null":
        return NormalizedUri(raw=raw, canonical=URI_NULL)

    try:
        parts = urlsplit(stripped)
    except ValueError as exc:
        raise MalformedUri(f"cannot split URI {raw!r}: {exc}") from exc
    path = _reference_decode_path(parts.path, raw)
    if _REFERENCE_CONTROL_CHARS.search(path):
        raise MalformedUri(f"percent-decoded path contains control characters: {raw!r}")
    if "#" in path or "?" in path:
        raise MalformedUri(f"percent-decoded path cannot be re-split: {raw!r}")
    # Spaces at either end of the path or query would not survive a second
    # normalization pass, so they are dropped; interior spaces stay. A
    # trailing slash before a space would leave that space at the end, and
    # a path led by ``//`` would split as a host, so its leading slashes
    # collapse to one.
    path = "/" + path.strip(_REFERENCE_EDGE_SPACE).lstrip("/")
    while len(path) > 1 and path[-1] in "/" + _REFERENCE_EDGE_SPACE:
        path = path[:-1]
    query = parts.query.strip(_REFERENCE_EDGE_SPACE)
    canonical = f"{path}?{query}" if query else path
    return NormalizedUri(raw=raw, canonical=canonical)


# ---------------------------------------------------------------------------
# Reference derivations of the condition relation
# ---------------------------------------------------------------------------
# Standalone copies of the build warnings and the DOT export as they were
# before the machine's own indices served both. They rescan the findings and
# states directly, so the package's versions are checked against them.

def reference_build_warnings(finding_set: FindingSet, fsm: Fsm) -> tuple[str, ...]:
    """The warnings ``build`` prints for ``finding_set``, built into ``fsm``:
    the content warnings, then the machine's crawl diagnostics."""
    return (reference_content_warnings(finding_set.environment_facts, finding_set.findings)
            + fsm.diagnostics)


def reference_content_warnings(facts: tuple[Condition, ...], findings: tuple[AttackState, ...]) -> tuple[str, ...]:
    warnings: list[str] = []

    producible = {c.id for c in facts}
    for f in findings:
        for r in f.postconditions:
            if not r.false_positive:
                producible.add(r.condition.id)

    # Preconditions nobody can make true usually mean a condition-string
    # typo. User-action preconditions are exempt: they are satisfied from
    # the assumption set by design.
    unsatisfiable: set[str] = set()
    for f in findings:
        for r in f.preconditions:
            if not r.requires_user_action and r.condition.id not in producible:
                unsatisfiable.add(r.condition.id)
    warnings.extend(
        f"precondition {cid!r} has no producing finding and no matching environment fact"
        for cid in sorted(unsatisfiable)
    )

    # Near-miss pairs: ids that collide once punctuation is stripped point
    # at pre/postcondition strings that were meant to match but do not.
    all_ids: set[str] = {c.id for c in facts}
    for f in findings:
        all_ids.update(r.condition.id for r in f.preconditions)
        all_ids.update(r.condition.id for r in f.postconditions)
    stripped: dict[str, list[str]] = {}
    table = str.maketrans("", "", string.punctuation)
    for cid in sorted(all_ids):
        key = " ".join(cid.translate(table).split())
        stripped.setdefault(key, []).append(cid)
    for key in sorted(stripped):
        group = stripped[key]
        if len(group) > 1:
            joined = " / ".join(repr(c) for c in group)
            warnings.append(f"conditions differ only in punctuation: {joined}")

    return tuple(warnings)


def _reference_dot_text(text: str) -> str:
    """``text`` inside a DOT double-quoted string: each backslash, double
    quote and newline written as ``\\\\``, ``\\"`` and ``\\n``."""
    escapes = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}
    return "".join(escapes.get(char, char) for char in text)


def _reference_node_label(state: AttackState) -> str:
    """``start`` for the start state; otherwise ``label: vulnerability`` (the
    vulnerability alone without a label), a newline, and the canonical URI,
    the sentinels spelled ``ALL URI`` and ``NULL``."""
    if state.is_start:
        return "start"
    head = f"{state.label}: {state.vulnerability_name}" if state.label else state.vulnerability_name
    uri = {URI_ALL: "ALL URI", URI_NULL: "NULL"}.get(state.uri.canonical, state.uri.canonical)
    return f"{head}\n{uri}"


def reference_to_dot(fsm: Fsm, result: ReachResult | None = None) -> str:
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

    # Map (consumer id, condition id) -> user-action flag for edge styling.
    user_action: dict[tuple[str, str], bool] = {}
    for s in fsm.states:
        for ref in s.preconditions:
            user_action[(s.id, ref.condition.id)] = ref.requires_user_action

    edges: set[tuple[str, str, str, str]] = set()  # (src, dst, label, kind)
    for sid in fsm.unconditional_start_targets:
        edges.add((START_STATE_ID, sid, "", "plain"))
    for src, dst, cid in fsm.edges:
        kind = "dashed" if user_action.get((dst, cid)) else "solid"
        edges.add((src, dst, cid, kind))
    for s in fsm.states:
        for ref in s.postconditions:
            cid = ref.condition.id
            consumers = fsm.consumers.get(cid, frozenset())
            if ref.false_positive:
                if consumers:
                    edges.update((s.id, dst, cid, "fp") for dst in consumers)
                else:
                    edges.add((s.id, f"out:{cid}", cid, "fp"))
            elif not consumers:
                edges.add((s.id, f"out:{cid}", cid, "solid"))
    # A precondition has a drawable source iff some state lists it as a
    # postcondition, granted or false positive.
    posted = {r.condition.id for s in fsm.states for r in s.postconditions}
    for s in fsm.states:
        for ref in s.preconditions:
            cid = ref.condition.id
            if cid not in posted:
                kind = "dashed" if ref.requires_user_action else "solid"
                edges.add((f"in:{cid}", s.id, cid, kind))

    point_nodes = sorted(
        {e[0] for e in edges if e[0].startswith("in:")}
        | {e[1] for e in edges if e[1].startswith("out:")}
    )

    lines = ["digraph vulnerability_chains {", "  rankdir=LR;"]
    for state in [fsm.start] + list(fsm.non_start_states):
        attrs = [f'label="{_reference_dot_text(_reference_node_label(state))}"']
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
        lines.append(f'  "{_reference_dot_text(state.id)}" [{", ".join(attrs)}];')
    for node in point_nodes:
        lines.append(f'  "{_reference_dot_text(node)}" [shape=point];')

    for src, dst, label, kind in sorted(edges):
        attrs = []
        if label:
            attrs.append(f'label="{_reference_dot_text(label)}"')
        if kind == "fp":
            attrs.append("style=dashed")
            attrs.append("color=red")
        elif kind == "dashed":
            attrs.append("style=dashed")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{_reference_dot_text(src)}" -> "{_reference_dot_text(dst)}"{suffix};')
    lines.append("}")
    return "\n".join(lines) + "\n"


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
    return Fsm(site, findings, facts)


def machine_of(finding_set: FindingSet) -> Fsm:
    """The machine of ``finding_set`` without a crawl list, so without
    crawl diagnostics."""
    return Fsm(finding_set.site, finding_set.findings, finding_set.environment_facts)


# ---------------------------------------------------------------------------
# Reference indexes and witnesses
# ---------------------------------------------------------------------------
# Standalone copies of the machine's condition indexes, each its own walk
# over the states, and of ``extract_witness`` as it was when it searched the
# visited producers of every needed condition for the earliest-firing one.

def reference_condition_ids(fsm: Fsm) -> tuple[str, ...]:
    ids: set[str] = set()
    for s in fsm.states:
        ids.update(r.condition.id for r in s.preconditions)
        ids.update(r.condition.id for r in s.postconditions)
    return tuple(sorted(ids))


def reference_producers(fsm: Fsm) -> dict[str, frozenset[str]]:
    """Condition id -> states granting it through non-false-positive
    postconditions (the start state grants the environment facts).

    Every condition id appears, possibly with an empty set: an
    unsatisfiable precondition keeps an empty producer set.
    """
    out: dict[str, set[str]] = {cid: set() for cid in reference_condition_ids(fsm)}
    for s in fsm.states:
        for cid in s.granted_condition_ids():
            out[cid].add(s.id)
    return {cid: frozenset(v) for cid, v in out.items()}


def reference_consumers(fsm: Fsm) -> dict[str, frozenset[str]]:
    """Condition id -> states requiring it; every condition id appears."""
    out: dict[str, set[str]] = {cid: set() for cid in reference_condition_ids(fsm)}
    for s in fsm.states:
        for r in s.preconditions:
            out[r.condition.id].add(s.id)
    return {cid: frozenset(v) for cid, v in out.items()}


def reference_edges(fsm: Fsm) -> tuple[tuple[str, str, str], ...]:
    """Structural edges (producer id, consumer id, condition id), sorted:
    each granted postcondition of each state, paired with every state
    requiring it."""
    consumers = reference_consumers(fsm)
    out: set[tuple[str, str, str]] = set()
    for s in fsm.states:
        for cid in s.granted_condition_ids():
            for consumer in consumers.get(cid, ()):
                out.add((s.id, consumer, cid))
    return tuple(sorted(out))


def reference_edge_count(fsm: Fsm) -> int:
    """Labeled condition edges plus the plain start edges to
    precondition-free states."""
    consumers = reference_consumers(fsm)
    labeled = sum(
        len(consumers[cid]) for s in fsm.states for cid in s.granted_condition_ids())
    return labeled + len([s.id for s in fsm.states if not s.is_start and not s.preconditions])


def reference_extract_witness(fsm: Fsm, result: ReachResult, goal: str) -> AttackPath:
    """Build a replayable attack path for one reached goal.

    Walks backward from the goal, picking for each needed condition the
    visited producer with the earliest firing position (ties by state id),
    then orders the collected states by firing position. The path is
    valid but not guaranteed globally minimal. User-action preconditions are
    preferentially charged to the assumption set when available.
    """
    if goal not in result.visited or goal not in fsm.by_id:
        raise GoalNotReached(f"goal {goal!r} is not in the visited set")

    producers = reference_producers(fsm)
    position = {sid: i for i, sid in enumerate(result.firing_order)}
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
            candidates = producers.get(cid, frozenset()) & result.visited
            if not candidates:
                raise ResultFsmMismatch(
                    f"no visited producer for condition {cid!r} needed by {state.id}")
            producer = min(candidates, key=lambda sid: (position[sid], sid))
            if producer not in collected:
                collected.add(producer)
                frontier.append(producer)

    steps = tuple(sorted(collected, key=lambda sid: position[sid]))
    return AttackPath(goal=goal, steps=steps, assumptions_used=frozenset(assumptions_used))


# ---------------------------------------------------------------------------
# Reference machine file writer
# ---------------------------------------------------------------------------
# The machine file writer as it was when it built a dict per state and per
# ref and ran ``json.dumps(sort_keys=True)`` over the document.

def finding_entry(state: AttackState) -> dict[str, Any]:
    """The finding object of one state, every field spelled out, as the
    machine file stores it and ``ingest._finding`` reads it back."""
    entry: dict[str, Any] = {
        "vulnerability": state.vulnerability_name,
        "uri": state.uri.raw,
        "preconditions": [
            {"condition": r.condition.label, "requires_user_action": r.requires_user_action}
            for r in state.preconditions
        ],
        "postconditions": [
            {"condition": r.condition.label, "false_positive": r.false_positive}
            for r in state.postconditions
        ],
        "is_goal": state.is_goal,
    }
    if state.source:
        entry["source"] = state.source
    if state.label is not None:
        entry["label"] = state.label
    return entry


def state_entry(state: AttackState) -> dict[str, Any]:
    return {"id": state.id, "is_start": state.is_start, **finding_entry(state)}


def reference_fsm_to_json(fsm: Fsm) -> str:
    """Serialize the machine so later commands can skip re-ingestion.

    Only the states, the environment facts and the diagnostics are stored;
    every index is derived again on load. The file is an intermediate, not
    a report, so it is written on one line with compact separators.
    """
    doc = {
        "format_version": FSM_FORMAT_VERSION,
        "site": fsm.site,
        "environment_facts": [r.condition.label for r in fsm.start.postconditions],
        "states": [state_entry(s) for s in fsm.states],
        "diagnostics": list(fsm.diagnostics),
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"
