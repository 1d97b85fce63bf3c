"""Loading and validating crawl lists and normalized scanner findings.

Two input formats are supported: the canonical findings JSON document and a
minimal tab-separated adapter. Native formats of individual scanners are out
of scope; normalize them into one of these first.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass
from typing import Any

from .errors import DuplicateState, EmptyCondition, MalformedUri, SchemaViolation, UnknownAssumptionFlag
from .model import (
    URI_ALL,
    URI_NULL,
    AttackState,
    Condition,
    PostconditionRef,
    PreconditionRef,
    normalize_condition,
    normalize_uri,
)

_TSV_HEADER = ("VULN", "URI", "PRE", "POST", "GOAL")


@dataclass(frozen=True)
class FindingSet:
    """Validated findings for one site plus recon facts known at the outset.

    ``environment_facts`` are conditions true before any state fires (server
    versions and similar discoveries); they may coincide with postconditions.
    Each finding is already the machine state it becomes.
    ``warnings`` are deterministic validation notes, recomputed from content.
    """

    site: str
    environment_facts: tuple[Condition, ...] = ()
    findings: tuple[AttackState, ...] = ()
    warnings: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Crawl lists
# ---------------------------------------------------------------------------

def parse_crawl_list(document: str | bytes) -> frozenset[str]:
    """Canonical URIs of the crawled resources plus every directory above
    them; the root ``/`` is always a member.

    Blank lines and ``#`` comments are ignored; duplicates are silently
    deduplicated. Raises :class:`MalformedUri` carrying the line number,
    also for the ``ALL URI`` and ``NULL`` sentinels, which name no resource.
    """
    text = _decode(document, what="crawl list")
    crawled = {"/"}
    for lineno, line in enumerate(text.splitlines(), start=1):
        entry = line.strip()
        if not entry or entry.startswith("#"):
            continue
        try:
            uri = normalize_uri(entry)
            if uri.canonical in (URI_ALL, URI_NULL):
                raise MalformedUri(f"sentinel URI {uri.display()!r} cannot be a crawled resource")
        except MalformedUri as exc:
            raise MalformedUri(f"line {lineno}: {exc}") from exc
        crawled.add(uri.canonical)
        names = [seg for seg in uri.path.split("/") if seg]
        crawled.update("/" + "/".join(names[:depth]) for depth in range(1, len(names)))
    return frozenset(crawled)


# ---------------------------------------------------------------------------
# Findings documents
# ---------------------------------------------------------------------------

def parse_findings(document: str | bytes) -> FindingSet:
    """Parse and validate the canonical findings JSON document.

    Unknown fields are rejected. Raises :class:`SchemaViolation` with the
    offending path, :class:`DuplicateState` for a repeated (vulnerability,
    URI) pair, and :class:`UnknownAssumptionFlag` if a postcondition carries
    ``requires_user_action``.
    """
    doc = _decode_json_object(document, what="findings document")
    _reject_unknown(doc, {"site", "environment_facts", "findings"}, path="$")

    site = _expect(doc, "site", str, path="$")
    raw_facts = _expect(doc, "environment_facts", list, path="$")
    raw_findings = _expect(doc, "findings", list, path="$")

    facts: dict[str, Condition] = {}
    for i, item in enumerate(raw_facts):
        path = f"environment_facts[{i}]"
        if not isinstance(item, str):
            raise SchemaViolation("environment fact must be a string", path=path)
        cond = _condition(item, path)
        facts.setdefault(cond.id, cond)

    findings = []
    for i, item in enumerate(raw_findings):
        findings.append(_parse_finding_object(item, path=f"findings[{i}]"))

    return _assemble(site, facts, findings)


def parse_findings_tsv(document: str | bytes, site: str = "") -> FindingSet:
    """Parse the tab-separated adapter format.

    Columns are VULN, URI, PRE, POST, GOAL. PRE and POST cells are
    ";"-joined condition lists; a ``!`` prefix marks a user-action
    precondition and a ``?`` prefix marks a false-positive postcondition.
    GOAL is 0 or 1. The format carries no environment facts or labels.
    """
    text = _decode(document, what="findings table")
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows or tuple(rows[0].rstrip("\n").split("\t")) != _TSV_HEADER:
        raise SchemaViolation(f"first line must be the header {chr(9).join(_TSV_HEADER)!r}")

    findings = []
    for lineno, row in enumerate(rows[1:], start=2):
        path = f"line {lineno}"
        cells = row.split("\t")
        if len(cells) != len(_TSV_HEADER):
            raise SchemaViolation(f"expected {len(_TSV_HEADER)} columns, got {len(cells)}", path=path)
        vuln, uri_text, pre_cell, post_cell, goal_cell = cells
        if goal_cell.strip() not in ("0", "1"):
            raise SchemaViolation(f"GOAL must be 0 or 1, got {goal_cell!r}", path=path)
        pres = [PreconditionRef(*_tsv_ref(part, "!", "?", path)) for part in _split_cell(pre_cell)]
        posts = [PostconditionRef(*_tsv_ref(part, "?", "!", path)) for part in _split_cell(post_cell)]
        findings.append(_build_finding(
            vuln, uri_text, pres, posts,
            is_goal=goal_cell.strip() == "1", source="", label=None, path=path,
        ))
    return _assemble(site, {}, findings)


def serialize_findings(finding_set: FindingSet) -> str:
    """Canonical JSON form; ``parse_findings`` of the output reproduces the
    input :class:`FindingSet` exactly."""
    doc = {
        "site": finding_set.site,
        "environment_facts": [c.label for c in finding_set.environment_facts],
        "findings": [_finding_entry(f) for f in finding_set.findings],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _finding_entry(state: AttackState) -> dict[str, Any]:
    """The finding object of one state, as the findings JSON and the machine
    file both store it."""
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


# ---------------------------------------------------------------------------
# Shared assembly and validation
# ---------------------------------------------------------------------------

def _assemble(site: str, facts: dict[str, Condition], findings: list[AttackState]) -> FindingSet:
    seen: dict[str, str] = {}
    for f in findings:
        sid = f.id
        desc = f"{f.vulnerability_name} @ {f.uri.display()}"
        if sid in seen:
            raise DuplicateState(f"{desc} repeats {seen[sid]}")
        seen[sid] = desc
    ordered = tuple(sorted(
        findings,
        key=lambda f: (" ".join(f.vulnerability_name.split()).lower(), f.uri.canonical),
    ))
    fact_tuple = tuple(facts[c] for c in sorted(facts))
    return FindingSet(
        site=site,
        environment_facts=fact_tuple,
        findings=ordered,
        warnings=_content_warnings(fact_tuple, ordered),
    )


def _content_warnings(facts: tuple[Condition, ...], findings: tuple[AttackState, ...]) -> tuple[str, ...]:
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


def _parse_finding_object(item: Any, path: str) -> AttackState:
    if not isinstance(item, dict):
        raise SchemaViolation("finding must be an object", path=path)
    _reject_unknown(
        item,
        {"vulnerability", "uri", "preconditions", "postconditions", "is_goal", "source", "label"},
        path=path,
    )
    vuln = _expect(item, "vulnerability", str, path=path)
    uri_text = _expect(item, "uri", str, path=path)
    raw_pres = _optional(item, "preconditions", list, [], path=path)
    raw_posts = _optional(item, "postconditions", list, [], path=path)

    pres = []
    for j, ref in enumerate(raw_pres):
        ref_path = f"{path}.preconditions[{j}]"
        if not isinstance(ref, dict):
            raise SchemaViolation("precondition must be an object", path=ref_path)
        _reject_unknown(ref, {"condition", "requires_user_action"}, path=ref_path)
        pres.append(PreconditionRef(
            condition=_condition(_expect(ref, "condition", str, path=ref_path), ref_path),
            requires_user_action=_optional(ref, "requires_user_action", bool, False, path=ref_path),
        ))

    posts = []
    for j, ref in enumerate(raw_posts):
        ref_path = f"{path}.postconditions[{j}]"
        if not isinstance(ref, dict):
            raise SchemaViolation("postcondition must be an object", path=ref_path)
        if "requires_user_action" in ref:
            raise UnknownAssumptionFlag(
                "requires_user_action is only valid on preconditions", path=ref_path)
        _reject_unknown(ref, {"condition", "false_positive"}, path=ref_path)
        posts.append(PostconditionRef(
            condition=_condition(_expect(ref, "condition", str, path=ref_path), ref_path),
            false_positive=_optional(ref, "false_positive", bool, False, path=ref_path),
        ))

    label = item.get("label")
    if label is not None and not isinstance(label, str):
        raise SchemaViolation("label must be a string", path=path)
    return _build_finding(
        vuln, uri_text, pres, posts,
        is_goal=_optional(item, "is_goal", bool, False, path=path),
        source=_optional(item, "source", str, "", path=path),
        label=label,
        path=path,
    )


def _build_finding(vuln, uri_text, pres, posts, *, is_goal, source, label, path) -> AttackState:
    try:
        uri = normalize_uri(uri_text)
    except MalformedUri as exc:
        raise SchemaViolation(str(exc), path=path) from exc
    try:
        return AttackState(
            vulnerability_name=vuln,
            uri=uri,
            preconditions=tuple(pres),
            postconditions=tuple(posts),
            is_goal=is_goal,
            source=source,
            label=label,
        )
    except SchemaViolation as exc:
        raise SchemaViolation(str(exc), path=path) from exc


def _condition(label: str, path: str) -> Condition:
    try:
        return normalize_condition(label)
    except EmptyCondition as exc:
        raise SchemaViolation(str(exc), path=path) from exc


def _tsv_ref(part: str, flag: str, other: str, path: str) -> tuple[Condition, bool]:
    """A PRE or POST entry as (condition, flagged); ``other`` is the flag of
    the other column, which may not start the condition."""
    flagged = part.startswith(flag)
    name = part[1:] if flagged else part
    if name.startswith(other):
        raise SchemaViolation(f"{part!r}: the {other!r} prefix belongs to the other column", path=path)
    return _condition(name, path), flagged


def _split_cell(cell: str) -> list[str]:
    return [part.strip() for part in cell.split(";") if part.strip()]


def _decode(document: str | bytes, what: str) -> str:
    if isinstance(document, bytes):
        try:
            return document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaViolation(f"{what} is not valid UTF-8: {exc}") from exc
    return document


def _decode_json_object(document: str | bytes, what: str) -> dict:
    """Decode UTF-8 and JSON and demand an object at the top level."""
    try:
        doc = json.loads(_decode(document, what=what))
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaViolation("top-level value must be an object")
    return doc


def _reject_unknown(obj: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise SchemaViolation(f"unknown fields: {', '.join(unknown)}", path=path)


def _child(path: str, key: str) -> str:
    return key if path == "$" else f"{path}.{key}"


def _objects(obj: dict, key: str, keys: set[str], path: str) -> list[tuple[str, dict]]:
    """``(path, entry)`` for each entry of the list ``obj[key]``; every entry
    must be an object with no field outside ``keys``."""
    out = []
    for i, entry in enumerate(_expect(obj, key, list, path=path)):
        entry_path = f"{_child(path, key)}[{i}]"
        _reject_unknown(_typed(entry, dict, entry_path), keys, path=entry_path)
        out.append((entry_path, entry))
    return out


def _expect(obj: dict, key: str, kind: type, path: str) -> Any:
    if key not in obj:
        raise SchemaViolation(f"missing required field {key!r}", path=path)
    return _typed(obj[key], kind, path, what=f"field {key!r}")


def _optional(obj: dict, key: str, kind: type, default: Any, path: str) -> Any:
    if key not in obj:
        return default
    return _typed(obj[key], kind, path, what=f"field {key!r}")


def _typed(value: Any, kind: type, path: str, what: str = "value") -> Any:
    """``value`` itself if it is a ``kind`` (a bool never counts as an int)."""
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise SchemaViolation(f"{what} must be {kind.__name__}", path=path)
    return value
