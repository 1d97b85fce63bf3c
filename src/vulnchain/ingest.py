"""Loading and validating crawl lists and normalized scanner findings, and
building the machine they describe.

Findings come in one format, the canonical findings JSON document. Native
formats of individual scanners are out of scope; normalize them into it
first. The helpers here own every loader rule, and the machine and report
loaders in :mod:`vulnchain.report` use them too: a machine file's states are
read by :func:`_finding`, the one reader of a finding object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Iterable

from .errors import DuplicateState, EmptyCondition, MalformedUri, SchemaViolation, UnknownAssumptionFlag
from .model import (
    URI_ALL,
    URI_NULL,
    AttackState,
    Condition,
    Fsm,
    PostconditionRef,
    PreconditionRef,
    normalize_condition,
    normalize_uri,
)

_FINDING_KEYS = frozenset({
    "vulnerability", "uri", "preconditions", "postconditions", "is_goal", "source", "label",
})


@dataclass(frozen=True)
class FindingSet:
    """Validated findings for one site plus recon facts known at the outset.

    ``environment_facts`` are conditions true before any state fires (server
    versions and similar discoveries); they may coincide with postconditions.
    Each finding is already the machine state it becomes, and ``findings``
    is in id order.
    """

    site: str
    environment_facts: tuple[Condition, ...] = ()
    findings: tuple[AttackState, ...] = ()


# ---------------------------------------------------------------------------
# Crawl lists
# ---------------------------------------------------------------------------

def parse_crawl_list(document: str | bytes) -> frozenset[str]:
    """Canonical URIs of the crawled resources plus every directory above
    them; the root ``/`` is always a member.

    Lines end at CR LF, CR or LF alone. Blank lines and ``#`` comments are
    ignored; duplicates are silently deduplicated. Raises
    :class:`MalformedUri` carrying the line number, also for the ``ALL URI``
    and ``NULL`` sentinels, which name no resource.
    """
    text = _decode(document, what="crawl list")
    crawled = {"/"}
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
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
    ``requires_user_action``. Omitted ref lists and flags default to empty
    and ``false``, and ``label`` may be ``null``.
    """
    doc = _decode_json_object(document, what="findings document")
    _reject_unknown(doc, {"site", "environment_facts", "findings"}, path="$")
    site = _expect(doc, "site", str, path="$")
    facts = _environment_facts(doc)
    shared: dict = {}
    entries = [(path, _finding(item, path, shared, complete=False))
               for path, item in _objects(doc, "findings", _FINDING_KEYS, "$")]
    _reject_duplicate_states(entries)
    findings = sorted((f for _, f in entries), key=attrgetter("id"))
    return FindingSet(site=site, environment_facts=facts, findings=tuple(findings))


def build_fsm(findings: FindingSet, crawled: frozenset[str] | None = None) -> Fsm:
    """The machine of validated inputs: one state per finding.

    Pure and deterministic: equal inputs yield machines that serialize
    identically. The machine's diagnostics warn about each finding URI that
    is not in ``crawled`` (see :func:`parse_crawl_list`): scanner and
    crawler disagree, but the finding is kept. The ``*`` sentinel never
    warns, and ``crawled=None`` gives no warnings. The machine derives its
    warnings about the findings' content itself, and :attr:`Fsm.warnings`
    lists them ahead of these diagnostics.
    """
    diagnostics = () if crawled is None else (
        f"no crawled resource matches finding URI {f.uri.display()!r}"
        for f in findings.findings
        if f.uri.canonical != URI_ALL and f.uri.canonical not in crawled
    )
    return Fsm(findings.site, findings.findings, findings.environment_facts, diagnostics)


def _finding_entry(state: AttackState) -> dict[str, Any]:
    """The finding object of one state, every field spelled out, as the
    machine file stores it and :func:`_finding` reads it back."""
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
# Shared validation
# ---------------------------------------------------------------------------

def _environment_facts(doc: dict) -> tuple[Condition, ...]:
    """``doc["environment_facts"]`` as conditions sorted by id, one per id
    (the first label wins)."""
    facts: dict[str, Condition] = {}
    for i, label in enumerate(_expect(doc, "environment_facts", list, path="$")):
        path = f"environment_facts[{i}]"
        cond = _condition(_typed(label, str, path), path)
        facts.setdefault(cond.id, cond)
    return tuple(facts[cid] for cid in sorted(facts))


def _reject_duplicate_states(entries: Iterable[tuple[str, AttackState]]) -> None:
    """Raise :class:`DuplicateState` at the later of two ``(path, state)``
    entries for the same vulnerability and URI, naming the earlier one."""
    first: dict[str, str] = {}
    for path, state in entries:
        if state.id in first:
            raise DuplicateState(f"same vulnerability and URI as {first[state.id]}", path=path)
        first[state.id] = path


def _finding(item: dict, path: str, shared: dict, *, complete: bool) -> AttackState:
    """The state of one finding object, as both the findings document and
    the machine file store it; unknown fields are already rejected.

    A ``complete`` object (a machine state) must spell out both ref lists,
    ``is_goal`` and every flag, and its ``label`` is a string if present.
    Otherwise these default to empty, ``false`` and ``false``, and a
    ``null`` label is no label. ``shared`` is passed on to :func:`_refs`.
    """
    vuln = _expect(item, "vulnerability", str, path=path)
    uri_text = _expect(item, "uri", str, path=path)
    pres = _refs(item, "preconditions", PreconditionRef, "requires_user_action",
                 path, shared, complete)
    posts = _refs(item, "postconditions", PostconditionRef, "false_positive",
                  path, shared, complete)
    is_goal = _field(item, "is_goal", bool, path, complete)
    source = _optional(item, "source", str, "", path=path)
    label = item.get("label")
    if label is not None or (complete and "label" in item):
        label = _typed(label, str, path, what="field 'label'")
    try:
        return AttackState(vulnerability_name=vuln, uri=normalize_uri(uri_text),
                           preconditions=pres, postconditions=posts,
                           is_goal=is_goal, source=source, label=label)
    except (MalformedUri, SchemaViolation) as exc:
        raise SchemaViolation(str(exc), path=path) from exc


def _refs(item: dict, key: str, make: type, flag: str, path: str, shared: dict,
          complete: bool) -> tuple:
    """Pre- or postconditions of one finding object, built as
    ``make(condition, item[flag])``.

    ``shared`` maps each raw condition text to its condition and each
    ``(make, text, flag value)`` to its ref, so within one document a
    repeated text is normalized once and a repeated ref built once. An
    entry of exactly its two keys, a str text and a bool flag, is looked up
    in ``shared``; if its text is new, only the text is checked, for a lone
    surrogate and then a blank. Any other entry is checked in order: its
    type, a ``requires_user_action`` flag on a postcondition, its keys, the
    condition's type, its text, then the flag. An entry's JSON path is
    built only when it is checked.
    """
    entries = item.get(key)
    if type(entries) is not list:
        entries = _field(item, key, list, path, complete)
    refs = []
    for j, ref in enumerate(entries):
        text = value = None
        if type(ref) is dict and len(ref) == 2:
            text, value = ref.get("condition"), ref.get(flag)
        if type(text) is not str or type(value) is not bool:
            ref_path = f"{_child(path, key)}[{j}]"
            _typed(ref, dict, ref_path)
            if flag != "requires_user_action" and "requires_user_action" in ref:
                raise UnknownAssumptionFlag(
                    "requires_user_action is only valid on preconditions", path=ref_path)
            _reject_unknown(ref, {"condition", flag}, path=ref_path)
            text = _expect(ref, "condition", str, path=ref_path)
            if text not in shared:
                shared[text] = _condition(text, ref_path)
            value = _field(ref, flag, bool, ref_path, complete)
        made = shared.get((make, text, value))
        if made is None:
            condition = shared.get(text)
            if condition is None:
                ref_path = f"{_child(path, key)}[{j}]"
                condition = shared[text] = _condition(
                    _typed(text, str, ref_path, what="field 'condition'"), ref_path)
            made = shared[make, text, value] = make(condition, value)
        refs.append(made)
    return tuple(refs)


def _condition(label: str, path: str) -> Condition:
    try:
        return normalize_condition(label)
    except EmptyCondition as exc:
        raise SchemaViolation(str(exc), path=path) from exc


def _decode(document: str | bytes, what: str) -> str:
    """``document`` as text, less one leading byte-order mark (RFC 8259,
    section 8.1), whether given as bytes or as text. Bytes must be UTF-8;
    an error names the byte's position in the file."""
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaViolation(f"{what} is not valid UTF-8: {exc}") from exc
    return document.removeprefix("\ufeff")


def _decode_json_object(document: str | bytes, what: str) -> dict:
    """Decode UTF-8 and JSON and demand an object at the top level."""
    try:
        doc = json.loads(_decode(document, what=what))
    except ValueError as exc:  # JSONDecodeError, or an integer of too many digits
        raise SchemaViolation(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaViolation("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise SchemaViolation("top-level value must be an object")
    return doc


def _reject_unknown(obj: dict, allowed: set[str], path: str) -> None:
    if not obj.keys() <= allowed:
        unknown = sorted(set(obj) - allowed)
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


def _field(obj: dict, key: str, kind: type, path: str, required: bool) -> Any:
    """``obj[key]`` if ``required``, else ``obj[key]`` or ``kind()`` if
    absent: an empty list, or ``False``."""
    if required:
        return _expect(obj, key, kind, path=path)
    return _optional(obj, key, kind, kind(), path=path)


def _typed(value: Any, kind: type, path: str, what: str = "value") -> Any:
    """``value`` itself if it is a ``kind``. A bool never counts as an int,
    and a str must be encodable as UTF-8, so a lone surrogate is rejected."""
    if type(value) is not kind and (
            not isinstance(value, kind) or (kind is not bool and isinstance(value, bool))):
        raise SchemaViolation(f"{what} must be {kind.__name__}", path=path)
    if kind is str and not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise SchemaViolation(f"{what} contains a lone surrogate", path=path) from None
    return value
