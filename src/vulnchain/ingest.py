"""Reading the crawl list, the findings document and the machine file,
building the machine, and writing the machine file.

Findings come in one format, the canonical findings JSON document. Native
formats of individual scanners are out of scope; normalize them into it
first. A machine file's states are finding objects too, read by
:func:`_finding`, the one reader of a finding object. The helpers here own
every loader rule, and the report loader in :mod:`vulnchain.report` uses
them too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
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

FSM_FORMAT_VERSION = 2

_FINDING_KEYS = frozenset({
    "vulnerability", "uri", "preconditions", "postconditions", "is_goal", "source", "label",
})


@dataclass(frozen=True)
class FindingSet:
    """Validated findings for one site plus recon facts known at the outset.

    ``environment_facts`` are conditions true before any state fires (server
    versions and similar discoveries); they may coincide with postconditions.
    Each finding is already the machine state it becomes. Both lists keep
    the document's order; :class:`Fsm` sorts them and keeps one fact per id.
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

    Lines end at CR LF, CR or LF alone, and only spaces and tabs are
    stripped from their ends, so a control character anywhere in a line is
    rejected as in a finding URI. Blank lines and ``#`` comments are
    ignored; duplicates are silently deduplicated. Raises
    :class:`MalformedUri` carrying the line number, also for the ``ALL URI``
    and ``NULL`` sentinels, which name no resource.
    """
    text = _decode(document, what="crawl list")
    crawled = {"/"}
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        entry = line.strip(" \t")
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
    and ``false``, and ``label`` may be ``null``. Document order is kept.
    """
    doc = _decode_json_object(document, what="findings document")
    _reject_unknown(doc, {"site", "environment_facts", "findings"}, path="$")
    site = _get(doc, "site", str, "$")
    facts = _environment_facts(doc)
    shared: dict = {}
    entries = [(path, _finding(item, path, shared, complete=False))
               for path, item in _objects(doc, "findings", _FINDING_KEYS, "$")]
    _reject_duplicate_states(entries)
    return FindingSet(site=site, environment_facts=facts, findings=tuple(f for _, f in entries))


def build_fsm(findings: FindingSet, crawled: frozenset[str]) -> Fsm:
    """The machine of validated inputs: one state per finding.

    Pure and deterministic: equal inputs yield machines that serialize
    identically. The machine's diagnostics warn about each finding URI that
    is not in ``crawled`` (see :func:`parse_crawl_list`): scanner and
    crawler disagree, but the finding is kept. The ``*`` sentinel never
    warns. The machine derives its warnings about the findings' content
    itself, and :attr:`Fsm.warnings` lists them ahead of these diagnostics.
    A machine without a crawl list is the :class:`Fsm` constructor's.
    """
    diagnostics = (
        f"no crawled resource matches finding URI {f.uri.display()!r}"
        for f in findings.findings
        if f.uri.canonical != URI_ALL and f.uri.canonical not in crawled
    )
    return Fsm(findings.site, findings.findings, findings.environment_facts, diagnostics)


# ---------------------------------------------------------------------------
# Machine files
# ---------------------------------------------------------------------------

def fsm_to_json(fsm: Fsm) -> str:
    """Serialize the machine so later commands can skip re-ingestion.

    Only the states, the environment facts and the diagnostics are stored;
    every index is derived again on load. The file is an intermediate, not
    a report, so it is written on one line with compact separators and
    sorted keys, non-ASCII as ``\\uXXXX`` escapes: the bytes ``json.dumps``
    writes with ``separators=(",", ":")`` and ``sort_keys=True``. No
    document is built for them. Each state entry is written as text by
    :func:`_state_text`, its strings through the C string encoder and its
    keys in their fixed sorted order.
    """
    return ('{"diagnostics":[' + ",".join(map(_quote, fsm.diagnostics))
            + '],"environment_facts":['
            + ",".join([_quote(r.condition.label) for r in fsm.start.postconditions])
            + f'],"format_version":{FSM_FORMAT_VERSION},"site":' + _quote(fsm.site)
            + ',"states":[' + ",".join(map(_state_text, fsm.states)) + "]}\n")


def _state_text(state: AttackState) -> str:
    """The compact JSON text of one state's entry in the machine file: its
    finding object, every field spelled out, plus ``id`` and ``is_start``.
    A ``source`` is written only if non-empty and a ``label`` only if
    present, as :func:`_finding` reads them back."""
    return "".join((
        '{"id":', _quote(state.id),
        ',"is_goal":true' if state.is_goal else ',"is_goal":false',
        ',"is_start":true' if state.is_start else ',"is_start":false',
        "" if state.label is None else ',"label":' + _quote(state.label),
        ',"postconditions":[', ",".join([
            '{"condition":' + _quote(r.condition.label)
            + (',"false_positive":true}' if r.false_positive else ',"false_positive":false}')
            for r in state.postconditions]), "]",
        ',"preconditions":[', ",".join([
            '{"condition":' + _quote(r.condition.label)
            + (',"requires_user_action":true}' if r.requires_user_action
               else ',"requires_user_action":false}')
            for r in state.preconditions]), "]",
        ',"source":' + _quote(state.source) if state.source else "",
        ',"uri":', _quote(state.uri.raw),
        ',"vulnerability":', _quote(state.vulnerability_name), "}"))


def fsm_from_json(document: str | bytes) -> Fsm:
    """Load a machine written by :func:`fsm_to_json`.

    Every field is read and type-checked by :func:`_get`, and errors name
    the JSON path. Each state is read by :func:`_finding`, the reader of a
    finding object, which here demands both ref lists, ``is_goal`` and
    every flag and never a ``null`` label; its stored ``id`` must be the
    derived one, and a repeated vulnerability and URI is rejected by the
    same check as a repeated finding. The machine is then assembled by the
    :class:`Fsm` constructor, like a freshly built one. The start entry is
    not read as a finding: re-dumped in the file's own compact sorted form,
    it must be exactly :func:`_state_text` of the assembled start state,
    the text the writer gives it. A file without a ``format_version`` is
    rejected as missing a required field, and one of another version at
    the path ``format_version``.

    Condition texts recur across states, so each distinct text is
    normalized once per call and the immutable refs are shared; a ref
    entry equal to one already checked is accepted by that equality, and a
    text's label is kept as written. A ref list in ascending id order, as
    the writer stores it, is kept as it is. Any JSON layout loads.
    """
    doc = _decode_json_object(document, what="machine file")
    version = _get(doc, "format_version", int, "$")
    if version != FSM_FORMAT_VERSION:
        raise SchemaViolation(
            f"unsupported format_version {version!r}; expected {FSM_FORMAT_VERSION} "
            "(rebuild the machine with 'vulnchain build')", path="format_version")
    _reject_unknown(doc, {"format_version", "site", "environment_facts", "states", "diagnostics"},
                    path="$")
    facts = _environment_facts(doc)
    diagnostics = [
        _typed(note, str, f"diagnostics[{i}]")
        for i, note in enumerate(_get(doc, "diagnostics", list, "$"))
    ]

    states = []
    start_entries = []
    shared: dict = {}
    for path, entry in _objects(doc, "states", _FINDING_KEYS | {"id", "is_start"}, "$"):
        if _get(entry, "is_start", bool, path):
            start_entries.append((path, entry))
            continue
        stored_id = _get(entry, "id", str, path)
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
    fsm = Fsm(_get(doc, "site", str, "$"), (state for _, state in states), facts, diagnostics)
    path, entry = start_entries[0]
    if json.dumps(entry, separators=(",", ":"), sort_keys=True) != _state_text(fsm.start):
        raise SchemaViolation(
            "start entry does not match the start state of environment_facts", path=path)
    return fsm


# ---------------------------------------------------------------------------
# Shared validation
# ---------------------------------------------------------------------------

def _environment_facts(doc: dict) -> tuple[Condition, ...]:
    """``doc["environment_facts"]`` as conditions, in document order."""
    facts = []
    for i, label in enumerate(_get(doc, "environment_facts", list, "$")):
        path = f"environment_facts[{i}]"
        facts.append(_condition(_typed(label, str, path), path))
    return tuple(facts)


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

    Every field is read by :func:`_get`, in the order vulnerability, URI,
    ref lists, ``is_goal``, ``source``, ``label``: an error names the first.
    """
    vuln = _get(item, "vulnerability", str, path)
    uri_text = _get(item, "uri", str, path)
    pres = _refs(item, "preconditions", PreconditionRef, "requires_user_action",
                 path, shared, complete)
    posts = _refs(item, "postconditions", PostconditionRef, "false_positive",
                  path, shared, complete)
    is_goal = _get(item, "is_goal", bool, path, _REQUIRED if complete else False)
    source = _get(item, "source", str, path, "")
    label = (None if not complete and item.get("label") is None
             else _get(item, "label", str, path, None))
    try:
        return AttackState(vuln, normalize_uri(uri_text), pres, posts, is_goal, False, source,
                           label)
    except (MalformedUri, SchemaViolation) as exc:
        raise SchemaViolation(str(exc), path=path) from exc


def _refs(item: dict, key: str, make: type, flag: str, path: str, shared: dict,
          complete: bool) -> tuple:
    """Pre- or postconditions of one finding object, built as
    ``make(condition, item[flag])``.

    ``shared`` maps each raw condition text to its condition and ``make``
    to two tables, for the flag values ``false`` and ``true``, of the refs
    built by text, so within one document a repeated text is normalized
    once and a repeated ref built once and found by one lookup. An
    entry of exactly its two keys, a str text and a bool flag, is looked up
    in ``shared``; if its text is new, only the text is checked, for a lone
    surrogate and then a blank. Any other entry is checked in order: its
    type, a ``requires_user_action`` flag on a postcondition, its keys, the
    condition's type, its text, then the flag. An entry's JSON path is
    built only when the entry is checked in full or its new text fails.
    """
    entries = _get(item, key, list, path, _REQUIRED if complete else ())
    built = shared.get(make)
    if built is None:
        built = shared[make] = ({}, {})
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
            text = _get(ref, "condition", str, ref_path)
            if text not in shared:
                shared[text] = _condition(text, ref_path)
            value = _get(ref, flag, bool, ref_path, _REQUIRED if complete else False)
        made = built[value].get(text)
        if made is None:
            condition = shared.get(text)
            if condition is None:
                try:
                    if not text.isascii():
                        text.encode("utf-8")
                    condition = shared[text] = normalize_condition(text)
                except (UnicodeEncodeError, EmptyCondition):
                    # Check the text again, now naming its JSON path.
                    ref_path = f"{_child(path, key)}[{j}]"
                    _condition(_typed(text, str, ref_path, what="field 'condition'"), ref_path)
                    raise
            made = built[value][text] = make(condition, value)
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
    for i, entry in enumerate(_get(obj, key, list, path)):
        entry_path = f"{_child(path, key)}[{i}]"
        if type(entry) is not dict:
            _typed(entry, dict, entry_path)
        _reject_unknown(entry, keys, path=entry_path)
        out.append((entry_path, entry))
    return out


_REQUIRED = object()


def _get(obj: dict, key: str, kind: type, path: str, default: Any = _REQUIRED) -> Any:
    """``obj[key]``, the one reader of a JSON field, or ``default`` if the
    key is absent; a field without a default is required. A value of type
    ``kind``, a str only if ASCII, returns at once; any other goes through
    :func:`_typed`, so a non-ASCII str is checked for a lone surrogate."""
    value = obj.get(key, _REQUIRED)
    if type(value) is kind and (kind is not str or value.isascii()):
        return value
    if value is _REQUIRED:
        if default is _REQUIRED:
            raise SchemaViolation(f"missing required field {key!r}", path=path)
        return default
    return _typed(value, kind, path, what=f"field {key!r}")


def _typed(value: Any, kind: type, path: str, what: str = "value") -> Any:
    """``value`` itself if its type is exactly ``kind``: ``json.loads`` makes
    no subclass, and a bool never counts as an int. A str must be encodable
    as UTF-8, so a lone surrogate is rejected."""
    if type(value) is not kind:
        raise SchemaViolation(f"{what} must be {kind.__name__}", path=path)
    if kind is str and not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise SchemaViolation(f"{what} contains a lone surrogate", path=path) from None
    return value
