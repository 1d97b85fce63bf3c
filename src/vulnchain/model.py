"""Core domain types: conditions, URIs, machine states and results.

Everything here is immutable after construction and safe to share between
concurrent analyses. Identity rules live here and nowhere else:

* two conditions are the same condition iff their normalized ids are equal;
* two states are the same state iff they share (vulnerability, canonical URI).
"""

from __future__ import annotations

import hashlib
import re
import string
from collections import defaultdict
from dataclasses import InitVar, dataclass, field, fields
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Mapping
from urllib.parse import unquote, urlsplit

from .errors import EmptyCondition, MalformedUri, SchemaViolation

#: Canonical form of the "every crawled resource" sentinel URI ("ALL URI").
URI_ALL = "*"
#: Canonical form of the "no specific resource" sentinel URI ("NULL").
URI_NULL = ""
#: Fixed id of the synthetic start state (never collides with hash ids).
START_STATE_ID = "start"


# ---------------------------------------------------------------------------
# Per-state records
# ---------------------------------------------------------------------------
# Each record below is a frozen, slotted dataclass whose own ``__init__``
# stores each field once, through the field's slot descriptor, where the
# generated one stores it by name through ``object.__setattr__``.

def _slot_setters(cls: type) -> tuple:
    """The ``__set__`` of each field's slot descriptor of the dataclass
    ``cls``, in field order."""
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, init=False)
class Condition:
    """An atomic fact about the victim environment.

    ``id`` is the normalized token used for all matching; ``label`` keeps the
    original human-readable text for display. Equality is by id only.
    """

    id: str
    label: str = field(compare=False)

    def __init__(self, id: str, label: str) -> None:
        if not id:
            raise EmptyCondition("condition id must be non-empty")
        _set_condition_id(self, id)
        _set_condition_label(self, label)


_set_condition_id, _set_condition_label = _slot_setters(Condition)


def normalize_condition(label: str) -> Condition:
    """Build a :class:`Condition` from free text.

    Normalization lowercases, trims, and collapses internal whitespace runs
    to single spaces. Punctuation is preserved, so "weak password" and
    "weak password." are *different* conditions. Idempotent: normalizing a
    condition's id or label again yields the same id.
    """
    collapsed = " ".join(label.split())
    if not collapsed:
        raise EmptyCondition("condition label is empty or whitespace-only")
    return Condition(collapsed.lower(), label)


# ---------------------------------------------------------------------------
# URIs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, init=False)
class NormalizedUri:
    """A victim resource identifier in canonical form.

    ``canonical`` is the scheme-less, percent-decoded path with any trailing
    slash removed (the root ``/`` is kept) and the query string preserved
    verbatim. Two reserved canonicals exist: ``*`` ("ALL URI") and the
    empty string ("NULL"). Equality is by ``canonical`` only; ``raw`` keeps
    the input for round-tripping.
    """

    raw: str = field(compare=False)
    canonical: str

    def __init__(self, raw: str, canonical: str) -> None:
        _set_uri_raw(self, raw)
        _set_uri_canonical(self, canonical)

    @property
    def path(self) -> str:
        """Path part of ``canonical`` (query stripped)."""
        return self.canonical.split("?", 1)[0]

    def display(self) -> str:
        """Human-readable form; spells out the two sentinels."""
        if self.canonical == URI_ALL:
            return "ALL URI"
        if self.canonical == URI_NULL:
            return "NULL"
        return self.canonical


_set_uri_raw, _set_uri_canonical = _slot_setters(NormalizedUri)

_CONTROL_CHARS = re.compile(r"[\x00-\x1f\x7f]")
#: The one character stripped from the ends of a URI, its decoded path and
#: its query; any other there, such as U+0085 or U+00A0, is part of the URI.
_EDGE_SPACE = " "
#: The root, or slash-led segments of unreserved characters, after an
#: optional ``scheme://host[:port]`` of a plain host name or address: the
#: general path gives such a URI's path group, unchanged, as its canonical.
_CANONICAL_PATH = re.compile(
    r"(?:[A-Za-z][A-Za-z0-9+.-]*://[A-Za-z0-9.-]+(?::[0-9]+)?)?(/|(?:/[A-Za-z0-9._~-]+)+)")
#: Percent-decoding passes allowed per path; bounds work on hostile input.
_MAX_DECODES = 16


def _decode_path(path: str, raw: str) -> str:
    # Decode percent-escapes to a fixed point so re-normalizing a canonical
    # path can never change it again ("%2520" -> "%20" -> " "). A path that
    # is still changing after the last allowed pass has no canonical form.
    for _ in range(_MAX_DECODES):
        decoded = unquote(path)
        if decoded == path:
            return path
        path = decoded
    if unquote(path) != path:
        raise MalformedUri(
            f"percent-escapes nested more than {_MAX_DECODES} levels deep: {raw!r}")
    return path


def normalize_uri(raw: str) -> NormalizedUri:
    """Normalize a URI string; idempotent on its own canonical output.

    "ALL URI" maps to the reserved canonical ``*`` and "NULL" to the empty
    canonical. A scheme and authority, if present, are dropped; relative
    paths gain a leading slash; fragments are discarded. Two canonical
    forms skip these steps, since no step changes their path: the root or
    slash-led segments of letters, digits and ``._~-``, its own canonical,
    and the absolute form ``scheme://host[:port]`` before such a path, its
    host only letters, digits, dots and hyphens and its port only digits,
    whose canonical is that path.

    Only ASCII spaces are stripped: from the ends of the input, of the
    percent-decoded path and of the query; trailing slashes go with the
    path's trailing spaces.

    Raises :class:`MalformedUri` for whitespace-only input, control
    characters anywhere in the input or its percent-decoded path,
    percent-escapes nested more than 16 levels deep, or paths whose
    percent-decoded form cannot be re-parsed (decoded ``#`` or ``?`` inside
    the path).
    """
    canonical = _CANONICAL_PATH.fullmatch(raw)
    if canonical:
        return NormalizedUri(raw, canonical[1])
    if raw == "":
        # Re-entrant form of the NULL sentinel's canonical.
        return NormalizedUri(raw="", canonical=URI_NULL)
    if raw.isspace():
        raise MalformedUri("URI is whitespace-only")
    if _CONTROL_CHARS.search(raw):
        raise MalformedUri(f"URI contains control characters: {raw!r}")
    stripped = raw.strip(_EDGE_SPACE)

    lowered = stripped.lower()
    if lowered == "all uri" or stripped == URI_ALL:
        return NormalizedUri(raw=raw, canonical=URI_ALL)
    if lowered == "null":
        return NormalizedUri(raw=raw, canonical=URI_NULL)

    try:
        parts = urlsplit(stripped)
    except ValueError as exc:
        raise MalformedUri(f"cannot split URI {raw!r}: {exc}") from exc
    path = _decode_path(parts.path, raw)
    if _CONTROL_CHARS.search(path):
        raise MalformedUri(f"percent-decoded path contains control characters: {raw!r}")
    if "#" in path or "?" in path:
        raise MalformedUri(f"percent-decoded path cannot be re-split: {raw!r}")
    # A space at either end of the path or query, or a trailing slash, would
    # not survive a second normalization pass, so it is dropped.
    path = "/" + path.lstrip(_EDGE_SPACE).removeprefix("/")
    path = path.rstrip(_EDGE_SPACE + "/") or "/"
    query = parts.query.strip(_EDGE_SPACE)
    canonical = f"{path}?{query}" if query else path
    return NormalizedUri(raw=raw, canonical=canonical)


# ---------------------------------------------------------------------------
# Condition references
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, init=False)
class PreconditionRef:
    """A condition a state requires; dotted-edge flag for user actions."""

    condition: Condition
    requires_user_action: bool = False

    def __init__(self, condition: Condition, requires_user_action: bool = False) -> None:
        _set_pre_condition(self, condition)
        _set_pre_user_action(self, requires_user_action)


@dataclass(frozen=True, slots=True, init=False)
class PostconditionRef:
    """A condition a state grants; false positives are never granted."""

    condition: Condition
    false_positive: bool = False

    def __init__(self, condition: Condition, false_positive: bool = False) -> None:
        _set_post_condition(self, condition)
        _set_post_false_positive(self, false_positive)


_set_pre_condition, _set_pre_user_action = _slot_setters(PreconditionRef)
_set_post_condition, _set_post_false_positive = _slot_setters(PostconditionRef)


_CONDITION_ID = attrgetter("condition.id")


def _sorted_refs(refs, kind: str, vulnerability_name: str, uri: NormalizedUri) -> tuple:
    """``refs``, any iterable, as a tuple sorted by condition id; a
    repeated id is rejected, naming the state by its vulnerability and URI.

    Refs in strictly ascending id order, as every file stores them, are
    returned as they are: one pass proves both the order and that no id
    repeats (ids are never empty). Only other lists are sorted."""
    refs = tuple(refs)
    previous = ""
    for ref in refs:
        cid = ref.condition.id
        if cid <= previous:
            break
        previous = cid
    else:
        return refs
    ordered = tuple(sorted(refs, key=_CONDITION_ID))
    previous = None
    for ref in ordered:
        cid = ref.condition.id
        if cid == previous:
            raise SchemaViolation(f"duplicate {kind} condition {cid!r}",
                                  path=f"{vulnerability_name} @ {uri.display()}")
        previous = cid
    return ordered


def state_id(vulnerability_name: str, uri: NormalizedUri) -> str:
    """Stable opaque id for a (vulnerability, canonical URI) pair.

    Distinct pairs yield distinct ids; identical pairs always hash to the
    same token across runs and platforms.
    """
    name = " ".join(vulnerability_name.split()).lower()
    key = f"{name}@{uri.canonical}"
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Machine states
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, init=False)
class AttackState:
    """A node of the machine: one vulnerability on one URI, plus conditions.

    ``id`` is derived, never given: :func:`state_id` of the (vulnerability,
    URI) pair, or ``START_STATE_ID`` for the start state. Pre/postcondition
    lists are stored sorted by condition id (canonical ordering); no
    condition id may repeat within either list.
    """

    id: str = field(init=False)
    vulnerability_name: str
    uri: NormalizedUri
    preconditions: tuple[PreconditionRef, ...] = ()
    postconditions: tuple[PostconditionRef, ...] = ()
    is_goal: bool = False
    is_start: bool = False
    source: str = ""
    label: str | None = None

    def __init__(self, vulnerability_name: str, uri: NormalizedUri,
                 preconditions: tuple[PreconditionRef, ...] = (),
                 postconditions: tuple[PostconditionRef, ...] = (),
                 is_goal: bool = False, is_start: bool = False, source: str = "",
                 label: str | None = None) -> None:
        if not is_start and not vulnerability_name.strip():
            raise SchemaViolation("vulnerability name must be non-empty")
        preconditions = _sorted_refs(preconditions, "precondition", vulnerability_name, uri)
        postconditions = _sorted_refs(postconditions, "postcondition", vulnerability_name, uri)
        _set_state_id(self, START_STATE_ID if is_start else state_id(vulnerability_name, uri))
        _set_state_vulnerability_name(self, vulnerability_name)
        _set_state_uri(self, uri)
        _set_state_preconditions(self, preconditions)
        _set_state_postconditions(self, postconditions)
        _set_state_is_goal(self, is_goal)
        _set_state_is_start(self, is_start)
        _set_state_source(self, source)
        _set_state_label(self, label)

    def granted_condition_ids(self) -> tuple[str, ...]:
        """Condition ids this state makes true when it fires (FP excluded)."""
        return tuple(r.condition.id for r in self.postconditions if not r.false_positive)


(_set_state_id, _set_state_vulnerability_name, _set_state_uri, _set_state_preconditions,
 _set_state_postconditions, _set_state_is_goal, _set_state_is_start, _set_state_source,
 _set_state_label) = _slot_setters(AttackState)


# ---------------------------------------------------------------------------
# The machine itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fsm:
    """The assembled machine: the synthetic start state, then one state per
    finding, in id order.

    The constructor is the only way a machine is put together. It builds the
    start state from the environment ``facts``: no preconditions, never a
    goal, and the facts as postconditions, one per id with its first label.
    The start state is implicitly connected to every state whose preconditions
    the facts alone satisfy. ``findings`` may not hold a start state or repeat
    an id, and ``diagnostics``, deterministic notes from assembly such as
    uncrawled finding URIs, are stored deduplicated and sorted.

    States link only through their conditions, so every index is derived
    from them on first use and never stored: ``initial_conditions`` (what
    the start state grants), ``condition_ids``, ``producers`` and
    ``consumers`` (one walk over the refs derives all three), ``edges``
    and the content ``warnings``. ``producers`` and ``consumers`` hold lists
    of state ids in state order, keyed in first-seen order; of the indexes
    only ``condition_ids`` is sorted, as the one an output reads in order.
    """

    site: str
    findings: InitVar[Iterable[AttackState]]
    facts: InitVar[Iterable[Condition]]
    diagnostics: tuple[str, ...] = ()
    states: tuple[AttackState, ...] = field(init=False)

    def __post_init__(self, findings, facts) -> None:
        ordered = sorted(findings, key=attrgetter("id"))
        if any(s.is_start for s in ordered):
            raise SchemaViolation("a start state is already present")
        for earlier, later in zip(ordered, ordered[1:]):
            if earlier.id == later.id:
                raise SchemaViolation(f"duplicate state id {later.id!r}")
        start = AttackState(
            vulnerability_name="", uri=normalize_uri("/"), is_start=True, label="S0",
            postconditions=tuple(map(PostconditionRef, {c.id: c for c in [*facts][::-1]}.values())))
        object.__setattr__(self, "states", (start, *ordered))
        object.__setattr__(self, "diagnostics", tuple(sorted(set(self.diagnostics))))

    @property
    def start(self) -> AttackState:
        return self.states[0]

    @cached_property
    def by_id(self) -> Mapping[str, AttackState]:
        return {s.id: s for s in self.states}

    @cached_property
    def non_start_states(self) -> tuple[AttackState, ...]:
        return self.states[1:]

    @cached_property
    def goal_ids(self) -> frozenset[str]:
        return frozenset(s.id for s in self.states if s.is_goal)

    @cached_property
    def initial_conditions(self) -> frozenset[str]:
        """Condition ids true before any state fires: the environment facts."""
        return frozenset(self.start.granted_condition_ids())

    @cached_property
    def _links(self) -> tuple[Mapping[str, list[str]], Mapping[str, list[str]]]:
        """``(producers, consumers)``, keyed by condition id in first-seen
        order, from one walk that reads each ref of each state once and
        hands out the lists it appends to."""
        links: defaultdict[str, tuple[list[str], list[str]]] = defaultdict(lambda: ([], []))
        for s in self.states:
            for r in s.preconditions:
                links[r.condition.id][1].append(s.id)
            for r in s.postconditions:
                granters = links[r.condition.id][0]
                if not r.false_positive:
                    granters.append(s.id)
        return ({cid: p for cid, (p, _) in links.items()},
                {cid: c for cid, (_, c) in links.items()})

    @cached_property
    def condition_ids(self) -> tuple[str, ...]:
        """Every condition id any state lists, sorted."""
        return tuple(sorted(self.producers))

    @cached_property
    def producers(self) -> Mapping[str, list[str]]:
        """Condition id -> states granting it through non-false-positive
        postconditions (the start state grants the environment facts).

        Every condition id appears, in first-seen order, possibly with an
        empty list: an unsatisfiable precondition keeps no producer.
        """
        return self._links[0]

    @cached_property
    def consumers(self) -> Mapping[str, list[str]]:
        """Condition id -> states requiring it, in state order; every
        condition id appears, in first-seen order."""
        return self._links[1]

    @cached_property
    def user_action_condition_ids(self) -> frozenset[str]:
        return frozenset(
            r.condition.id
            for s in self.states for r in s.preconditions
            if r.requires_user_action
        )

    @cached_property
    def warnings(self) -> tuple[str, ...]:
        """Notes in the order ``build`` prints them: each precondition no
        state grants, user actions exempt, by id (usually a typo); each
        group of condition ids equal once punctuation is stripped (texts
        meant to match that do not); then the diagnostics."""
        unproduced = sorted({
            r.condition.id for s in self.states for r in s.preconditions
            if not r.requires_user_action and not self.producers[r.condition.id]})
        groups: dict[str, list[str]] = {}
        table = str.maketrans("", "", string.punctuation)
        for cid in self.condition_ids:
            groups.setdefault(" ".join(cid.translate(table).split()), []).append(cid)
        return (
            *(f"precondition {cid!r} has no producing finding and no matching environment fact"
              for cid in unproduced),
            *(f"conditions differ only in punctuation: {' / '.join(map(repr, group))}"
              for _, group in sorted(groups.items()) if len(group) > 1),
            *self.diagnostics)

    @cached_property
    def edges(self) -> tuple[tuple[str, str, str], ...]:
        """Structural edges (producer id, consumer id, condition id), sorted.

        An edge exists iff some condition is a non-false-positive
        postcondition of the producer and a precondition of the consumer.
        """
        consumers = self.consumers
        return tuple(sorted((producer, consumer, cid) for cid, p in self.producers.items()
                            for producer in p for consumer in consumers[cid]))

    @cached_property
    def edge_count(self) -> int:
        """Labeled condition edges plus the plain start edges to
        precondition-free states: the sum over condition ids ``cid`` of
        ``len(producers[cid]) * len(consumers[cid])``, plus
        ``len(unconditional_start_targets)``.

        A state grants and requires each condition at most once, so this
        counts ``edges`` without building it or reading a ref.
        """
        consumers = self.consumers
        labeled = sum(len(p) * len(consumers[cid]) for cid, p in self.producers.items())
        return labeled + len(self.unconditional_start_targets)

    @cached_property
    def unconditional_start_targets(self) -> tuple[str, ...]:
        """Precondition-free states, in id order; these get the plain start
        edges."""
        return tuple(s.id for s in self.non_start_states if not s.preconditions)

    def label_of(self, sid: str) -> str:
        """The state's label, else its id; ``start`` for the start state."""
        state = self.by_id[sid]
        return START_STATE_ID if state.is_start else state.label or sid


# ---------------------------------------------------------------------------
# Assumptions and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssumptionSet:
    """Condition ids the analyst assumes the victim user makes true.

    Only conditions that appear as ``requires_user_action`` preconditions
    somewhere in the machine are valid members; reachability rejects the
    rest at run time.
    """

    granted_user_actions: frozenset[str] = frozenset()

    @classmethod
    def of(cls, *labels: str) -> "AssumptionSet":
        return cls(frozenset(normalize_condition(lb).id for lb in labels))


@dataclass(frozen=True)
class ReachResult:
    """Closure of a reachability run on ``fsm``: every reachability fact about it.

    ``firing_order`` records first-visit order, start first. ``granted_by``
    is the first-grant record: condition id -> the state whose firing first
    made it true, the start state for each initial condition. The closure
    stores it as the condition turns true, so under either semantics it
    names the visited producer earliest in ``firing_order``. Its keys are
    ``initial ∪ granted-by-visited``; false positives never appear.
    ``witness_steps`` records each state's witness step the first time a
    witness of this result needs it, so every path through the state
    shares one tuple.
    """

    visited: frozenset[str]
    firing_order: tuple[str, ...]
    semantics: str
    assumptions: frozenset[str]
    granted_by: Mapping[str, str] = field(hash=False)
    fsm: Fsm = field(compare=False, repr=False)

    @cached_property
    def firing_position(self) -> Mapping[str, int]:
        """Visited state id -> its index in ``firing_order``."""
        return {sid: i for i, sid in enumerate(self.firing_order)}

    @cached_property
    def witness_steps(self) -> dict[str, tuple[str, tuple[str, ...]]]:
        """Visited state id -> its step ``(id, granted condition ids)``,
        filled by :func:`vulnchain.reach.extract_witness` on first use."""
        return {}


@dataclass(frozen=True)
class AttackPath:
    """Replayable witness for one goal.

    ``steps`` is an ordered list of (state id, condition ids granted at that
    step); replaying from ``initial ∪ assumptions_used`` satisfies each
    step's preconditions before it fires, and the last step is the goal.
    """

    goal: str
    steps: tuple[tuple[str, tuple[str, ...]], ...]
    assumptions_used: frozenset[str]
