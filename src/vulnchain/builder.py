"""Assembling the machine: one state per finding plus the synthetic start state.

The condition indices are not built here; :class:`Fsm` derives them from its
states on first use.
"""

from __future__ import annotations

from typing import Iterable

from .errors import DuplicateState, SchemaViolation
from .ingest import FindingSet, UriVulnerabilityMap, map_findings_to_uris
from .model import AttackState, Condition, Fsm


def build_states(uri_map: UriVulnerabilityMap) -> tuple[AttackState, ...]:
    """One :class:`AttackState` per finding, sorted by id; no start state yet.

    Raises :class:`DuplicateState` defensively; ingestion should already
    have rejected repeated (vulnerability, URI) pairs.
    """
    states: dict[str, AttackState] = {}
    for key in sorted(uri_map.by_uri):
        for finding in uri_map.by_uri[key]:
            state = AttackState.from_finding(finding)
            if state.id in states:
                raise DuplicateState(
                    f"{state.vulnerability_name} @ {state.uri.display()} already present")
            states[state.id] = state
    return tuple(states[sid] for sid in sorted(states))


def attach_start_state(
    states: Iterable[AttackState],
    facts: Iterable[Condition],
    *,
    site: str = "",
    diagnostics: Iterable[str] = (),
) -> Fsm:
    """Assemble the machine: the given states plus the synthetic start state.

    This is the only way a machine is put together. The start state has no
    preconditions and grants exactly the environment facts; it is implicitly
    connected to every state whose preconditions are all satisfiable from
    those facts alone. States are ordered by id and diagnostics are
    deduplicated and sorted.
    """
    state_list = list(states)
    if any(s.is_start for s in state_list):
        raise SchemaViolation("a start state is already present")
    return Fsm(
        site=site,
        states=(AttackState.make_start(facts), *sorted(state_list, key=lambda s: s.id)),
        diagnostics=tuple(sorted(set(diagnostics))),
    )


def build_fsm(findings: FindingSet, crawled: frozenset[str] | None = None) -> Fsm:
    """End-to-end construction from validated inputs.

    Pure and deterministic: equal inputs yield machines that serialize
    identically. Crawler/scanner disagreement warnings from the URI mapping
    are the machine's diagnostics; warnings about the findings' content come
    from ingestion alone (:attr:`FindingSet.warnings`).
    """
    uri_map = map_findings_to_uris(findings, crawled)
    return attach_start_state(
        build_states(uri_map),
        findings.environment_facts,
        site=findings.site,
        diagnostics=uri_map.warnings,
    )
