"""Assembling the machine: the findings as states plus the synthetic start state.

The condition indices are not built here; :class:`Fsm` derives them from its
states on first use.
"""

from __future__ import annotations

from typing import Iterable

from .errors import SchemaViolation
from .ingest import FindingSet
from .model import URI_ALL, AttackState, Condition, Fsm


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
    """End-to-end construction from validated inputs: one state per finding.

    Pure and deterministic: equal inputs yield machines that serialize
    identically. The machine's diagnostics warn about each finding URI that
    is not in ``crawled`` (see :func:`vulnchain.ingest.parse_crawl_list`):
    scanner and crawler disagree, but the finding is kept. The ``*``
    sentinel never warns, and ``crawled=None`` gives no warnings. The
    machine derives its warnings about the findings' content itself, and
    :attr:`Fsm.warnings` lists them ahead of these diagnostics.
    """
    diagnostics = () if crawled is None else (
        f"no crawled resource matches finding URI {f.uri.display()!r}"
        for f in findings.findings
        if f.uri.canonical != URI_ALL and f.uri.canonical not in crawled
    )
    return attach_start_state(
        findings.findings, findings.environment_facts,
        site=findings.site, diagnostics=diagnostics)
