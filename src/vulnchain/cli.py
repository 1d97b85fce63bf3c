"""Command-line front door.

Subcommands: ``build``, ``analyze``, ``whatif``, ``export-dot`` and
``diff-isolated``. Exit status 0 on success, 1 on validation problems
(including usage errors), 2 on internal errors.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path
from typing import Sequence

from .errors import InvalidAssumption, SchemaViolation, VulnchainError
from .ingest import build_fsm, fsm_from_json, fsm_to_json, parse_crawl_list, parse_findings
from .model import AssumptionSet, Fsm, ReachResult, normalize_condition
from .reach import ReachParams, Semantics, collect_goals, isolated_goals, reach
from .report import AnalysisReport, report_from_json, report_to_json, to_dot, to_report


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        self.parser = parser
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(self, message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="vulnchain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("build", help="ingest findings + crawl list and write the machine")
    p.add_argument("--findings", required=True, help="findings JSON file")
    p.add_argument("--crawl", required=True, help="crawl list (one URI per line)")
    p.add_argument("--out", required=True, help="output machine JSON file")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("analyze", help="run reachability and write a report")
    p.add_argument("--fsm", required=True, help="machine JSON file from 'build'")
    p.add_argument("--assume", action="append", default=[], metavar="COND",
                   help="grant a user-action condition (repeatable)")
    p.add_argument("--semantics", choices=[s.value for s in Semantics],
                   default=Semantics.FIXED_POINT.value)
    p.add_argument("--out", required=True, help="output report JSON file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("whatif", help="show the goal-set delta for toggled assumptions")
    p.add_argument("--fsm", required=True)
    p.add_argument("--toggle", action="append", required=True, metavar="COND",
                   help="flip a user-action assumption (repeatable; XOR)")
    p.set_defaults(func=_cmd_whatif)

    p = sub.add_parser("export-dot", help="write a Graphviz rendering of the machine")
    p.add_argument("--fsm", required=True)
    p.add_argument("--reach", help="report JSON; its visited states get bold outlines")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_dot)

    p = sub.add_parser("diff-isolated", help="print the chaining-amplification table")
    p.add_argument("--fsm", required=True)
    p.add_argument("--assume", action="append", default=[], metavar="COND")
    p.set_defaults(func=_cmd_diff_isolated)
    return parser


def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc.parser.format_usage(), end="", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help lands here with code 0
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (VulnchainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    """The console-script entry: :func:`cli_main` with the cyclic garbage
    collector off, since vulnchain's data holds no reference cycles. Tests
    and library callers run :func:`cli_main`, which leaves it as it is."""
    gc.disable()
    sys.exit(cli_main())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_build(args) -> int:
    finding_set = _in_file(args.findings, parse_findings)
    crawled = _in_file(args.crawl, parse_crawl_list)
    fsm = build_fsm(finding_set, crawled)
    for warning in fsm.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    Path(args.out).write_bytes(fsm_to_json(fsm).encode("utf-8"))
    print(f"states: {len(fsm.non_start_states)}, edges: {fsm.edge_count}, "
          f"goals: {len(fsm.goal_ids)}")
    return 0


def _cmd_analyze(args) -> int:
    fsm = _in_file(args.fsm, fsm_from_json)
    report = to_report(fsm, _reach(fsm, args.assume, "--assume", args.semantics))
    Path(args.out).write_bytes(report_to_json(report).encode("utf-8"))
    print(f"goals reached: {len(report.reachable_goals)}/{len(fsm.goal_ids)}")
    return 0


def _cmd_whatif(args) -> int:
    fsm = _in_file(args.fsm, fsm_from_json)
    toggled: set[str] = set()
    for cid in _match_conditions(fsm, args.toggle, "--toggle"):
        toggled.symmetric_difference_update({cid})
    base = reach(fsm)
    alt = reach(fsm, ReachParams(assumptions=AssumptionSet(frozenset(toggled))))
    print("assumptions:", " ".join(sorted(toggled)) or "(none)")
    print("states:", _fmt_delta(fsm, alt.visited, base.visited))
    print("goals:", _fmt_delta(fsm, collect_goals(alt, fsm), collect_goals(base, fsm)))
    return 0


def _cmd_export_dot(args) -> int:
    fsm = _in_file(args.fsm, fsm_from_json)
    result = None
    if args.reach:
        result = _in_file(args.reach, lambda data: _replay_report(fsm, report_from_json(data)))
    Path(args.out).write_bytes(to_dot(fsm, result).encode("utf-8"))
    return 0


def _cmd_diff_isolated(args) -> int:
    fsm = _in_file(args.fsm, fsm_from_json)
    result = _reach(fsm, args.assume, "--assume", Semantics.FIXED_POINT)
    reached = collect_goals(result, fsm)
    isolated = isolated_goals(fsm, result)
    rows = [
        ("isolated goals", isolated),
        ("chained goals", reached),
        ("chaining-only goals", reached - isolated),
    ]
    for name, ids in rows:
        shown = " ".join(fsm.label_of(sid) for sid in sorted(ids, key=fsm.label_of))
        print(f"{name}: {shown or '(none)'}")
    return 0


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _in_file(path: str, parser):
    """Run a parser over a file's bytes, prefixing errors with the filename."""
    try:
        return parser(Path(path).read_bytes())
    except VulnchainError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _replay_report(fsm: Fsm, report: AnalysisReport) -> ReachResult:
    """Re-run the reach a report records; it must visit the states the
    report lists."""
    result = _reach(fsm, report.assumptions, "assumptions", report.semantics)
    if sorted(result.visited) != report.reachable_states:
        raise SchemaViolation("report does not match this machine", path="reachable_states")
    return result


def _match_conditions(fsm: Fsm, texts: list[str], name: str) -> list[str]:
    """Resolve each --assume/--toggle argument to a known user-action
    condition; an error names the offending entry as ``name[i]``.

    Unknown ids are a hard error listing near matches; silently absorbing a
    typo would fake reachability.
    """
    out = []
    for i, text in enumerate(texts):
        try:
            cid = normalize_condition(text).id
        except VulnchainError as exc:
            raise type(exc)(f"{name}[{i}]: {exc}") from exc
        if cid not in fsm.user_action_condition_ids:
            import difflib  # only an error needs it, so starting the CLI does not load it
            near = difflib.get_close_matches(cid, sorted(fsm.user_action_condition_ids), n=3)
            hint = f"; did you mean: {', '.join(repr(n) for n in near)}" if near else ""
            raise InvalidAssumption(
                f"{name}[{i}]: {cid!r} is not a user-action precondition of any state{hint}")
        out.append(cid)
    return out


def _reach(fsm: Fsm, texts: list[str], name: str, semantics: str) -> ReachResult:
    """Run ``reach`` with the user actions ``texts`` name assumed; an
    unknown or blank one is an error naming ``name[i]``."""
    assumptions = AssumptionSet(frozenset(_match_conditions(fsm, texts, name)))
    return reach(fsm, ReachParams(semantics=Semantics(semantics), assumptions=assumptions))


def _fmt_delta(fsm: Fsm, new: frozenset[str], old: frozenset[str]) -> str:
    added = sorted(new - old, key=fsm.label_of)
    removed = sorted(old - new, key=fsm.label_of)
    parts = [f"+{fsm.label_of(sid)}" for sid in added]
    parts += [f"-{fsm.label_of(sid)}" for sid in removed]
    return " ".join(parts) or "(no change)"


if __name__ == "__main__":
    main()
