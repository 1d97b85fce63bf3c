"""Correctness checks that do not trust the program under test.

The machine file is read here with ``json`` alone and simulated by this
module's own firing rule; expectations come from the input generators or
from the fixture design, never from a stored copy of earlier output. Every
check raises :class:`CheckFailed` with a message naming what differs.
"""

from __future__ import annotations

import json
import re

from inputs import START_LABEL, Expected, norm

_IN_NODE = re.compile(r'^  "in:(.*)" \[shape=point\];$')
_STATE_NODE = re.compile(r'^  "([^"]+)" \[label=.*\];$')


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Machine:
    """A machine file as plain data, with its own closure and replay."""

    def __init__(self, text: str):
        doc = json.loads(text)
        self.states = {s["id"]: s for s in doc["states"]}
        starts = [sid for sid, s in self.states.items() if s["is_start"]]
        require(len(starts) == 1, f"machine has {len(starts)} start states")
        self.start = starts[0]
        self.initial = frozenset(norm(f) for f in doc["environment_facts"])
        self.label = {sid: s.get("label") or sid for sid, s in self.states.items()}
        self.by_label = {lb: sid for sid, lb in self.label.items()}
        self.pre = {sid: [(norm(r["condition"]), r["requires_user_action"]) for r in s["preconditions"]]
                    for sid, s in self.states.items()}
        self.grants = {sid: tuple(sorted(norm(r["condition"]) for r in s["postconditions"]
                                         if not r["false_positive"]))
                       for sid, s in self.states.items()}
        self.goals = frozenset(sid for sid, s in self.states.items() if s["is_goal"])
        self.order = sorted(sid for sid in self.states if sid != self.start)

    def fireable(self, sid: str, true, assumed) -> bool:
        return all(c in true or (ua and c in assumed) for c, ua in self.pre[sid])

    def closure(self, assumed: frozenset[str]) -> tuple[frozenset[str], frozenset[str]]:
        """Brute force: sweep every state until a sweep fires nothing."""
        visited, true = {self.start}, set(self.initial)
        changed = True
        while changed:
            changed = False
            for sid in self.order:
                if sid not in visited and self.fireable(sid, true, assumed):
                    visited.add(sid)
                    true.update(self.grants[sid])
                    changed = True
        return frozenset(visited), frozenset(true | assumed)

    def descent(self, assumed: frozenset[str]) -> frozenset[str]:
        """The paper's single pass in state-id order, never looking back."""
        visited, true = {self.start}, set(self.initial)
        for sid in self.order:
            if self.fireable(sid, true, assumed):
                visited.add(sid)
                true.update(self.grants[sid])
        return frozenset(visited)

    def true_after(self, visited, assumed) -> frozenset[str]:
        true = set(self.initial) | set(assumed)
        for sid in visited:
            true.update(self.grants[sid])
        return frozenset(true)

    def labels(self, ids) -> frozenset[str]:
        return frozenset(self.label[sid] for sid in ids)


def check_machine_input(machine: Machine, findings: list[dict], facts: list[str]) -> None:
    """The machine file holds exactly the generated findings and facts."""
    require(machine.initial == frozenset(norm(f) for f in facts), "environment facts differ")
    require(len(machine.states) == len(findings) + 1, "state count differs from the findings")
    require(machine.label[machine.start] == START_LABEL, "start state is not labelled S0")
    for f in findings:
        sid = machine.by_label.get(f["label"])
        require(sid is not None, f"finding {f['label']} has no state")
        s = machine.states[sid]
        require(s["vulnerability"] == f["vulnerability"] and s["uri"] == f["uri"]
                and s["is_goal"] == f["is_goal"], f"state {f['label']} differs from its finding")
        require(sorted(machine.pre[sid]) == sorted((norm(r["condition"]), r["requires_user_action"])
                                                   for r in f["preconditions"]),
                f"preconditions of {f['label']} differ")
        posts = sorted((norm(r["condition"]), r["false_positive"]) for r in s["postconditions"])
        require(posts == sorted((norm(r["condition"]), r["false_positive"]) for r in f["postconditions"]),
                f"postconditions of {f['label']} differ")


def check_report(machine: Machine, report_text: str, assumed: frozenset[str],
                 semantics: str = "fixed-point") -> dict:
    """Checks any report must pass, whatever the input: witnesses replay,
    goal sets and missing conditions agree with the reported reachable set."""
    doc = json.loads(report_text)
    require(doc["semantics"] == semantics, "wrong semantics in report")
    require(frozenset(doc["assumptions"]) == assumed, "report assumptions differ from the run's")
    visited = frozenset(doc["reachable_states"])
    require(visited <= set(machine.states), "report names unknown states")
    require(machine.start in visited, "start state missing from the reachable set")
    require(doc["fsm"]["states"] == len(machine.states) - 1, "state count wrong")
    require(doc["fsm"]["goals"] == len(machine.goals), "goal count wrong")
    reached = visited & machine.goals
    require(frozenset(doc["reachable_goals"]) == reached, "reachable goals differ from reachable states")
    true = machine.true_after(visited, assumed)
    unreachable = {g["state"]: tuple(g["missing_conditions"]) for g in doc["unreachable_goals"]}
    require(set(unreachable) == machine.goals - visited, "unreachable goals wrong")
    for goal, missing in unreachable.items():
        want = tuple(sorted(c for c, _ in machine.pre[goal] if c not in true))
        require(missing == want, f"missing conditions of {machine.label[goal]} wrong")
    isolated = frozenset(g for g in machine.goals
                         if machine.fireable(g, machine.initial, assumed))
    require(frozenset(doc["isolated_goals"]) == isolated, "isolated goals wrong")
    require(frozenset(doc["chained_goals"]) == reached, "chained goals wrong")
    require(frozenset(doc["chained_only_goals"]) == reached - isolated, "chained-only goals wrong")
    require([w["goal"] for w in doc["witnesses"]] == sorted(reached), "a reached goal lacks its witness")
    for w in doc["witnesses"]:
        replay(machine, w, assumed)
    return doc


def replay(machine: Machine, witness: dict, assumed: frozenset[str]) -> None:
    """Fire the witness steps from the initial conditions and the witness's
    own assumptions; every step must be fireable when it fires."""
    used = frozenset(witness["assumptions_used"])
    name = machine.label.get(witness["goal"], witness["goal"])
    require(used <= assumed, f"witness for {name} uses an assumption not granted")
    require(bool(witness["steps"]) and witness["steps"][-1]["state"] == witness["goal"],
            f"witness for {name} does not end at its goal")
    true = set(machine.initial)
    seen = set()
    for step in witness["steps"]:
        sid = step["state"]
        require(sid in machine.states and sid not in seen, f"witness for {name} has a bad step")
        require(machine.fireable(sid, true, used), f"witness for {name} fires {machine.label[sid]} too early")
        require(tuple(step["grants"]) == machine.grants[sid], f"witness for {name} grants wrong conditions")
        true.update(machine.grants[sid])
        seen.add(sid)


def check_expected(machine: Machine, report: dict, exp: Expected) -> None:
    """Compare a report with the outcome the generator built in."""
    require(machine.labels(report["reachable_states"]) == exp.reachable, "reachable set differs from closed form")
    require(machine.labels(report["reachable_goals"]) == exp.goals_reached, "reached goals differ from closed form")
    got = {machine.label[g["state"]]: tuple(g["missing_conditions"]) for g in report["unreachable_goals"]}
    require(got == exp.unreachable, "unreachable goals differ from closed form")
    require(machine.labels(report["isolated_goals"]) == exp.isolated, "isolated goals differ from closed form")
    require(machine.labels(report["chained_only_goals"]) == exp.goals_reached - exp.isolated,
            "chained-only goals differ from closed form")
    steps = {machine.label[w["goal"]]: tuple(machine.label[s["state"]] for s in w["steps"])
             for w in report["witnesses"]}
    require(steps == exp.witnesses, "witness paths differ from closed form")


def check_dot(machine: Machine, dot: str, visited, in_nodes: frozenset[str] | None = None) -> None:
    """One node per state, bold exactly on the visited states and, when
    given, one ``in:`` point node per unproduced condition."""
    lines = dot.splitlines()
    require(lines[0] == "digraph vulnerability_chains {" and lines[-1] == "}", "DOT is not one digraph")
    nodes = {m.group(1): line for line in lines if (m := _STATE_NODE.match(line))}
    require(set(nodes) == set(machine.states), "DOT state nodes differ from the machine")
    bold = {sid for sid, line in nodes.items() if "bold" in line}
    require(bold == set(visited), "DOT bold states differ from the reachable set")
    require(sum("fillcolor=red" in line for line in nodes.values()) == len(machine.goals),
            "DOT goal count wrong")
    if in_nodes is not None:
        got = {m.group(1) for line in lines if (m := _IN_NODE.match(line))}
        require(got == in_nodes, f"DOT has {len(got)} in: nodes, expected {len(in_nodes)}")


def check_machine_round_trip(vc, machine_text: str) -> None:
    """A loaded machine re-serializes byte-identically."""
    require(vc.fsm_to_json(vc.fsm_from_json(machine_text)) == machine_text,
            "machine file does not re-serialize byte-identically")


def check_report_round_trip(vc, report_text: str, report_obj=None) -> None:
    """A report survives ``report_from_json`` / ``report_to_json`` unchanged
    and, given the object it was written from, loads back equal to it."""
    loaded = vc.report_from_json(report_text)
    require(vc.report_to_json(loaded) == report_text, "report does not re-serialize byte-identically")
    if report_obj is not None:
        require(loaded == report_obj, "report_from_json(report_to_json(r)) != r")


# The fixtures' outcomes with every user-action condition assumed, written
# from the fixture design: labels of reached goals, states that must stay
# unreachable, and states each goal's witness must pass through.
FIXTURE_EXPECT = {
    "minimal": {"goals": set(), "unreachable": {"S4"}, "via": {}},
    "vulnweb": {"goals": {"S4", "S7", "S10"}, "unreachable": set(), "via": {}},
    "teacher": {"goals": {"S7"}, "unreachable": set(), "via": {"S7": {"S3", "S4", "S5", "S6"}}},
}


def check_fixture(site: str, machine: Machine, report: dict) -> None:
    want = FIXTURE_EXPECT[site]
    visited = report["reachable_states"]
    require(machine.labels(report["reachable_goals"]) == want["goals"], f"{site}: reached goals wrong")
    require(not machine.labels(visited) & want["unreachable"], f"{site}: a blocked state was reached")
    for w in report["witnesses"]:
        via = want["via"].get(machine.label[w["goal"]], set())
        require(via <= machine.labels(s["state"] for s in w["steps"]), f"{site}: witness skips a step")
