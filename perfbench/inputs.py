"""Seeded synthetic inputs and the outcomes they must produce.

Each generator returns the findings document and crawl list as bytes, the
same bytes for the same seed, together with an :class:`Expected` record
derived from how the input was built, never from running vulnchain. The
benchmark's checks compare the program's outputs against that record.

Labels identify states across the comparison: every finding gets a unique
``label`` and the start state is ``S0``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

START_LABEL = "S0"

_WORDS = (
    "amber", "basalt", "cedar", "delta", "ember", "fjord", "garnet", "harbor",
    "indigo", "juniper", "kestrel", "lagoon", "marble", "nectar", "onyx",
    "pepper", "quartz", "raven", "saffron", "tundra", "umber", "velvet",
    "willow", "xenon", "yarrow", "zephyr",
)
_VULNS = (
    "SQL injection", "Cross-site scripting", "Local file inclusion",
    "Remote file inclusion", "Open redirect", "Directory listing",
    "Weak password policy", "Session fixation", "Path traversal",
    "Cross-site request forgery", "Information disclosure",
)
_DIRS = ("admin", "app", "shop", "forum", "api", "static", "user", "blog")


def norm(label: str) -> str:
    """Condition id of a label: trimmed, whitespace collapsed, lowercased."""
    return " ".join(label.split()).lower()


@dataclass
class Expected:
    """What a correct analysis of a generated input reports, by state label."""

    assumed: tuple[str, ...]
    reachable: frozenset[str]
    goals_reached: frozenset[str]
    unreachable: dict[str, tuple[str, ...]]
    isolated: frozenset[str]
    witnesses: dict[str, tuple[str, ...]]
    in_nodes: frozenset[str]


@dataclass
class Generated:
    """One generated site: input bytes plus the findings as plain dicts."""

    findings_bytes: bytes
    crawl_bytes: bytes
    findings: list[dict]
    facts: list[str]
    expected: Expected | None = None
    user_actions: list[str] = field(default_factory=list)


def _pre(label: str, user_action: bool = False) -> dict:
    return {"condition": label, "requires_user_action": user_action}


def _post(label: str, false_positive: bool = False) -> dict:
    return {"condition": label, "false_positive": false_positive}


def _finding(rng: random.Random, label: str, index: int, pres, posts, goal: bool) -> dict:
    return {
        "label": label,
        "vulnerability": f"{rng.choice(_VULNS)} {rng.choice(_WORDS)}-{index}",
        "uri": f"/{rng.choice(_DIRS)}/{rng.choice(_WORDS)}{index}.php",
        "preconditions": pres,
        "postconditions": posts,
        "is_goal": goal,
        "source": "synthetic",
    }


def _encode(site: str, facts: list[str], findings: list[dict], rng: random.Random) -> tuple[bytes, bytes]:
    doc = {"site": site, "environment_facts": facts, "findings": findings}
    # Some crawl lines carry a scheme and host, which normalization drops.
    lines = [f"http://{site}{f['uri']}" if rng.random() < 0.3 else f["uri"] for f in findings]
    rng.shuffle(lines)
    return (json.dumps(doc, indent=1).encode("utf-8"),
            "\n".join([f"# crawl of {site}"] + lines + [""]).encode("utf-8"))


def chain(seed: int, n: int) -> Generated:
    """A deep chain: ``C{i}`` needs the condition ``C{i-1}`` grants.

    ``C1`` needs only the recon fact and is a goal, so it is the one
    isolated goal. Every 100th chain state is a goal reached only by
    chaining. Every 25th also needs a user-action condition, and all of
    them are assumed. Every 40th (from the 20th) also claims a false-positive
    condition that a side goal ``X{i}`` needs, so ``X{i}`` stays unreachable
    with exactly that condition missing.
    """
    rng = random.Random(f"chain:{seed}")
    word = rng.choice(_WORDS)
    fact = f"Recon: {word} server banner"
    cond = [fact] + [f"Chain condition {i} ({rng.choice(_WORDS)})" for i in range(1, n + 1)]
    findings, assumed, goals, unreachable, witnesses = [], [], {"C1"}, {}, {}
    for i in range(1, n + 1):
        pres = [_pre(cond[i - 1])]
        if i % 25 == 0:
            ua = f"User opens crafted link {i} ({word})"
            pres.append(_pre(ua, user_action=True))
            assumed.append(ua)
        posts = [_post(cond[i])]
        if i % 40 == 20:
            fp = f"Claimed takeover {i} ({word})"
            posts.append(_post(fp, false_positive=True))
            findings.append(_finding(rng, f"X{i}", n + i, [_pre(cond[i]), _pre(fp)],
                                     [_post(f"Side effect {i}")], True))
            unreachable[f"X{i}"] = (norm(fp),)
        goal = i == 1 or i % 100 == 0
        if goal:
            goals.add(f"C{i}")
            witnesses[f"C{i}"] = tuple(f"C{j}" for j in range(1, i + 1))
        findings.append(_finding(rng, f"C{i}", i, pres, posts, goal))
    rng.shuffle(findings)
    fb, cb = _encode(f"chain-{seed}.example", [fact], findings, rng)
    expected = Expected(
        assumed=tuple(assumed),
        reachable=frozenset({START_LABEL} | {f"C{i}" for i in range(1, n + 1)}),
        goals_reached=frozenset(goals),
        unreachable=unreachable,
        isolated=frozenset({"C1"}),
        witnesses=witnesses,
        in_nodes=frozenset(norm(a) for a in assumed),
    )
    return Generated(fb, cb, findings, [fact], expected, assumed)


def blocked(seed: int, n: int) -> Generated:
    """Mostly blocked: one state in ten fires, the rest never can.

    The firing tenth are pairs: ``P{2j-1}`` needs the recon fact and
    ``P{2j}`` needs what ``P{2j-1}`` grants. ``P1`` is the isolated goal and
    every 5th pair's second state is a goal reached by chaining. Every other
    state ``B{i}`` needs a condition nothing produces (one of its own) plus a
    granted ``P`` condition, and claims a false-positive postcondition.
    Every 20th ``B`` is a goal that stays unreachable.
    """
    rng = random.Random(f"blocked:{seed}")
    word = rng.choice(_WORDS)
    fact = f"Recon: {word} framework version"
    m = max(2, (n // 10) // 2 * 2)
    p = [f"Foothold {j} ({rng.choice(_WORDS)})" for j in range(1, m + 1)]
    findings, goals, unreachable, witnesses, unproduced = [], {"P1"}, {}, {"P1": ("P1",)}, set()
    for j in range(1, m + 1):
        pres = [_pre(fact if j % 2 else p[j - 2])]
        goal = j == 1 or (j % 2 == 0 and (j // 2) % 5 == 0)
        if goal and j > 1:
            goals.add(f"P{j}")
            witnesses[f"P{j}"] = (f"P{j - 1}", f"P{j}")
        findings.append(_finding(rng, f"P{j}", j, pres, [_post(p[j - 1])], goal))
    for i in range(1, n - m + 1):
        q = f"Missing prerequisite {i} ({rng.choice(_WORDS)})"
        unproduced.add(norm(q))
        goal = i % 20 == 0
        if goal:
            unreachable[f"B{i}"] = (norm(q),)
        pres = [_pre(q), _pre(rng.choice(p))]
        posts = [_post(f"Claimed escalation {i} ({word})", false_positive=True)]
        findings.append(_finding(rng, f"B{i}", m + i, pres, posts, goal))
    rng.shuffle(findings)
    fb, cb = _encode(f"blocked-{seed}.example", [fact], findings, rng)
    expected = Expected(
        assumed=(),
        reachable=frozenset({START_LABEL} | {f"P{j}" for j in range(1, m + 1)}),
        goals_reached=frozenset(goals),
        unreachable=unreachable,
        isolated=frozenset({"P1"}),
        witnesses=witnesses,
        in_nodes=frozenset(unproduced),
    )
    return Generated(fb, cb, findings, [fact], expected)


def dense(seed: int, n: int, layers: int = 12, user_actions: int = 12) -> Generated:
    """A dense layered random machine; its outcome is found by brute force.

    States of layer ``l`` grant 1-3 conditions from a shared pool of layer
    ``l`` (about three producers per condition; one grant in ten is a false
    positive) and need 1-3 conditions from the pools of the three layers
    before. Exactly one state in eight also needs a user-action condition,
    one in thirty a condition nothing produces, and one in twenty-five is a
    goal, so the machine's shape barely changes with the seed.
    """
    rng = random.Random(f"dense:{seed}")
    facts = [f"Recon fact {k} ({rng.choice(_WORDS)})" for k in range(4)]
    width = n // layers
    pools = [facts]
    ua = [f"Victim action {k} ({rng.choice(_WORDS)})" for k in range(user_actions)]
    needs_ua, blocked_at, goals = (set(rng.sample(range(1, n + 1), n // k)) for k in (8, 30, 25))
    findings, index = [], 0
    for layer in range(1, layers + 1):
        pool = [f"Layer {layer} condition {k} ({rng.choice(_WORDS)})"
                for k in range(max(1, width // 3))]
        for _ in range(width if layer < layers else n - index):
            index += 1
            sources = [c for lp in pools[-3:] for c in lp]
            pres = [_pre(c) for c in rng.sample(sources, rng.randint(1, 3))]
            if index in needs_ua:
                pres.append(_pre(rng.choice(ua), user_action=True))
            if index in blocked_at:
                pres.append(_pre(f"Unproduced condition {index}"))
            posts = [_post(c, false_positive=rng.random() < 0.1)
                     for c in rng.sample(pool, min(len(pool), rng.randint(1, 3)))]
            findings.append(_finding(rng, f"D{index}", index, pres, posts, index in goals))
        pools.append(pool)
    rng.shuffle(findings)
    used = sorted({pr["condition"] for f in findings for pr in f["preconditions"]
                   if pr["requires_user_action"]})
    fb, cb = _encode(f"dense-{seed}.example", facts, findings, rng)
    return Generated(fb, cb, findings, facts, None, used)


def assumption_sets(seed: int, user_actions: list[str], k: int) -> list[tuple[str, ...]]:
    """``k`` seeded subsets of the user-action labels, each holding half."""
    rng = random.Random(f"assume:{seed}")
    return [tuple(sorted(rng.sample(user_actions, len(user_actions) // 2))) for _ in range(k)]
