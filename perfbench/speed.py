"""The host's current speed, measured with a fixed reference task.

On the 2-core virtual machine this benchmark was built on, the CPU's speed
is not steady. The same pure-Python loop takes about 5 ms in some phases
and about 8.5 ms in others. The phases last from seconds to minutes and
appear on both vCPUs; CPU time equals wall time and steal time is about 0.
Wall-time medians of 26-second runs taken minutes apart therefore differed
by up to 50 %, far more than any regression worth catching.

So every timed interval is bracketed by :func:`probe`, a fixed task that
does the same kind of work as vulnchain (JSON decoding, string
normalization, dicts and sets, a closure, sorted JSON encoding) but never
calls it. The interval is reported scaled to a nominal host speed:
``seconds * NOMINAL_S / probe``, where ``probe`` is the median of the probe
runs around the interval. On a steady host the factor is a constant, so
comparisons between runs are unchanged. The probe runs with the garbage
collector paused, so collecting vulnchain's objects never lands inside it;
right after an analysis it is 1-3 % slower than when run twice in a row.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
from time import perf_counter

from checks import Machine

# Probe time at the nominal speed: its median on the reference machine.
NOMINAL_S = 0.015


def _reference_machine() -> str:
    rng = random.Random("probe")
    states = [{"id": "start", "is_start": True, "is_goal": False, "label": "S0",
               "preconditions": [], "postconditions": [{"condition": "Fact 0", "false_positive": False}]}]
    for i in range(1, 1501):
        states.append({
            "id": f"{i:06x}", "is_start": False, "is_goal": i % 20 == 0, "label": f"P{i}",
            "preconditions": [{"condition": f"Fact  {rng.randrange(i)}", "requires_user_action": False}],
            "postconditions": [{"condition": f"FACT {i}", "false_positive": i % 9 == 0}],
        })
    return json.dumps({"environment_facts": ["Fact 0"], "states": states}, indent=2)


_MACHINE = _reference_machine()


def probe() -> float:
    """Wall time of one run of the reference task."""
    gc.disable()
    try:
        t0 = perf_counter()
        machine = Machine(_MACHINE)
        visited, _ = machine.closure(frozenset())
        json.dumps({sid: machine.grants[sid] for sid in sorted(visited)}, indent=2, sort_keys=True)
        return perf_counter() - t0
    finally:
        gc.enable()


class Clock:
    """Probes the host's speed around timed intervals and scales them.

    Consecutive probes jitter by up to a fifth, so an interval is scaled by
    the median of the four probes around it: two before and two after. The
    host's speed phases last longer than that window.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.restart()

    def restart(self) -> None:
        """Probe afresh, because other work ran since the last probe."""
        self.probes.append(probe())

    def interval(self, seconds: float) -> tuple[float, int]:
        """Record an interval of ``seconds`` that has just ended."""
        self.probes.append(probe())
        return seconds, len(self.probes) - 2

    def scaled(self, interval: tuple[float, int]) -> float:
        """The interval's seconds at the nominal host speed; call it once the
        probes after the interval have been taken."""
        seconds, before = interval
        window = self.probes[max(0, before - 1):before + 3]
        return seconds * NOMINAL_S / statistics.median(window)
