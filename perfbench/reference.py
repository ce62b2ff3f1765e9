"""A fixed reference loop that measures how fast the host runs.

The machine the benchmark was written on is shared with other tenants: for
minutes at a time, every call of a pass takes about half as long again, and
shorter slow spells come and go within seconds. Between the calls of a pass
the benchmark runs this loop, in units of fixed work, for about a tenth of
the time the calls took. The run's host slowdown is the tenth percentile of
its unit times (the host's speed when least disturbed during the run) over
the unit's nominal time, and the benchmark reports times at nominal speed. The loop does the kinds of work pcg's hot paths do (bitmask
BFS over small graphs, dict memos, lookups in a table too big for the
fastest caches, small frozensets) and calls no pcg code, so a change to pcg
does not change it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

SHARE = 0.1  # reference time per second of measured calls
UNIT_NOMINAL_S = 0.008  # one unit's time on the machine the benchmark was written on, undisturbed

_ROUNDS = 150  # rounds per unit; one unit took about UNIT_NOMINAL_S there


def _build_tables():
    rng = random.Random(20081017)
    graphs = [[rng.getrandbits(10) for _ in range(10)] for _ in range(16)]
    keys = [rng.getrandbits(40) for _ in range(1 << 15)]
    return graphs, keys, {k: i for i, k in enumerate(keys)}


def _unit(tables) -> int:
    """Bitmask BFS rows with a dict memo, lookups in a 32k-entry dict, small frozensets."""
    graphs, keys, index = tables
    memo = {}
    total = 0
    x = 12345
    for r in range(_ROUNDS):
        for gi, adj in enumerate(graphs):
            src = (r + gi) % 10
            seen = 1 << src
            frontier = seen
            dist = 0
            while frontier:
                nxt = 0
                f = frontier
                while f:
                    low = f & -f
                    nxt |= adj[low.bit_length() - 1]
                    f ^= low
                frontier = nxt & ~seen
                dist += 1
                total += dist * frontier.bit_count()
                seen |= frontier
            key = (gi, src, seen)
            memo[key] = memo.get(key, 0) + 1
        for _ in range(48):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            total += index[keys[x & 0x7FFF]]
            memo[frozenset((x & 15, x >> 4 & 15))] = x
    return total


class Pacer:
    """Runs reference units in step with the measured calls of a run."""

    def __init__(self):
        self.tables = _build_tables()
        self.owed_s = 0.0
        self.unit_s = []

    def after(self, call_s: float):
        """Called after each measured call; runs the units the call is owed."""
        self.owed_s += SHARE * call_s
        # The cyclic collector stays off: its passes would walk pcg's heap and
        # tie the loop's speed to what pcg left in memory. The loop makes no cycles.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            while self.owed_s >= UNIT_NOMINAL_S or not self.unit_s:
                start = time.perf_counter()
                _unit(self.tables)
                self.unit_s.append(time.perf_counter() - start)
                self.owed_s -= UNIT_NOMINAL_S
        finally:
            if was_enabled:
                gc.enable()

    @property
    def slowdown(self) -> float:
        """Tenth-percentile unit time over its nominal time: above 1 when the host runs slow."""
        if len(self.unit_s) < 2:
            return self.unit_s[0] / UNIT_NOMINAL_S
        return statistics.quantiles(self.unit_s, n=10)[0] / UNIT_NOMINAL_S
