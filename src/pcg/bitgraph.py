"""Bitmask graph machinery backing the exhaustive searches.

Graphs on n <= 8 vertices are packed into integers: vertex subsets are
n-bit masks, edge sets are C(n,2)-bit masks with pair (i, j), i < j, at
bit ``pair_bit(n, i, j)`` (lexicographic over (i, j)).  Costs inside the
search loops are scaled integers: with alpha = a/q1 and beta = b/q2, every
cost times L = lcm(q1, q2) is an integer, so comparisons stay exact while
avoiding Fraction overhead; :meth:`ScaledParams.cost` builds every one of them.
``game.INFINITE`` stands in for the infinite penalty; it orders and adds
correctly against ints.

The per-n structure tables (the :func:`graph_rows` of every edge set) are
cached, built once, and serve equilibrium enumeration only.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

from .game import Cost, GameParams, INFINITE, guard

TABLE_BUDGET = 1 << 15  # graphs in a structure table: n <= 6
OPTIMUM_BUDGET = 2 ** 21  # 2^C(n,2) graphs behind the optimum's signatures: n <= 7


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_bit(n: int, i: int, j: int) -> int:
    """Bit index of edge (i, j), i < j, in an edge mask."""
    if i > j:
        i, j = j, i
    # pairs (0,1), (0,2), ..., (0,n-1), (1,2), ...
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def pair_list(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def adjacency_masks(edge_mask: int, n: int) -> list:
    adj = [0] * n
    bit = 1
    for i in range(n):
        for j in range(i + 1, n):
            if edge_mask & bit:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            bit <<= 1
    return adj


def bfs_row(adj: Sequence[int], source: int, n: int) -> tuple:
    """(sum of finite distances, number of unreachable vertices) from source."""
    seen = 1 << source
    frontier = seen
    dist = 0
    total = 0
    reached = 1
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= adj[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
        if not frontier:
            break
        dist += 1
        k = frontier.bit_count()
        total += dist * k
        reached += k
        seen |= frontier
    return total, n - reached


def star_mask(n: int, center: int, targets_mask: int) -> int:
    """Edge mask of the star from ``center`` to the vertices in ``targets_mask``."""
    m = 0
    t = targets_mask & ~(1 << center)
    while t:
        low = t & -t
        m |= 1 << pair_bit(n, center, low.bit_length() - 1)
        t ^= low
    return m


def incident_mask(n: int, vertex: int) -> int:
    return star_mask(n, vertex, ((1 << n) - 1) ^ (1 << vertex))


def graph_rows(g: int, n: int) -> tuple:
    """(distance sum, unreachable count) of every vertex of edge set g."""
    adj = adjacency_masks(g, n)
    return tuple([bfs_row(adj, v, n) for v in range(n)])  # a list display beats a generator here


@functools.cache
def structure_table(n: int) -> tuple:
    """Per edge set g and vertex v: distance sum and unreachable count.

    Returns (dist_sums, missing) as bytes-like arrays indexed ``g * n + v``.
    Cached per n; ``TABLE_BUDGET`` keeps this a few hundred kilobytes.
    """
    guard(f"structure table at n = {n} holds 2^C({n},2) =", 1 << pair_count(n), "graphs", TABLE_BUDGET)
    dist_sums = bytearray()
    missing = bytearray()
    for g in range(1 << pair_count(n)):
        for ds, miss in graph_rows(g, n):
            dist_sums.append(ds)
            missing.append(miss)
    return bytes(dist_sums), bytes(missing)


@functools.cache
def graph_signatures(n: int) -> dict:
    """Map (edge count, total distance, disconnected pair count) -> smallest edge mask.

    Social cost depends on an edge set only through this signature, which no
    relabelling changes, so one graph per isomorphism class is measured (1,044
    of the 2^21 at n = 7): each unseen mask, in ascending order, marks its class
    seen by closing it under the n - 1 adjacent vertex swaps.
    """
    total = 1 << pair_count(n)
    guard(f"graph signatures at n = {n} scan 2^C({n},2) =", total, "graphs", OPTIMUM_BUDGET)
    swaps = []
    for i in range(n - 1):
        # vertices i <-> i + 1 swap bits (k, i), (k, i + 1) one apart and (i, k), (i + 1, k) d apart
        low = sum(1 << pair_bit(n, k, i) for k in range(i))
        high = sum(1 << pair_bit(n, i, k) for k in range(i + 2, n))
        swaps.append((low, high, pair_bit(n, i + 1, n - 1) - pair_bit(n, i, n - 1)))
    seen = bytearray(total)
    signatures: dict = {}
    g = 0
    while g >= 0:
        seen[g] = 1
        orbit = [g]
        for m in orbit:
            for low, high, d in swaps:
                t = (m >> 1 ^ m) & low
                s = m ^ (t | t << 1)
                t = (s >> d ^ s) & high
                s ^= t | t << d
                if not seen[s]:
                    seen[s] = 1
                    orbit.append(s)
        rows = graph_rows(g, n)
        signatures.setdefault((g.bit_count(), sum(ds for ds, _ in rows), sum(miss for _, miss in rows)), g)
        g = seen.find(0, g + 1)
    return signatures


class ScaledParams:
    """Prices cleared of denominators: cost * scale is always an integer."""

    __slots__ = ("scale", "alpha", "beta")

    def __init__(self, params: GameParams):
        alpha = params.alpha
        if params.is_ncg:
            self.scale = alpha.denominator
            self.beta = INFINITE
        else:
            self.scale = alpha.denominator * params.beta.denominator // math.gcd(
                alpha.denominator, params.beta.denominator
            )
            self.beta = int(params.beta * self.scale)
        self.alpha = int(alpha * self.scale)

    def cost(self, bought: int, dist: int, missing: int):
        """(alpha·bought + dist + beta·missing)·scale: an int, or INFINITE in NCG mode; never INFINITE * 0."""
        return self.alpha * bought + self.scale * dist + (self.beta * missing if missing else 0)

    def to_cost(self, scaled) -> Cost:
        if scaled == INFINITE:
            return INFINITE
        return Fraction(scaled, self.scale)


def submasks_ascending(mask: int, most=INFINITE):
    """Submasks of ``mask`` with at most ``most`` bits, in increasing numeric order, starting at 0."""
    capped = most < mask.bit_count()  # testing every size made an uncapped Nash scan 3% slower
    sub = 0
    while True:
        yield sub
        sub = (sub - mask) & mask
        while capped and sub.bit_count() > most:
            # every submask below sub plus its lowest bit has too many bits
            sub = ((sub | ~mask) + (sub & -sub)) & mask
        if not sub:
            return


def edges_of_mask(edge_mask: int, n: int) -> tuple:
    pairs = pair_list(n)
    out = []
    m = edge_mask
    while m:
        low = m & -m
        out.append(pairs[low.bit_length() - 1])
        m ^= low
    return tuple(out)
