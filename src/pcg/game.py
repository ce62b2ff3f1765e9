"""Exact cost model for penalized network creation games.

A game has ``n`` players, an edge price ``alpha`` and a disconnection penalty
``beta``.  Each player unilaterally buys a set of undirected links to other
players; the union of all purchases induces an undirected graph.  A player
pays ``alpha`` per link it bought, the shortest-path distance to every player
it can reach, and ``beta`` for every player it cannot reach.  Setting
``beta = INFINITE`` recovers the classic network creation game in which
disconnection is infinitely expensive.

Everything here is exact: prices and costs are `fractions.Fraction` values,
with `math.inf` as the single distinguished infinite value (it compares and
adds exactly against rationals in CPython).  Distances are integers; a
disconnected pair is marked ``None`` in the distance matrix.

Conventions used throughout the package:

* players are ``0 .. n-1``;
* an edge is a pair ``(i, j)`` with ``i < j``;
* buying a link that the other endpoint also bought is legal (both pay
  ``alpha``, the graph gains a single edge);
* ties and scan orders are deterministic: players ascending, strategies
  ordered by size then lexicographically by sorted target tuple.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

INFINITE = math.inf

Cost = Union[Fraction, float]  # the float arm is only ever INFINITE
RATIONAL_DIGITS = 1_000  # most digits in p or in q of a rational parsed from text
_RATIONAL = re.compile(rf"\s*[+-]?[0-9]{{1,{RATIONAL_DIGITS}}}(/[0-9]{{1,{RATIONAL_DIGITS}}})?\s*")


def is_infinite(value: Cost) -> bool:
    return value == INFINITE


def as_rational(value) -> Fraction:
    """Convert ints, Fractions and strings ``[sign]p[/q]`` of ASCII digits to an exact Fraction."""
    if isinstance(value, float):
        raise ValueError(f"refusing inexact float {value!r}; pass a Fraction or 'p/q' string")
    # True == 1 would pass as a price; Fraction alone also reads 1e3000000, 1_000 and non-ASCII digits
    if isinstance(value, bool) or isinstance(value, str) and not _RATIONAL.fullmatch(value):
        raise ValueError(f"expected a rational p/q, got {value!r:.80}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"expected a rational p/q, got {value!r}") from None


def as_integer(text: str) -> int:
    """An integer written ``[sign]digits`` in ASCII: the grammar of :func:`as_rational` without ``/q``."""
    match = _RATIONAL.fullmatch(text)
    if not match or match.group(1):
        raise ValueError(f"expected an integer, got {text!r:.80}")
    return int(text)


def as_penalty(value) -> Cost:
    """Like :func:`as_rational` but admitting the infinite penalty."""
    if value == INFINITE or (isinstance(value, str) and value.strip().lower() == "inf"):
        return INFINITE
    return as_rational(value)


def as_alpha(value) -> Fraction:
    """An edge price: an exact rational above 0."""
    alpha = as_rational(value)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return alpha


def as_beta(value) -> Cost:
    """A disconnection penalty: an exact rational above 1, or INFINITE."""
    beta = as_penalty(value)
    if not beta > 1:
        raise ValueError(f"beta must exceed 1, got {beta}")
    return beta


def check_int(value, name: str, low: Optional[int] = None, high: Optional[int] = None) -> int:
    """``value`` when it is an exact ``int`` in ``low..high``, either end open; a float or a bool is refused."""
    if type(value) is not int or low is not None and value < low or high is not None and value > high:
        if high is None:
            bound = "" if low is None else f" >= {low}"
        else:
            bound = f" <= {high}" if low is None else f" in {low}..{high}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return value


@dataclass(frozen=True)
class GameParams:
    """Population size and prices.  Rejects n < 2, alpha <= 0 and beta <= 1."""

    n: int
    alpha: Fraction
    beta: Cost

    def __post_init__(self):
        check_int(self.n, "n", 2)
        object.__setattr__(self, "alpha", as_alpha(self.alpha))
        object.__setattr__(self, "beta", as_beta(self.beta))

    @property
    def is_ncg(self) -> bool:
        """True when disconnection is infinitely expensive."""
        return self.beta == INFINITE


def mask_to_set(mask: int) -> frozenset:
    """The players whose bits are set in ``mask``."""
    return frozenset(b for b in range(mask.bit_length()) if mask >> b & 1)


def check_targets(player: int, targets: frozenset, n: int) -> None:
    """Refuse a target set of ``player`` that holds a non-integer, a player
    outside 0..n-1, or ``player`` itself."""
    for j in targets:
        # bool is an int subclass, and True == 1 would hide in a target set
        if type(j) is not int and (isinstance(j, bool) or not isinstance(j, int)):
            raise ValueError(f"player {player}: target {j!r} is not an integer")
        if not 0 <= j < n:
            raise ValueError(f"player {player}: target {j!r} out of range 0..{n - 1}")
        if j == player:
            raise ValueError(f"player {player} cannot buy a link to itself")


@dataclass(frozen=True)
class StrategyVector:
    """One link-purchase set per player; ``strategies[i]`` never contains i.

    The constructor checks every target of every player.  Enumerated states
    come from :meth:`many_from_masks`, which checks each (player, target set)
    once and shares the checked set among all the states that hold it.
    """

    strategies: tuple

    def __post_init__(self):
        strategies = tuple(frozenset(s) for s in self.strategies)
        object.__setattr__(self, "strategies", strategies)
        n = len(strategies)
        if n < 1:
            raise ValueError("empty strategy vector")
        for i, targets in enumerate(strategies):
            check_targets(i, targets, n)

    @classmethod
    def many_from_masks(cls, n: int, rows: Sequence[Sequence[int]]) -> tuple:
        """States from rows of n target masks: bit j of ``row[i]`` set iff i buys the link to j.

        Equal to ``StrategyVector`` of each row's target sets, but each
        distinct (player, mask) is turned into a frozenset and checked only
        once, however many rows hold it.
        """
        if n < 1:
            raise ValueError("empty strategy vector")
        for row in rows:
            if len(row) != n:
                raise ValueError(f"row has {len(row)} target masks, expected {n}")
        tables = []
        for i in range(n):
            table = {}
            for mask in {row[i] for row in rows}:
                check_int(mask, f"player {i}: target mask", 0)
                targets = mask_to_set(mask)
                check_targets(i, targets, n)
                table[mask] = targets
            tables.append(table)
        new = object.__new__
        set_field = object.__setattr__
        states = []
        for row in rows:
            state = new(cls)
            set_field(state, "strategies", tuple(map(dict.__getitem__, tables, row)))
            states.append(state)
        return tuple(states)

    @property
    def n(self) -> int:
        return len(self.strategies)

    def __getitem__(self, i: int) -> frozenset:
        return self.strategies[i]

    def replace(self, player: int, new_strategy: Iterable[int]) -> "StrategyVector":
        check_int(player, "player", 0, self.n - 1)
        parts = list(self.strategies)
        parts[player] = frozenset(new_strategy)
        return StrategyVector(tuple(parts))

    def purchases(self, player: int) -> int:
        return len(self.strategies[player])

    def total_purchases(self) -> int:
        return sum(len(s) for s in self.strategies)

    def masks(self) -> tuple:
        """Bitmask form: bit j of masks[i] set iff i buys the link to j."""
        out = []
        for targets in self.strategies:
            m = 0
            for j in targets:
                m |= 1 << j
            out.append(m)
        return tuple(out)

    @classmethod
    def empty(cls, n: int) -> "StrategyVector":
        return cls(tuple(frozenset() for _ in range(n)))


@dataclass(frozen=True)
class InducedGraph:
    """Undirected graph induced by a strategy vector; ``edges`` is sorted."""

    n: int
    edges: tuple

    def adjacency(self) -> list:
        adj = [set() for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


def induce_graph(state: StrategyVector) -> InducedGraph:
    """Union of all purchases; a link bought by both endpoints is one edge."""
    edges = set()
    for i, targets in enumerate(state.strategies):
        for j in targets:
            edges.add((i, j) if i < j else (j, i))
    return InducedGraph(state.n, tuple(sorted(edges)))


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs hop distances; ``None`` marks a disconnected pair."""

    entries: tuple

    def distance(self, i: int, j: int) -> Optional[int]:
        return self.entries[i][j]


def _bfs_row(adj: Sequence[set], source: int, n: int) -> list:
    row = [None] * n
    row[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if row[w] is None:
                row[w] = row[v] + 1
                queue.append(w)
    return row


def all_pairs_distances(graph: InducedGraph) -> DistanceMatrix:
    adj = graph.adjacency()
    return DistanceMatrix(tuple(tuple(_bfs_row(adj, v, graph.n)) for v in range(graph.n)))


@dataclass(frozen=True)
class CostBreakdown:
    """One player's cost, split into link, distance and penalty parts."""

    edge_cost: Fraction
    distance_cost: int
    penalty_cost: Cost

    @property
    def total(self) -> Cost:
        return self.edge_cost + self.distance_cost + self.penalty_cost


def check_players(state: StrategyVector, params: GameParams) -> None:
    """Refuse a state whose player count differs from the game's."""
    if state.n != params.n:
        raise ValueError(f"state has {state.n} players, params expect {params.n}")


class GuardExceeded(RuntimeError):
    """An exhaustive search was refused because its estimated work is over budget."""


def guard(what: str, estimate: int, unit: str, budget: int) -> None:
    """Every refusal: ``{what} {estimate} {unit}, over the budget of {budget}`` when estimate > budget.

    An estimate of more than 1,000 bits is shown as ``at least 2^k``: Python
    refuses to print an int of more than 4,300 digits.
    """
    if estimate > budget:
        shown = estimate if estimate.bit_length() <= 1000 else f"at least 2^{estimate.bit_length() - 1}"
        raise GuardExceeded(f"{what} {shown} {unit}, over the budget of {budget}")


def _penalty(beta: Cost, missing: int) -> Cost:
    # branch so INFINITE * 0 never happens
    return beta * missing if missing else Fraction(0)


def individual_cost(state: StrategyVector, player: int, params: GameParams) -> CostBreakdown:
    """alpha per bought link + distance to every reachable player + beta per unreachable one."""
    check_players(state, params)
    check_int(player, "player", 0, params.n - 1)
    graph = induce_graph(state)
    row = _bfs_row(graph.adjacency(), player, state.n)
    finite = sum(d for d in row if d)
    missing = sum(1 for d in row if d is None)
    return CostBreakdown(
        edge_cost=params.alpha * state.purchases(player),
        distance_cost=finite,
        penalty_cost=_penalty(params.beta, missing),
    )


def social_cost(state: StrategyVector, params: GameParams) -> Cost:
    """Sum of all individual costs, computed at the graph level.

    Ownership-independent up to the total number of purchases: the distance
    and penalty terms depend only on the induced graph.
    """
    check_players(state, params)
    graph = induce_graph(state)
    adj = graph.adjacency()
    finite = 0
    missing = 0
    for v in range(state.n):
        row = _bfs_row(adj, v, state.n)
        finite += sum(d for d in row if d)
        missing += sum(1 for d in row if d is None)
    return params.alpha * state.total_purchases() + finite + _penalty(params.beta, missing)


def cost_delta(state: StrategyVector, player: int, new_strategy: Iterable[int], params: GameParams) -> Cost:
    """Cost change for ``player`` when switching to ``new_strategy``, others fixed.

    Negative means the switch is strictly profitable.  When both sides are
    infinite (NCG mode, player disconnected before and after) the delta is 0.
    """
    before = individual_cost(state, player, params).total
    after = individual_cost(state.replace(player, new_strategy), player, params).total
    if is_infinite(before) and is_infinite(after):
        return Fraction(0)
    return after - before


@dataclass(frozen=True)
class Component:
    """A connected component: vertex set, internal edge count, diameter."""

    vertices: frozenset
    edge_count: int
    diameter: int

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class ComponentDecomposition:
    components: tuple  # ordered by smallest vertex

    @property
    def connected(self) -> bool:
        return len(self.components) == 1

    @property
    def sizes(self) -> tuple:
        return tuple(c.size for c in self.components)

    def nonsingleton(self) -> tuple:
        return tuple(c for c in self.components if c.size > 1)


def components(state: StrategyVector) -> ComponentDecomposition:
    return graph_components(induce_graph(state))


def graph_components(graph: InducedGraph) -> ComponentDecomposition:
    """Components from the distance rows: a vertex's row reaches exactly its component."""
    rows = all_pairs_distances(graph).entries
    seen: set = set()
    out = []
    for start in range(graph.n):
        if start in seen:
            continue
        verts = frozenset(w for w, d in enumerate(rows[start]) if d is not None)
        seen |= verts
        edge_count = sum(1 for i, j in graph.edges if i in verts)
        diameter = max(d for v in verts for d in rows[v] if d is not None)
        out.append(Component(verts, edge_count, diameter))
    return ComponentDecomposition(tuple(out))


def random_state(n: int, rng) -> StrategyVector:
    """Uniform random state: each possible target bought with probability 1/2.

    ``rng`` is any source with ``getrandbits`` (e.g. ``random.Random``), so
    trajectories are reproducible from a seed.
    """
    buys = []
    for i in range(n):
        bits = rng.getrandbits(n - 1)  # bit b stands for player b, or b + 1 from b = i on
        low = bits & ((1 << i) - 1)
        buys.append(mask_to_set(low | (bits ^ low) << 1))
    return StrategyVector(tuple(buys))
