"""Equilibrium verification and exhaustive search.

All verdicts are exact.  Scan orders are deterministic so witnesses are
reproducible: players ascending, strategies by size then lexicographic,
coalitions by size then member tuple, deviation graphs by ascending added-edge
mask.  Each exhaustive search states its estimated work to :func:`game.guard`,
which raises :class:`GuardExceeded` when the estimate is over the search's budget.

The strong-equilibrium search enumerates coalition deviations by their
resulting graph rather than by joint strategy tuples: for a coalition C, any
blocking deviation can be pruned (without changing its graph) so that every
added edge is bought exactly once by a member endpoint and nothing else is
bought, which only lowers member costs.  Per graph it then suffices to check
whether the added edges can be distributed among members within each member's
strict-improvement purchase budget, which a depth-first search over the
added edges' owners decides.

Before any BFS, a degree floor rules out most coalitions and graphs.  A
member of degree d pays at least d for its neighbours and min(2, beta) for
every other player, so it cannot gain when that floor reaches its current
cost, and otherwise it can buy only so many edges and still gain.  Degrees
are largest in the fullest graph a coalition can reach, so a member that
cannot gain there rules out the whole coalition; the summed budgets there
cap how many edges the coalition adds; and each graph is checked with its
own degrees before its distances are computed.  None of this skips a graph
that the matching would accept, so verdicts and witnesses do not depend on
it.  A ``check-strong`` on one of the five canonical n = 6 profiles of the
benchmark takes 6-50 ms on a 2-vCPU machine, about 0.13 s for all five.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from . import theory
from .bitgraph import (
    OPTIMUM_BUDGET,
    ScaledParams,
    adjacency_masks,
    edges_of_mask,
    graph_rows,
    graph_signatures,
    incident_mask,
    pair_count,
    star_mask,
    structure_table,
    submasks_ascending,
)
from .game import (
    INFINITE, Cost, GameParams, GuardExceeded, StrategyVector, check_int, check_players, guard, mask_to_set
)

# Work budgets, each checked by game.guard against the search's own estimate
BEST_RESPONSE_BUDGET = 16 * 2 ** 15  # n·2^(n-1) strategy costs: n <= 16
ENUMERATION_BUDGET = 25_920  # n·2^(C(n,2)-n+1)·3^(n-1) owned-set checks: n <= 5
OVERRIDE_FACTOR = 64  # override_guard's multiple of ENUMERATION_BUDGET: n <= 6
PERMUTATION_BUDGET = math.factorial(8)  # n! relabellings per canonical form: n <= 8
COALITION_WORK_LIMIT = 5_000_000  # deviation graphs, summed over coalition sizes
# Nash states an enumeration keeps: n = 5 has at most 3^C(5,2), as none buys an edge twice
STATE_BUDGET = 3 ** 10


@dataclass(frozen=True)
class Deviation:
    """A strictly improving unilateral move (new cost below old cost)."""

    player: int
    old_strategy: frozenset
    new_strategy: frozenset
    old_cost: Cost
    new_cost: Cost

    def __post_init__(self):
        if self.new_strategy == self.old_strategy:
            raise ValueError("deviation must change the strategy")


@dataclass(frozen=True)
class CoalitionDeviation:
    """A joint move after which every member is strictly better off."""

    players: tuple
    old_strategies: tuple
    new_strategies: tuple
    old_costs: tuple
    new_costs: tuple


@dataclass(frozen=True)
class EquilibriumReport:
    """Verdict plus the first refuting witness under the deterministic scan.

    ``strict`` is only meaningful on a true Nash verdict (no other strategy
    ties the current cost for any player); it is None on coalition reports.
    """

    verdict: bool
    strict: Optional[bool]
    witness: Union[Deviation, CoalitionDeviation, None]


@dataclass(frozen=True)
class BestResponse:
    cost: Cost
    strategies: tuple  # all minimizers, by size then lexicographic


# -- direct (single-state) evaluation -----------------------------------------


class _DirectScan:
    """Scaled cost evaluation of one player's alternatives, others fixed.

    ``strategy_cost`` keeps its own BFS, which starts from the player's
    neighbours.  A shared frontier BFS in :mod:`bitgraph` called from here made
    perfbench's seeded ``is_nash`` probes at n = 12..15 5.3% slower (median CPU
    time 1.950 s against 1.852 s over 16 alternating in-process rounds on a
    2-vCPU host; faster in 3 of 16).  With the 24 dynamics runs added, its
    median was 2.416 s against 2.518 s, but it was faster in only 3 of 8.
    """

    def __init__(self, state: StrategyVector, params: GameParams):
        check_players(state, params)
        n = self.n = params.n
        guard(f"best response at n = {n}: {n}*2^{n - 1} =", n << n - 1, "strategy costs", BEST_RESPONSE_BUDGET)
        self.sp = ScaledParams(params)
        self.masks = state.masks()

    def player_context(self, player: int):
        """(adjacency of everyone else's purchases, incoming-link mask)."""
        n = self.n
        adj = [0] * n
        inc = 0
        for j in range(n):
            if j == player:
                continue
            t = self.masks[j]
            if t >> player & 1:
                inc |= 1 << j
            while t:
                low = t & -t
                b = low.bit_length() - 1
                adj[j] |= low
                adj[b] |= 1 << j
                t ^= low
        return adj, inc

    def strategy_cost(self, player: int, targets_mask: int, adj, inc):
        """Scaled cost of playing ``targets_mask``; neighbors are targets plus buyers."""
        nbrs = targets_mask | inc
        n = self.n
        seen = (1 << player) | nbrs
        frontier = nbrs
        total = frontier.bit_count()
        reached = 1 + total
        dist = 1
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
        return self.sp.cost(targets_mask.bit_count(), total, n - reached)

    def current_cost(self, player: int):
        """Scaled cost of the player's own strategy."""
        return self.strategy_cost(player, self.masks[player], *self.player_context(player))

    def alternatives(self, player: int) -> Iterator[tuple]:
        """(targets mask, scaled cost) of every strategy of ``player``, in canonical order:
        by size, then by sorted target tuple.  Each cost is computed as it is consumed.

        Mapping ``strategy_cost`` over a mask list instead of yielding from a
        generator made minimizer scans at n = 8 and 10 about 4% faster (paired
        CPU-time runs on a shared 2-vCPU host).
        """
        adj, inc = self.player_context(player)
        bits = [1 << j for j in range(self.n) if j != player]
        by_size = (itertools.combinations(bits, k) for k in range(len(bits) + 1))
        masks = list(map(sum, itertools.chain.from_iterable(by_size)))
        same = itertools.repeat
        return zip(masks, map(self.strategy_cost, same(player), masks, same(adj), same(inc)))

    def minimizers(self, player: int) -> tuple:
        """(minimum scaled cost, every minimizing targets mask in canonical order)."""
        best = None
        mins = []
        for mask, c in self.alternatives(player):
            if best is None or c < best:
                best = c
                mins = [mask]
            elif c == best:
                mins.append(mask)
        return best, mins


def best_response(state: StrategyVector, player: int, params: GameParams) -> BestResponse:
    """Exact minimum cost for ``player`` against the others, with all minimizers."""
    scan = _DirectScan(state, params)
    check_int(player, "player", 0, params.n - 1)
    best, mins = scan.minimizers(player)
    return BestResponse(scan.sp.to_cost(best), tuple(mask_to_set(m) for m in mins))


def is_nash(state: StrategyVector, params: GameParams) -> EquilibriumReport:
    """No player can strictly improve unilaterally.

    The witness, when the verdict is false, is the first strictly improving
    deviation under the deterministic scan order.
    """
    scan = _DirectScan(state, params)
    strict = True
    for player in range(params.n):
        cur_mask = scan.masks[player]
        cur = scan.current_cost(player)
        for mask, c in scan.alternatives(player):
            if mask == cur_mask:
                continue
            if c < cur:
                witness = Deviation(
                    player=player,
                    old_strategy=state[player],
                    new_strategy=mask_to_set(mask),
                    old_cost=scan.sp.to_cost(cur),
                    new_cost=scan.sp.to_cost(c),
                )
                return EquilibriumReport(False, False, witness)
            if c == cur:
                strict = False
    return EquilibriumReport(True, strict, None)


# -- strong equilibrium --------------------------------------------------------


def _coalition_work(n: int, max_size: int) -> int:
    total = 0
    for k in range(1, max_size + 1):
        incident_pairs = k * (k - 1) // 2 + k * (n - k)
        total += math.comb(n, k) * (1 << incident_pairs)
    return total


def _match_edges(candidates: Sequence[tuple], caps: dict) -> Optional[list]:
    """Assign each edge one owner from its candidate pair within capacity.

    A depth-first search takes the edges in order and tries each edge's
    candidates in ascending order, skipping an owner with no capacity left,
    so the first complete assignment is the lexicographically smallest owner
    tuple.  None when there is none, which includes any negative cap.
    """
    if min(caps.values(), default=0) < 0:
        return None
    free = dict(caps)
    owners: list = []

    def place(e: int) -> bool:
        if e == len(candidates):
            return True
        for v in sorted(candidates[e]):
            if free[v] > 0:
                free[v] -= 1
                owners.append(v)
                if place(e + 1):
                    return True
                owners.pop()
                free[v] += 1
        return False

    return owners if place(0) else None


def check_max_coalition(n: int, max_coalition: Optional[int]) -> int:
    """The largest coalition searched at n players; refuses a cap outside 1..n."""
    return check_int(n if max_coalition is None else max_coalition, "max_coalition", 1, n)


def check_enumeration(n: int, mode: str, max_coalition: Optional[int]) -> None:
    """Refuse an enumeration mode or coalition cap that is out of range, and a cap outside strong mode."""
    if mode not in ("nash", "strong"):
        raise ValueError(f"mode must be 'nash' or 'strong', got {mode!r}")
    check_max_coalition(n, max_coalition)
    if max_coalition is not None and mode != "strong":
        raise ValueError(f"max_coalition needs mode 'strong', got mode {mode!r}")


def is_strong(
    state: StrategyVector, params: GameParams, max_coalition: Optional[int] = None
) -> EquilibriumReport:
    """No coalition (up to ``max_coalition`` members) has a deviation that
    strictly improves every member.

    Coalitions are scanned by size then member tuple; within a coalition,
    deviation graphs by ascending added-edge mask; the reported witness is the
    first blocking deviation with its canonical edge-ownership assignment.
    """
    n = params.n
    check_players(state, params)
    size_cap = check_max_coalition(n, max_coalition)
    what = f"coalition search at n = {n}, max_coalition = {size_cap}, faces up to"
    guard(what, _coalition_work(n, size_cap), "deviation graphs", COALITION_WORK_LIMIT)

    sp = ScaledParams(params)
    A = sp.alpha
    masks = state.masks()
    smask = [star_mask(n, i, masks[i]) for i in range(n)]
    full = 0
    for m in smask:
        full |= m
    incident = [incident_mask(n, v) for v in range(n)]

    rows = functools.cache(graph_rows)
    cur_rows = rows(full, n)
    cur = [sp.cost(masks[i].bit_count(), *cur_rows[i]) for i in range(n)]

    def can_buy(c, base):
        """Most edges a member can buy on top of ``base`` and still pay below
        ``c``; -1 when it cannot gain at all."""
        if base >= c:
            return -1
        return INFINITE if c == INFINITE else (c - base + A - 1) // A - 1

    # Degree floor: a neighbour is at distance 1 and anyone else at distance 2
    # or unreachable, whichever costs less, so a member of degree d in the
    # deviation graph pays at least floor[d] before buying anything, and can
    # buy at most budget[v][d] edges and still gain.
    floor = [min(sp.cost(0, 2 * n - 2 - d, 0), sp.cost(0, d, n - 1 - d)) for d in range(n)]
    budget = [[can_buy(c, f) for f in floor] for c in cur]

    def budget_sum(coalition, g: int):
        """Edges the members can buy in g while all gain; None if one cannot gain."""
        total = 0
        for member in coalition:
            b = budget[member][(g & incident[member]).bit_count()]
            if b < 0:
                return None
            total += b
        return total

    for size in range(1, size_cap + 1):
        for coalition in itertools.combinations(range(n), size):
            base = 0
            inside = set(coalition)
            for j in range(n):
                if j not in inside:
                    base |= smask[j]
            inc_c = 0
            for v in coalition:
                inc_c |= incident[v]
            free_slots = inc_c & ~base
            # Degrees, and with them budgets, are largest in the fullest graph.
            limit = budget_sum(coalition, base | free_slots)
            if limit is None:
                continue
            for added in submasks_ascending(free_slots, limit):
                g = base | added
                room = budget_sum(coalition, g)
                if room is None or added.bit_count() > room:
                    continue
                r = rows(g, n)
                caps = {m: can_buy(cur[m], sp.cost(0, *r[m])) for m in coalition}
                edges = edges_of_mask(added, n)
                candidates = [tuple(v for v in e if v in inside) for e in edges]
                assignment = _match_edges(candidates, caps)
                if assignment is None:
                    continue
                new_masks = {member: 0 for member in coalition}
                for (a, b), owner in zip(edges, assignment):
                    new_masks[owner] |= 1 << (b if owner == a else a)
                new_costs = [sp.to_cost(sp.cost(new_masks[m].bit_count(), *r[m])) for m in coalition]
                witness = CoalitionDeviation(
                    players=coalition,
                    old_strategies=tuple(state[m] for m in coalition),
                    new_strategies=tuple(mask_to_set(new_masks[m]) for m in coalition),
                    old_costs=tuple(sp.to_cost(cur[m]) for m in coalition),
                    new_costs=tuple(new_costs),
                )
                return EquilibriumReport(False, None, witness)
    return EquilibriumReport(True, None, None)


# -- player-permutation canonical form -----------------------------------------


def canonical_permutation_form(state: StrategyVector) -> tuple:
    """Smallest relabeling of the state over all n! player permutations."""
    n = state.n
    guard(f"canonical form at n = {n}: {n}! =", math.factorial(n), "relabellings", PERMUTATION_BUDGET)
    best = None
    for perm in itertools.permutations(range(n)):
        mapped = [None] * n
        for i, targets in enumerate(state.strategies):
            mapped[perm[i]] = tuple(sorted(perm[j] for j in targets))
        key = tuple(mapped)
        if best is None or key < best:
            best = key
    return best


def _swap_players(row: tuple, i: int) -> tuple:
    """``row`` (one target mask per player) with players i and i + 1 exchanged."""
    swapped = [m & ~(3 << i) | (m >> i & 1) << i + 1 | (m >> i + 1 & 1) << i for m in row]
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    return tuple(swapped)


def _orbit(row: tuple) -> set:
    """Every relabelling of ``row`` under the n! player permutations: its
    closure under the adjacent transpositions, which generate them all.
    Each member yields n - 1 images."""
    orbit, todo = {row}, [row]
    while todo:
        current = todo.pop()
        for i in range(len(row) - 1):
            image = _swap_players(current, i)
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


# -- exhaustive Nash enumeration ------------------------------------------------


class _Engine:
    """Per-parameter lookup tables for the graph-by-graph Nash scan.

    Because alpha > 0, a state in which both endpoints buy the same link is
    never Nash: either buyer can drop it, keep the graph and save alpha.  A
    Nash state is therefore a graph plus one owning endpoint per edge, and
    player i's condition depends only on the graph and the set of edges i
    owns.  Per graph the scan tests every owned set of every player once,
    skips the graph when some player has no passing set, and otherwise
    backtracks over the players in order: player i's edges to lower players
    are already owned, i picks which of its remaining edges it buys, and a
    failing owned set prunes the branch.

    The check reads two tables, both in scaled integers.  ``R[g * n + i]``
    is player i's distance and penalty cost in graph g.  ``best[i][h]`` is
    i's cheapest cost when everyone else's links form the graph h: it starts
    from ``R[h * n + i]`` (i buys nothing) and one superset-minimum pass per
    incident edge lets i buy that edge for alpha, n(n-1)·2^C(n,2) steps in
    all.  An owned set t passes when ``alpha·|t| + R[g * n + i]`` is at most
    ``best[i][g ^ star(i, t)]``.

    Each hit carries a sort key that joins the players' target masks, n bits
    each, player 0 most significant.  Sorting by it orders states
    lexicographically by their target masks, the order in which a
    state-by-state scan would find them.
    """

    def __init__(self, params: GameParams):
        n = self.n = params.n
        sp = ScaledParams(params)
        self.sp = sp
        dist_sums, missing = structure_table(n)
        self.missing = missing
        self.graph_count = graphs = 1 << pair_count(n)
        self.R = R = [sp.cost(0, ds, miss) for ds, miss in zip(dist_sums, missing)]
        # indexed by target mask
        self.star_masks = [[star_mask(n, i, t) for t in range(1 << n)] for i in range(n)]
        alpha = sp.alpha
        self.best = []
        for i in range(n):
            b = R[i::n]
            edges = incident_mask(n, i)
            while edges:
                bit = edges & -edges
                edges ^= bit
                for h in range(graphs):
                    if not h & bit and b[h | bit] + alpha < b[h]:
                        b[h] = b[h | bit] + alpha
            self.best.append(b)

    def scan_graphs(self, cap=INFINITE) -> list:
        """Nash states of every graph, unsorted.

        Each hit is (sort key, owned target masks, scaled social cost,
        disconnected); the last two are computed once per graph and shared by
        its hits.  The cost is scaled as in :class:`ScaledParams`
        (``cost * scale``), so callers compare integers and convert only the
        values they report.  The scan stops after the first graph that takes
        the hits past ``cap``.
        """
        n = self.n
        alpha = self.sp.alpha
        R = self.R
        missing = self.missing
        shift = [n * (n - 1 - i) for i in range(n)]
        owned = [0] * n
        hits = []

        def assign(i: int, key: int):
            if i == n:
                found.append((key, tuple(owned)))
                return
            bit = 1 << i
            forced = nbrs[i] & (bit - 1)  # i owns each edge to a lower player who did not buy it
            for j in range(i):
                if owned[j] & bit:
                    forced ^= 1 << j
            for t in passing[i].get(forced, ()):
                owned[i] = t
                assign(i + 1, key | t << shift[i])

        for g in range(self.graph_count):
            nbrs = adjacency_masks(g, n)
            gn = g * n
            passing = []  # per player: passing owned sets, keyed by their part below the player
            for i in range(n):
                lower = (1 << i) - 1
                dist_cost = R[gn + i]
                best, star = self.best[i], self.star_masks[i]
                sets: dict = {}
                for t in submasks_ascending(nbrs[i]):
                    if alpha * t.bit_count() + dist_cost <= best[g ^ star[t]]:
                        sets.setdefault(t & lower, []).append(t)
                if not sets:
                    break
                passing.append(sets)
            else:
                found = []
                assign(0, 0)
                if found:
                    cost = alpha * g.bit_count() + sum(R[gn:gn + n])
                    disconnected = any(missing[gn:gn + n])
                    hits.extend((key, masks, cost, disconnected) for key, masks in found)
                    if len(hits) > cap:
                        break
        return hits


@dataclass(frozen=True)
class OptimumResult:
    """Social-cost minimum over all graphs (ownership does not matter)."""

    n: int
    cost: Cost
    edges: tuple

    def as_state(self) -> StrategyVector:
        """The optimum graph as a profile where lower endpoints pay."""
        buys = [set() for _ in range(self.n)]
        for i, j in self.edges:
            buys[i].add(j)
        return StrategyVector(tuple(frozenset(b) for b in buys))


def social_optimum_bruteforce(params: GameParams) -> OptimumResult:
    """Exact minimum social cost over all 2^C(n,2) edge sets, one per signature.

    Ties resolve to the smallest edge mask, so boundary parameters return the
    empty graph when it participates in the tie.
    """
    n = params.n
    max_n = next(k for k in itertools.count(2) if 1 << pair_count(k + 1) > OPTIMUM_BUDGET)
    what = f"optimum brute force limited to n <= {max_n}, got {n}: 2^C({n},2) = 2^{pair_count(n)} graphs, or"
    guard(what, 1 << pair_count(n), "graphs", OPTIMUM_BUDGET)
    sp = ScaledParams(params)
    best, best_mask = min((sp.cost(*signature), mask) for signature, mask in graph_signatures(n).items())
    return OptimumResult(n=n, cost=sp.to_cost(best), edges=edges_of_mask(best_mask, n))


@dataclass(frozen=True)
class PriceMetrics:
    """Anarchy/stability ratios of one equilibrium kind, witnessed by its
    first worst and first best state; found=False when the kind does not
    exist at these parameters.  ``poa``/``pos`` are None when undefined (no
    equilibrium, or an infinite cost)."""

    found: bool
    equilibrium_count: int
    optimum_cost: Cost
    worst_cost: Optional[Cost]
    best_cost: Optional[Cost]
    poa: Optional[Fraction]
    pos: Optional[Fraction]
    worst_state: Optional[StrategyVector]
    best_state: Optional[StrategyVector]


def _prices(states: Sequence[StrategyVector], scaled: list, to_cost: dict, optimum: Cost) -> PriceMetrics:
    """The prices of ``states`` from their scaled integer costs, which ``to_cost`` converts."""
    if not states:
        return PriceMetrics(False, 0, optimum, None, None, None, None, None, None)
    worst, best = max(scaled), min(scaled)
    return PriceMetrics(
        found=True,
        equilibrium_count=len(states),
        optimum_cost=optimum,
        worst_cost=to_cost[worst],
        best_cost=to_cost[best],
        poa=_ratio(to_cost[worst], optimum),
        pos=_ratio(to_cost[best], optimum),
        worst_state=states[scaled.index(worst)],
        best_state=states[scaled.index(best)],
    )


def _ratio(cost: Cost, opt: Cost) -> Optional[Fraction]:
    return None if cost == INFINITE or opt == INFINITE else Fraction(cost) / Fraction(opt)


@dataclass(frozen=True)
class EnumerationResult:
    """Everything the full scan learned at one parameter point.

    ``equilibria`` lists Nash states in lexicographic order of the players'
    target masks, player 0 first, and ``prices`` summarises them.  The strong
    fields are filled only in mode ``strong``; iso fields only when
    ``dedupe_iso`` was requested.
    """

    params: GameParams
    mode: str
    states_examined: int
    equilibria: tuple
    costs: tuple
    disconnected_count: int
    prices: PriceMetrics
    strong_equilibria: Optional[tuple] = None
    strong_costs: Optional[tuple] = None
    strong_prices: Optional[PriceMetrics] = None
    iso_class_count: Optional[int] = None
    iso_representatives: Optional[tuple] = None


def enumerate_equilibria(
    params: GameParams,
    mode: str = "nash",
    *,
    dedupe_iso: bool = False,
    override_guard: bool = False,
    max_coalition: Optional[int] = None,
) -> EnumerationResult:
    """Find every Nash state exactly, graph by graph, and report the set.

    A mutual purchase is never Nash because alpha > 0, so the scan visits
    each graph once and backtracks over the owner of each edge (see
    :class:`_Engine`); equilibria come out in lexicographic order of the
    players' target masks, player 0 first, as a state-by-state scan would
    find them, and ``states_examined`` is the size of the full strategy
    space, 2^(n(n-1)).  The states are built from the hits' target masks by
    :meth:`StrategyVector.many_from_masks`, which checks each (player,
    target set) once instead of every target of every state.
    Strong mode verifies one representative per player-permutation class
    (the game is fully symmetric, so the verdict is class-invariant) in the
    pass that picks the ``dedupe_iso`` representatives: a class starts at its
    first state in scan order, whose :func:`_orbit` marks the rest.  The scan
    stops once the hits outgrow ``STATE_BUDGET``.  The optimum cost is the
    closed form of :func:`theory.social_optimum_class`, the cheapest of the
    empty graph, the star and the complete graph.
    """
    n = params.n
    check_enumeration(n, mode, max_coalition)
    e, factor = pair_count(n) - n + 1, OVERRIDE_FACTOR if override_guard else 1
    what = f"enumeration at n = {n} (--override-guard: budget x{OVERRIDE_FACTOR}): {n}*2^{e}*3^{n - 1} ="
    guard(what, (n << e) * 3 ** (n - 1), "owned-set checks", ENUMERATION_BUDGET * factor)

    engine = _Engine(params)
    hits = engine.scan_graphs(STATE_BUDGET)
    k = len(hits)
    guard(f"enumeration at n = {n} keeps every state it finds, and its scan stopped at", k, "Nash states", STATE_BUDGET)
    hits.sort()

    states = StrategyVector.many_from_masks(n, [hit[1] for hit in hits])
    scaled = [hit[2] for hit in hits]
    # hits share their graph's cost, so there are few distinct values: convert each once
    to_cost = {c: engine.sp.to_cost(c) for c in set(scaled)}
    costs = tuple(map(to_cost.__getitem__, scaled))
    disconnected = sum(1 for hit in hits if hit[3])

    optimum = theory.social_optimum_class(params).cost

    reps, verdicts = [], []  # the first state of each class in scan order; each state's strong verdict
    if mode == "strong" or dedupe_iso:
        classes: dict = {}  # target masks -> the strong verdict of their class; orbits partition the hits
        for state, hit in zip(states, hits):
            verdict = classes.get(hit[1])
            if verdict is None:
                verdict = mode == "strong" and is_strong(state, params, max_coalition).verdict
                reps.append(state)
                classes.update(dict.fromkeys(_orbit(hit[1]), verdict))
            verdicts.append(verdict)

    strong_states = strong_costs = strong_prices = None
    if mode == "strong":
        strong_states = tuple(itertools.compress(states, verdicts))
        strong_scaled = list(itertools.compress(scaled, verdicts))
        strong_costs = tuple(map(to_cost.__getitem__, strong_scaled))
        strong_prices = _prices(strong_states, strong_scaled, to_cost, optimum)

    iso_count = iso_reps = None
    if dedupe_iso:
        iso_count, iso_reps = len(reps), tuple(reps)

    return EnumerationResult(
        params=params,
        mode=mode,
        states_examined=1 << n * (n - 1),
        equilibria=states,
        costs=costs,
        disconnected_count=disconnected,
        prices=_prices(states, scaled, to_cost, optimum),
        strong_equilibria=strong_states,
        strong_costs=strong_costs,
        strong_prices=strong_prices,
        iso_class_count=iso_count,
        iso_representatives=iso_reps,
    )


def price_metrics(
    params: GameParams,
    mode: str = "nash",
    *,
    override_guard: bool = False,
    max_coalition: Optional[int] = None,
) -> PriceMetrics:
    """The prices of the Nash or the strong equilibria at ``params``, from one enumeration."""
    result = enumerate_equilibria(params, mode, override_guard=override_guard, max_coalition=max_coalition)
    return result.strong_prices if mode == "strong" else result.prices
