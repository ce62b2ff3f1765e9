"""Equilibrium verification and exhaustive search.

All verdicts are exact.  Scan orders are deterministic so witnesses are
reproducible: players ascending, strategies by size then lexicographic,
coalitions by size then member tuple, deviation graphs by ascending added-edge
mask.  Exhaustive operations refuse oversized inputs with
:class:`GuardExceeded` instead of running forever.

The strong-equilibrium search enumerates coalition deviations by their
resulting graph rather than by joint strategy tuples: for a coalition C, any
blocking deviation can be pruned (without changing its graph) so that every
added edge is bought exactly once by a member endpoint and nothing else is
bought, which only lowers member costs.  Per graph it then suffices to check
whether the added edges can be distributed among members within each member's
strict-improvement purchase budget, a tiny matching problem.

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

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Tuple, Union

from .bitgraph import (
    INF,
    ScaledParams,
    adjacency_masks,
    bfs_row,
    edges_of_mask,
    graph_signatures,
    incident_mask,
    pair_count,
    star_mask,
    structure_table,
    submasks_ascending,
)
from .game import Cost, GameParams, StrategyVector

BEST_RESPONSE_MAX_N = 16
ENUMERATION_MAX_N = 5
ENUMERATION_OVERRIDE_MAX_N = 6
OPTIMUM_MAX_N = 8
DEFAULT_COALITION_WORK_LIMIT = 5_000_000


class GuardExceeded(RuntimeError):
    """An exhaustive search was refused because its space is too large."""


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


# -- canonical strategy order -------------------------------------------------


@lru_cache(maxsize=None)
def _canonical_digits(k: int) -> tuple:
    """All k-bit masks ordered by popcount, then by ascending bit tuple."""
    def key(d):
        return d.bit_count(), tuple(b for b in range(k) if d >> b & 1)

    return tuple(sorted(range(1 << k), key=key))


def digit_to_targets(d: int, player: int) -> int:
    """Expand a (n-1)-bit strategy digit to a full-width target mask (skip self)."""
    low = d & ((1 << player) - 1)
    return low | ((d >> player) << (player + 1))


def targets_to_digit(mask: int, player: int) -> int:
    low = mask & ((1 << player) - 1)
    return low | ((mask >> (player + 1)) << player)


def _mask_to_set(mask: int) -> frozenset:
    return frozenset(b for b in range(mask.bit_length()) if mask >> b & 1)


# -- direct (single-state) evaluation -----------------------------------------


class _DirectScan:
    """Scaled cost evaluation of one player's alternatives, others fixed."""

    def __init__(self, state: StrategyVector, params: GameParams):
        if state.n != params.n:
            raise ValueError(f"state has {state.n} players, params expect {params.n}")
        self.n = params.n
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
        sp = self.sp
        return sp.alpha * targets_mask.bit_count() + sp.scale * total + sp.penalty(n - reached)


def _check_br_guard(n: int):
    if n > BEST_RESPONSE_MAX_N:
        raise GuardExceeded(f"best-response scan limited to n <= {BEST_RESPONSE_MAX_N}, got {n}")


def best_response(state: StrategyVector, player: int, params: GameParams) -> BestResponse:
    """Exact minimum cost for ``player`` against the others, with all minimizers."""
    _check_br_guard(params.n)
    scan = _DirectScan(state, params)
    adj, inc = scan.player_context(player)
    best = None
    mins = []
    for d in _canonical_digits(params.n - 1):
        mask = digit_to_targets(d, player)
        c = scan.strategy_cost(player, mask, adj, inc)
        if best is None or c < best:
            best = c
            mins = [mask]
        elif c == best:
            mins.append(mask)
    return BestResponse(scan.sp.to_cost(best), tuple(_mask_to_set(m) for m in mins))


def is_nash(state: StrategyVector, params: GameParams) -> EquilibriumReport:
    """No player can strictly improve unilaterally.

    The witness, when the verdict is false, is the first strictly improving
    deviation under the deterministic scan order.
    """
    _check_br_guard(params.n)
    scan = _DirectScan(state, params)
    strict = True
    for player in range(params.n):
        adj, inc = scan.player_context(player)
        cur_mask = scan.masks[player]
        cur = scan.strategy_cost(player, cur_mask, adj, inc)
        for d in _canonical_digits(params.n - 1):
            mask = digit_to_targets(d, player)
            if mask == cur_mask:
                continue
            c = scan.strategy_cost(player, mask, adj, inc)
            if c < cur:
                witness = Deviation(
                    player=player,
                    old_strategy=state[player],
                    new_strategy=_mask_to_set(mask),
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
        total += _comb(n, k) * (1 << incident_pairs)
    return total


def _comb(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def _match_edges(candidates: Sequence[tuple], caps: dict) -> Optional[list]:
    """Assign each edge one owner from its candidate pair within capacity.

    Classic augmenting-path matching over capacity slots; canonical result:
    edges processed in order, preferring the smallest feasible owner.
    """
    total = len(candidates)
    if total == 0:
        return []

    def feasible(start: int, free: dict) -> bool:
        # can edges[start:] be assigned within the remaining capacities?
        slots = []
        slot_ids = {}
        for v, c in free.items():
            slot_ids[v] = range(len(slots), len(slots) + min(c, total))
            slots.extend([v] * min(c, total))
        used = {}

        def augment(e: int, visited: set) -> bool:
            for v in candidates[e]:
                for s in slot_ids.get(v, ()):
                    if s in visited:
                        continue
                    visited.add(s)
                    if s not in used or augment(used[s], visited):
                        used[s] = e
                        return True
            return False

        for e in range(start, total):
            if not augment(e, set()):
                return False
        return True

    free = dict(caps)
    if not feasible(0, free):
        return None
    assignment = []
    for e in range(total):
        chosen = None
        for v in sorted(candidates[e]):
            if free[v] <= 0:
                continue
            free[v] -= 1
            if feasible(e + 1, free):
                chosen = v
                break
            free[v] += 1
        if chosen is None:  # pragma: no cover - overall feasibility guarantees progress
            return None
        assignment.append(chosen)
    return assignment


def _submasks_upto(mask: int, k) -> Iterable[int]:
    """Submasks of ``mask`` with at most ``k`` bits (``k`` may be INF), ascending."""
    sub = 0
    while True:
        yield sub
        sub = (sub - mask) & mask
        while sub.bit_count() > k:
            # every submask below sub plus its lowest bit has too many bits
            sub = ((sub | ~mask) + (sub & -sub)) & mask
        if not sub:
            return


def is_strong(
    state: StrategyVector,
    params: GameParams,
    max_coalition: Optional[int] = None,
    *,
    work_limit: int = DEFAULT_COALITION_WORK_LIMIT,
) -> EquilibriumReport:
    """No coalition (up to ``max_coalition`` members) has a deviation that
    strictly improves every member.

    Coalitions are scanned by size then member tuple; within a coalition,
    deviation graphs by ascending added-edge mask; the reported witness is the
    first blocking deviation with its canonical edge-ownership assignment.
    """
    n = params.n
    if state.n != n:
        raise ValueError(f"state has {state.n} players, params expect {params.n}")
    size_cap = n if max_coalition is None else max_coalition
    if not 1 <= size_cap <= n:
        raise ValueError(f"max_coalition must be in 1..{n}, got {max_coalition}")
    work = _coalition_work(n, size_cap)
    if work > work_limit:
        raise GuardExceeded(
            f"coalition search space ~{work} exceeds limit {work_limit} (n={n}, max_coalition={size_cap})"
        )

    sp = ScaledParams(params)
    L, A = sp.scale, sp.alpha
    masks = state.masks()
    smask = [star_mask(n, i, masks[i]) for i in range(n)]
    full = 0
    for m in smask:
        full |= m
    incident = [incident_mask(n, v) for v in range(n)]

    rows_cache: dict = {}

    def rows(g: int):
        r = rows_cache.get(g)
        if r is None:
            adj = adjacency_masks(g, n)
            r = tuple(bfs_row(adj, v, n) for v in range(n))
            rows_cache[g] = r
        return r

    cur_rows = rows(full)
    cur = [
        A * masks[i].bit_count() + L * cur_rows[i][0] + sp.penalty(cur_rows[i][1])
        for i in range(n)
    ]

    # Degree floor: a neighbour costs L and anyone else at least min(2L, beta),
    # so a member of degree d in the deviation graph pays at least floor[d]
    # before buying anything, and can buy at most budget[v][d] edges and still
    # gain.  A negative budget means floor[d] >= cur[v]: v cannot gain at all.
    far = min(2 * L, sp.beta)
    floor = [L * d + (n - 1 - d) * far for d in range(n)]
    budget = [
        [INF if c == INF else (c - f + A - 1) // A - 1 for f in floor] for c in cur
    ]

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
            for added in _submasks_upto(free_slots, limit):
                g = base | added
                room = budget_sum(coalition, g)
                if room is None or added.bit_count() > room:
                    continue
                r = rows(g)
                caps = {}
                dead = False
                for member in coalition:
                    ds, miss = r[member]
                    zero_cost = L * ds + sp.penalty(miss)
                    if not zero_cost < cur[member]:
                        dead = True
                        break
                    if cur[member] == INF:
                        caps[member] = added.bit_count()
                    else:
                        caps[member] = (cur[member] - zero_cost + A - 1) // A - 1
                if dead:
                    continue
                edges = edges_of_mask(added, n)
                candidates = [tuple(v for v in e if v in inside) for e in edges]
                assignment = _match_edges(candidates, caps)
                if assignment is None:
                    continue
                new_masks = {member: 0 for member in coalition}
                for (a, b), owner in zip(edges, assignment):
                    new_masks[owner] |= 1 << (b if owner == a else a)
                new_costs = []
                for member in coalition:
                    ds, miss = r[member]
                    new_costs.append(
                        sp.to_cost(A * new_masks[member].bit_count() + L * ds + sp.penalty(miss))
                    )
                witness = CoalitionDeviation(
                    players=coalition,
                    old_strategies=tuple(state[m] for m in coalition),
                    new_strategies=tuple(_mask_to_set(new_masks[m]) for m in coalition),
                    old_costs=tuple(sp.to_cost(cur[m]) for m in coalition),
                    new_costs=tuple(new_costs),
                )
                return EquilibriumReport(False, None, witness)
    return EquilibriumReport(True, None, None)


# -- player-permutation canonical form -----------------------------------------


def canonical_permutation_form(state: StrategyVector) -> tuple:
    """Smallest relabeling of the state under player permutations (n <= 8)."""
    n = state.n
    if n > 8:
        raise GuardExceeded(f"permutation canonical form limited to n <= 8, got {n}")
    best = None
    for perm in itertools.permutations(range(n)):
        mapped = [None] * n
        for i, targets in enumerate(state.strategies):
            mapped[perm[i]] = tuple(sorted(perm[j] for j in targets))
        key = tuple(mapped)
        if best is None or key < best:
            best = key
    return best


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

    Hits are reported by their index in the full strategy space, base
    2^(n-1) with player 0's strategy digit most significant, so sorting
    them gives the order of a state-by-state scan, and contiguous ranges of
    edge masks can be scanned independently and merged.
    """

    def __init__(self, params: GameParams):
        self.params = params
        n = params.n
        self.n = n
        sp = ScaledParams(params)
        self.sp = sp
        self.digits_per_player = 1 << (n - 1)
        dist_sums, missing = structure_table(n)
        self.missing = missing
        self.graph_count = graphs = 1 << pair_count(n)
        beta = sp.beta
        scale = sp.scale
        R = [0] * (graphs * n)
        for idx in range(graphs * n):
            miss = missing[idx]
            R[idx] = scale * dist_sums[idx] + (beta * miss if miss else 0)
        self.R = R
        B = self.digits_per_player
        self.star_masks = [
            [star_mask(n, i, digit_to_targets(d, i)) for d in range(B)] for i in range(n)
        ]
        self.alpha_times_count = [sp.alpha * d.bit_count() for d in range(B)]
        all_pairs = graphs - 1
        self.non_incident = [all_pairs & ~incident_mask(n, i) for i in range(n)]
        self._br_memo: dict = {}

    def total_states(self) -> int:
        return self.digits_per_player ** self.n

    def _best_alternative(self, player: int, others_graph: int, inc_full: int):
        """Min scaled cost over the player's strategies given everyone else."""
        key = (player, others_graph, inc_full)
        memo = self._br_memo
        cached = memo.get(key)
        if cached is not None:
            return cached
        inc_digit = targets_to_digit(inc_full, player)
        free = (self.digits_per_player - 1) & ~inc_digit
        sm = self.star_masks[player]
        ac = self.alpha_times_count
        R = self.R
        n = self.n
        best = None
        for d in submasks_ascending(free):
            g = others_graph | sm[d | inc_digit]
            c = ac[d] + R[g * n + player]
            if best is None or c < best:
                best = c
        memo[key] = best
        return best

    def scan_graphs(self, lo: int, hi: int) -> list:
        """Nash states whose edge mask lies in [lo, hi), unsorted.

        Each hit is (index, owned target masks, social cost, disconnected);
        the last two are computed once per graph and shared by its hits.
        """
        n = self.n
        sp = self.sp
        alpha = sp.alpha
        R = self.R
        missing = self.missing
        non_inc = self.non_incident
        best_alt = self._best_alternative
        B = self.digits_per_player
        place = [B ** (n - 1 - i) for i in range(n)]
        owned = [0] * n
        hits = []

        def assign(i: int, index: int):
            if i == n:
                found.append((index, tuple(owned)))
                return
            bit = 1 << i
            forced = nbrs[i] & (bit - 1)  # i owns each edge to a lower player who did not buy it
            for j in range(i):
                if owned[j] & bit:
                    forced ^= 1 << j
            for t in passing[i].get(forced, ()):
                owned[i] = t
                assign(i + 1, index + targets_to_digit(t, i) * place[i])

        for g in range(lo, hi):
            nbrs = adjacency_masks(g, n)
            gn = g * n
            passing = []  # per player: passing owned sets, keyed by their part below the player
            for i in range(n):
                nbr = nbrs[i]
                lower = (1 << i) - 1
                others = g & non_inc[i]
                dist_cost = R[gn + i]
                sets: dict = {}
                for t in submasks_ascending(nbr):
                    if alpha * t.bit_count() + dist_cost <= best_alt(i, others, nbr & ~t):
                        sets.setdefault(t & lower, []).append(t)
                if not sets:
                    break
                passing.append(sets)
            else:
                found = []
                assign(0, 0)
                if found:
                    cost = sp.to_cost(alpha * g.bit_count() + sum(R[gn:gn + n]))
                    disconnected = any(missing[gn:gn + n])
                    hits.extend((index, masks, cost, disconnected) for index, masks in found)
        return hits


_worker_engine: Optional[_Engine] = None


def _init_worker(params: GameParams):
    global _worker_engine
    _worker_engine = _Engine(params)


def _worker_scan(bounds: tuple) -> list:
    return _worker_engine.scan_graphs(*bounds)


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
    """Exact minimum social cost over all 2^C(n,2) edge sets.

    Ties resolve to the smallest edge mask, so boundary parameters return the
    empty graph when it participates in the tie.
    """
    n = params.n
    if n > OPTIMUM_MAX_N:
        raise GuardExceeded(f"optimum brute force limited to n <= {OPTIMUM_MAX_N}, got {n}")
    sp = ScaledParams(params)
    best = None
    best_mask = None
    if n <= 6:
        for (m, dist_total, miss_total), mask in graph_signatures(n).items():
            cost = sp.alpha * m + sp.scale * dist_total + sp.penalty(miss_total)
            if best is None or cost < best or (cost == best and mask < best_mask):
                best, best_mask = cost, mask
    else:
        for mask in range(1 << pair_count(n)):
            adj = adjacency_masks(mask, n)
            dist_total = 0
            miss_total = 0
            for v in range(n):
                ds, miss = bfs_row(adj, v, n)
                dist_total += ds
                miss_total += miss
            cost = sp.alpha * mask.bit_count() + sp.scale * dist_total + sp.penalty(miss_total)
            if best is None or cost < best:
                best, best_mask = cost, mask
    return OptimumResult(n=n, cost=sp.to_cost(best), edges=edges_of_mask(best_mask, n))


@dataclass(frozen=True)
class EnumerationResult:
    """Everything the full scan learned at one parameter point.

    ``equilibria`` lists Nash states in ascending index order.  The strong
    fields are filled only in mode ``strong``; iso fields only when
    ``dedupe_iso`` was requested.  ``poa``/``pos`` are None when undefined
    (no equilibrium, which cannot happen for Nash mode at these sizes).
    """

    params: GameParams
    mode: str
    states_examined: int
    equilibria: tuple
    costs: tuple
    disconnected_count: int
    optimum_cost: Cost
    optimum_edges: tuple
    worst_cost: Optional[Cost]
    best_cost: Optional[Cost]
    poa: Optional[Fraction]
    pos: Optional[Fraction]
    strong_equilibria: Optional[tuple] = None
    strong_costs: Optional[tuple] = None
    worst_strong_cost: Optional[Cost] = None
    strong_poa: Optional[Fraction] = None
    iso_class_count: Optional[int] = None
    iso_representatives: Optional[tuple] = None


def enumerate_equilibria(
    params: GameParams,
    mode: str = "nash",
    *,
    dedupe_iso: bool = False,
    workers: int = 1,
    override_guard: bool = False,
    max_coalition: Optional[int] = None,
) -> EnumerationResult:
    """Find every Nash state exactly, graph by graph, and report the set.

    A mutual purchase is never Nash because alpha > 0, so the scan visits
    each graph once and backtracks over the owner of each edge (see
    :class:`_Engine`); equilibria come out in the index order of the full
    strategy space, and ``states_examined`` is still that space's size,
    2^(n(n-1)).  With ``workers`` > 1 the edge masks are split into
    contiguous ranges and the hits merged in index order, so the result does
    not depend on the worker count.  Strong mode verifies one representative
    per player-permutation class (the game is fully symmetric, so the verdict
    is class-invariant).
    """
    if mode not in ("nash", "strong"):
        raise ValueError(f"mode must be 'nash' or 'strong', got {mode!r}")
    n = params.n
    limit = ENUMERATION_OVERRIDE_MAX_N if override_guard else ENUMERATION_MAX_N
    if n > limit:
        hint = "" if override_guard else " (pass override_guard=True for n=6)"
        raise GuardExceeded(f"enumeration limited to n <= {limit}, got {n}{hint}")

    engine = _Engine(params)
    graphs = engine.graph_count
    if workers <= 1:
        hits = engine.scan_graphs(0, graphs)
    else:
        chunk = -(-graphs // workers)
        bounds = [(lo, min(lo + chunk, graphs)) for lo in range(0, graphs, chunk)]
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(params,)
        ) as pool:
            hits = [hit for part in pool.map(_worker_scan, bounds) for hit in part]
    hits.sort()

    target_sets = {m: _mask_to_set(m) for m in {m for hit in hits for m in hit[1]}}
    states = tuple(StrategyVector(tuple(target_sets[m] for m in masks)) for _, masks, _, _ in hits)
    costs = tuple(cost for _, _, cost, _ in hits)
    disconnected = sum(1 for hit in hits if hit[3])

    optimum = social_optimum_bruteforce(params)
    worst = max(costs) if costs else None
    best = min(costs) if costs else None
    poa = _ratio(worst, optimum.cost)
    pos = _ratio(best, optimum.cost)

    forms = (
        [canonical_permutation_form(s) for s in states] if mode == "strong" or dedupe_iso else None
    )
    strong_states = strong_costs = None
    worst_strong = strong_poa = None
    if mode == "strong":
        verdicts: dict = {}
        picked = []
        for state, cost, form in zip(states, costs, forms):
            verdict = verdicts.get(form)
            if verdict is None:
                verdict = is_strong(state, params, max_coalition).verdict
                verdicts[form] = verdict
            if verdict:
                picked.append((state, cost))
        strong_states = tuple(s for s, _ in picked)
        strong_costs = tuple(c for _, c in picked)
        if strong_costs:
            worst_strong = max(strong_costs)
            strong_poa = _ratio(worst_strong, optimum.cost)

    iso_count = iso_reps = None
    if dedupe_iso:
        seen: dict = {}
        for state, form in zip(states, forms):
            if form not in seen:
                seen[form] = state
        iso_count = len(seen)
        iso_reps = tuple(seen.values())

    return EnumerationResult(
        params=params,
        mode=mode,
        states_examined=engine.total_states(),
        equilibria=states,
        costs=costs,
        disconnected_count=disconnected,
        optimum_cost=optimum.cost,
        optimum_edges=optimum.edges,
        worst_cost=worst,
        best_cost=best,
        poa=poa,
        pos=pos,
        strong_equilibria=strong_states,
        strong_costs=strong_costs,
        worst_strong_cost=worst_strong,
        strong_poa=strong_poa,
        iso_class_count=iso_count,
        iso_representatives=iso_reps,
    )


def _ratio(worst: Optional[Cost], opt: Cost) -> Optional[Fraction]:
    if worst is None:
        return None
    if worst == INF or opt == INF:
        return None
    return Fraction(worst) / Fraction(opt)


@dataclass(frozen=True)
class PriceMetrics:
    """Anarchy/stability ratios from one enumeration; found=False when the
    requested equilibrium kind does not exist at these parameters."""

    found: bool
    equilibrium_count: int
    optimum_cost: Cost
    poa: Optional[Fraction]
    pos: Optional[Fraction]
    worst_state: Optional[StrategyVector]
    best_state: Optional[StrategyVector]


def price_metrics(
    params: GameParams,
    mode: str = "nash",
    *,
    workers: int = 1,
    override_guard: bool = False,
    max_coalition: Optional[int] = None,
) -> PriceMetrics:
    result = enumerate_equilibria(
        params,
        mode,
        workers=workers,
        override_guard=override_guard,
        max_coalition=max_coalition,
    )
    if mode == "strong":
        states, costs = result.strong_equilibria, result.strong_costs
    else:
        states, costs = result.equilibria, result.costs
    if not states:
        return PriceMetrics(False, 0, result.optimum_cost, None, None, None, None)
    worst = max(costs)
    best = min(costs)
    worst_state = states[costs.index(worst)]
    best_state = states[costs.index(best)]
    return PriceMetrics(
        found=True,
        equilibrium_count=len(states),
        optimum_cost=result.optimum_cost,
        poa=_ratio(worst, result.optimum_cost),
        pos=_ratio(best, result.optimum_cost),
        worst_state=worst_state,
        best_state=best_state,
    )
