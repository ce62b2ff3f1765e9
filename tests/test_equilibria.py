"""Equilibrium checks, enumeration, optimum search and anarchy ratios.

Core claims:
  * is_nash / is_strong verdicts agree with definition-level recomputation,
    and every negative verdict ships a witness whose arithmetic checks out;
  * enumeration agrees state-by-state with the single-state checker, is
    byte-stable across worker counts, and its strong mode returns a subset
    of the Nash set;
  * the brute-force optimum matches a test-local naive scan over all graphs;
  * every guard refuses work over its budget, and says the estimate and the budget.
"""

import dataclasses
import itertools
import math
import random
from fractions import Fraction as F

import pytest

import pcg
from pcg import bitgraph, equilibria, game
from pcg.bitgraph import adjacency_masks, edges_of_mask, incident_mask, submasks_ascending
from pcg.constructions import CanonicalKind, canonical_state
from pcg.dynamics import DynamicsPolicy, MoveRule, TieRule, run, step
from pcg.equilibria import (
    CoalitionDeviation,
    EquilibriumReport,
    GuardExceeded,
    PriceMetrics,
    _DirectScan,
    _Engine,
    _match_edges,
    _submasks_upto,
    best_response,
    canonical_permutation_form,
    enumerate_equilibria,
    is_nash,
    is_strong,
    price_metrics,
    social_optimum_bruteforce,
)
from pcg.game import (
    INFINITE,
    GameParams,
    StrategyVector,
    individual_cost,
    random_state,
    social_cost,
)
from pcg.stateio import parse_state, serialize_state


def sv(*buys):
    return StrategyVector(tuple(frozenset(b) for b in buys))


def strategy_choices(n):
    """Every purchase set of every player."""
    return [
        [frozenset(c) for k in range(n) for c in itertools.combinations(sorted(set(range(n)) - {i}), k)]
        for i in range(n)
    ]


def all_states(n):
    return (StrategyVector(combo) for combo in itertools.product(*strategy_choices(n)))


def states_in_index_order(n):
    """Every state in enumeration order: player 0's purchase set is the most
    significant digit, and bit k of a digit buys the k-th other player."""
    others = [[j for j in range(n) if j != i] for i in range(n)]
    for digits in itertools.product(range(1 << (n - 1)), repeat=n):
        yield StrategyVector(
            tuple(frozenset(o[k] for k in range(n - 1) if d >> k & 1) for o, d in zip(others, digits))
        )


EMPTY4 = sv(set(), set(), set(), set())


# -- single-state verdicts ------------------------------------------------------------


def test_empty_state_ne_boundary():
    # deleting nothing vs buying one edge: improvement iff alpha < beta - 1
    assert is_nash(EMPTY4, GameParams(4, F(2), F(5, 2))).verdict
    assert is_nash(EMPTY4, GameParams(4, F(3, 2), F(5, 2))).verdict  # boundary included
    assert not is_nash(EMPTY4, GameParams(4, F(1), F(5, 2))).verdict
    assert not is_nash(EMPTY4, GameParams(4, F(1), INFINITE)).verdict


def test_center_star_ne_iff_alpha_at_least_one():
    star = canonical_state(CanonicalKind.parse("center-star"), 4)
    assert is_nash(star, GameParams(4, F(1), INFINITE)).verdict
    assert is_nash(star, GameParams(4, F(2), F(4))).verdict
    # below 1 a leaf shortcuts a distance-2 pair for less than the saving
    assert not is_nash(star, GameParams(4, F(1, 2), INFINITE)).verdict


def test_strict_flags():
    # complete graph at alpha=1: dropping an edge trades 1 for 1, non-strict
    comp3 = sv({1, 2}, {2}, set())
    rep = is_nash(comp3, GameParams(3, F(1), F(3)))
    assert rep.verdict and rep.strict is False
    # center star at alpha=3/2, beta=5: every deviation is strictly worse
    star3 = sv({1, 2}, set(), set())
    rep = is_nash(star3, GameParams(3, F(3, 2), F(5)))
    assert rep.verdict and rep.strict is True


def test_nash_witness_is_first_in_scan_order():
    rep = is_nash(sv(set(), set(), set()), GameParams(3, F(1, 2), F(2)))
    assert not rep.verdict
    d = rep.witness
    assert d.player == 0
    assert d.new_strategy == frozenset({1})
    assert (d.old_cost, d.new_cost) == (F(4), F(7, 2))


def test_witness_arithmetic_always_validates():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randrange(3, 6)
        p = GameParams(n, F(rng.randrange(1, 8), 2), 1 + F(rng.randrange(1, 8), 3))
        state = random_state(n, rng)
        rep = is_nash(state, p)
        if rep.verdict:
            continue
        d = rep.witness
        assert individual_cost(state, d.player, p).total == d.old_cost
        moved = state.replace(d.player, d.new_strategy)
        assert individual_cost(moved, d.player, p).total == d.new_cost
        assert d.new_cost < d.old_cost


def test_is_nash_guard():
    n = 17
    big = StrategyVector((frozenset(),) * n)
    with pytest.raises(GuardExceeded):
        is_nash(big, GameParams(n, F(1), F(2)))


# -- best responses -------------------------------------------------------------------


def test_best_response_from_empty_buys_everything():
    p = GameParams(4, F(1), F(3))
    br = best_response(EMPTY4, 0, p)
    assert br.strategies == (frozenset({1, 2, 3}),)
    assert br.cost == 6  # 3 edges at alpha+distance 2 each, no penalty


def test_best_response_reports_all_minimizers_in_order():
    # 0-1 bought; player 2 may attach to either endpoint at equal cost
    p = GameParams(3, F(2), F(5))
    br = best_response(sv({1}, set(), set()), 2, p)
    assert br.cost == 5
    assert br.strategies == (frozenset({0}), frozenset({1}))


ORACLE_KINDS = ("empty", "center-star", "periphery-star", "complete")


def oracle_cases():
    """Seeded (state, params, costs) at n=3..6, a quarter of them with beta=inf.

    ``costs[i]`` lists (strategy, Fraction cost) for every strategy of player
    i in canonical order: by size, then by ascending target tuple.
    """
    rng = random.Random(7)
    for n in range(3, 7):
        choices = strategy_choices(n)
        for k in range(36):
            beta = INFINITE if k % 4 == 0 else 1 + F(rng.randrange(1, 9), 4)
            p = GameParams(n, F(rng.randrange(1, 13), 4), beta)
            if k % 3 == 0:
                state = canonical_state(CanonicalKind.parse(rng.choice(ORACLE_KINDS)), n)
            else:
                state = random_state(n, rng)
            costs = [
                [(s, individual_cost(state.replace(i, s), i, p).total) for s in choices[i]]
                for i in range(n)
            ]
            yield state, p, costs


def oracle_move(state, options, player, policy):
    """The move rule read off the oracle's cost list, or None to stay."""
    cur = dict(options)[state[player]]
    if policy.move_rule is MoveRule.FIRST_IMPROVING:
        return next((s for s, c in options if c < cur), None)
    best = min(c for _, c in options)
    first = next(s for s, c in options if c == best)
    if best < cur or (policy.tie_rule is TieRule.CANONICAL_FIRST and first != state[player]):
        return first
    return None


def test_best_response_agrees_with_exhaustive_min():
    for state, p, costs in oracle_cases():
        for player, options in enumerate(costs):
            br = best_response(state, player, p)
            assert br.cost == min(c for _, c in options)
            assert br.strategies == tuple(s for s, c in options if c == br.cost)


def test_is_nash_and_step_agree_with_oracle():
    policies = [
        DynamicsPolicy(move_rule=rule, tie_rule=tie) for rule in MoveRule for tie in TieRule
    ]
    verdicts = set()
    for state, p, costs in oracle_cases():
        strict, witness = True, None
        for player, options in enumerate(costs):
            cur = dict(options)[state[player]]
            for s, c in options:
                if s != state[player] and c <= cur:
                    strict = False
                    if c < cur:
                        witness = (player, s, cur, c)
                        break
            if witness:
                break
        rep = is_nash(state, p)
        verdicts.add(rep.verdict)
        assert rep.verdict == (witness is None)
        if witness:
            d = rep.witness
            assert (d.player, d.new_strategy, d.old_cost, d.new_cost) == witness
        else:
            assert rep.strict == strict
        for policy in policies:
            expected = (state, None)
            for player, options in enumerate(costs):
                new = oracle_move(state, options, player, policy)
                if new is not None:
                    expected = (state.replace(player, new), player)
                    break
            assert step(state, policy, p) == expected
    assert verdicts == {True, False}


# -- coalition checks -----------------------------------------------------------------


def smallest_feasible_owners(candidates, caps):
    """The lexicographically smallest owner tuple within capacity, by brute force."""
    for owners in itertools.product(*(sorted(c) for c in candidates)):
        if all(owners.count(v) <= cap for v, cap in caps.items()):
            return list(owners)
    return None


def test_match_edges_is_smallest_feasible_owner_tuple():
    rng = random.Random(11)
    for _ in range(1500):
        n = rng.randrange(2, 8)
        members = sorted(rng.sample(range(n), rng.randrange(1, min(n, 6) + 1)))
        pairs = [e for e in itertools.combinations(range(n), 2) if set(e) & set(members)]
        edges = rng.sample(pairs, min(len(pairs), rng.randrange(0, 11)))
        candidates = [tuple(v for v in e if v in members) for e in edges]
        caps = {v: INFINITE if rng.random() < 0.1 else rng.randrange(0, 5) for v in members}
        assert _match_edges(candidates, caps) == smallest_feasible_owners(candidates, caps)


def test_periphery_star_strong_then_not():
    star = canonical_state(CanonicalKind.parse("periphery-star"), 5)
    assert is_strong(star, GameParams(5, F(4), F(3))).verdict
    rep = is_strong(star, GameParams(5, F(6), F(3)))
    assert not rep.verdict
    # a lone leaf walks away from its spoke: 13 drops to 12
    d = rep.witness
    assert d.players == (1,)
    assert d.new_strategies == (frozenset(),)
    assert (d.old_costs, d.new_costs) == ((F(13),), (F(12),))


def test_strong_witness_members_all_strictly_improve():
    rng = random.Random(77)
    checked = {False: 0, True: 0}
    for k in range(270):
        n = rng.randrange(3, 5)
        alpha = F(rng.randrange(1, 9), 2)
        # beta = inf from draw 120 on: random states are then often disconnected,
        # so members start at infinite cost, and staying cut off is no gain
        ncg = k >= 120
        p = GameParams(n, alpha, INFINITE if ncg else 1 + F(rng.randrange(1, 7), 3))
        state = random_state(n, rng)
        rep = is_strong(state, p)
        if rep.verdict or rep.witness is None:
            continue
        d = rep.witness
        moved = state
        for player, new in zip(d.players, d.new_strategies):
            moved = moved.replace(player, new)
        for idx, player in enumerate(d.players):
            assert individual_cost(state, player, p).total == d.old_costs[idx]
            assert individual_cost(moved, player, p).total == d.new_costs[idx]
            assert d.new_costs[idx] < d.old_costs[idx]
        checked[ncg] += 1
    assert checked[False] > 20 and checked[True] > 100


def test_strong_implies_nash():
    rng = random.Random(13)
    for _ in range(80):
        n = rng.randrange(3, 5)
        p = GameParams(n, F(rng.randrange(1, 7), 2), 1 + F(rng.randrange(1, 9), 4))
        state = random_state(n, rng)
        if is_strong(state, p).verdict:
            assert is_nash(state, p).verdict


def test_max_coalition_one_equals_nash():
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randrange(3, 5)
        p = GameParams(n, F(rng.randrange(1, 7), 2), 1 + F(rng.randrange(1, 9), 4))
        state = random_state(n, rng)
        assert is_strong(state, p, max_coalition=1).verdict == is_nash(state, p).verdict


def test_grand_coalition_blocks_empty_state():
    # all four players together build a star and leave the penalty behind
    p = GameParams(4, F(2), F(5, 2))
    assert is_nash(EMPTY4, p).verdict
    rep = is_strong(EMPTY4, p)
    assert not rep.verdict
    assert len(rep.witness.players) > 1


def test_strong_work_limit_refuses(monkeypatch):
    monkeypatch.setattr(equilibria, "COALITION_WORK_LIMIT", 10)
    state = sv({1}, set(), set(), set(), set())
    with pytest.raises(GuardExceeded):
        is_strong(state, GameParams(5, F(1), F(2)))


def test_strong_rejects_mismatched_state_before_work_guard(monkeypatch):
    # a state of the wrong size is a usage error, even where the guard would refuse
    state = sv({1}, set(), set(), set(), set())
    with pytest.raises(ValueError, match="state has 5 players"):
        is_strong(state, GameParams(9, F(1), F(2)))
    monkeypatch.setattr(equilibria, "COALITION_WORK_LIMIT", 1)
    with pytest.raises(ValueError, match="state has 5 players"):
        is_strong(state, GameParams(4, F(1), F(2)))


def test_submasks_upto_is_the_ascending_scan_cut_by_size():
    rng = random.Random(41)
    for _ in range(60):
        mask = rng.getrandbits(12)
        for k in (0, 1, 2, 5, 12, INFINITE):
            expected = [s for s in submasks_ascending(mask) if s.bit_count() <= k]
            assert list(_submasks_upto(mask, k)) == expected


def naive_strong_verdict(state, p, max_coalition=None):
    """Try every coalition and every joint strategy with the Fraction cost model;
    a move blocks only if every member's cost strictly drops."""
    n = state.n
    old = [individual_cost(state, i, p).total for i in range(n)]
    options = strategy_choices(n)
    for size in range(1, (max_coalition or n) + 1):
        for coalition in itertools.combinations(range(n), size):
            for joint in itertools.product(*(options[m] for m in coalition)):
                moved = state
                for member, strategy in zip(coalition, joint):
                    moved = moved.replace(member, strategy)
                if all(individual_cost(moved, m, p).total < old[m] for m in coalition):
                    return False
    return True


STRONG_ORACLE_POINTS = [
    (3, F(1), F(3)),
    (3, F(2), INFINITE),
    (4, F(1), F(3)),
    (4, F(2), F(5, 2)),
    (4, F(3, 2), INFINITE),
    (4, F(1, 2), F(3, 2)),
    (4, F(4), F(5)),
]


def test_strong_matches_naive_joint_enumeration():
    rng = random.Random(2008)
    cases = []
    for n, a, b in STRONG_ORACLE_POINTS:
        p = GameParams(n, a, b)
        nash = enumerate_equilibria(p).equilibria
        cases += [(s, p) for s in rng.sample(nash, min(4, len(nash)))]
        cases += [(random_state(n, rng), p) for _ in range(2)]
    refuted = 0
    for state, p in cases:
        for cap in (None, 2):
            rep = is_strong(state, p, cap)
            assert rep.verdict == naive_strong_verdict(state, p, cap), (state, p, cap)
            if not rep.verdict:
                assert len(rep.witness.players) <= (cap or p.n)
                refuted += 1
    assert refuted > 10


def _n6_refutation(state, players, new_strategies, old_cost, new_cost):
    return EquilibriumReport(False, None, CoalitionDeviation(
        players=players,
        old_strategies=tuple(state[m] for m in players),
        new_strategies=tuple(frozenset(s) for s in new_strategies),
        old_costs=(old_cost,) * len(players),
        new_costs=(new_cost,) * len(players),
    ))


@pytest.mark.parametrize(
    "kind, alpha, beta, witness",
    [
        ("periphery-star", F(4), F(3), None),
        ("complete", F(1), F(3), None),
        ("complete", F(1, 2), F(3, 2), None),
        # three leaves close a triangle, one edge each: 9 drops to 8
        ("center-star", F(1), F(3), ((1, 2, 3), ({2}, {3}, {1}), F(9), F(8))),
        # three isolated players build a triangle: 15/2 drops to 7
        ("empty", F(1, 2), F(3, 2), ((0, 1, 2), ({1}, {2}, {0}), F(15, 2), F(7))),
    ],
)
def test_strong_n6_profiles_pinned(kind, alpha, beta, witness):
    state = canonical_state(CanonicalKind.parse(kind), 6)
    p = GameParams(6, alpha, beta)
    assert is_nash(state, p).verdict
    expected = EquilibriumReport(True, None, None) if witness is None else _n6_refutation(state, *witness)
    assert is_strong(state, p) == expected


# -- enumeration ----------------------------------------------------------------------


def test_enumeration_matches_per_state_checks_n3():
    for a, b in [(F(1, 2), F(3)), (F(2), F(5, 2)), (F(1), INFINITE), (F(3), F(2))]:
        p = GameParams(3, a, b)
        result = enumerate_equilibria(p)
        direct = [s for s in all_states(3) if is_nash(s, p).verdict]
        assert list(result.equilibria) == direct
        assert result.states_examined == 64


@pytest.mark.parametrize(
    "alpha, beta",
    [(F(3, 2), INFINITE), (F(2), F(5, 2)), (F(1), F(3)), (F(3, 2), F(2))],
    ids=["ncg-3_2", "disconnected-2-5_2", "1-3", "3_2-2"],
)
def test_enumeration_matches_per_state_checks_n4(alpha, beta):
    p = GameParams(4, alpha, beta)
    result = enumerate_equilibria(p)
    direct = [s for s in states_in_index_order(4) if is_nash(s, p).verdict]
    assert list(result.equilibria) == direct
    assert result.states_examined == 4096


class MemoisedBestAlternatives:
    """The engine's ``best[player]`` as a memoised submask search, the way the
    scan found best alternatives before they became a table."""

    def __init__(self, engine, player):
        self.engine, self.player = engine, player
        self.memo = {}

    def __getitem__(self, h):
        # h is one-to-one with the old memo key (player, others' graph, incoming set)
        if h not in self.memo:
            engine, player, n = self.engine, self.player, self.engine.n
            others_graph = h & ~incident_mask(n, player)
            inc_full = adjacency_masks(h, n)[player]
            sm = engine.star_masks[player]
            self.memo[h] = min(
                engine.sp.alpha * t.bit_count() + engine.R[(others_graph | sm[t | inc_full]) * n + player]
                for t in submasks_ascending((((1 << n) - 1) ^ 1 << player) & ~inc_full)
            )
        return self.memo[h]


README_GRID = [
    (n, a, b)
    for n in (3, 4)
    for a in (F(1, 2), F(1), F(3, 2), F(2), F(3))
    for b in (F(3, 2), F(2), F(5, 2), F(3), INFINITE)
]


@pytest.mark.parametrize(
    "n, alpha, beta",
    README_GRID + [(5, F(1), F(3)), (5, F(3), F(5, 2)), (5, F(2), INFINITE), (6, F(3), F(5, 2))],
)
def test_scan_hits_equal_the_memoised_search(n, alpha, beta):
    engine = _Engine(GameParams(n, alpha, beta))
    hits = sorted(engine.scan_graphs(0, engine.graph_count))
    engine.best = [MemoisedBestAlternatives(engine, i) for i in range(n)]
    assert sorted(engine.scan_graphs(0, engine.graph_count)) == hits


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize(
    "alpha, beta",
    [(F(1), F(3)), (F(3, 2), F(5, 2)), (F(2), INFINITE), (F(1, 2), F(3, 2))],  # two on alpha = beta - 1
)
def test_best_alternative_table_matches_the_oracle(n, alpha, beta):
    params = GameParams(n, alpha, beta)
    engine = _Engine(params)
    rng = random.Random(n)
    for _ in range(8):
        h, player = rng.randrange(engine.graph_count), rng.randrange(n)
        # the others' links form h: each edge at the player is bought by its other end
        buys = [set() for _ in range(n)]
        for a, b in edges_of_mask(h, n):
            owner, target = (b, a) if a == player else (a, b)
            buys[owner].add(target)
        state = StrategyVector(tuple(frozenset(s) for s in buys))
        others = sorted(set(range(n)) - {player})
        oracle = min(
            individual_cost(state.replace(player, targets), player, params).total
            for k in range(n)
            for targets in itertools.combinations(others, k)
        )
        assert engine.sp.to_cost(engine.best[player][h]) == oracle, (h, player)


@pytest.mark.parametrize("n", range(2, 10))
def test_alternatives_in_canonical_order(n):
    # every strategy once, by size and then by sorted target tuple
    params = GameParams(n, F(1), F(3))
    scan = _DirectScan(StrategyVector.empty(n), params)
    for player in range(n):
        masks = [mask for mask, _ in scan.alternatives(player)]
        expected = sorted(
            (t for t in range(1 << n) if not t >> player & 1),
            key=lambda t: (t.bit_count(), [b for b in range(n) if t >> b & 1]),
        )
        assert masks == expected


def test_equilibria_ascend_by_target_masks():
    r = enumerate_equilibria(GameParams(5, F(1), F(3)))
    keys = [s.masks() for s in r.equilibria]
    assert len(keys) == 43728
    assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("n", range(2, 6))
def test_states_examined_is_the_strategy_space(n):
    assert enumerate_equilibria(GameParams(n, F(2), F(3))).states_examined == 2 ** (n * (n - 1))


def test_enumeration_n6_override():
    # 2^30 strategy vectors, but only 2^15 graphs to visit
    p = GameParams(6, F(3), F(5, 2))
    result = enumerate_equilibria(p, override_guard=True)
    assert result.states_examined == 1 << 30
    found = set(result.equilibria)
    for state in result.equilibria:
        assert is_nash(state, p).verdict
    for center in range(6):
        star = canonical_state(CanonicalKind("periphery-star", center=center), 6)
        assert is_nash(star, p).verdict
        assert star in found
    assert enumerate_equilibria(p, workers=2, override_guard=True) == result
    assert len(result.equilibria) == 151


def test_enumeration_worker_counts_agree():
    p = GameParams(4, F(1), F(3))
    solo = enumerate_equilibria(p, workers=1)
    multi = enumerate_equilibria(p, workers=4)
    assert solo == multi


def test_enumeration_disconnected_counting():
    # above the boundary the empty state joins the NE set
    r = enumerate_equilibria(GameParams(4, F(2), F(5, 2)))
    assert r.disconnected_count >= 1
    r = enumerate_equilibria(GameParams(4, F(1), F(3)))
    assert r.disconnected_count == 0


def test_enumeration_strong_mode_subset():
    p = GameParams(4, F(2), F(3, 2))
    r = enumerate_equilibria(p, mode="strong")
    assert set(r.strong_equilibria) <= set(r.equilibria)
    for s in r.strong_equilibria:
        assert is_strong(s, p).verdict
    strong = set(r.strong_equilibria)
    for s in r.equilibria:
        if s not in strong:
            assert not is_strong(s, p).verdict


def test_enumeration_strong_with_dedupe_equals_separate_runs():
    p = GameParams(4, F(1), F(3))
    strong_only = enumerate_equilibria(p, mode="strong")
    dedupe_only = enumerate_equilibria(p, dedupe_iso=True)
    both = enumerate_equilibria(p, mode="strong", dedupe_iso=True)
    assert both.strong_equilibria and both.iso_class_count < len(both.equilibria)
    iso_fields = {"iso_class_count", "iso_representatives"}
    strong_fields = {"mode", "strong_equilibria", "strong_costs", "worst_strong_cost", "strong_poa"}
    for field in dataclasses.fields(both):
        value = getattr(both, field.name)
        if field.name not in iso_fields:
            assert value == getattr(strong_only, field.name), field.name
        if field.name not in strong_fields:
            assert value == getattr(dedupe_only, field.name), field.name


README_SWEEP_ALPHAS = (F(1, 2), F(1), F(3, 2), F(2), F(3))
README_SWEEP_BETAS = (F(3, 2), F(2), F(5, 2), F(3), INFINITE)


def two_loop_class_tail(nash, mode, dedupe_iso, max_coalition):
    """The strong and iso fields from a Nash-mode result, one loop for each."""
    params = nash.params
    forms = [canonical_permutation_form(s) for s in nash.equilibria]
    strong = {}
    if mode == "strong":
        verdicts = {}
        picked = []
        for state, cost, form in zip(nash.equilibria, nash.costs, forms):
            verdict = verdicts.get(form)
            if verdict is None:
                verdict = verdicts[form] = is_strong(state, params, max_coalition).verdict
            if verdict:
                picked.append((state, cost))
        worst = max(c for _, c in picked) if picked else None
        strong = dict(
            strong_equilibria=tuple(s for s, _ in picked),
            strong_costs=tuple(c for _, c in picked),
            worst_strong_cost=worst,
            strong_poa=equilibria._ratio(worst, nash.optimum_cost),
        )
    iso = {}
    if dedupe_iso:
        seen = {}
        for state, form in zip(nash.equilibria, forms):
            if form not in seen:
                seen[form] = state
        iso = dict(iso_class_count=len(seen), iso_representatives=tuple(seen.values()))
    return dataclasses.replace(nash, mode=mode, **strong, **iso)


@pytest.mark.parametrize(
    "mode, dedupe_iso, max_coalition",
    [("strong", False, None), ("strong", True, None), ("strong", False, 2), ("nash", True, None)],
)
def test_one_class_pass_matches_two_loops(mode, dedupe_iso, max_coalition):
    points = [GameParams(n, a, b) for n in (3, 4) for a in README_SWEEP_ALPHAS for b in README_SWEEP_BETAS]
    points.append(GameParams(5, F(3), F(5, 2)))
    assert len(points) == 51
    for params in points:
        expected = two_loop_class_tail(enumerate_equilibria(params), mode, dedupe_iso, max_coalition)
        actual = enumerate_equilibria(params, mode, dedupe_iso=dedupe_iso, max_coalition=max_coalition)
        for field in dataclasses.fields(actual):
            assert getattr(actual, field.name) == getattr(expected, field.name), (params, field.name)


def assert_extrema_match_costs(r):
    assert r.worst_cost == max(r.costs) and r.best_cost == min(r.costs)
    assert r.poa == r.worst_cost / r.optimum_cost
    assert r.pos == r.best_cost / r.optimum_cost
    if r.mode == "strong" and r.strong_costs:
        assert r.worst_strong_cost == max(r.strong_costs)
        assert r.strong_poa == r.worst_strong_cost / r.optimum_cost
    elif r.mode == "strong":
        assert r.worst_strong_cost is None and r.strong_poa is None


@pytest.mark.parametrize("mode", ["nash", "strong"])
def test_cost_extrema_are_those_of_the_cost_list(mode):
    # the extrema are taken over scaled per-graph costs, not over this list
    for n in (3, 4):
        for alpha in README_SWEEP_ALPHAS:
            for beta in README_SWEEP_BETAS:
                assert_extrema_match_costs(enumerate_equilibria(GameParams(n, alpha, beta), mode))
    for params in (GameParams(4, F(3, 2), F(5, 2)), GameParams(4, F(1, 2), INFINITE)):
        r = enumerate_equilibria(params, mode, workers=2)
        assert_extrema_match_costs(r)
        assert r == enumerate_equilibria(params, mode)


def test_cost_extrema_at_the_paper_points():
    r = enumerate_equilibria(GameParams(5, F(3), F(5, 2)))
    assert_extrema_match_costs(r)
    assert r.poa == F(25, 22)
    r = enumerate_equilibria(GameParams(5, F(1), F(3)))
    assert_extrema_match_costs(r)
    assert len(r.equilibria) == 43728


def test_enumeration_checks_each_player_target_set_once(monkeypatch):
    # states are built from target masks, so no state runs the per-target loop of its own
    calls = {"check_targets": 0, "post_init": 0}
    check_targets = game.check_targets
    post_init = StrategyVector.__post_init__

    def counted_check(*args):
        calls["check_targets"] += 1
        return check_targets(*args)

    def counted_post_init(self):
        calls["post_init"] += 1
        post_init(self)

    monkeypatch.setattr(game, "check_targets", counted_check)
    monkeypatch.setattr(StrategyVector, "__post_init__", counted_post_init)
    n = 5
    r = enumerate_equilibria(GameParams(n, F(1), F(3)))
    assert len(r.equilibria) == 43728
    assert 0 < calls["check_targets"] <= n * 2 ** (n - 1)
    assert calls["post_init"] == 0


def test_enumerated_states_equal_validated_states():
    points = [GameParams(n, a, b) for n in (3, 4) for a in README_SWEEP_ALPHAS for b in README_SWEEP_BETAS]
    points.append(GameParams(5, F(1), F(3)))
    assert len(points) == 51
    for params in points:
        states = enumerate_equilibria(params).equilibria
        validated = [StrategyVector(tuple(frozenset(t) for t in s.strategies)) for s in states]
        assert len(states) == len(validated)
        for state, expected in zip(states, validated):
            assert state == expected and hash(state) == hash(expected), params
            assert parse_state(serialize_state(state, params)) == (state, params)


def test_enumeration_takes_the_optimum_from_the_closed_form(monkeypatch):
    points = [(n, a, b) for n in (3, 4) for a in README_SWEEP_ALPHAS for b in README_SWEEP_BETAS]
    points.append((5, F(3), F(5, 2)))
    brute = [social_optimum_bruteforce(GameParams(*point)).cost for point in points]

    def no_brute_force(params):
        raise AssertionError("enumeration ran the brute-force optimum")

    monkeypatch.setattr(equilibria, "social_optimum_bruteforce", no_brute_force)
    for point, cost in zip(points, brute):
        r = enumerate_equilibria(GameParams(*point))
        assert r.optimum_cost == cost, point
    assert r.poa == F(25, 22)


def test_max_coalition_refused_before_the_scan(monkeypatch):
    def no_scan(*args):
        raise AssertionError("scanned before validating max_coalition")

    monkeypatch.setattr(_Engine, "scan_graphs", no_scan)
    for mode in ("nash", "strong"):
        for cap in (0, -1, 4):
            with pytest.raises(ValueError, match=f"max_coalition must be in 1..3, got {cap}"):
                enumerate_equilibria(GameParams(3, F(1), F(2)), mode, max_coalition=cap)


def test_enumeration_guards():
    with pytest.raises(GuardExceeded):
        enumerate_equilibria(GameParams(6, F(1), F(2)))
    with pytest.raises(GuardExceeded):
        enumerate_equilibria(GameParams(7, F(1), F(2)), override_guard=True)


def test_canonical_form_budget_refuses_before_any_form(monkeypatch):
    # (4, 1, 3) has 528 Nash states, so its canonical forms try 528 * 4! relabellings
    def no_form(state):
        raise AssertionError("canonical form computed past the budget")

    p = GameParams(4, F(1), F(3))
    monkeypatch.setattr(equilibria, "CANONICAL_FORM_BUDGET", 528 * 24 - 1)
    monkeypatch.setattr(equilibria, "canonical_permutation_form", no_form)
    for kwargs in ({"mode": "strong"}, {"dedupe_iso": True}):
        with pytest.raises(GuardExceeded, match=r"528 Nash states .* 12672 relabellings, over the budget of 12671"):
            enumerate_equilibria(p, **kwargs)
    assert len(enumerate_equilibria(p).equilibria) == 528  # nash mode computes no form


def test_canonical_form_budget_stops_the_scan(monkeypatch):
    # cap 100 states: the scan stops at the first graph past it, not after all 64 graphs
    graphs = []
    adjacency_masks = equilibria.adjacency_masks

    def counted(g, n):
        graphs.append(g)
        return adjacency_masks(g, n)

    p = GameParams(4, F(1), F(3))
    monkeypatch.setattr(equilibria, "CANONICAL_FORM_BUDGET", 100 * 24)
    monkeypatch.setattr(equilibria, "adjacency_masks", counted)
    for kwargs in ({"mode": "strong"}, {"dedupe_iso": True}):
        graphs.clear()
        with pytest.raises(GuardExceeded, match="over the budget of 2400"):
            enumerate_equilibria(p, **kwargs)
        assert 0 < len(graphs) < 64
    # each worker stops at the same cap, so the refusal counts fewer than all 528 states
    with pytest.raises(GuardExceeded, match="canonical forms of") as refused:
        enumerate_equilibria(p, "strong", workers=2)
    assert 100 < int(str(refused.value).split()[3]) < 528
    monkeypatch.setattr(equilibria, "CANONICAL_FORM_BUDGET", 528 * 24)
    graphs.clear()
    assert enumerate_equilibria(p, dedupe_iso=True).iso_class_count
    assert len(graphs) == 64


def test_bools_refused_as_integer_options():
    p = GameParams(3, F(1), F(2))
    state = canonical_state(CanonicalKind.parse("empty"), 3)
    with pytest.raises(ValueError, match="max_coalition must be in 1..3, got True"):
        equilibria.check_max_coalition(3, True)
    with pytest.raises(ValueError, match="max_coalition must be in 1..3, got True"):
        is_strong(state, p, max_coalition=True)
    for mode in ("nash", "strong"):
        with pytest.raises(ValueError, match="max_coalition must be in 1..3, got True"):
            enumerate_equilibria(p, mode, max_coalition=True)
        with pytest.raises(ValueError, match="max_coalition must be in 1..3, got True"):
            price_metrics(p, mode, max_coalition=True)
        with pytest.raises(ValueError, match="workers must be >= 1, got True"):
            enumerate_equilibria(p, mode, workers=True)
        with pytest.raises(ValueError, match="workers must be >= 1, got True"):
            price_metrics(p, mode, workers=True)
    with pytest.raises(ValueError, match="workers must be >= 1, got False"):
        equilibria.check_enumeration(3, "nash", False, None)
    assert equilibria.check_enumeration(3, "strong", 1, 1) is None


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p, s: enumerate_equilibria(p, workers=1.5), "workers must be >= 1, got 1.5"),
        (
            lambda p, s: enumerate_equilibria(p, "strong", max_coalition=1.5),
            "max_coalition must be in 1..3, got 1.5",
        ),
        (lambda p, s: is_strong(s, p, max_coalition=2.5), "max_coalition must be in 1..3, got 2.5"),
    ],
    ids=["enumerate-workers", "enumerate-max-coalition", "is-strong-max-coalition"],
)
def test_non_integer_options_refused(call, message):
    # each of these used to end in a TypeError from range()
    p = GameParams(3, F(1), F(2))
    with pytest.raises(ValueError, match=message):
        call(p, canonical_state(CanonicalKind.parse("empty"), 3))


def test_canonical_form_budget_value():
    # a Nash state buys no edge twice, so n = 5 has at most 3^C(5,2) of them
    assert equilibria.CANONICAL_FORM_BUDGET == 3 ** math.comb(5, 2) * math.factorial(5) == 7_085_880


def test_state_budget_holds_every_nash_state_at_n5():
    # in a Nash state each edge is absent or bought by one endpoint
    assert equilibria.STATE_BUDGET == 3 ** math.comb(5, 2) == 59_049


def test_guard_admits_its_budget_and_refuses_one_more():
    assert game.guard("a scan of", 10, "steps", 10) is None
    with pytest.raises(GuardExceeded, match=r"^a scan of 11 steps, over the budget of 10$"):
        game.guard("a scan of", 11, "steps", 10)
    assert pcg.GuardExceeded is equilibria.GuardExceeded is game.GuardExceeded


@pytest.mark.parametrize(
    "patch, call, estimate, budget",
    [
        ({}, lambda: is_nash(StrategyVector.empty(17), GameParams(17, F(1), F(2))), 17 * 2 ** 16, 16 * 2 ** 15),
        (
            {"COALITION_WORK_LIMIT": 10},
            lambda: is_strong(StrategyVector.empty(5), GameParams(5, F(1), F(2))),
            equilibria._coalition_work(5, 5),
            10,
        ),
        ({}, lambda: canonical_permutation_form(StrategyVector.empty(9)), 362_880, 40_320),
        ({}, lambda: bitgraph.structure_table(7), 2 ** 21, 2 ** 15),
        ({}, lambda: social_optimum_bruteforce(GameParams(8, F(1), F(2))), 2 ** 28, 2 ** 21),
        ({}, lambda: enumerate_equilibria(GameParams(6, F(1), F(2))), 1_492_992, 25_920),
        (
            {},
            lambda: enumerate_equilibria(GameParams(7, F(1), F(2)), override_guard=True),
            7 * 2 ** 15 * 3 ** 6,
            25_920 * 64,
        ),
        (
            {"CANONICAL_FORM_BUDGET": 528 * 24 - 1},
            lambda: enumerate_equilibria(GameParams(4, F(1), F(3)), "strong"),
            528 * 24,
            528 * 24 - 1,
        ),
        ({"STATE_BUDGET": 527}, lambda: enumerate_equilibria(GameParams(4, F(1), F(3))), 528, 527),
    ],
    ids=[
        "best-response",
        "coalitions",
        "canonical-form",
        "structure-table",
        "optimum",
        "enumeration",
        "enumeration-override",
        "canonical-budget",
        "state-budget",
    ],
)
def test_every_guard_names_its_estimate_and_budget(monkeypatch, patch, call, estimate, budget):
    for name, value in patch.items():
        monkeypatch.setattr(equilibria, name, value)
    with pytest.raises(GuardExceeded) as refused:
        call()
    message = str(refused.value)
    assert f" {estimate} " in message and message.endswith(f", over the budget of {budget}")


def test_enumeration_refusal_names_the_override():
    with pytest.raises(GuardExceeded, match=r"--override-guard: budget x64"):
        enumerate_equilibria(GameParams(6, F(1), F(2)))


def test_nash_enumeration_stops_at_the_state_budget():
    # (6, 1, 3) has 11,064,768 Nash states; keeping them all would take gigabytes
    with pytest.raises(GuardExceeded, match="stopped at 59136 Nash states, over the budget of 59049"):
        enumerate_equilibria(GameParams(6, F(1), F(3)), override_guard=True)


@pytest.mark.parametrize(
    "call",
    [is_nash, lambda s, p: best_response(s, 0, p), lambda s, p: run(s, DynamicsPolicy(), p)],
    ids=["is-nash", "best-response", "dynamics"],
)
def test_player_count_checked_before_the_size_guard(call):
    # a state of the wrong size is a usage error, even where the guard would refuse
    with pytest.raises(ValueError, match="state has 5 players, params expect 17"):
        call(StrategyVector.empty(5), GameParams(17, F(1), F(2)))


def test_dedupe_iso_partitions_equilibria():
    p = GameParams(4, F(1), F(3))
    r = enumerate_equilibria(p, dedupe_iso=True)
    assert r.iso_class_count <= len(r.equilibria)
    reps = {canonical_permutation_form(s) for s in r.iso_representatives}
    assert len(reps) == r.iso_class_count == len(r.iso_representatives)
    for s in r.equilibria:
        assert canonical_permutation_form(s) in reps


def test_canonical_permutation_form_invariant_under_relabeling():
    state = sv({1}, {2}, set(), set())
    relabeled = sv(set(), {3}, {1}, set())  # apply permutation (0 1 2 3) -> (2 0 1 3)
    assert canonical_permutation_form(state) == canonical_permutation_form(relabeled)
    assert canonical_permutation_form(state) != canonical_permutation_form(EMPTY4)


# -- optimum --------------------------------------------------------------------------


def naive_optimum_cost(params):
    """Definition-level scan: every edge set, lower endpoint buys."""
    n = params.n
    pairs = list(itertools.combinations(range(n), 2))
    best = None
    for mask in range(1 << len(pairs)):
        buys = [set() for _ in range(n)]
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                buys[i].add(j)
        cost = social_cost(StrategyVector(tuple(frozenset(x) for x in buys)), params)
        if best is None or cost < best:
            best = cost
    return best


@pytest.mark.parametrize(
    "n,alpha,beta",
    [
        (3, F(1, 2), F(3, 2)),
        (3, F(2), F(2)),
        (4, F(1, 2), F(7, 5)),
        (4, F(2), F(2)),  # triple boundary: all three classes tie
        (4, F(5), F(3)),
        (4, F(1), INFINITE),
    ],
)
def test_bruteforce_optimum_matches_naive_scan(n, alpha, beta):
    p = GameParams(n, alpha, beta)
    assert social_optimum_bruteforce(p).cost == naive_optimum_cost(p)


def test_optimum_state_realizes_reported_cost():
    for n in (3, 5, 7):
        p = GameParams(n, F(3), F(5, 2))
        r = social_optimum_bruteforce(p)
        assert social_cost(r.as_state(), p) == r.cost
        for i, j in r.edges:
            assert i < j and j in r.as_state().strategies[i]


def test_optimum_guard():
    with pytest.raises(GuardExceeded):
        social_optimum_bruteforce(GameParams(9, F(1), F(2)))


def test_optimum_refuses_n8_with_its_graph_count(monkeypatch):
    # 2^28 graphs would take hours; the refusal comes before any graph is built
    def no_graph_scan(*args):
        raise AssertionError("the optimum guard admitted the graph loop")

    monkeypatch.setattr(equilibria, "adjacency_masks", no_graph_scan)
    with pytest.raises(GuardExceeded, match=r"n <= 7, got 8: 2\^C\(8,2\) = 2\^28 graphs"):
        social_optimum_bruteforce(GameParams(8, F(1), F(2)))


# -- price metrics --------------------------------------------------------------------


def test_price_metrics_star_region_point():
    m = price_metrics(GameParams(5, F(3), F(5, 2)))
    assert m.found
    assert m.optimum_cost == 44
    assert m.poa == F(25, 22)
    assert m.pos == 1
    assert social_cost(m.worst_state, GameParams(5, F(3), F(5, 2))) == 50


def test_price_metrics_no_strong_equilibria():
    m = price_metrics(GameParams(4, F(3), F(5, 2)), mode="strong")
    assert not m.found
    assert m.equilibrium_count == 0
    assert m.poa is None and m.pos is None


def reference_price_metrics(params, mode):
    """price_metrics as computed from the cost list alone."""
    result = enumerate_equilibria(params, mode)
    if mode == "strong":
        states, costs = result.strong_equilibria, result.strong_costs
    else:
        states, costs = result.equilibria, result.costs
    if not states:
        return PriceMetrics(False, 0, result.optimum_cost, None, None, None, None)
    worst, best = max(costs), min(costs)
    opt = result.optimum_cost

    def ratio(c):
        return None if c == INFINITE or opt == INFINITE else F(c) / F(opt)

    worst_at = best_at = None
    for k, c in enumerate(costs):  # the first worst and the first best state, by hand
        if worst_at is None and c == worst:
            worst_at = k
        if best_at is None and c == best:
            best_at = k
        if worst_at is not None and best_at is not None:
            break
    return PriceMetrics(True, len(states), opt, ratio(worst), ratio(best), states[worst_at], states[best_at])


@pytest.mark.parametrize("mode", ["nash", "strong"])
def test_price_metrics_match_the_cost_list(mode):
    points = [GameParams(n, a, b) for n in (3, 4) for a in README_SWEEP_ALPHAS for b in README_SWEEP_BETAS]
    points.append(GameParams(5, F(3), F(5, 2)))
    assert len(points) == 51
    for params in points:
        expected = reference_price_metrics(params, mode)
        actual = price_metrics(params, mode)
        for field in dataclasses.fields(PriceMetrics):
            assert getattr(actual, field.name) == getattr(expected, field.name), (params, field.name)


def test_poa_none_when_worst_ne_disconnected_in_ncg():
    # NCG with alpha >= 1: NE exist and are connected, so the ratio is finite
    m = price_metrics(GameParams(4, F(2), INFINITE))
    assert m.found and m.poa is not None
