"""Equilibrium checks, enumeration, optimum search and anarchy ratios.

Core claims:
  * is_nash / is_strong verdicts agree with definition-level recomputation,
    and every negative verdict ships a witness whose arithmetic checks out;
  * enumeration agrees state-by-state with the single-state checker, is
    byte-stable across worker counts, and its strong mode returns a subset
    of the Nash set;
  * the brute-force optimum matches a test-local naive scan over all graphs;
  * size guards refuse oversized inputs instead of attempting them.
"""

import dataclasses
import itertools
import random
from fractions import Fraction as F

import pytest

from pcg.bitgraph import submasks_ascending
from pcg.constructions import CanonicalKind, canonical_state
from pcg.equilibria import (
    CoalitionDeviation,
    EquilibriumReport,
    GuardExceeded,
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


def test_best_response_agrees_with_exhaustive_min():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(3, 5)
        p = GameParams(n, F(rng.randrange(1, 7), 2), 1 + F(rng.randrange(1, 9), 4))
        state = random_state(n, rng)
        player = rng.randrange(n)
        others = sorted(set(range(n)) - {player})
        costs = {}
        for k in range(n):
            for combo in itertools.combinations(others, k):
                moved = state.replace(player, frozenset(combo))
                costs[frozenset(combo)] = individual_cost(moved, player, p).total
        br = best_response(state, player, p)
        assert br.cost == min(costs.values())
        assert set(br.strategies) == {s for s, c in costs.items() if c == br.cost}


# -- coalition checks -----------------------------------------------------------------


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
    checked = 0
    for _ in range(120):
        n = rng.randrange(3, 5)
        p = GameParams(n, F(rng.randrange(1, 9), 2), 1 + F(rng.randrange(1, 7), 3))
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
        checked += 1
    assert checked > 20


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


def test_strong_work_limit_refuses():
    state = sv({1}, set(), set(), set(), set())
    with pytest.raises(GuardExceeded):
        is_strong(state, GameParams(5, F(1), F(2)), work_limit=10)


def test_strong_rejects_mismatched_state_before_work_guard():
    # a state of the wrong size is a usage error, even where the guard would refuse
    state = sv({1}, set(), set(), set(), set())
    with pytest.raises(ValueError, match="state has 5 players"):
        is_strong(state, GameParams(9, F(1), F(2)))
    with pytest.raises(ValueError, match="state has 5 players"):
        is_strong(state, GameParams(4, F(1), F(2)), work_limit=1)


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


def test_enumeration_guards():
    with pytest.raises(GuardExceeded):
        enumerate_equilibria(GameParams(6, F(1), F(2)))
    with pytest.raises(GuardExceeded):
        enumerate_equilibria(GameParams(7, F(1), F(2)), override_guard=True)


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


def test_poa_none_when_worst_ne_disconnected_in_ncg():
    # NCG with alpha >= 1: NE exist and are connected, so the ratio is finite
    m = price_metrics(GameParams(4, F(2), INFINITE))
    assert m.found and m.poa is not None
