"""Cost function and graph layer.

Core claims checked here:
  * individual costs decompose as edge + distance + penalty and sum to the
    social cost (ownership drops out of the social side only through the
    edge-count term);
  * duplicate purchases of one edge are legal and each copy is billed;
  * the infinite-penalty mode prices any disconnection at infinity;
  * parameters outside alpha > 0, beta > 1 are rejected with the constraint
    in the message.
"""

import random
from fractions import Fraction as F

import pytest

from pcg import theory
from pcg.constructions import StructureLabel
from pcg.game import (
    INFINITE,
    GameParams,
    StrategyVector,
    all_pairs_distances,
    as_alpha,
    as_beta,
    as_penalty,
    as_rational,
    components,
    cost_delta,
    individual_cost,
    induce_graph,
    is_infinite,
    mask_to_set,
    random_state,
    social_cost,
)
from pcg.stateio import StateParseError, parse_state


def sv(*buys):
    return StrategyVector(tuple(frozenset(b) for b in buys))


PATH3 = sv({1}, {2}, set())  # 0-1-2, each edge bought once


# -- exact cost oracles (worked by hand) ---------------------------------------------


def test_path_individual_costs():
    p = GameParams(3, F(2), F(7, 4))
    # player 0: one edge (2) + distances 1+2; player 1: 2+1+1; player 2: 0+2+1
    assert individual_cost(PATH3, 0, p).total == 5
    assert individual_cost(PATH3, 1, p).total == 4
    assert individual_cost(PATH3, 2, p).total == 3


def test_path_social_cost_is_sum_of_individuals():
    p = GameParams(3, F(2), F(7, 4))
    assert social_cost(PATH3, p) == 12
    assert social_cost(PATH3, p) == sum(
        individual_cost(PATH3, i, p).total for i in range(3)
    )


def test_breakdown_fields():
    p = GameParams(4, F(3), F(3, 2))
    state = sv({1}, set(), set(), set())  # pair + two singletons
    b0 = individual_cost(state, 0, p)
    assert (b0.edge_cost, b0.distance_cost, b0.penalty_cost) == (F(3), 1, F(3))
    assert b0.total == 7
    b2 = individual_cost(state, 2, p)
    assert b2.edge_cost == 0 and b2.distance_cost == 0
    assert b2.penalty_cost == F(9, 2)  # three unreachable players at beta=3/2
    assert social_cost(state, p) == 20


def test_duplicate_purchase_billed_per_copy():
    p = GameParams(3, F(2), F(7, 4))
    doubled = sv({1}, {0, 2}, set())  # edge {0,1} bought by both endpoints
    assert induce_graph(doubled).edges == induce_graph(PATH3).edges
    assert social_cost(doubled, p) == social_cost(PATH3, p) + 2
    assert individual_cost(doubled, 1, p).edge_cost == 4


def test_complete_graph_cost_formula():
    # C(n,2) * (alpha + 2) when every edge is bought once
    p = GameParams(4, F(1, 2), F(7, 5))
    comp = sv({1, 2, 3}, {2, 3}, {3}, set())
    assert social_cost(comp, p) == 6 * (F(1, 2) + 2)


def test_infinite_penalty_disconnection():
    p = GameParams(3, F(1), INFINITE)
    state = sv({1}, set(), set())
    assert is_infinite(social_cost(state, p))
    assert is_infinite(individual_cost(state, 2, p).penalty_cost)
    # connected states stay finite: 2 edges at alpha=1 plus distance sum 8
    assert social_cost(PATH3, p) == 10


def test_cost_delta_matches_direct_recomputation():
    p = GameParams(3, F(2), F(7, 4))
    # player 2 closes the triangle: 2 + 1 + 1 = 4 against current 3
    assert cost_delta(PATH3, 2, {0}, p) == 1
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(3, 6)
        params = GameParams(n, F(rng.randrange(1, 9), 2), F(rng.randrange(3, 9), 2))
        state = random_state(n, rng)
        mover = rng.randrange(n)
        new = frozenset(
            t for t in range(n) if t != mover and rng.random() < 0.5
        )
        before = individual_cost(state, mover, params).total
        after = individual_cost(state.replace(mover, new), mover, params).total
        assert cost_delta(state, mover, new, params) == after - before


# -- parameter and strategy validation -----------------------------------------------


def test_alpha_must_be_positive():
    with pytest.raises(ValueError, match="alpha must be positive"):
        GameParams(3, F(0), F(2))
    with pytest.raises(ValueError, match="alpha must be positive"):
        GameParams(3, F(-1), F(2))


def test_beta_must_exceed_one():
    with pytest.raises(ValueError, match="beta must exceed 1"):
        GameParams(3, F(1), F(1))
    with pytest.raises(ValueError, match="beta must exceed 1"):
        GameParams(3, F(1), F(1, 2))


PRICE_REFUSALS = [
    (F(0), F(3), 3, "alpha must be positive, got 0"),
    (F(-1), F(3), 3, "alpha must be positive, got -1"),
    (F(1), F(1), 4, "beta must exceed 1, got 1"),
    (F(1), F(1, 2), 4, "beta must exceed 1, got 1/2"),
]


@pytest.mark.parametrize("alpha, beta, line, message", PRICE_REFUSALS)
def test_price_rules_refused_alike_everywhere(alpha, beta, line, message):
    entry_points = [
        lambda: (as_alpha(alpha), as_beta(beta)),
        lambda: GameParams(4, alpha, beta),
        lambda: theory.disconnected_ne_region(alpha, beta),
        lambda: theory.component_conditions(StructureLabel("pair"), alpha, beta),
        lambda: theory.nonempty_ne_bounds(8, 2, 1, alpha, beta),
        lambda: theory.component_cost_lower_bound(3, 2, alpha, beta),
    ]
    for call in entry_points:
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == message
    text = f"pcg-state v1\nn 2\nalpha {alpha}\nbeta {beta}\nbuys 0 :\nbuys 1 :\n"
    with pytest.raises(StateParseError) as refused:
        parse_state(text)
    assert refused.value.line == line and str(refused.value) == f"line {line}: {message}"


def test_price_rules_keep_exact_values():
    assert as_alpha("3/2") == F(3, 2) and as_beta(" inf ") == INFINITE and as_beta(2) == 2
    with pytest.raises(ValueError, match="expected a rational p/q, got 'x'"):
        as_alpha("x")
    with pytest.raises(StateParseError, match="line 3: alpha: expected a rational p/q, got '1/0'"):
        parse_state("pcg-state v1\nn 2\nalpha 1/0\nbeta 2\nbuys 0 :\nbuys 1 :\n")


def test_floats_rejected():
    with pytest.raises(ValueError):
        GameParams(3, 0.5, F(2))
    with pytest.raises(ValueError):
        GameParams(3, F(1), 2.5)


def test_zero_denominator_is_a_value_error():
    for text in ("1/0", "x"):
        with pytest.raises(ValueError, match=f"expected a rational p/q, got '{text}'"):
            as_rational(text)
        with pytest.raises(ValueError, match=f"expected a rational p/q, got '{text}'"):
            as_penalty(text)
    with pytest.raises(ValueError, match="rational"):
        GameParams(3, "1/0", 2)
    assert as_penalty(" INF ") == INFINITE


def test_bool_prices_rejected():
    # True == 1, so without a type check GameParams(5, True, 3) silently had alpha = 1
    for value in (True, False):
        for parse in (as_rational, as_penalty):
            with pytest.raises(ValueError, match=f"expected a rational p/q, got {value}"):
                parse(value)
    with pytest.raises(ValueError, match="expected a rational p/q, got True"):
        GameParams(5, True, 3)
    with pytest.raises(ValueError, match="expected a rational p/q, got True"):
        GameParams(5, 1, True)


def test_self_purchase_rejected():
    with pytest.raises(ValueError):
        sv({0}, set(), set())


def test_bool_target_rejected():
    # True == 1 and hashes alike, so a bool passes a range check unless refused by type
    with pytest.raises(ValueError, match="target True is not an integer"):
        StrategyVector((frozenset({True}), frozenset()))
    with pytest.raises(ValueError, match="target False is not an integer"):
        sv(set(), {False}, set())
    with pytest.raises(ValueError, match="not an integer"):
        sv({"1"}, set())


def test_many_from_masks_refuses_bad_rows_like_the_constructor():
    good = (0b110, 0b001, 0b000)
    for bad in ((0b000, 0b010, 0b000), (0b000, 0b000, 0b1000)):  # own bit; a mask of 2^n
        with pytest.raises(ValueError) as direct:
            StrategyVector(tuple(mask_to_set(m) for m in bad))
        with pytest.raises(ValueError) as many:
            StrategyVector.many_from_masks(3, [good, bad])
        assert str(many.value) == str(direct.value)
    with pytest.raises(ValueError, match="player 1: target mask -1 is not a non-negative integer"):
        StrategyVector.many_from_masks(3, [(0, -1, 0)])
    with pytest.raises(ValueError, match="row has 2 target masks, expected 3"):
        StrategyVector.many_from_masks(3, [good, (0, 0)])
    with pytest.raises(ValueError, match="empty strategy vector"):
        StrategyVector.many_from_masks(0, [])


def test_many_from_masks_shares_each_checked_set():
    rows = [(0b110, 0b001, 0b000), (0b010, 0b001, 0b011), (0b110, 0b100, 0b011)]
    states = StrategyVector.many_from_masks(3, rows)
    assert states == tuple(StrategyVector(tuple(mask_to_set(m) for m in row)) for row in rows)
    assert states[0][0] is states[2][0] and states[1][2] is states[2][2]


def test_target_out_of_range_rejected():
    p = GameParams(3, F(1), F(2))
    with pytest.raises(ValueError):
        social_cost(sv({3}, set(), set()), p)


# -- graph layer ----------------------------------------------------------------------


def test_components_of_pair_plus_singletons():
    state = sv({1}, set(), set(), set())
    decomp = components(state)
    assert not decomp.connected
    assert sorted(decomp.sizes) == [1, 1, 2]
    non = decomp.nonsingleton()
    assert len(non) == 1 and non[0].vertices == frozenset({0, 1})
    assert non[0].diameter == 1 and non[0].edge_count == 1


def test_distances_on_path():
    dist = all_pairs_distances(induce_graph(PATH3))
    assert dist.distance(0, 2) == 2
    assert dist.distance(2, 0) == 2
    assert dist.distance(0, 0) == 0


def test_distance_none_across_components():
    state = sv({1}, set(), set(), set())
    dist = all_pairs_distances(induce_graph(state))
    assert dist.distance(0, 2) is None


def test_random_state_reproducible_and_valid():
    a = random_state(5, random.Random(99))
    b = random_state(5, random.Random(99))
    assert a == b
    for i, targets in enumerate(a.strategies):
        assert i not in targets
        assert all(0 <= t < 5 for t in targets)


def per_digit_random_state(n, rng):
    """random_state as a loop over the n - 1 drawn bits, one target each."""
    buys = []
    for i in range(n):
        bits = rng.getrandbits(n - 1)
        targets = set()
        for b in range(n - 1):
            if bits >> b & 1:
                targets.add(b if b < i else b + 1)
        buys.append(frozenset(targets))
    return StrategyVector(tuple(buys))


def test_random_state_matches_the_per_digit_loop():
    for n in range(1, 10):
        for seed in range(300):
            rng, ref = random.Random(seed), random.Random(seed)
            assert random_state(n, rng) == per_digit_random_state(n, ref), (n, seed)
            assert rng.getrandbits(32) == ref.getrandbits(32)  # the same draws were taken


def test_random_state_hits_full_support():
    # with 300 draws at n=3 every one of the 64 states should appear
    rng = random.Random(0)
    seen = {random_state(3, rng) for _ in range(1200)}
    assert len(seen) == 64
