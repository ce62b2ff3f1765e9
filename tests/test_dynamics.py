"""Response dynamics: fixed points, convergence, cycle detection, determinism.

The game has no potential function, so termination is never assumed: every
run ends in Converged, CycleDetected or BudgetExhausted, and the tests pin
down which one on known inputs.  Witness segments must replay move-for-move.
"""

import random
from fractions import Fraction as F

import pytest

from pcg.constructions import CanonicalKind, canonical_state
from pcg.dynamics import (
    BudgetExhausted,
    Converged,
    CycleDetected,
    CycleWitness,
    DynamicsPolicy,
    MoveRule,
    PlayerOrder,
    TieRule,
    cycle_search,
    replay_cycle,
    run,
    serialize_outcome,
    step,
)
from pcg.equilibria import GuardExceeded, is_nash
from pcg.game import INFINITE, GameParams, StrategyVector, cost_delta, random_state

BR = DynamicsPolicy()
FIRST = DynamicsPolicy(move_rule=MoveRule.FIRST_IMPROVING)


def sv(*buys):
    return StrategyVector(tuple(frozenset(b) for b in buys))


def empty(n):
    return StrategyVector((frozenset(),) * n)


# -- fixed points and convergence -----------------------------------------------------


def test_empty_state_is_fixed_point_above_boundary():
    p = GameParams(4, F(2), F(5, 2))
    nxt, mover = step(empty(4), BR, p)
    assert mover is None and nxt == empty(4)
    out = run(empty(4), BR, p)
    assert isinstance(out, Converged)
    assert out.steps == 0


def test_first_scheduled_player_connects_everything():
    p = GameParams(4, F(1), F(3))
    nxt, mover = step(empty(4), BR, p)
    assert mover == 0
    assert nxt.strategies[0] == frozenset({1, 2, 3})


def test_run_from_empty_reaches_nash():
    p = GameParams(4, F(1), F(5))
    out = run(empty(4), BR, p)
    assert isinstance(out, Converged)
    assert is_nash(out.final_state, p).verdict


def test_center_star_already_stable():
    p = GameParams(5, F(2), F(4))  # 1 <= alpha < beta - 1
    star = canonical_state(CanonicalKind.parse("center-star"), 5)
    out = run(star, BR, p)
    assert isinstance(out, Converged) and out.steps == 0


def test_ne_states_are_identity_under_prefer_current():
    p = GameParams(4, F(3, 2), F(2))
    from pcg.equilibria import enumerate_equilibria

    for state in enumerate_equilibria(p).equilibria[:40]:
        nxt, mover = step(state, BR, p)
        assert mover is None and nxt == state


def test_converged_under_first_improving_too():
    p = GameParams(5, F(3), F(5, 2))
    rng = random.Random(2)
    for _ in range(20):
        out = run(random_state(5, rng), FIRST, p)
        assert isinstance(out, Converged)
        assert is_nash(out.final_state, p).verdict


def test_random_order_converges_with_seeded_schedule():
    p = GameParams(4, F(1), F(5))
    pol = DynamicsPolicy(order=PlayerOrder.RANDOM_PERMUTATION, seed=3)
    out = run(empty(4), pol, p)
    assert isinstance(out, Converged)
    assert is_nash(out.final_state, p).verdict


def test_budget_exhaustion():
    p = GameParams(4, F(1), F(5))
    pol = DynamicsPolicy(max_steps=1)
    out = run(empty(4), pol, p)
    assert isinstance(out, BudgetExhausted)
    assert out.attempts == 1


# -- tie rules -------------------------------------------------------------------------


def test_canonical_first_walks_transient_equilibrium():
    # the 5-cycle is a non-strict NE: player 0 may swap its spoke at zero gain
    p = GameParams(7, F(7, 2), F(12, 5))
    c5 = canonical_state(CanonicalKind.parse("cycle:5"), 7)
    assert is_nash(c5, p).verdict
    stay, mover = step(c5, DynamicsPolicy(tie_rule=TieRule.PREFER_CURRENT), p)
    assert mover is None
    moved, mover = step(c5, DynamicsPolicy(tie_rule=TieRule.CANONICAL_FIRST), p)
    assert mover is not None
    assert cost_delta(c5, mover, moved.strategies[mover], p) == 0


def test_canonical_first_fixed_point_is_nash():
    p = GameParams(4, F(1), F(5))
    pol = DynamicsPolicy(tie_rule=TieRule.CANONICAL_FIRST, max_steps=500)
    out = run(empty(4), pol, p)
    if isinstance(out, Converged):
        assert is_nash(out.final_state, p).verdict


# -- determinism ------------------------------------------------------------------------


def test_outcomes_serialize_identically_across_runs():
    p = GameParams(5, F(2), F(3))
    rng = random.Random(8)
    for _ in range(10):
        start = random_state(5, rng)
        for pol in (BR, FIRST, DynamicsPolicy(order=PlayerOrder.RANDOM_PERMUTATION, seed=5)):
            a = serialize_outcome(run(start, pol, p), p)
            b = serialize_outcome(run(start, pol, p), p)
            assert a == b


def test_seed_changes_random_schedule():
    p = GameParams(5, F(1), F(4))
    starts = [random_state(5, random.Random(s)) for s in range(6)]
    diverged = False
    for start in starts:
        out1 = run(start, DynamicsPolicy(order=PlayerOrder.RANDOM_PERMUTATION, seed=1), p)
        out2 = run(start, DynamicsPolicy(order=PlayerOrder.RANDOM_PERMUTATION, seed=2), p)
        if serialize_outcome(out1, p) != serialize_outcome(out2, p):
            diverged = True
    assert diverged  # different seeds must be able to produce different paths


# -- cycle machinery ---------------------------------------------------------------------


def test_cycle_search_is_deterministic_and_replayable():
    p = GameParams(5, F(2), INFINITE)
    w1 = cycle_search(p, trials=10, seed=21, max_steps=300)
    w2 = cycle_search(p, trials=10, seed=21, max_steps=300)
    assert (w1 is None) == (w2 is None)
    if w1 is not None:
        assert w1 == w2
        pol = DynamicsPolicy(move_rule=MoveRule.FIRST_IMPROVING, max_steps=300, seed=21)
        rep = replay_cycle(w1.cycle, pol, p)
        assert rep.ok
        assert all(d < 0 for d in rep.move_deltas)


def test_every_detected_cycle_replays():
    # sweep a few parameter points; any witness must replay with strict moves
    rng_points = [
        (4, F(5, 4), INFINITE),
        (4, F(5), INFINITE),
        (5, F(3), F(2)),
        (6, F(5), INFINITE),
    ]
    for n, a, b in rng_points:
        p = GameParams(n, a, b)
        w = cycle_search(p, trials=8, seed=5, max_steps=200)
        if w is None:
            continue
        pol = DynamicsPolicy(move_rule=MoveRule.FIRST_IMPROVING, max_steps=200, seed=5)
        rep = replay_cycle(w.cycle, pol, p)
        assert rep.ok
        assert all(d < 0 for d in rep.move_deltas)


def test_replay_rejects_forged_segment():
    p = GameParams(4, F(1), F(5))
    fake = CycleDetected(entry_index=0, period=2, states=(empty(4), sv({1}, set(), set(), set())))
    rep = replay_cycle(fake, DynamicsPolicy(move_rule=MoveRule.FIRST_IMPROVING), p)
    assert not rep.ok


def test_replay_requires_round_robin():
    fake = CycleDetected(entry_index=0, period=1, states=(empty(4),))
    pol = DynamicsPolicy(order=PlayerOrder.RANDOM_PERMUTATION)
    with pytest.raises(ValueError):
        replay_cycle(fake, pol, GameParams(4, F(1), F(2)))


def test_cycle_search_zero_trials():
    assert cycle_search(GameParams(4, F(1), F(2)), trials=0, seed=0) is None


# -- serialization and validation ----------------------------------------------------------


def test_serialize_converged_layout():
    p = GameParams(3, F(2), F(5, 2))
    text = serialize_outcome(run(empty(3), BR, p), p)
    lines = text.splitlines()
    assert lines[0] == "converged steps 0 attempts 3"
    assert lines[1] == "pcg-state v1"


def test_serialize_budget_layout():
    p = GameParams(4, F(1), F(5))
    out = run(empty(4), DynamicsPolicy(max_steps=2), p)
    text = serialize_outcome(out, p)
    assert text.startswith("budget-exhausted steps ")


def test_serialize_cycle_layout():
    p = GameParams(3, F(1), F(2))
    states = (empty(3), sv({1}, set(), set()))
    text = serialize_outcome(CycleDetected(1, 2, states), p)
    assert text.startswith("cycle entry 1 period 2\n")
    assert text.count("pcg-state v1") == 2


def test_policy_validation():
    with pytest.raises(ValueError):
        DynamicsPolicy(max_steps=0)
    with pytest.raises(ValueError):
        DynamicsPolicy(seed=-1)


def test_policy_refuses_canonical_first_under_first_improving():
    # first-improving never reads the tie rule, so this pair ran prefer-current in silence
    with pytest.raises(ValueError, match="tie rule canonical-first needs move rule best, got first"):
        DynamicsPolicy(move_rule=MoveRule.FIRST_IMPROVING, tie_rule=TieRule.CANONICAL_FIRST)
    assert DynamicsPolicy(tie_rule=TieRule.CANONICAL_FIRST).move_rule is MoveRule.BEST_RESPONSE


def test_policy_refuses_bool_integers():
    # True == 1 would pass as one step or seed 1
    with pytest.raises(ValueError, match="max_steps must be an integer >= 1, got True"):
        DynamicsPolicy(max_steps=True)
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got True"):
        DynamicsPolicy(seed=True)
    with pytest.raises(ValueError, match="max_steps must be an integer >= 1, got True"):
        cycle_search(GameParams(3, F(1), F(2)), trials=1, seed=0, max_steps=True)


def test_policy_refuses_non_integer_steps():
    # accepted before, as a budget of 2.5 attempts
    with pytest.raises(ValueError, match="max_steps must be an integer >= 1, got 2.5"):
        DynamicsPolicy(max_steps=2.5)


def test_cycle_search_refuses_non_integer_trials():
    # used to end in a TypeError from range()
    with pytest.raises(ValueError, match="trials must be an integer >= 0, got 2.5"):
        cycle_search(GameParams(3, F(1), F(2)), trials=2.5, seed=0)


def test_dynamics_guard():
    n = 17
    with pytest.raises(GuardExceeded):
        run(StrategyVector((frozenset(),) * n), BR, GameParams(n, F(1), F(2)))


def test_state_params_mismatch():
    with pytest.raises(ValueError):
        run(empty(3), BR, GameParams(4, F(1), F(2)))
