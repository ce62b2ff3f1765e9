"""Better- and best-response dynamics with exact cycle detection.

The game admits no potential function, so improvement paths may cycle; a run
therefore ends in one of three ways: a full quiet round (Converged), an exact
revisit of a (state, schedule-phase) pair (CycleDetected), or an exhausted
attempt budget.  Revisit detection only applies under the round-robin order,
where the schedule phase fully determines the continuation; randomized orders
can only converge or exhaust their budget.

Everything is reproducible: a fixed (start, policy, params) triple yields an
identical outcome, byte for byte after serialization.  Randomized schedules
and random restarts derive per-round and per-trial generators from the master
seed, never from global state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple, Union

from .equilibria import _DirectScan
from .game import GameParams, StrategyVector, cost_delta, mask_to_set, random_state
from .stateio import serialize_state, state_writer


class MoveRule(Enum):
    BEST_RESPONSE = "best"
    FIRST_IMPROVING = "first"


class PlayerOrder(Enum):
    ROUND_ROBIN = "roundrobin"
    RANDOM_PERMUTATION = "random"


class TieRule(Enum):
    # PREFER_CURRENT moves only on strict improvement, so equilibria are exact
    # fixed points.  CANONICAL_FIRST also takes zero-gain moves to the first
    # minimizer in canonical order, which can walk out of transient equilibria.
    PREFER_CURRENT = "prefer-current"
    CANONICAL_FIRST = "canonical-first"


@dataclass(frozen=True)
class DynamicsPolicy:
    move_rule: MoveRule = MoveRule.BEST_RESPONSE
    order: PlayerOrder = PlayerOrder.ROUND_ROBIN
    tie_rule: TieRule = TieRule.PREFER_CURRENT
    max_steps: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if type(self.max_steps) is not int or self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class Converged:
    final_state: StrategyVector
    steps: int  # strategy changes executed
    attempts: int  # scheduled player visits


@dataclass(frozen=True)
class CycleDetected:
    """A replaying trajectory segment.

    ``states[i]`` is the state before attempt ``entry_index + i``; the
    schedule phase of states[0] is entry_index mod n, and applying the policy
    for ``period`` attempts reproduces the segment and returns to states[0].
    """

    entry_index: int
    period: int
    states: tuple


@dataclass(frozen=True)
class BudgetExhausted:
    last_state: StrategyVector
    steps: int
    attempts: int


DynamicsOutcome = Union[Converged, CycleDetected, BudgetExhausted]


def _schedule(policy: DynamicsPolicy, n: int, round_no: int) -> List[int]:
    if policy.order is PlayerOrder.ROUND_ROBIN:
        return list(range(n))
    rng = random.Random(policy.seed * 2**32 + round_no)
    order = list(range(n))
    rng.shuffle(order)
    return order


def _select_move(
    state: StrategyVector, player: int, policy: DynamicsPolicy, params: GameParams
) -> Optional[frozenset]:
    """The strategy the scheduled player switches to, or None to stay.

    Building the scan refuses oversized games and mismatched states, so every
    entry point below fails on its first attempt rather than midway.
    """
    scan = _DirectScan(state, params)
    cur = scan.current_cost(player)
    if policy.move_rule is MoveRule.FIRST_IMPROVING:
        for mask, c in scan.alternatives(player):
            if c < cur:  # never the current strategy, which costs cur
                return mask_to_set(mask)
        return None
    best, mins = scan.minimizers(player)
    if best < cur or (policy.tie_rule is TieRule.CANONICAL_FIRST and mins[0] != scan.masks[player]):
        return mask_to_set(mins[0])
    return None


def step(
    state: StrategyVector, policy: DynamicsPolicy, params: GameParams
) -> Tuple[StrategyVector, Optional[int]]:
    """One improvement attempt: the first scheduled player with a move takes it.

    Scans the round's schedule in order and returns at the first mover; a
    fully quiet schedule returns the state unchanged with mover None, which
    means the state is a fixed point of the policy.
    """
    for player in _schedule(policy, params.n, 0):
        new = _select_move(state, player, policy, params)
        if new is not None:
            return state.replace(player, new), player
    return state, None


def run(start: StrategyVector, policy: DynamicsPolicy, params: GameParams) -> DynamicsOutcome:
    """Iterate scheduled improvement attempts until a terminal condition.

    A full round with no move converges (the final state is an equilibrium
    under PREFER_CURRENT, and a canonical fixed point under CANONICAL_FIRST,
    which is also an equilibrium).  Under round-robin, revisiting a
    previously seen (state, phase) pair is a proof of an infinite loop and
    reports the replaying segment.
    """
    n = params.n
    track_cycles = policy.order is PlayerOrder.ROUND_ROBIN
    state = start
    seen: dict = {}
    trajectory: List[StrategyVector] = []
    moves = 0
    attempts = 0
    round_no = 0
    while True:
        schedule = _schedule(policy, n, round_no)
        quiet = True
        for phase, player in enumerate(schedule):
            if attempts >= policy.max_steps:
                return BudgetExhausted(last_state=state, steps=moves, attempts=attempts)
            if track_cycles:
                # A (state, phase) revisit proves a loop only if a move
                # happened in between; quiet attempts recur harmlessly on
                # the way into the convergence round.
                key = (state, phase)
                hit = seen.get(key)
                if hit is not None:
                    first, first_moves = hit
                    if moves > first_moves:
                        return CycleDetected(
                            entry_index=first,
                            period=len(trajectory) - first,
                            states=tuple(trajectory[first:]),
                        )
                else:
                    seen[key] = (len(trajectory), moves)
                trajectory.append(state)
            new = _select_move(state, player, policy, params)
            attempts += 1
            if new is not None:
                state = state.replace(player, new)
                moves += 1
                quiet = False
        if quiet:
            return Converged(final_state=state, steps=moves, attempts=attempts)
        round_no += 1


@dataclass(frozen=True)
class CycleReplay:
    """Replay audit of a detected cycle: ``ok`` means every attempt reproduced
    the recorded successor and the segment closed back on its first state;
    ``move_deltas`` are the movers' exact cost changes, in order."""

    ok: bool
    move_deltas: tuple


def replay_cycle(cycle: CycleDetected, policy: DynamicsPolicy, params: GameParams) -> CycleReplay:
    if policy.order is not PlayerOrder.ROUND_ROBIN:
        raise ValueError("cycle replay is defined for the round-robin order")
    n = params.n
    deltas = []
    ok = True
    for i, state in enumerate(cycle.states):
        player = (cycle.entry_index + i) % n
        new = _select_move(state, player, policy, params)
        nxt = state if new is None else state.replace(player, new)
        expected = cycle.states[i + 1] if i + 1 < len(cycle.states) else cycle.states[0]
        if nxt != expected:
            ok = False
            break
        if new is not None:
            deltas.append(cost_delta(state, player, new, params))
    return CycleReplay(ok=ok, move_deltas=tuple(deltas))


@dataclass(frozen=True)
class CycleWitness:
    trial: int
    start_state: StrategyVector
    cycle: CycleDetected


def cycle_search(
    params: GameParams, trials: int, seed: int, max_steps: int = 2000
) -> Optional[CycleWitness]:
    """Random restarts of strictly-improving round-robin dynamics.

    Each trial draws its start state from a generator seeded by
    (seed, trial) and runs first-improving dynamics; the witness from the
    lowest-numbered cycling trial is returned, or None when every trial
    converges or exhausts its budget.  Absence of a cycle is a valid result.
    Trials are mutually independent, so they could run concurrently; the
    lowest-trial rule keeps the result identical either way.
    """
    if type(trials) is not int or trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    policy = DynamicsPolicy(
        move_rule=MoveRule.FIRST_IMPROVING,
        order=PlayerOrder.ROUND_ROBIN,
        max_steps=max_steps,
        seed=seed,
    )
    for trial in range(trials):
        rng = random.Random(seed * 2**32 + trial)
        start = random_state(params.n, rng)
        outcome = run(start, policy, params)
        if isinstance(outcome, CycleDetected):
            return CycleWitness(trial=trial, start_state=start, cycle=outcome)
    return None


def serialize_outcome(outcome: DynamicsOutcome, params: GameParams) -> str:
    """Canonical text form of an outcome; states appear as state-file blocks."""
    if isinstance(outcome, Converged):
        head = f"converged steps {outcome.steps} attempts {outcome.attempts}\n"
        return head + serialize_state(outcome.final_state, params)
    if isinstance(outcome, BudgetExhausted):
        head = f"budget-exhausted steps {outcome.steps} attempts {outcome.attempts}\n"
        return head + serialize_state(outcome.last_state, params)
    if isinstance(outcome, CycleDetected):
        head = f"cycle entry {outcome.entry_index} period {outcome.period}\n"
        return head + "\n".join(map(state_writer(params), outcome.states))
    raise TypeError(f"not a dynamics outcome: {outcome!r}")
