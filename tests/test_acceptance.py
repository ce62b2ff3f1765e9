"""Acceptance gate: ten numbered end-to-end checks with pinned expected values.

Every value asserted here is exact (Fraction comparison, zero tolerance)
unless the line says otherwise.  Criteria 3-5 feed a registry of non-empty
disconnected equilibria that criterion 8 audits against the analytic bounds.
Each criterion reports one PASS/FAIL line in the terminal summary.
"""

from __future__ import annotations

import io
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction as F
from pathlib import Path

import pcg
from pcg import (
    INFINITE,
    Converged,
    DynamicsPolicy,
    GameParams,
    MoveRule,
    PlayerOrder,
    SweepSpec,
    TieRule,
    canonical_state,
    components,
    cost_delta,
    cycle_search,
    enumerate_equilibria,
    induce_graph,
    is_nash,
    is_strong,
    nonempty_ne_bounds,
    parse_state,
    replay_cycle,
    run,
    run_sweep,
    serialize_state,
    social_cost,
    social_optimum_bruteforce,
    social_optimum_class,
    structure_classify,
)
from pcg.constructions import CanonicalKind
from pcg.dynamics import random_state, serialize_outcome

VERDICTS: list = []

# registry shared between criteria: non-empty disconnected NE seen in 3-5,
# and every (n, poa) pair produced by full enumeration
DISCONNECTED_NE: list = []
ENUMERATED_POA: list = []


@contextmanager
def verdict(num, label):
    try:
        yield
    except BaseException:
        VERDICTS.append(f"criterion {num}: FAIL - {label}")
        raise
    VERDICTS.append(f"criterion {num}: PASS - {label}")


def empty_state(n):
    return canonical_state(CanonicalKind(name="empty"), n)


def record_enumeration(params, result):
    if result.prices.poa is not None:
        ENUMERATED_POA.append((params.n, result.prices.poa))
    found = []
    for st in result.equilibria:
        if all(not s for s in st.strategies):
            continue
        if components(st).connected:
            continue
        DISCONNECTED_NE.append((params, st))
        found.append(st)
    return found


# -- 1: the empty state is a NE exactly when alpha >= beta - 1 ----------------------


def test_criterion_01_empty_ne_boundary():
    t0 = time.perf_counter()
    with verdict(1, "empty-state NE boundary exact on 60-point grid, < 1 s"):
        checked = 0
        for b in (F(3, 2), F(2), F(5, 2), F(3), F(5)):
            for a in (b - 1 - F(1, 10), b - 1, b - 1 + F(1, 10)):
                for n in (3, 4, 5, 6):
                    rep = is_nash(empty_state(n), GameParams(n, a, b))
                    assert rep.verdict == (a >= b - 1), (n, a, b)
                    checked += 1
        assert checked == 60
        assert time.perf_counter() - t0 < 1.0


# -- 2: closed-form optimum map vs exhaustive minimum -------------------------------


def named_class_matches(n, edges, names):
    m = len(edges)
    if m == 0:
        return "empty" in names
    deg = [0] * n
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    if m == n * (n - 1) // 2 and min(deg) == n - 1:
        return "complete" in names
    if m == n - 1 and sorted(deg) == [1] * (n - 1) + [n - 1]:
        return "star" in names
    return False


def test_criterion_02_optimum_map():
    t0 = time.perf_counter()
    base_alphas = [F(k, 4) for k in range(1, 17)] + [
        F(9, 2), F(5), F(11, 2), F(6), F(7), F(8), F(10), F(12), F(15), F(20),
    ]
    betas = [F(3, 2), F(2), F(5, 2), F(3), F(7, 2), F(4), F(9, 2), F(5)]
    total = 0
    with verdict(2, "optimum map equals brute force at n=3..7, >= 200 points per n"):
        for n in (3, 4, 5, 6, 7):
            points = set()
            for b in betas:
                # the two alpha-boundaries that depend on beta, plus alpha = 2
                for a in (F(2), 2 * b - 2, b * n - 2 * (n - 1)):
                    if a > 0:
                        points.add((a, b))
                for a in base_alphas:
                    points.add((a, b))
            assert len(points) >= 200
            for a, b in sorted(points):
                params = GameParams(n, a, b)
                cls = social_optimum_class(params)
                brute = social_optimum_bruteforce(params)
                assert brute.cost == cls.cost, (n, a, b)
                assert named_class_matches(n, brute.edges, cls.names()), (n, a, b)
            total += len(points)
        assert time.perf_counter() - t0 < 120.0


# -- 3: the five-cycle component and its zero-gain escape ---------------------------


def c5_state():
    # 5-cycle owned one edge per member, two singleton bystanders
    return canonical_state(CanonicalKind(name="cycle", length=5), 7)


def test_criterion_03_five_cycle():
    t0 = time.perf_counter()
    with verdict(3, "five-cycle NE verdicts at 6 points and transience replay"):
        st = c5_state()
        ne_points = [(F(7, 2), F(12, 5)), (F(7, 2), F(29, 10)), (F(3), F(14, 5)), (F(4), F(3))]
        for a, b in ne_points:
            params = GameParams(7, a, b)
            assert is_nash(st, params).verdict, (a, b)
            DISCONNECTED_NE.append((params, st))
        for a, b in [(F(7, 2), F(3)), (F(5), F(5, 2))]:
            assert not is_nash(st, GameParams(7, a, b)).verdict, (a, b)
        # cost-neutral swap by player 2 unlocks a strict improvement for player 1
        params = GameParams(7, F(4), F(3))
        assert cost_delta(st, 2, frozenset({4}), params) == 0
        mid = st.replace(2, frozenset({4}))
        assert cost_delta(mid, 1, frozenset({4}), params) < 0
        assert time.perf_counter() - t0 < 1.0


# -- 4: no pair, clique, or tree components in disconnected NE ----------------------

POINTS4 = [
    (F(3, 2), F(3, 2)), (F(2), F(3, 2)), (F(3), F(3, 2)), (F(4), F(3, 2)),
    (F(3, 2), F(2)), (F(2), F(2)), (F(3), F(2)), (F(4), F(2)),
    (F(1, 2), F(5, 2)), (F(1), F(5, 2)), (F(2), F(5, 2)), (F(3), F(5, 2)),
    (F(1, 2), F(3)), (F(1), F(3)), (F(2), F(3)), (F(7, 2), F(3)),
    (F(1, 2), F(7, 2)), (F(1), F(7, 2)), (F(3), F(7, 2)), (F(4), F(7, 2)),
    (F(1, 2), F(5)), (F(1), F(5)), (F(2), F(5)), (F(4), F(5)),
]


def test_criterion_04_structural_exclusions():
    t0 = time.perf_counter()
    assert len(POINTS4) >= 20
    assert all(a > 1 or b > 2 for a, b in POINTS4)
    with verdict(4, f"no excluded components in disconnected NE, {len(POINTS4)} points at n=4,5"):
        for n in (4, 5):
            for a, b in POINTS4:
                params = GameParams(n, a, b)
                result = enumerate_equilibria(params)
                for st in record_enumeration(params, result):
                    graph = induce_graph(st)
                    for comp in components(st).nonsingleton():
                        label = structure_classify(graph, comp.vertices)
                        assert label.name != "pair", (params, st)
                        if b > 2:
                            assert label.name != "clique", (params, st)
                        assert label.name not in ("tree", "star"), (params, st)
        assert time.perf_counter() - t0 < 600.0


# -- 5: price of anarchy closed forms and the global cap ----------------------------


def test_criterion_05_poa_values():
    with verdict(5, "PoA 25/22 and 28/25 exact; PoA <= n at every enumerated point"):
        params = GameParams(5, F(3), F(5, 2))
        result = enumerate_equilibria(params)
        record_enumeration(params, result)
        empty_cost = social_cost(empty_state(5), params)
        assert empty_cost / result.prices.optimum_cost == F(25, 22)
        assert params.beta * params.n / (params.alpha + 2 * (params.n - 1)) == F(25, 22)
        assert empty_state(5) in result.equilibria
        assert result.prices.poa >= F(25, 22)

        params = GameParams(4, F(1, 2), F(7, 5))
        result = enumerate_equilibria(params)
        record_enumeration(params, result)
        assert empty_state(4) in result.equilibria
        assert result.prices.worst_cost == social_cost(empty_state(4), params)
        assert result.prices.poa == 2 * params.beta / (params.alpha + 2) == F(28, 25) < F(4, 3)

        assert len(ENUMERATED_POA) >= 50
        for n, poa in ENUMERATED_POA:
            assert poa <= n


# -- 6: large finite penalty is equivalent to the infinite one ----------------------


def test_criterion_06_penalty_equivalence():
    t0 = time.perf_counter()
    with verdict(6, "beta=100 and beta=inf give identical NE sets at n=4, alpha in 1,2,5"):
        for a in (F(1), F(2), F(5)):
            finite = enumerate_equilibria(GameParams(4, a, F(100)))
            ncg = enumerate_equilibria(GameParams(4, a, INFINITE))
            assert set(finite.equilibria) == set(ncg.equilibria), a
        assert time.perf_counter() - t0 < 60.0


# -- 7: strong equilibria ------------------------------------------------------------

POINTS7 = [
    (F(1), F(2)), (F(2), F(3, 2)), (F(3), F(5, 2)), (F(4), F(3)),
    (F(1), F(3)), (F(2), F(5, 2)), (F(3), F(3)), (F(1, 2), F(3, 2)),
    (F(3, 2), F(2)), (F(5, 2), F(2)), (F(2), F(2)), (F(4), F(5)),
]


def test_criterion_07_strong_equilibria():
    t0 = time.perf_counter()
    assert len(POINTS7) >= 12
    with verdict(7, "star strongness flips at alpha=6; every SE within 4x optimum and inside NE"):
        star = canonical_state(CanonicalKind(name="periphery-star"), 5)
        assert is_strong(star, GameParams(5, F(4), F(3))).verdict
        rep = is_strong(star, GameParams(5, F(6), F(3)))
        assert not rep.verdict
        dev = rep.witness
        assert dev is not None
        assert all(new < old for old, new in zip(dev.old_costs, dev.new_costs))
        assert 12 in dev.new_costs and 13 in dev.old_costs

        for n in (4, 5):
            for a, b in POINTS7:
                params = GameParams(n, a, b)
                result = enumerate_equilibria(params, mode="strong")
                assert set(result.strong_equilibria) <= set(result.equilibria)
                for cost in result.strong_costs:
                    assert cost <= 4 * result.prices.optimum_cost, (params, cost)
        assert time.perf_counter() - t0 < 900.0


# -- 8: every recorded disconnected NE satisfies the analytic bounds -----------------


def test_criterion_08_bounds_audit():
    audited = 0
    probe_hits = 0
    try:
        for params, st in DISCONNECTED_NE:
            nonsingleton = components(st).nonsingleton()
            n_l = min(c.size for c in nonsingleton)
            diam_l = min(c.diameter for c in nonsingleton)
            ev = nonempty_ne_bounds(params.n, n_l, diam_l, params.alpha, params.beta)
            assert ev.check("beta-diameter").satisfied, (params, st)
            assert ev.check("alpha-log").satisfied, (params, st)
            assert ev.check("beta-sqrt").satisfied, (params, st)
            if params.beta > 3:
                probe_hits += 1
            audited += 1
        assert audited >= 4  # criterion 3 alone contributes four instances
    except BaseException:
        VERDICTS.append("criterion 8: FAIL - bounds audit of recorded disconnected NE")
        raise
    VERDICTS.append(
        f"criterion 8: PASS - all three bounds hold on {audited} disconnected NE; "
        f"beta>3 probe found {probe_hits} (reported, not asserted)"
    )


# -- 9: dynamics convergence, cycle replay, determinism ------------------------------


def test_criterion_09_dynamics():
    with verdict(9, "dynamics reach NE from empty; outcomes byte-identical across reruns"):
        params = GameParams(4, F(1), F(5))
        outcome = run(empty_state(4), DynamicsPolicy(), params)
        assert isinstance(outcome, Converged)
        assert is_nash(outcome.final_state, params).verdict

        probes = [
            (GameParams(4, F(5, 4), INFINITE), 3),
            (GameParams(5, F(2), F(5, 2)), 1),
            (GameParams(4, F(3, 2), F(3)), 11),
        ]
        for pp, seed in probes:
            w1 = cycle_search(pp, trials=4, seed=seed, max_steps=400)
            w2 = cycle_search(pp, trials=4, seed=seed, max_steps=400)
            assert w1 == w2
            if w1 is not None:
                policy = DynamicsPolicy(
                    move_rule=MoveRule.FIRST_IMPROVING, max_steps=400, seed=seed)
                rep = replay_cycle(w1.cycle, policy, pp)
                assert rep.ok
                assert all(d < 0 for d in rep.move_deltas)

        configs = [
            (empty_state(4), DynamicsPolicy(), GameParams(4, F(1), F(5))),
            (empty_state(4),
             DynamicsPolicy(move_rule=MoveRule.FIRST_IMPROVING,
                            order=PlayerOrder.RANDOM_PERMUTATION, seed=7),
             GameParams(4, F(1), F(5))),
            (c5_state(),
             DynamicsPolicy(tie_rule=TieRule.CANONICAL_FIRST, max_steps=400),
             GameParams(7, F(7, 2), F(12, 5))),
            (canonical_state(CanonicalKind(name="periphery-star"), 5),
             DynamicsPolicy(order=PlayerOrder.RANDOM_PERMUTATION, seed=3),
             GameParams(5, F(3), F(5, 2))),
        ]
        for start, policy, pp in configs:
            first = serialize_outcome(run(start, policy, pp), pp)
            second = serialize_outcome(run(start, policy, pp), pp)
            assert first == second


# -- 10: round-trip identity and run-to-run determinism ----------------------------


def test_criterion_10_determinism():
    with verdict(10, "serialize/parse identity on 10000 states; sweep CSV equal in process and in a subprocess"):
        rng = random.Random(20260814)
        for _ in range(10_000):
            n = rng.randint(2, 7)
            alpha = F(rng.randint(1, 60), rng.randint(1, 9))
            beta = INFINITE if rng.random() < 0.2 else F(rng.randint(10, 60), rng.randint(1, 9))
            params = GameParams(n, alpha, beta)
            st = random_state(n, rng)
            text = serialize_state(st, params)
            st2, params2 = parse_state(text)
            assert st2 == st and params2 == params
            assert serialize_state(st2, params2) == text

        buf = io.StringIO()
        run_sweep(SweepSpec(ns=[3, 4], alphas=[F(1), F(5, 2)], betas=[F(2), INFINITE]), buf)
        # the same grid from the command line, in a fresh interpreter with another hash seed
        src = str(Path(pcg.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        argv = [sys.executable, "-m", "pcg.cli", "sweep", "--n", "3,4", "--alpha", "1,5/2", "--beta", "2,inf"]
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
        cli = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        assert cli.stdout == buf.getvalue()
