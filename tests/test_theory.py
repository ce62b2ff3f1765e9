"""Closed-form results: optimum map, equilibrium regions, cost bounds, anarchy bounds.

Everything here is either a frozen exact value recomputed by hand from the
defining formulas, or a property cross-checked against the enumeration and
cost engines (which are themselves tested independently).
"""

import math
import random
from fractions import Fraction as F

import pytest

from pcg.constructions import CanonicalKind, StructureLabel, canonical_state
from pcg.equilibria import is_nash, social_optimum_bruteforce
from pcg.game import INFINITE, GameParams, StrategyVector, components, random_state, social_cost
from pcg.theory import (
    CanonicalGraph,
    analytic_poa_bound,
    canonical_costs,
    classify_region,
    compo_poa_decomposition,
    component_conditions,
    component_cost_lower_bound,
    disconnected_ne_region,
    nonempty_ne_bounds,
    social_optimum_class,
)


def sv(*buys):
    return StrategyVector(tuple(frozenset(b) for b in buys))


# -- canonical costs and the optimum map ----------------------------------------------


def test_canonical_cost_formulas():
    costs = canonical_costs(GameParams(5, F(3), F(5, 2)))
    assert costs[CanonicalGraph.EMPTY] == F(5, 2) * 20
    assert costs[CanonicalGraph.COMPLETE] == 10 * 5
    assert costs[CanonicalGraph.STAR] == 4 * 11


def test_canonical_costs_ncg():
    costs = canonical_costs(GameParams(4, F(1), INFINITE))
    assert math.isinf(costs[CanonicalGraph.EMPTY])
    assert costs[CanonicalGraph.COMPLETE] == 18


@pytest.mark.parametrize(
    "n,alpha,beta,names",
    [
        (4, F(1, 2), F(7, 5), {"complete"}),
        (4, F(5), F(3), {"star"}),
        (4, F(3), F(3, 2), {"empty"}),
        (4, F(2), F(2), {"complete", "empty", "star"}),  # triple point
        (4, F(2), F(3), {"complete", "star"}),
        (5, F(3), F(5, 2), {"star"}),
        (4, F(3, 4), F(5, 4), {"empty"}),
        (3, F(1), INFINITE, {"complete"}),
    ],
)
def test_optimum_class_points(n, alpha, beta, names):
    assert set(social_optimum_class(GameParams(n, alpha, beta)).names()) == names


def test_optimum_class_agrees_with_bruteforce_on_grid():
    for n in (3, 4, 5):
        for ai in range(1, 13):
            for bi in range(1, 7):
                p = GameParams(n, F(ai, 2), 1 + F(bi, 4))
                assert social_optimum_class(p).cost == social_optimum_bruteforce(p).cost, (n, ai, bi)


def test_optimum_class_includes_exact_boundaries():
    # complete/star boundary sits exactly at alpha = 2
    p = GameParams(5, F(2), F(4))
    assert set(social_optimum_class(p).names()) == {"complete", "star"}
    # empty/star boundary: alpha = beta*n - 2(n-1)
    beta = F(5, 2)
    alpha = beta * 5 - 8
    assert set(social_optimum_class(GameParams(5, alpha, beta)).names()) == {"empty", "star"}


# -- disconnected-NE region ------------------------------------------------------------


def test_disconnected_region_boundary_inclusive():
    assert disconnected_ne_region(F(3, 2), F(5, 2))
    assert disconnected_ne_region(F(2), F(5, 2))
    assert not disconnected_ne_region(F(7, 5), F(5, 2))
    assert not disconnected_ne_region(F(5), INFINITE)


def test_disconnected_region_matches_empty_state_check():
    empty = StrategyVector((frozenset(),) * 4)
    for ai in range(1, 9):
        for bi in range(1, 9):
            a, b = F(ai, 2), 1 + F(bi, 3)
            assert disconnected_ne_region(a, b) == is_nash(empty, GameParams(4, a, b)).verdict


def test_disconnected_region_validates_parameters():
    with pytest.raises(ValueError):
        disconnected_ne_region(F(0), F(2))
    with pytest.raises(ValueError):
        disconnected_ne_region(F(1), F(1))


# -- per-structure equilibrium conditions ----------------------------------------------


def cond(label, alpha, beta):
    return component_conditions(label, alpha, beta).all_satisfied


def test_pair_condition():
    pair = StructureLabel("pair")
    assert cond(pair, F(1), F(2))
    assert cond(pair, F(1, 2), F(3, 2))
    assert not cond(pair, F(1), F(5, 2))  # off the alpha = beta - 1 line
    assert not cond(pair, F(3, 2), F(5, 2))  # alpha above 1


def test_clique_condition():
    clique = StructureLabel("clique")
    assert cond(clique, F(1), F(2))
    assert not cond(clique, F(1), F(5, 2))
    assert not cond(clique, F(2), F(2))


def test_clique_of_stars_condition():
    label = StructureLabel("clique-of-stars", k=3, l=1)
    assert cond(label, F(1), F(2))
    assert not cond(label, F(1), F(5, 2))
    assert not cond(label, F(2), F(2))
    # the leaf count must equal alpha
    wide = StructureLabel("clique-of-stars", k=3, l=2)
    assert not cond(wide, F(1), F(2))
    ev = component_conditions(wide, F(1), F(2))
    assert not ev.check("leaf-count").satisfied


def test_tree_and_star_condition():
    for name in ("tree", "star"):
        label = StructureLabel(name)
        assert cond(label, F(1), F(2))
        assert not cond(label, F(1), F(3))
        assert not cond(label, F(3, 2), F(2))


def test_cycle5_condition_window():
    c5 = StructureLabel("cycle", length=5)
    assert cond(c5, F(7, 2), F(29, 10))  # beta exactly (alpha+11)/5
    assert cond(c5, F(3), F(14, 5))
    assert cond(c5, F(4), F(3))
    assert not cond(c5, F(7, 2), F(3))
    assert not cond(c5, F(5), F(5, 2))
    assert not cond(c5, F(5, 2), F(2))


def test_conditions_out_of_scope():
    with pytest.raises(ValueError, match="no analytic condition"):
        component_conditions(StructureLabel("cycle", length=4), F(3), F(2))
    with pytest.raises(ValueError, match="no analytic condition"):
        component_conditions(StructureLabel("other"), F(1), F(2))
    with pytest.raises(ValueError, match="no analytic condition"):
        component_conditions(StructureLabel("singleton"), F(1), F(2))


def test_condition_checks_carry_exact_sides():
    ev = component_conditions(StructureLabel("pair"), F(1), F(2))
    boundary = ev.check("boundary")
    assert boundary.left == F(1) and boundary.right == F(1)
    assert boundary.inequality == "alpha == beta - 1"


# -- the four global bounds -------------------------------------------------------------


def test_nonempty_bounds_arithmetic():
    ev = nonempty_ne_bounds(7, 5, 2, F(3), F(5, 2))
    assert ev.all_satisfied
    assert ev.check("beta-diameter").right == 5
    ev = nonempty_ne_bounds(7, 5, 2, F(3), F(6))
    assert not ev.check("beta-diameter").satisfied


def test_nonempty_bounds_log_caps():
    ev = nonempty_ne_bounds(7, 5, 2, F(3), F(5, 2))
    assert ev.check("alpha-log").right == pytest.approx(60 * math.log(5))
    assert ev.check("beta-sqrt").right == pytest.approx(1 + 14 * math.sqrt(5 * math.log(5)))


def test_half_n_bound_vacuous_below_seven():
    assert nonempty_ne_bounds(6, 3, 1, F(1), F(100)).check("beta-half-n").satisfied
    assert not nonempty_ne_bounds(20, 3, 1, F(1), F(10)).check("beta-half-n").satisfied
    # strict inequality at the edge
    assert not nonempty_ne_bounds(20, 3, 1, F(1), F(10)).check("beta-half-n").satisfied
    assert nonempty_ne_bounds(21, 3, 1, F(1), F(10)).check("beta-half-n").satisfied


def test_nonempty_bounds_input_validation():
    with pytest.raises(ValueError):
        nonempty_ne_bounds(5, 1, 1, F(1), F(2))
    with pytest.raises(ValueError):
        nonempty_ne_bounds(5, 3, 0, F(1), F(2))
    with pytest.raises(ValueError):
        nonempty_ne_bounds(2, 3, 1, F(1), F(2))


# -- component cost lower bound ----------------------------------------------------------


def internal_cost(state, comp, alpha):
    from pcg.game import all_pairs_distances, induce_graph

    dist = all_pairs_distances(induce_graph(state))
    verts = sorted(comp.vertices)
    return alpha * comp.edge_count + sum(
        dist.distance(u, v) for u in verts for v in verts if u != v
    )


def test_component_bound_tight_on_stars():
    # 2n(n-1) + (alpha-2)m equals the star's exact cost when m = n-1
    bound = component_cost_lower_bound(5, 4, F(3), F(5, 2))
    assert bound.value == 44


def test_component_bound_holds_on_random_components():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randrange(3, 7)
        alpha = F(rng.randrange(1, 12), 2)
        state = random_state(n, rng)
        for comp in components(state).nonsingleton():
            b = component_cost_lower_bound(comp.size, comp.edge_count, alpha, F(5, 2))
            assert internal_cost(state, comp, alpha) >= b.value


def test_component_bound_chain_requires_alpha_two():
    # below alpha=2 the beta-scaled chain can overshoot the true value
    b = component_cost_lower_bound(4, 6, F(1, 2), F(3, 2))
    assert b.value == 2 * 4 * 3 + (F(1, 2) - 2) * 6  # 15
    assert b.chained_value == F(3, 2) * 12  # 18 exceeds it
    assert not b.chained_applicable


def test_component_bound_chain_when_applicable():
    rng = random.Random(41)
    seen = 0
    for _ in range(400):
        n = rng.randrange(3, 7)
        alpha = F(rng.randrange(4, 16), 2)
        beta = 1 + F(rng.randrange(1, 9), 4)
        state = random_state(n, rng)
        for comp in components(state).nonsingleton():
            b = component_cost_lower_bound(comp.size, comp.edge_count, alpha, beta)
            if not b.chained_applicable:
                continue
            cost = internal_cost(state, comp, alpha)
            assert cost >= b.value >= b.chained_value
            seen += 1
    assert seen > 50


def test_component_bound_ncg_chain_never_applies():
    b = component_cost_lower_bound(4, 5, F(3), INFINITE)
    assert not b.chained_applicable
    assert math.isinf(b.chained_value)


# -- analytic anarchy bounds -------------------------------------------------------------


def bound_at(n, alpha, beta):
    return analytic_poa_bound(GameParams(n, alpha, beta))


def test_complete_region_bounds():
    b = bound_at(4, F(1, 2), F(7, 5))
    assert (b.kind, b.value) == ("upper", F(4, 3))
    assert b.empty_ne_ratio == F(28, 25)  # empty is a NE here and costs 28/25 of opt
    b = bound_at(4, F(1), F(7, 4))
    assert (b.kind, b.value) == ("upper", F(4, 3))
    b = bound_at(4, F(3, 2), F(2))
    assert (b.kind, b.value) == ("upper", F(3, 2))
    assert b.empty_ne_ratio == F(8, 7)  # 24 against the complete optimum's 21


def test_empty_region_bounds():
    b = bound_at(4, F(3, 4), F(5, 4))
    assert (b.kind, b.value) == ("upper", F(3, 2))
    b = bound_at(4, F(3, 2), F(5, 4))
    assert (b.kind, b.value) == ("upper", F(2))
    b = bound_at(3, F(40), F(2))
    assert (b.kind, b.value) == ("exact", F(1))
    b = bound_at(5, F(3), F(5, 4))
    assert b.kind == "asymptotic" and b.value is None
    assert "5^" in b.symbolic


def test_exact_one_claim_verified_by_enumeration():
    # the only equilibrium at huge alpha with an empty optimum is the empty state
    from pcg.equilibria import enumerate_equilibria

    p = GameParams(3, F(40), F(2))
    r = enumerate_equilibria(p)
    assert r.poa == 1
    assert set(social_optimum_class(p).names()) == {"empty"}


def test_star_region_bounds():
    b = bound_at(5, F(3), F(5, 2))
    assert b.kind == "asymptotic"
    assert b.symbolic == "Theta(min(beta, n))"
    assert b.empty_ne_ratio == F(25, 22)
    b = bound_at(3, F(40), F(20))
    assert b.symbolic == "Theta(n beta / alpha)"
    b = bound_at(5, F(4), F(5, 2))
    assert "n beta/(alpha + n)" in b.symbolic


def test_ncg_reference_bands():
    b = bound_at(4, F(1, 2), INFINITE)
    assert b.region.startswith("equilibria coincide with the infinite-penalty game")
    assert (b.kind, b.value) == ("exact", F(1))
    assert (bound_at(4, F(3, 2), INFINITE).kind, bound_at(4, F(3, 2), INFINITE).value) == ("upper", F(4, 3))
    assert bound_at(200, F(3), INFINITE).value == F(4)
    big = 12 * 300 * math.log(300)
    b = bound_at(300, F(int(big) + 50), INFINITE)
    assert b.kind == "asymptotic" and b.value is None
    assert b.symbolic == "< 1 + 6 n log(n) / alpha"


def test_ncg_reference_band_edges_are_exact():
    # (n/2)^(1/3) = 4 at n = 128, but the float cube root is 3.9999999999999996
    below = bound_at(128, 4 - F(1, 10**17), INFINITE)
    assert below.region.endswith("2 <= alpha < (n/2)^(1/3)")
    assert below.value == F(4)
    at = bound_at(128, F(4), INFINITE)
    assert at.region.endswith("(n/2)^(1/3) <= alpha < sqrt(n/2)")
    assert at.value == F(6)
    # a rational above sqrt(5) but below the float math.sqrt(5)
    x = F(22360679774997897, 10**16)
    assert x * x > 5 and x < F(math.sqrt(5))
    above = bound_at(10, x, INFINITE)
    assert above.region.endswith("sqrt(n/2) <= alpha < 12 n log n")
    assert above.kind == "asymptotic"
    # the same edges hold below alpha = beta - 1, where the bands carry over
    assert bound_at(128, 4 - F(1, 10**17), F(10)).value == F(4)


def test_small_penalty_reuses_ncg_bands():
    # alpha < beta - 1: the equilibrium sets coincide, bands carry over
    pcg_bound = bound_at(4, F(3, 2), F(4))
    ncg_bound = bound_at(4, F(3, 2), INFINITE)
    assert pcg_bound.region == ncg_bound.region
    assert pcg_bound.value == ncg_bound.value


# -- component decomposition bound ---------------------------------------------------------


def two_stars_state():
    # star on {0,1,2} plus a pair {3,4}, periphery sponsored
    return sv(set(), {0}, {0}, set(), {3})


def test_decomposition_two_stars_oracle():
    p = GameParams(5, F(3), F(5, 2))
    d = compo_poa_decomposition(two_stars_state(), p)
    assert d.penalty_term == F(25, 22)
    assert d.component_term == 1
    assert d.bound == F(47, 22)
    assert d.actual_ratio == F(49, 44)
    assert d.verified


def test_decomposition_c5_oracle():
    p = GameParams(7, F(7, 2), F(5, 2))
    state = canonical_state(CanonicalKind.parse("cycle:5"), 7)
    d = compo_poa_decomposition(state, p)
    assert d.penalty_term == F(35, 31)
    assert d.component_term == F(95, 92)
    assert d.bound == F(6165, 2852)
    assert d.actual_ratio == F(205, 186)
    assert d.verified


def test_decomposition_holds_for_random_disconnected_states():
    rng = random.Random(23)
    tried = 0
    while tried < 150:
        n = rng.randrange(4, 7)
        p = GameParams(n, F(rng.randrange(1, 9), 2), 1 + F(rng.randrange(1, 9), 4))
        state = random_state(n, rng)
        if components(state).connected:
            continue
        d = compo_poa_decomposition(state, p)
        assert d.verified
        assert d.actual_ratio == F(social_cost(state, p)) / (
            (n - 1) * (p.alpha + 2 * n - 2)
        )
        tried += 1


def test_decomposition_rejects_connected_and_ncg():
    p = GameParams(3, F(1), F(2))
    with pytest.raises(ValueError, match="connected"):
        compo_poa_decomposition(sv({1}, {2}, set()), p)
    with pytest.raises(ValueError, match="finite"):
        compo_poa_decomposition(
            sv(set(), set(), set()), GameParams(3, F(1), INFINITE)
        )


# -- region report ---------------------------------------------------------------------------


def test_classify_region_star_point():
    r = classify_region(GameParams(5, F(3), F(5, 2)))
    assert set(r.optimum_class.names()) == {"star"}
    assert r.disconnected_ne_possible
    excluded = dict(r.structure_exclusions)
    assert excluded["pair"] == "alpha <= 1"
    assert excluded["clique"] == "alpha <= 1"
    assert excluded["tree"] == "beta <= 2"
    assert "cycle:5" not in excluded  # 3 <= alpha <= 4 and beta within window


def test_classify_region_permissive_point():
    r = classify_region(GameParams(4, F(1), F(2)))
    excluded = dict(r.structure_exclusions)
    assert "pair" not in excluded
    assert "clique" not in excluded
    assert "clique-of-stars" not in excluded
    assert "tree" not in excluded
    assert excluded["cycle:5"] == "3 <= alpha"


def test_classify_region_ncg():
    r = classify_region(GameParams(4, F(2), INFINITE))
    assert not r.disconnected_ne_possible
    assert r.poa_bound.region.startswith("equilibria coincide")
