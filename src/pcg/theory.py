"""Closed-form classifiers for optimum regions, equilibrium existence, and
anarchy bounds.

Everything with an exact closed form is evaluated in rational arithmetic so
region boundaries are decided without rounding.  The two logarithmic guards
(the 12*n*log(n) edge-cost cap and the sqrt(n log n) penalty cap) do not pin
a logarithm base on their own; BOUND_LOG_BASE fixes the natural log, and the
guards are treated as region filters only, never as exact thresholds.

Asymptotic anarchy bounds are reported as symbolic descriptor strings; a
numeric value is attached only where a closed-form constant exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Tuple

from .constructions import StructureLabel
from .game import (
    Cost,
    GameParams,
    INFINITE,
    StrategyVector,
    all_pairs_distances,
    as_alpha,
    as_beta,
    check_players,
    components,
    induce_graph,
    is_infinite,
    social_cost,
)

BOUND_LOG_BASE = math.e


def _log(x) -> float:
    return math.log(float(x), BOUND_LOG_BASE)


class CanonicalGraph(Enum):
    EMPTY = "empty"
    COMPLETE = "complete"
    STAR = "star"


@dataclass(frozen=True)
class OptimumClass:
    """The canonical graphs attaining minimum social cost (ties possible)."""

    members: frozenset
    cost: Cost

    def __contains__(self, item):
        return item in self.members

    def __iter__(self):
        return iter(sorted(self.members, key=lambda m: m.value))

    def names(self) -> Tuple[str, ...]:
        return tuple(m.value for m in self)


def canonical_costs(params: GameParams) -> dict:
    """Exact social costs of the empty graph, complete graph, and star."""
    n, a, b = params.n, params.alpha, params.beta
    pairs = n * (n - 1) // 2
    empty = INFINITE if params.is_ncg else Fraction(b) * n * (n - 1)
    return {
        CanonicalGraph.EMPTY: empty,
        CanonicalGraph.COMPLETE: pairs * (a + 2),
        CanonicalGraph.STAR: (n - 1) * (a + 2 * n - 2),
    }


def social_optimum_class(params: GameParams) -> OptimumClass:
    """Which canonical graphs are social optima, by exact cost comparison.

    The three canonical costs partition the parameter plane: complete wins
    for alpha <= min(2, 2 beta - 2), empty for alpha >= max(2 beta - 2,
    beta n - 2(n-1)), star in between, with boundary equalities yielding
    multi-member ties.  Brute force over all graphs confirms the minimum
    (cross-checked in tests at n <= 6).
    """
    costs = canonical_costs(params)
    low = min(costs.values())
    return OptimumClass(
        members=frozenset(k for k, v in costs.items() if v == low),
        cost=low,
    )


def disconnected_ne_region(alpha, beta) -> bool:
    """True iff a disconnected Nash equilibrium exists (alpha >= beta - 1).

    The empty state is an equilibrium exactly there, boundary included; below
    the boundary every disconnected state admits an improving deviation.
    """
    a, b = as_alpha(alpha), as_beta(beta)
    if is_infinite(b):
        return False
    return a >= b - 1


# -- per-bound evaluation --------------------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    name: str
    inequality: str
    left: object
    right: object
    satisfied: bool


@dataclass(frozen=True)
class BoundEvaluation:
    subject: str
    checks: Tuple[BoundCheck, ...]

    @property
    def all_satisfied(self) -> bool:
        return all(c.satisfied for c in self.checks)

    def check(self, name: str) -> BoundCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def component_conditions(label: StructureLabel, alpha, beta) -> BoundEvaluation:
    """Necessary conditions for the labeled structure to be a component of a
    disconnected Nash equilibrium.

    Supported labels: pair, clique, clique-of-stars, tree (stars and pairs
    are trees, so the tree conditions apply to them as well), and cycles of
    length 5.  Every condition is an exact inequality in (alpha, beta); for a
    clique of stars the leaf count enters through alpha = l.
    """
    a, b = as_alpha(alpha), as_beta(beta)
    name = label.name
    checks = []
    if name == "pair":
        # an edge kept in equilibrium forces alpha <= beta - 1; the global
        # disconnected-NE condition forces alpha >= beta - 1; an outsider's
        # attachment is profitable unless alpha <= 1
        checks.append(_check("alpha-cap", "alpha <= 1", a, Fraction(1), a <= 1))
        checks.append(_check("boundary", "alpha == beta - 1", a, _minus_one(b), a == _minus_one(b)))
    elif name == "clique":
        checks.append(_check("alpha-cap", "alpha <= 1", a, Fraction(1), a <= 1))
        checks.append(_check("beta-cap", "beta <= 2", b, Fraction(2), b <= 2))
    elif name == "clique-of-stars":
        if label.l is not None:
            checks.append(
                _check("leaf-count", "alpha == l", a, Fraction(label.l), a == label.l)
            )
        if label.k is not None:
            checks.append(_check("clique-size", "k >= 3", label.k, 3, label.k >= 3))
        checks.append(_check("alpha-value", "alpha == 1", a, Fraction(1), a == 1))
        checks.append(_check("beta-value", "beta == 2", b, Fraction(2), b == 2))
    elif name in ("tree", "star"):
        checks.append(_check("beta-cap", "beta <= 2", b, Fraction(2), b <= 2))
        checks.append(_check("alpha-cap", "alpha <= 1", a, Fraction(1), a <= 1))
    elif name == "cycle" and label.length == 5:
        window = (a + 11) / 5
        checks.append(_check("alpha-lower", "3 <= alpha", Fraction(3), a, a >= 3))
        checks.append(_check("alpha-upper", "alpha <= 4", a, Fraction(4), a <= 4))
        checks.append(
            _check("beta-window", "beta <= (alpha + 11)/5", b, window, b <= window)
        )
    else:
        raise ValueError(f"no analytic condition in scope for label {label}")
    return BoundEvaluation(subject=str(label), checks=tuple(checks))


def _check(name, inequality, left, right, satisfied) -> BoundCheck:
    return BoundCheck(name, inequality, left, right, bool(satisfied))


def _minus_one(b):
    return b if is_infinite(b) else b - 1


def nonempty_ne_bounds(n: int, n_l: int, diam_l: int, alpha, beta) -> BoundEvaluation:
    """The four necessary bounds for a non-empty disconnected equilibrium.

    n_l is the minimum size and diam_l the minimum diameter over non-singleton
    components.  Bounds 1 and 3 involve logarithms (see BOUND_LOG_BASE); bound
    4 applies only for n > 6 and is vacuously satisfied otherwise.
    """
    a, b = as_alpha(alpha), as_beta(beta)
    if not isinstance(n, int) or not isinstance(n_l, int) or not isinstance(diam_l, int):
        raise ValueError("n, n_l, diam_l must be integers")
    if n_l < 2:
        raise ValueError(f"n_l is the size of a non-singleton component, got {n_l}")
    if diam_l < 1:
        raise ValueError(f"diam_l must be >= 1, got {diam_l}")
    if n < n_l:
        raise ValueError(f"n={n} smaller than component size n_l={n_l}")
    log_nl = _log(n_l)
    cap1 = 12 * n_l * log_nl
    cap2 = 1 + 2 * diam_l
    cap3 = 1 + 14 * math.sqrt(n_l * log_nl)
    half_n = Fraction(n, 2)
    checks = (
        _check("alpha-log", "alpha < 12 * n_l * log(n_l)", a, cap1, a < cap1),
        _check("beta-diameter", "beta <= 1 + 2 * diam_l", b, Fraction(cap2), b <= cap2),
        _check("beta-sqrt", "beta < 1 + 14 * sqrt(n_l * log(n_l))", b, cap3, b < cap3),
        _check(
            "beta-half-n",
            "(n > 6) implies beta < n/2",
            b,
            half_n,
            n <= 6 or b < half_n,
        ),
    )
    return BoundEvaluation(subject=f"non-empty disconnected NE (n_l={n_l}, diam_l={diam_l})", checks=checks)


@dataclass(frozen=True)
class ComponentCostBound:
    """Lower bound 2 n_C(n_C - 1) + (alpha - 2) m_C on a component's internal
    cost, and the chained penalty comparison n_C(n_C - 1) beta where its
    preconditions (m_C >= n_C - 1, alpha >= 2, alpha >= beta n_C - 2(n_C - 1))
    hold."""

    value: Fraction
    chained_value: Cost
    chained_applicable: bool


def component_cost_lower_bound(n_c: int, m_c: int, alpha, beta) -> ComponentCostBound:
    a, b = as_alpha(alpha), as_beta(beta)
    if n_c < 1:
        raise ValueError(f"component size must be >= 1, got {n_c}")
    if not 0 <= m_c <= n_c * (n_c - 1) // 2:
        raise ValueError(f"edge count {m_c} impossible for {n_c} vertices")
    value = 2 * n_c * (n_c - 1) + (a - 2) * m_c
    if n_c <= 1:
        chained: Cost = Fraction(0)
    else:
        chained = INFINITE if is_infinite(b) else Fraction(b) * n_c * (n_c - 1)
    applicable = (
        m_c >= n_c - 1
        and a >= 2
        and not is_infinite(b)
        and a >= b * n_c - 2 * (n_c - 1)
    )
    return ComponentCostBound(value=value, chained_value=chained, chained_applicable=applicable)


# -- anarchy bounds --------------------------------------------------------------


@dataclass(frozen=True)
class PoaBound:
    """Anarchy bound for one parameter region.

    kind is "exact" (the ratio equals value), "upper" (ratio <= value), or
    "asymptotic" (only the symbolic descriptor applies).  empty_ne_ratio is
    the exact cost ratio of the empty state against the canonical optimum
    whenever the empty state is an equilibrium: a certified lower bound on the
    price of anarchy.
    """

    region: str
    kind: str
    value: Optional[Fraction]
    symbolic: Optional[str]
    empty_ne_ratio: Optional[Fraction]


def _ncg_reference_band(n: int, a: Fraction) -> PoaBound:
    """Anarchy bands of the infinite-penalty game, used verbatim when the
    penalty is too small to disrupt them (alpha < beta - 1).

    The two middle constant bands collapse for small n; band edges involving
    unspecified exponents are merged into the o(n^eps) band.
    """
    prefix = "equilibria coincide with the infinite-penalty game: "
    half_n = Fraction(n, 2)
    t_log = 12 * n * _log(n)
    if a < 1:
        return PoaBound(prefix + "alpha < 1", "exact", Fraction(1), None, None)
    if a < 2:
        return PoaBound(prefix + "1 <= alpha < 2", "upper", Fraction(4, 3), None, None)
    if a**3 < half_n:
        return PoaBound(prefix + "2 <= alpha < (n/2)^(1/3)", "upper", Fraction(4), None, None)
    if a**2 < half_n:
        return PoaBound(
            prefix + "(n/2)^(1/3) <= alpha < sqrt(n/2)", "upper", Fraction(6), None, None
        )
    if a < t_log:
        return PoaBound(
            prefix + "sqrt(n/2) <= alpha < 12 n log n",
            "asymptotic",
            None,
            "o(n^eps)",
            None,
        )
    return PoaBound(
        prefix + "alpha >= 12 n log n",
        "asymptotic",
        None,
        "< 1 + 6 n log(n) / alpha",
        None,
    )


def analytic_poa_bound(params: GameParams) -> PoaBound:
    """Piecewise anarchy bound by optimum region.

    Regions with a closed-form constant report it (4/3, 3/2, 2, exact 1);
    asymptotic regions report a symbolic descriptor; below alpha = beta - 1
    the bound defers to the infinite-penalty reference bands.  Boundary ties
    between canonical optima resolve complete, then empty, then star.
    """
    n, a, b = params.n, params.alpha, params.beta
    opt = social_optimum_class(params)
    if params.is_ncg or a < b - 1:
        return _ncg_reference_band(n, a)

    ratio = Fraction(b) * n * (n - 1) / Fraction(opt.cost)
    t_log = 12 * n * _log(n)

    if CanonicalGraph.COMPLETE in opt:
        if a < 1:
            return PoaBound(
                "alpha < 1, complete optimum", "upper", Fraction(4, 3), None, ratio
            )
        if b < 2:
            return PoaBound(
                "1 <= alpha <= 2 and beta < 2, complete optimum",
                "upper",
                Fraction(4, 3),
                None,
                ratio,
            )
        return PoaBound(
            "alpha <= min(2, 2 beta - 2) and beta >= 2, complete optimum",
            "upper",
            Fraction(3, 2),
            None,
            ratio,
        )
    if CanonicalGraph.EMPTY in opt:
        if a < 1:
            return PoaBound(
                "2 beta - 2 < alpha < 1, empty optimum", "upper", Fraction(3, 2), None, ratio
            )
        if a < 2:
            return PoaBound(
                "1 <= alpha < 2 and alpha > 2 beta - 2, empty optimum",
                "upper",
                Fraction(2),
                None,
                ratio,
            )
        if a >= t_log and a > b * n - 2 * (n - 1):
            return PoaBound(
                "alpha >= 12 n log n and alpha > beta n - 2(n-1), empty optimum",
                "exact",
                Fraction(1),
                None,
                ratio,
            )
        return PoaBound(
            "2 <= alpha < 12 n log n and alpha >= beta n - 2(n-1), empty optimum",
            "asymptotic",
            None,
            "O(5^sqrt(log n) * log(n) * (alpha + n)/(n beta))",
            ratio,
        )
    if a <= 2 * b - 2:
        return PoaBound(
            "beta - 1 <= alpha <= 2 beta - 2, star optimum",
            "asymptotic",
            None,
            "Theta(min(beta, n))",
            ratio,
        )
    if a >= t_log:
        return PoaBound(
            "alpha >= 12 n log n, star optimum",
            "asymptotic",
            None,
            "Theta(n beta / alpha)",
            ratio,
        )
    return PoaBound(
        "2 beta - 2 < alpha < 12 n log n, star optimum",
        "asymptotic",
        None,
        "O(5^sqrt(log n) * log(n) + n beta/(alpha + n))",
        ratio,
    )


@dataclass(frozen=True)
class DecompositionBound:
    """Anarchy bound for a disconnected state via its components: the empty
    state's penalty-to-star ratio plus the worst per-component ratio against
    that component's own star."""

    penalty_term: Fraction
    component_term: Fraction
    bound: Fraction
    actual_ratio: Fraction
    verified: bool


def compo_poa_decomposition(state: StrategyVector, params: GameParams) -> DecompositionBound:
    """Evaluate both sides of the component decomposition bound exactly.

    The state's cost over the full star's cost is bounded by
    n*beta/(alpha + 2(n-1)) plus the maximum over non-singleton components of
    (internal component cost)/(star cost at the component's size).  Connected
    states and infinite penalties are rejected.
    """
    if params.is_ncg:
        raise ValueError("decomposition requires a finite penalty")
    check_players(state, params)
    n, a, b = params.n, params.alpha, params.beta
    decomp = components(state)
    if decomp.connected:
        raise ValueError("state is connected; the decomposition covers disconnected states")
    graph = induce_graph(state)
    dist = all_pairs_distances(graph)
    penalty_term = Fraction(b) * n / (a + 2 * (n - 1))
    component_term = Fraction(0)
    for comp in decomp.nonsingleton():
        verts = sorted(comp.vertices)
        internal = sum(
            dist.distance(u, v) for u in verts for v in verts if u != v
        )
        cost_c = a * comp.edge_count + internal
        star_c = (comp.size - 1) * (a + 2 * comp.size - 2)
        ratio = Fraction(cost_c) / star_c
        if ratio > component_term:
            component_term = ratio
    bound = penalty_term + component_term
    star_full = (n - 1) * (a + 2 * n - 2)
    actual = Fraction(social_cost(state, params)) / star_full
    return DecompositionBound(
        penalty_term=penalty_term,
        component_term=component_term,
        bound=bound,
        actual_ratio=actual,
        verified=actual <= bound,
    )


# -- region report ----------------------------------------------------------------


@dataclass(frozen=True)
class RegionReport:
    """One-stop classification of a parameter point."""

    params: GameParams
    optimum_class: OptimumClass
    disconnected_ne_possible: bool
    structure_exclusions: Tuple[Tuple[str, str], ...]
    poa_bound: PoaBound


_EXCLUSION_LABELS = (
    StructureLabel("pair"),
    StructureLabel("clique"),
    StructureLabel("clique-of-stars"),
    StructureLabel("tree"),
    StructureLabel("cycle", length=5),
)


def classify_region(params: GameParams) -> RegionReport:
    """Assemble the analytic picture at one parameter point.

    structure_exclusions lists each structure family that cannot appear as a
    disconnected-equilibrium component here, with the first violated
    condition.
    """
    exclusions = []
    for label in _EXCLUSION_LABELS:
        evaluation = component_conditions(label, params.alpha, params.beta)
        failed = [c for c in evaluation.checks if not c.satisfied]
        if failed:
            exclusions.append((str(label), failed[0].inequality))
    return RegionReport(
        params=params,
        optimum_class=social_optimum_class(params),
        disconnected_ne_possible=disconnected_ne_region(params.alpha, params.beta),
        structure_exclusions=tuple(exclusions),
        poa_bound=analytic_poa_bound(params),
    )
