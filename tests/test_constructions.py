"""Canonical profiles and the structural classifier.

The profiles pin exact ownership (who buys which edge), the classifier is
ownership-blind, and labels follow a fixed precedence: a triangle is a
clique rather than a cycle, and a path on three vertices is a star.
"""

from fractions import Fraction as F

import pytest

from pcg.constructions import CanonicalKind, canonical_state, structure_classify
from pcg.game import GameParams, StrategyVector, induce_graph, social_cost


def graph_of(*edges, n):
    buys = [set() for _ in range(n)]
    for i, j in edges:
        buys[min(i, j)].add(max(i, j))
    return induce_graph(StrategyVector(tuple(frozenset(b) for b in buys)))


# -- canonical ownership ---------------------------------------------------------


def test_empty_profile():
    st = canonical_state(CanonicalKind.parse("empty"), 4)
    assert all(s == frozenset() for s in st.strategies)


def test_complete_lower_endpoint_owns():
    st = canonical_state(CanonicalKind.parse("complete"), 4)
    assert st.strategies == (
        frozenset({1, 2, 3}),
        frozenset({2, 3}),
        frozenset({3}),
        frozenset(),
    )


def test_center_star_center_owns_everything():
    st = canonical_state(CanonicalKind.parse("center-star"), 5)
    assert st.strategies[0] == frozenset({1, 2, 3, 4})
    assert all(st.strategies[i] == frozenset() for i in range(1, 5))


def test_periphery_star_leaves_own_spokes():
    st = canonical_state(CanonicalKind.parse("periphery-star"), 5)
    assert st.strategies[0] == frozenset()
    assert all(st.strategies[i] == frozenset({0}) for i in range(1, 5))


def test_cycle_ownership_and_padding():
    st = canonical_state(CanonicalKind.parse("cycle:5"), 7)
    for i in range(5):
        assert st.strategies[i] == frozenset({(i + 1) % 5})
    assert st.strategies[5] == st.strategies[6] == frozenset()


def test_clique_of_stars_all_edges_clique_owned():
    st = canonical_state(CanonicalKind.parse("clique-of-stars:3:1"), 6)
    g = induce_graph(st)
    assert len(g.edges) == 6  # 3 clique + 3 pendant
    for i in range(3, 6):
        assert st.strategies[i] == frozenset()
    owned = set()
    for i in range(3):
        owned |= {frozenset({i, t}) for t in st.strategies[i]}
    assert owned == {frozenset(e) for e in g.edges}


def test_cycle_needs_length_within_n():
    with pytest.raises(ValueError):
        canonical_state(CanonicalKind.parse("cycle:5"), 4)


def test_kind_grammar_errors():
    with pytest.raises(ValueError):
        CanonicalKind.parse("cycle")
    with pytest.raises(ValueError):
        CanonicalKind.parse("clique-of-stars:2:1")  # k=2 is a tree shape
    with pytest.raises(ValueError):
        CanonicalKind.parse("complete:4")
    with pytest.raises(ValueError):
        CanonicalKind.parse("pentagon")


def test_kind_fields_and_n_must_be_integers():
    # a float or a bool is refused before range() or the player count can see it
    for kind, field, value in (
        (dict(name="cycle", length=3.0), "length", "3.0"),
        (dict(name="clique-of-stars", k=3.0, l=1), "k", "3.0"),
        (dict(name="clique-of-stars", k=3, l=1.5), "l", "1.5"),
        (dict(name="cycle", length=True), "length", "True"),
    ):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value}$"):
            CanonicalKind(**kind)
    for n in (2.5, 4.0, True):
        with pytest.raises(ValueError, match=f"^n must be an integer >= 2, got {n}$"):
            canonical_state(CanonicalKind("empty"), n)


def test_center_out_of_range():
    for center in (7, -1, True):
        with pytest.raises(ValueError, match=f"^center must be an integer in 0..3, got {center}$"):
            canonical_state(CanonicalKind(name="center-star", center=center), 4)


def test_star_cost_formula():
    # (n-1) * (alpha + 2n - 2), both sponsorships induce the same graph
    p = GameParams(5, F(3), F(5, 2))
    for kind in ("center-star", "periphery-star"):
        st = canonical_state(CanonicalKind.parse(kind), 5)
        assert social_cost(st, p) == 4 * (3 + 8)


# -- classifier ------------------------------------------------------------------


@pytest.mark.parametrize(
    "edges,n,expected",
    [
        ([], 1, "singleton"),
        ([(0, 1)], 2, "pair"),
        ([(0, 1), (0, 2)], 3, "star"),  # path of 3 counts as a star
        ([(0, 1), (1, 2)], 3, "star"),
        ([(0, 1), (0, 2), (1, 2)], 3, "clique"),  # 3-clique beats cycle
        ([(0, 1), (1, 2), (2, 3), (3, 0)], 4, "cycle:4"),
        ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 5, "cycle:5"),
        ([(0, 1), (1, 2), (2, 3)], 4, "tree"),  # path of 4: no high-degree hub
        ([(0, 1), (0, 2), (0, 3), (1, 2)], 4, "other"),
        (
            [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)],
            6,
            "clique-of-stars:3:1",
        ),
    ],
)
def test_classifier_labels(edges, n, expected):
    assert str(structure_classify(graph_of(*edges, n=n))) == expected


def test_classifier_star_of_any_size():
    for n in (3, 4, 6):
        g = graph_of(*[(0, j) for j in range(1, n)], n=n)
        assert structure_classify(g).name == "star"


def test_classifier_clique_of_stars_parameters():
    st = canonical_state(CanonicalKind.parse("clique-of-stars:4:2"), 12)
    label = structure_classify(induce_graph(st))
    assert (label.name, label.k, label.l) == ("clique-of-stars", 4, 2)


def test_classifier_on_one_component_of_disconnected_graph():
    st = canonical_state(CanonicalKind.parse("cycle:5"), 7)
    g = induce_graph(st)
    with pytest.raises(ValueError):
        structure_classify(g)  # whole graph is disconnected
    assert str(structure_classify(g, range(5))) == "cycle:5"
    assert structure_classify(g, [6]).name == "singleton"


def test_classifier_rejects_edges_leaving_vertex_set():
    g = graph_of((0, 1), (1, 2), n=3)
    with pytest.raises(ValueError):
        structure_classify(g, [0, 1])


def test_classifier_ignores_ownership():
    lo = graph_of((0, 1), (0, 2), (0, 3), n=4)
    hi = induce_graph(
        StrategyVector((frozenset(), frozenset({0}), frozenset({0}), frozenset({0})))
    )
    assert lo.edges == hi.edges
    assert structure_classify(lo) == structure_classify(hi)
