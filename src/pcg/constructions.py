"""Canonical strategy profiles and structural classification of components.

The canonical profiles fix both the graph and who pays for it, so equilibrium
checks on them are reproducible:

* ``empty``             -- nobody buys anything;
* ``complete``          -- every edge bought by its lower-numbered endpoint;
* ``center-star``       -- the center buys every spoke;
* ``periphery-star``    -- every leaf buys its spoke;
* ``cycle:LEN``         -- player i (i < LEN) buys the link to (i+1) mod LEN;
* ``clique-of-stars:K:L`` -- K clique players (ids 0..K-1) each own L leaves;
  clique edges are bought by the lower-numbered clique endpoint, leaf edges
  by their clique center.

Players not covered by a profile stay isolated with no purchases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .game import InducedGraph, StrategyVector, graph_components

KIND_NAMES = ("empty", "complete", "center-star", "periphery-star", "cycle", "clique-of-stars")


@dataclass(frozen=True)
class CanonicalKind:
    """A named profile plus its parameters (center, cycle length, clique k/l)."""

    name: str
    center: int = 0
    length: Optional[int] = None
    k: Optional[int] = None
    l: Optional[int] = None

    def __post_init__(self):
        if self.name not in KIND_NAMES:
            raise ValueError(f"unknown construction kind {self.name!r}; expected one of {KIND_NAMES}")
        if self.name == "cycle" and (self.length is None or self.length < 3):
            raise ValueError("cycle needs length >= 3")
        if self.name == "clique-of-stars":
            if self.k is None or self.l is None or self.k < 3 or self.l < 1:
                raise ValueError("clique-of-stars needs k >= 3 and l >= 1")

    @classmethod
    def parse(cls, text: str) -> "CanonicalKind":
        """Parse CLI spellings: ``cycle:5``, ``clique-of-stars:3:1``, ``empty``, ..."""
        parts = text.split(":")
        name = parts[0]
        if name == "cycle":
            if len(parts) != 2:
                raise ValueError(f"expected cycle:LEN, got {text!r}")
            return cls(name="cycle", length=_parse_int(parts[1], text))
        if name == "clique-of-stars":
            if len(parts) != 3:
                raise ValueError(f"expected clique-of-stars:K:L, got {text!r}")
            return cls(name=name, k=_parse_int(parts[1], text), l=_parse_int(parts[2], text))
        if len(parts) != 1:
            raise ValueError(f"kind {name!r} takes no parameters, got {text!r}")
        return cls(name=name)


def _parse_int(text: str, context: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad integer {text!r} in construction kind {context!r}") from None


def canonical_state(kind: CanonicalKind, n: int) -> StrategyVector:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    buys = [set() for _ in range(n)]
    if kind.name == "empty":
        pass
    elif kind.name == "complete":
        for i in range(n):
            buys[i] = set(range(i + 1, n))
    elif kind.name in ("center-star", "periphery-star"):
        center = kind.center
        if not 0 <= center < n:
            raise ValueError(f"center {center} out of range for n={n}")
        if kind.name == "center-star":
            buys[center] = set(range(n)) - {center}
        else:
            for i in range(n):
                if i != center:
                    buys[i] = {center}
    elif kind.name == "cycle":
        length = kind.length
        if length > n:
            raise ValueError(f"cycle length {length} exceeds n={n}")
        for i in range(length):
            buys[i] = {(i + 1) % length}
    elif kind.name == "clique-of-stars":
        k, l = kind.k, kind.l
        if k * (l + 1) > n:
            raise ValueError(f"clique-of-stars:{k}:{l} needs {k * (l + 1)} players, n={n}")
        for i in range(k):
            buys[i] = set(range(i + 1, k))            # clique part, lower endpoint pays
            buys[i] |= set(range(k + i * l, k + (i + 1) * l))  # own leaves
    else:  # pragma: no cover - guarded by CanonicalKind
        raise AssertionError(kind)
    return StrategyVector(tuple(frozenset(b) for b in buys))


@dataclass(frozen=True)
class StructureLabel:
    """Shape of one connected component; parameters filled where meaningful."""

    name: str  # singleton|pair|star|clique|cycle|clique-of-stars|tree|other
    length: Optional[int] = None  # cycles
    k: Optional[int] = None       # clique-of-stars
    l: Optional[int] = None

    def __str__(self):
        if self.name == "cycle" and self.length is not None:
            return f"cycle:{self.length}"
        if self.name == "clique-of-stars" and self.k is not None:
            return f"clique-of-stars:{self.k}:{self.l}"
        return self.name


def structure_classify(graph: InducedGraph, vertices: Optional[Iterable[int]] = None) -> StructureLabel:
    """Classify one connected component of ``graph``; ownership is ignored.

    Labels are mutually exclusive; checks run singleton, pair, star, clique,
    cycle, clique-of-stars, tree, other, so a triangle is a clique and a
    2-leaf star (path of three) is a star.  ``vertices`` defaults to the whole
    graph, which must then be connected.
    """
    if vertices is None:
        decomp = graph_components(graph)
        if not decomp.connected:
            raise ValueError("graph is disconnected; pass one component's vertices")
        verts = set(range(graph.n))
    else:
        verts = set(vertices)
    edges = [(i, j) for i, j in graph.edges if i in verts]
    for i, j in edges:
        if j not in verts:
            raise ValueError(f"edge ({i}, {j}) leaves the given vertex set")
    size = len(verts)
    m = len(edges)
    degree = {v: 0 for v in verts}
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1

    if size == 1:
        return StructureLabel("singleton")
    if size == 2 and m == 1:
        return StructureLabel("pair")
    degs = sorted(degree.values())
    if m == size - 1 and degs[-1] == size - 1 and size >= 3:
        return StructureLabel("star")
    if m == size * (size - 1) // 2 and size >= 3:
        return StructureLabel("clique")
    if size >= 3 and m == size and all(d == 2 for d in degs):
        return StructureLabel("cycle", length=size)
    cos = _clique_of_stars_shape(verts, edges, degree)
    if cos is not None:
        return StructureLabel("clique-of-stars", k=cos[0], l=cos[1])
    if m == size - 1:
        return StructureLabel("tree")
    return StructureLabel("other")


def _clique_of_stars_shape(verts: set, edges: list, degree: dict) -> Optional[tuple]:
    """(k, l) when the component is a k-clique whose members own l leaves each."""
    leaves = {v for v in verts if degree[v] == 1}
    core = verts - leaves
    k = len(core)
    if k < 3 or not leaves:
        return None
    edge_set = {(i, j) for i, j in edges}
    for a in core:
        for b in core:
            if a < b and (a, b) not in edge_set:
                return None
    counts = {v: 0 for v in core}
    for i, j in edges:
        if i in leaves or j in leaves:
            leaf, owner = (i, j) if i in leaves else (j, i)
            if owner not in core:
                return None
            counts[owner] += 1
    l = counts[next(iter(core))]
    if l < 1 or any(c != l for c in counts.values()):
        return None
    # every core vertex: k-1 clique links + l leaves
    if any(degree[v] != k - 1 + l for v in core):
        return None
    return k, l
