"""Undirected simple graphs with stable integer vertex labels.

A Graph stores each edge once per endpoint and nothing else: the sorted
vertex labels, one sorted neighbour tuple per vertex, and the edge count.
The edge list is derived from the neighbour tuples when it is read, and
every predicate below reads the neighbour tuples directly. A label is one
Python int object, held once: each neighbour entry is the vertex's own
label object from ``vertices``, not the object an input edge pair carried.

Graphs are immutable after construction: every operation returns a new
Graph. Vertex labels survive subgraph and complement operations unchanged,
so a label table built at ingestion stays valid for any derived graph.
Vertex subsets are plain ``set``/``frozenset`` of labels; operations that
take a subset validate membership and raise DomainError on foreign labels.
"""

from __future__ import annotations

from operator import countOf, index
from typing import Iterable

from .errors import DomainError


def _as_label(x) -> int:
    """x as a Python int; DomainError for a bool or a non-integral x."""
    if not isinstance(x, bool):
        try:
            return index(x)
        except TypeError:
            pass
    raise DomainError(f"vertex label {x!r} is not an integer")


class Graph:
    """Undirected simple graph on integer vertex labels.

    Labels need not be dense: the reduction rules introduce fresh labels
    for folded vertices. Integral labels (numpy integers among them) are
    stored as Python int; a bool, float or str label raises DomainError.
    Stored: ``vertices`` (sorted), ``_adj`` (each vertex's neighbours as a
    sorted tuple, in vertex order) and ``m`` (the edge count). Derived:
    ``edges``, rebuilt from ``_adj`` on every read and deliberately not
    cached, so an edge is held only in its two neighbour tuples. Every
    neighbour entry is (``is``) the vertex's own label object from
    ``vertices``, so a graph holds one int object per vertex whatever
    objects its edge pairs carried. Sorted neighbour tuples keep greedy
    tie-breaking and iteration order deterministic.
    """

    __slots__ = ("vertices", "_adj", "m")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]]):
        vs = list(vertices)
        # checked before deduplication, so a bool beside its equal int is refused
        if countOf(map(type, vs), int) != len(vs):
            vs = list(map(_as_label, vs))
        vs = sorted(set(vs))
        # each vertex's own label object, so that every neighbour entry
        # refers to it rather than to the object an edge pair carried
        label = {v: v for v in vs}
        adj = {v: set() for v in vs}
        for u, v in edges:
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            try:
                adj[u].add(label[v])
            except KeyError:
                raise DomainError(f"edge ({u},{v}) references unknown vertex") from None
            adj[v].add(label[u])
        for v, nb in adj.items():
            adj[v] = tuple(sorted(nb))
        self.vertices: tuple[int, ...] = tuple(vs)
        self._adj: dict[int, tuple[int, ...]] = adj
        self.m: int = sum(map(len, adj.values())) // 2

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge once as (u, v) with u < v, in sorted order; built on each read."""
        adj = self._adj
        return tuple((u, v) for u in self.vertices for v in adj[u] if u < v)

    def neighbors(self, v: int) -> tuple[int, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise DomainError(f"vertex {v} not in graph") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def check_subset(self, s: Iterable[int]) -> frozenset[int]:
        """Validate that every member of s is a vertex; returns a frozenset."""
        fs = frozenset(s)
        for v in fs:
            if v not in self._adj:
                raise DomainError(f"subset member {v} not in graph")
        return fs

    def induced_subgraph(self, keep: Iterable[int]) -> "Graph":
        keep_set = self.check_subset(keep)
        adj = self._adj
        return Graph(keep_set, ((u, v) for u in keep_set for v in adj[u]
                                if u < v and v in keep_set))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.vertices, tuple(self._adj.values())))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def complement(g: Graph) -> Graph:
    """Complement graph on the same vertex set: uv is an edge iff it was not."""
    vs = g.vertices
    rows = ((u, set(g._adj[u]), vs[i + 1 :]) for i, u in enumerate(vs))
    return Graph(vs, ((u, w) for u, nb, later in rows for w in later if w not in nb))


def is_vertex_cover(g: Graph, s: Iterable[int]) -> bool:
    """True iff every edge of g has at least one endpoint in s.

    Equivalently: every vertex outside s has all its neighbours in s.
    """
    fs = g.check_subset(s)
    return all(fs.issuperset(nb) for v, nb in g._adj.items() if v not in fs)


def is_independent_set(g: Graph, s: Iterable[int]) -> bool:
    """True iff no two members of s share an edge of g."""
    fs = g.check_subset(s)
    adj = g._adj
    return all(fs.isdisjoint(adj[v]) for v in fs)


def is_clique(g: Graph, s: Iterable[int]) -> bool:
    """True iff every pair of members of s shares an edge of g."""
    fs = g.check_subset(s)
    members = sorted(fs)
    for i, u in enumerate(members):
        nb = set(g.neighbors(u))
        for v in members[i + 1 :]:
            if v not in nb:
                return False
    return True


def covered_edges(g: Graph, s: Iterable[int]) -> int:
    """Number of edges with at least one endpoint in s."""
    return g.m - len(uncovered_edges(g, s))


def profit(g: Graph, s: Iterable[int]) -> int:
    """Profit of an arbitrary subset: covered edge count minus subset size.

    Any subset is admissible; a subset is not required to be a cover.
    """
    fs = g.check_subset(s)
    return covered_edges(g, fs) - len(fs)


def uncovered_edges(g: Graph, s: Iterable[int]) -> list[tuple[int, int]]:
    """Edges with neither endpoint in s, in sorted order."""
    fs = g.check_subset(s)
    adj = g._adj
    return [(u, v) for u in g.vertices if u not in fs
            for v in adj[u] if u < v and v not in fs]


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {g.vertices[0]}
    stack = [g.vertices[0]]
    while stack:
        v = stack.pop()
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n
