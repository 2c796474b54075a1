"""Undirected simple graphs with stable integer vertex labels.

Graphs are immutable after construction: every operation returns a new
Graph. Vertex labels survive subgraph and complement operations unchanged,
so a label table built at ingestion stays valid for any derived graph.
Vertex subsets are plain ``set``/``frozenset`` of labels; operations that
take a subset validate membership and raise DomainError on foreign labels.
"""

from __future__ import annotations

from typing import Iterable

from .errors import DomainError


class Graph:
    """Undirected simple graph on integer vertex labels.

    Labels need not be dense: the reduction rules introduce fresh labels
    for folded vertices. Neighbor lists are kept sorted so that greedy
    tie-breaking and iteration order are deterministic.
    """

    __slots__ = ("vertices", "edges", "_adj")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]]):
        vs = sorted(set(vertices))
        vset = set(vs)
        adj: dict[int, set[int]] = {v: set() for v in vs}
        eset: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            if u not in vset or v not in vset:
                raise DomainError(f"edge ({u},{v}) references unknown vertex")
            e = (u, v) if u < v else (v, u)
            if e in eset:
                continue
            eset.add(e)
            adj[u].add(v)
            adj[v].add(u)
        self.vertices: tuple[int, ...] = tuple(vs)
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(eset))
        self._adj: dict[int, tuple[int, ...]] = {v: tuple(sorted(adj[v])) for v in vs}

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        nb = self._adj.get(u)
        return nb is not None and v in nb

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
        edges = [(u, v) for u, v in self.edges if u in keep_set and v in keep_set]
        return Graph(keep_set, edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def complement(g: Graph) -> Graph:
    """Complement graph on the same vertex set: uv is an edge iff it was not."""
    present = set(g.edges)
    vs = g.vertices
    edges = [
        (vs[i], vs[j])
        for i in range(len(vs))
        for j in range(i + 1, len(vs))
        if (vs[i], vs[j]) not in present
    ]
    return Graph(vs, edges)


def is_vertex_cover(g: Graph, s: Iterable[int]) -> bool:
    """True iff every edge of g has at least one endpoint in s."""
    fs = g.check_subset(s)
    return all(u in fs or v in fs for u, v in g.edges)


def is_independent_set(g: Graph, s: Iterable[int]) -> bool:
    """True iff no two members of s share an edge of g."""
    fs = g.check_subset(s)
    return not any(u in fs and v in fs for u, v in g.edges)


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
    fs = g.check_subset(s)
    return sum(1 for u, v in g.edges if u in fs or v in fs)


def profit(g: Graph, s: Iterable[int]) -> int:
    """Profit of an arbitrary subset: covered edge count minus subset size.

    Any subset is admissible; a subset is not required to be a cover.
    """
    fs = g.check_subset(s)
    return covered_edges(g, fs) - len(fs)


def uncovered_edges(g: Graph, s: Iterable[int]) -> list[tuple[int, int]]:
    """Edges with neither endpoint in s, in sorted order."""
    fs = g.check_subset(s)
    return [(u, v) for u, v in g.edges if u not in fs and v not in fs]


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
