"""A frozen copy of the Graph container and its predicates as they were
when a Graph stored its edge list beside the adjacency.

This ``FrozenGraph`` built a set of normalized edge tuples, sorted it
into ``edges`` and answered every predicate by a scan of that list.
Tests check the adjacency-only ``profitcover.graph`` against it, so it
takes nothing from that module.
"""

from profitcover.errors import DomainError


class FrozenGraph:
    __slots__ = ("vertices", "edges", "_adj")

    def __init__(self, vertices, edges):
        vs = sorted(set(vertices))
        vset = set(vs)
        adj = {v: set() for v in vs}
        eset = set()
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
        self.vertices = tuple(vs)
        self.edges = tuple(sorted(eset))
        self._adj = {v: tuple(sorted(adj[v])) for v in vs}

    @property
    def n(self):
        return len(self.vertices)

    @property
    def m(self):
        return len(self.edges)

    def neighbors(self, v):
        try:
            return self._adj[v]
        except KeyError:
            raise DomainError(f"vertex {v} not in graph") from None

    def check_subset(self, s):
        fs = frozenset(s)
        for v in fs:
            if v not in self._adj:
                raise DomainError(f"subset member {v} not in graph")
        return fs

    def induced_subgraph(self, keep):
        keep_set = self.check_subset(keep)
        edges = [(u, v) for u, v in self.edges if u in keep_set and v in keep_set]
        return FrozenGraph(keep_set, edges)

    def __eq__(self, other):
        if not isinstance(other, FrozenGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))


def frozen_complement(g):
    present = set(g.edges)
    vs = g.vertices
    edges = [
        (vs[i], vs[j])
        for i in range(len(vs))
        for j in range(i + 1, len(vs))
        if (vs[i], vs[j]) not in present
    ]
    return FrozenGraph(vs, edges)


def frozen_is_vertex_cover(g, s):
    fs = g.check_subset(s)
    return all(u in fs or v in fs for u, v in g.edges)


def frozen_is_independent_set(g, s):
    fs = g.check_subset(s)
    return not any(u in fs and v in fs for u, v in g.edges)


def frozen_is_clique(g, s):
    fs = g.check_subset(s)
    members = sorted(fs)
    for i, u in enumerate(members):
        nb = set(g.neighbors(u))
        for v in members[i + 1 :]:
            if v not in nb:
                return False
    return True


def frozen_covered_edges(g, s):
    fs = g.check_subset(s)
    return sum(1 for u, v in g.edges if u in fs or v in fs)


def frozen_profit(g, s):
    fs = g.check_subset(s)
    return frozen_covered_edges(g, fs) - len(fs)


def frozen_uncovered_edges(g, s):
    fs = g.check_subset(s)
    return [(u, v) for u, v in g.edges if u not in fs and v not in fs]
