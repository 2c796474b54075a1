"""Exact reference solver for minimum vertex cover and maximum profit.

One engine, a branch and reduce (Akiba and Iwata, arXiv:1411.2680): at
every search node the kernel's ``_apply_rules``, the routine ``reduce``
runs, applies the singleton, pendant and degree-2 (folding) rules
(``LOW_DEGREE``) in place until none fires. A node is pruned when its
cover, its pending folds and a clique-partition lower bound reach the
best cover found so far; otherwise it branches on a maximum-degree
vertex v, first with v in the cover, then with all of N(v). The search
starts from the bound |V| + 1 and makes no greedy pass of its own: its
first descent is the kernel's greedy cover, reached unpruned. It keeps
an explicit stack, so its depth is not limited by Python's recursion,
and it visits at most ``NODE_BUDGET`` nodes before raising
``CapacityError``. Results are deterministic; they feed the property
tests and solve residual graphs exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError, InfeasibilityBug
from .graph import Graph, is_vertex_cover
from .kernel import (
    LOW_DEGREE,
    Adj,
    FoldRecord,
    _apply_rules,
    _remove_vertex,
    _replay_folds,
    _to_adj,
)

NODE_BUDGET = 100_000


@dataclass(frozen=True)
class ExactResult:
    opt_cover: frozenset[int]
    opt_size: int
    opt_profit: int  # |E| - opt_size


def _clique_cover_lower_bound(adj: Adj) -> int:
    """|V| minus the number of cliques in a greedy clique partition.

    A clique of k vertices needs k - 1 of them in any cover. Vertices,
    fewest neighbours first (smallest label on ties), each join the first
    clique all of whose members they are adjacent to, or start a new one.
    On triangle-free graphs the cliques are edges and single vertices, so
    this is a maximal-matching bound; on dense graphs it is much stronger.
    """
    common: list[set[int]] = []  # per clique, the vertices adjacent to all members
    for v in sorted(adj, key=lambda u: (len(adj[u]), u)):
        nb = adj[v]
        for c, shared in enumerate(common):
            if v in shared:
                common[c] = shared & nb
                break
        else:
            common.append(nb)
    return len(adj) - len(common)


def _solve(adj: Adj, cover: set[int], folds: list[FoldRecord], counter: int,
           best: list) -> tuple[int, int] | None:
    """Reduce one search node in place and bound it.

    ``best`` is ``[size, cover]`` of the best cover found so far; a leaf
    that beats it replaces both. Returns ``(branch vertex, next fold
    label)`` when the node must branch, otherwise None.
    """
    counter, _ = _apply_rules(adj, LOW_DEGREE, cover, folds, counter)
    if len(cover) + len(folds) + _clique_cover_lower_bound(adj) >= best[0]:
        return None
    if not adj:
        _replay_folds(cover, folds)
        best[0] = len(cover)
        best[1] = cover
        return None
    return max(adj, key=lambda u: (len(adj[u]), -u)), counter


def _branch_and_bound_min_cover(g: Graph) -> frozenset[int]:
    """Depth-first branch and reduce from the bound |V| + 1.

    A stack entry is a node's adjacency, cover, folds and next fold label,
    plus the vertex whose neighbours join the cover before it is solved
    (None for a first branch). The second branch of a node reuses the
    node's own adjacency, so the stack holds one adjacency per level.
    """
    # the first descent is _greedy_bound's loop, and no bound above the
    # greedy size prunes it (cover + folds + clique bound <= that size), so
    # |V| + 1 visits the same nodes as the greedy size + 1 would
    best = [g.n + 1, set()]
    stack = [(_to_adj(g), set(), [], max(g.vertices, default=-1) + 1, None)]
    nodes = 0
    while stack:
        adj, cover, folds, counter, take_neighbours_of = stack.pop()
        if take_neighbours_of is not None:
            drop = list(adj[take_neighbours_of])
            for w in drop:
                _remove_vertex(adj, w)
            cover.update(drop)
        nodes += 1
        if nodes > NODE_BUDGET:
            raise CapacityError(
                f"exact solver ran out of its budget of {NODE_BUDGET} search "
                f"nodes on a graph of {g.n} vertices")
        branch = _solve(adj, cover, folds, counter, best)
        if branch is None:
            continue
        v, counter = branch
        stack.append((adj, cover, folds, counter, v))
        sub = {u: nb - {v} for u, nb in adj.items() if u != v}
        stack.append((sub, cover | {v}, list(folds), counter, None))
    if not is_vertex_cover(g, best[1]):  # pragma: no cover - safety net
        raise InfeasibilityBug("branch and bound returned a non-cover")
    return frozenset(best[1])


def min_vertex_cover_exact(g: Graph) -> ExactResult:
    """Provably minimum vertex cover; ``CapacityError`` when the search
    needs more than ``NODE_BUDGET`` nodes."""
    cover = _branch_and_bound_min_cover(g)
    return ExactResult(cover, len(cover), g.m - len(cover))


def max_profit_exact(g: Graph) -> tuple[frozenset[int], int]:
    """Maximum-profit subset; equals a minimum vertex cover with profit |E|-k."""
    res = min_vertex_cover_exact(g)
    return res.opt_cover, res.opt_profit
