"""Exact reference solvers for minimum vertex cover and maximum profit.

Two engines: exhaustive bitmask enumeration (n <= 20) and a pruned
branch-and-bound (n <= 60) that eliminates pendant vertices, solves
max-degree-2 remainders (paths/cycles) in closed form, and otherwise
branches on a maximum-degree vertex. Both are deterministic; results feed
the property tests and solve small residual graphs exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InfeasibilityBug
from .graph import Graph, is_vertex_cover
from .kernel import greedy_upper_bound

EXHAUSTIVE_MAX = 20
BRANCH_MAX = 60

Adj = dict[int, set[int]]


@dataclass(frozen=True)
class ExactResult:
    opt_cover: frozenset[int]
    opt_size: int
    opt_profit: int  # |E| - opt_size
    method: str  # "exhaustive" | "branch_and_bound"


def _exhaustive_min_cover(g: Graph) -> frozenset[int]:
    n = g.n
    idx = {v: i for i, v in enumerate(g.vertices)}
    codes = np.arange(1 << n, dtype=np.uint32)
    covers = np.ones(1 << n, dtype=bool)
    for u, v in g.edges:
        mask = np.uint32((1 << idx[u]) | (1 << idx[v]))
        covers &= (codes & mask) != 0
    sizes = np.bitwise_count(codes).astype(np.uint8)
    best = int(np.argmin(np.where(covers, sizes, np.uint8(255))))
    return frozenset(g.vertices[i] for i in range(n) if best >> i & 1)


def _matching_lower_bound(adj: Adj) -> int:
    used: set[int] = set()
    bound = 0
    for v in sorted(adj):
        if v in used:
            continue
        for w in sorted(adj[v]):
            if w not in used:
                used.add(v)
                used.add(w)
                bound += 1
                break
    return bound


def _reduce_pendants(adj: Adj, cover: set[int]) -> None:
    """Strip degree-0 vertices and resolve pendants (neighbor into cover).

    Kept apart from the kernel's pendant rule on purpose: that rule
    resolves pendants in another order, which changes which of several
    optimal covers branch and bound returns (see the reg50 case in
    tests/test_golden.py).

    The queue starts with the vertices of degree 0 or 1 only. A vertex
    whose degree drops is pushed when it drops, and the stack drains
    everything pushed on top before the next initial entry, so an initial
    entry of degree 2 or more would be a no-op when popped; leaving them
    out keeps the processing order. That order follows the iteration
    order of the neighbour sets (``for x in adj[w]``), which depends on
    CPython's set layout, so which optimum is returned depends on how
    each set was built: ``_solve`` copies every set per node, and
    reusing the parent's sets instead returns other covers of the same
    size on some graphs.
    """
    queue = sorted(v for v, nb in adj.items() if len(nb) <= 1)
    while queue:
        v = queue.pop()
        nb = adj.get(v)
        if nb is None:
            continue
        if not nb:
            del adj[v]
        elif len(nb) == 1:
            w = next(iter(nb))
            for x in adj[w]:
                if x != v:
                    adj[x].discard(w)
                    queue.append(x)
            del adj[w]
            del adj[v]
            cover.add(w)


def _cover_cycles(adj: Adj, cover: set[int]) -> None:
    """Exact cover when every remaining vertex has degree 2 (disjoint cycles)."""
    seen: set[int] = set()
    for start in sorted(adj):
        if start in seen:
            continue
        order = [start]
        prev = None
        while True:
            nxt = min(w for w in adj[order[-1]] if w != prev)
            if nxt == start:
                break
            prev = order[-1]
            order.append(nxt)
        seen.update(order)
        cover.update(order[1::2])
        if len(order) % 2 == 1:
            cover.add(order[0])


def _solve(adj: Adj, cover: set[int], best_size: list[int], best_cover: set[int]) -> None:
    adj = {v: set(nb) for v, nb in adj.items()}
    cover = set(cover)
    _reduce_pendants(adj, cover)
    if len(cover) + _matching_lower_bound(adj) >= best_size[0]:
        return
    if not adj:
        best_size[0] = len(cover)
        best_cover.clear()
        best_cover.update(cover)
        return
    maxv = max(adj, key=lambda u: (len(adj[u]), -u))
    if len(adj[maxv]) <= 2:
        # pendant reduction left only degree-2 vertices: disjoint cycles
        _cover_cycles(adj, cover)
        if len(cover) < best_size[0]:
            best_size[0] = len(cover)
            best_cover.clear()
            best_cover.update(cover)
        return
    neighbors = sorted(adj[maxv])

    # branch 1: maxv joins the cover
    sub = {v: nb - {maxv} for v, nb in adj.items() if v != maxv}
    _solve(sub, cover | {maxv}, best_size, best_cover)

    # branch 2: all neighbors of maxv join the cover
    drop = set(neighbors)
    sub = {v: nb - drop for v, nb in adj.items() if v not in drop}
    _solve(sub, cover | drop, best_size, best_cover)


def _branch_and_bound_min_cover(g: Graph) -> frozenset[int]:
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    # any bound above the optimum gives the same first optimum in search order
    best_size = [greedy_upper_bound(g)[0] + 1]
    best_cover: set[int] = set()
    _solve(adj, set(), best_size, best_cover)
    if not is_vertex_cover(g, best_cover):  # pragma: no cover - safety net
        raise InfeasibilityBug("branch and bound returned a non-cover")
    return frozenset(best_cover)


def min_vertex_cover_exact(g: Graph) -> ExactResult:
    """Provably minimum vertex cover; exhaustive for n<=20, B&B for n<=60."""
    if g.n <= EXHAUSTIVE_MAX:
        cover = _exhaustive_min_cover(g)
        method = "exhaustive"
    elif g.n <= BRANCH_MAX:
        cover = _branch_and_bound_min_cover(g)
        method = "branch_and_bound"
    else:
        raise CapacityError(f"exact solver capped at {BRANCH_MAX} vertices, got {g.n}")
    return ExactResult(cover, len(cover), g.m - len(cover), method)


def max_profit_exact(g: Graph) -> tuple[frozenset[int], int]:
    """Maximum-profit subset; equals a minimum vertex cover with profit |E|-k."""
    res = min_vertex_cover_exact(g)
    return res.opt_cover, res.opt_profit
