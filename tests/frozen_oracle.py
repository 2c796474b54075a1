"""A frozen copy of the branch and bound that was the package's exact
oracle for 21 to 60 vertices before it became a branch and reduce.

It shares no code with ``profitcover.kernel``: its own pendant queue,
matching bound and closed form for disjoint cycles, and it starts from
the bound n + 1 instead of the kernel's greedy cover. Tests compare the
package oracle's cover sizes against it, so that a fault in the kernel's
rules, which the oracle now runs at every search node, cannot make the
oracle and the pipeline agree on a wrong answer.

It recurses once per branching level, so it suits graphs of up to a few
hundred vertices.
"""

Adj = dict[int, set[int]]


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
    """Strip degree-0 vertices and resolve pendants (neighbor into cover)."""
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


def frozen_min_cover(g) -> frozenset[int]:
    """A minimum vertex cover of ``g`` by the frozen branch and bound."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    # every vertex is a cover, so n + 1 is above the optimum
    best_size = [g.n + 1]
    best_cover: set[int] = set()
    _solve(adj, set(), best_size, best_cover)
    return frozenset(best_cover)
