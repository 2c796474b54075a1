"""A frozen copy of ``postprocess.greedy_cover_completion`` as it was
when it built its own adjacency from the edge list.

The package's completion now takes its adjacency and vertex removal from
the kernel. Tests compare its covers with this copy, which imports
nothing from the package, so that a change in the shared adjacency
cannot move the covers refine reports unnoticed.
"""


def frozen_greedy_cover(g) -> frozenset[int]:
    """Scan the edges in sorted order; for each uncovered one take the
    endpoint with more uncovered incident edges, the smaller label on a
    tie."""
    cover: set[int] = set()
    adj: dict[int, set[int]] = {}
    for u, v in g.edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    for u, v in g.edges:
        if u in cover or v in cover:
            continue
        du, dv = len(adj[u]), len(adj[v])
        pick = u if du > dv else v if dv > du else min(u, v)
        cover.add(pick)
        for w in adj.pop(pick):
            adj[w].discard(pick)
    return frozenset(cover)
