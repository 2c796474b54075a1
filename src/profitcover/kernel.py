"""Classical pre-processing: reduction rules, kernel extraction, replay.

Five rules shrink a graph while preserving the optimum cover:

* singleton   - degree-0 vertices are never needed
* pendant     - the neighbor of a degree-1 vertex can be committed
* degree-2    - triangle case commits both neighbors; otherwise the two
                neighbors are folded into a fresh vertex (recorded for
                replay, since the choice is deferred to the solver)
* high-degree - vertices whose degree exceeds a known cover size must be
                in every minimum cover
* LP          - half-integral relaxation solved via maximum matching on
                the bipartite double cover; x>1/2 committed, x<1/2 dropped.
                The matching comes from Hopcroft-Karp; König's alternating
                search reads the relaxation from it, and the result is the
                same for every maximum matching (see ``_lp_partition``)

``_apply_rules`` runs a set of enabled rules in place on an adjacency
dict, always in the order above, until none fires. ``reduce`` builds the
adjacency, runs it with the caller's rules, snapshots the result into
one Graph and returns a KernelResult. The greedy bound behind the
high-degree rule and the exact oracle at every search node run the same
routine with only the singleton, pendant and degree-2 rules
(``LOW_DEGREE``). ``reconstruct`` replays the fold trace to turn any
cover of the reduced graph into a cover of the original.

Fresh fold labels are allocated above the original label range, so the
reduced graph's labels never collide with input labels.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .errors import DomainError, InfeasibilityBug
from .graph import Graph, is_vertex_cover

ALL_RULES = ("sr", "pr", "d2r", "hdr", "lpr")
LOW_DEGREE = ("sr", "pr", "d2r")

Adj = dict[int, set[int]]


@dataclass(frozen=True)
class FoldRecord:
    folded_vertex: int  # the degree-2 vertex u
    merged_pair: tuple[int, int]  # its non-adjacent neighbors (v, w)
    merged_into: int  # fresh label replacing v and w


@dataclass(frozen=True)
class KernelResult:
    original: Graph
    reduced: Graph
    v_safe: frozenset[int]  # original-graph vertices forced into the cover
    committed: frozenset[int]  # raw committed set; may contain fold labels
    folds: tuple[FoldRecord, ...]
    rule_counts: dict[str, int] = field(default_factory=dict)

    @property
    def solved(self) -> bool:
        return self.reduced.m == 0

    def to_json_dict(self) -> dict:
        return {
            "v_safe": sorted(self.v_safe),
            "reduced": {
                "vertices": list(self.reduced.vertices),
                "edges": [list(e) for e in self.reduced.edges],
            },
            "folds": [
                {
                    "folded_vertex": f.folded_vertex,
                    "merged_pair": list(f.merged_pair),
                    "merged_into": f.merged_into,
                }
                for f in self.folds
            ],
            "committed": sorted(self.committed),
            "rule_counts": dict(sorted(self.rule_counts.items())),
            "solved": self.solved,
        }


def _to_adj(g: Graph) -> Adj:
    return {v: set(g.neighbors(v)) for v in g.vertices}

def _snapshot(adj: Adj) -> Graph:
    return Graph(adj.keys(), ((u, v) for u, nbs in adj.items() for v in nbs if u < v))


def _remove_vertex(adj: Adj, v: int) -> None:
    for w in adj.pop(v):
        adj[w].discard(v)


def _strip_isolated(adj: Adj) -> set[int]:
    removed = {v for v, nb in adj.items() if not nb}
    for v in removed:
        del adj[v]
    return removed


def _apply_pendants(adj: Adj, cover: set[int]) -> int:
    count = 0
    queue = sorted((v for v, nb in adj.items() if len(nb) == 1), reverse=True)
    while queue:
        v = queue.pop()
        nb = adj.get(v)
        if nb is None or len(nb) != 1:
            continue
        w = next(iter(nb))
        cover.add(w)
        count += 1
        for x in adj.pop(w):
            if x != v:
                nb_x = adj[x]
                nb_x.discard(w)
                if len(nb_x) == 1:
                    queue.append(x)
        del adj[v]
    return count


def _apply_degree2(adj: Adj, cover: set[int], folds: list[FoldRecord],
                   counter: int) -> tuple[int, int]:
    """Resolve degree-2 vertices (smallest label first) until none remain.

    The candidates sit in a min-heap of labels, checked when popped: a
    firing changes the degrees of the neighbours of the vertices it
    removes, and those and a new fold label are pushed. Every vertex of
    degree 2 is in the heap, so the smallest valid label popped is the
    smallest degree-2 label, as a scan of the whole graph would find.
    """
    count = 0
    heap = [v for v, nb in adj.items() if len(nb) == 2]
    heapq.heapify(heap)
    while heap:
        u = heapq.heappop(heap)
        if len(adj.get(u, ())) != 2:
            continue
        v, w = sorted(adj[u])
        touched = (adj[v] | adj[w]) - {u, v, w}
        if w in adj[v]:  # triangle uvw: v and w must be in some minimum cover
            _remove_vertex(adj, v)
            _remove_vertex(adj, w)
            cover.update((v, w))
            if u in adj and not adj[u]:
                del adj[u]
        else:  # fold: merge v and w, defer the choice to replay
            merged = counter
            counter += 1
            _remove_vertex(adj, u)
            _remove_vertex(adj, v)
            _remove_vertex(adj, w)
            adj[merged] = set(touched)
            for x in touched:
                adj[x].add(merged)
            folds.append(FoldRecord(u, (v, w), merged))
            heapq.heappush(heap, merged)
        for x in touched:
            heapq.heappush(heap, x)
        count += 1
    return count, counter


def _replay_folds(cover: set[int], folds) -> None:
    """Undo folds in reverse, in place: a merged vertex in the cover
    expands to its pair, otherwise the folded degree-2 vertex joins."""
    for rec in reversed(folds):
        if rec.merged_into in cover:
            cover.discard(rec.merged_into)
            cover.update(rec.merged_pair)
        else:
            cover.add(rec.folded_vertex)


def _greedy_bound(adj: Adj, counter: int) -> tuple[int, frozenset[int]]:
    """Greedy cover: exact moves (pendant/degree-2) plus max-degree picks.

    The high-degree rule takes its bound from here, and the tests reach it
    through ``greedy_upper_bound``; the exact oracle makes no greedy pass,
    since its first descent is this loop.
    """
    adj = {v: set(nb) for v, nb in adj.items()}
    cover: set[int] = set()
    folds: list[FoldRecord] = []
    while True:
        counter, _ = _apply_rules(adj, LOW_DEGREE, cover, folds, counter)
        if not adj:
            break
        pick = max(adj, key=lambda v: (len(adj[v]), -v))
        _remove_vertex(adj, pick)
        cover.add(pick)
    _replay_folds(cover, folds)
    return len(cover), frozenset(cover)


def _max_matching(nbrs: list[list[int]]) -> tuple[list[int], list[int]]:
    """Maximum matching of a bipartite graph by Hopcroft-Karp (SIAM J.
    Comput. 1973). Left vertex i is adjacent to the right vertices
    ``nbrs[i]``, on index ranges of the same size. Returns the right
    partner of each left vertex and the left partner of each right
    vertex, -1 where unmatched.
    """
    n = len(nbrs)
    match_left, match_right = [-1] * n, [-1] * n
    for u in range(n):  # a greedy matching leaves the phases less to do
        for v in nbrs[u]:
            if match_right[v] < 0:
                match_left[u], match_right[v] = v, u
                break
    while True:
        # breadth first from the free left vertices: layer of each left
        # vertex on the shortest alternating paths, up to a free right one
        layer = [-1] * n
        frontier = [u for u in range(n) if match_left[u] < 0]
        for u in frontier:
            layer[u] = 0
        found = False
        while frontier and not found:
            deeper = []
            for u in frontier:
                for v in nbrs[u]:
                    w = match_right[v]
                    if w < 0:
                        found = True
                    elif layer[w] < 0:
                        layer[w] = layer[u] + 1
                        deeper.append(w)
            frontier = deeper
        if not found:
            return match_left, match_right
        # depth first along increasing layers, augmenting vertex-disjoint
        # paths; next_edge[u] skips the edges of u already tried
        next_edge = [0] * n
        for root in range(n):
            if match_left[root] >= 0:
                continue
            path = [root]
            while path:
                u = path[-1]
                if next_edge[u] == len(nbrs[u]):
                    path.pop()
                    continue
                v = nbrs[u][next_edge[u]]
                next_edge[u] += 1
                w = match_right[v]
                if w < 0:
                    for x in path:  # each x leaves by the edge it last took
                        y = nbrs[x][next_edge[x] - 1]
                        match_left[x], match_right[y] = y, x
                    break
                if layer[w] == layer[u] + 1:
                    path.append(w)


def _lp_partition(adj: Adj) -> tuple[set[int], set[int], set[int]]:
    """Half-integral LP optimum via König on the bipartite double cover.

    Returns (P, Q, R): x>1/2 (commit), x=1/2 (keep), x<1/2 (drop).
    The double cover has a left and a right copy of every vertex and an
    edge from each copy of u to the other copy of every neighbour of u.
    Its minimum vertex cover, read from a maximum matching by König's
    alternating search, gives x_v = (copies of v in the cover) / 2. The
    partition does not depend on which maximum matching the search
    starts from: the left vertices that alternating paths reach from
    the exposed left vertices are the same for every maximum matching
    (Dulmage-Mendelsohn), and the right ones are their neighbours. So
    neither the order of ``adj``'s keys nor that of its neighbour sets
    changes the result.
    """
    pos = {v: i for i, v in enumerate(adj)}
    nbrs = [[pos[w] for w in nb] for nb in adj.values()]
    match_left, match_right = _max_matching(nbrs)
    # König: alternate from unmatched left vertices
    z_left = {i for i, right in enumerate(match_left) if right < 0}
    z_right: set[int] = set()
    stack = list(z_left)
    while stack:
        left = stack.pop()
        for right in nbrs[left]:
            if right in z_right or match_left[left] == right:
                continue
            z_right.add(right)
            back = match_right[right]
            if back >= 0 and back not in z_left:
                z_left.add(back)
                stack.append(back)
    p_set, q_set, r_set = set(), set(), set()
    for v, i in pos.items():
        x2 = (i not in z_left) + (i in z_right)
        (r_set, q_set, p_set)[x2].add(v)
    return p_set, q_set, r_set


def rule_singleton(g: Graph) -> tuple[Graph, frozenset[int]]:
    """Remove all degree-0 vertices."""
    adj = _to_adj(g)
    removed = _strip_isolated(adj)
    return _snapshot(adj), frozenset(removed)


def rule_pendant(g: Graph) -> tuple[Graph, frozenset[int]]:
    """Commit the neighbor of each degree-1 vertex, repeating to exhaustion."""
    adj = _to_adj(g)
    cover: set[int] = set()
    _apply_pendants(adj, cover)
    return _snapshot(adj), frozenset(cover)


def rule_degree2(g: Graph) -> tuple[Graph, frozenset[int], tuple[FoldRecord, ...]]:
    """Resolve degree-2 vertices: triangle commits, otherwise vertex folding."""
    adj = _to_adj(g)
    cover: set[int] = set()
    folds: list[FoldRecord] = []
    counter = max(g.vertices, default=-1) + 1
    _apply_degree2(adj, cover, folds, counter)
    return _snapshot(adj), frozenset(cover), tuple(folds)


def greedy_upper_bound(g: Graph) -> tuple[int, frozenset[int]]:
    """Valid cover of g from max-degree greedy with pendant/degree-2 moves."""
    k_ub, cover = _greedy_bound(_to_adj(g), max(g.vertices, default=-1) + 1)
    if not is_vertex_cover(g, cover):  # pragma: no cover - safety net
        raise InfeasibilityBug("greedy bound produced a non-cover")
    return k_ub, cover


def rule_high_degree(g: Graph, k_ub: int) -> tuple[Graph, frozenset[int]]:
    """Commit every vertex of degree greater than a known cover size."""
    adj = _to_adj(g)
    cover = {v for v in g.vertices if g.degree(v) > k_ub}
    for v in cover:
        _remove_vertex(adj, v)
    return _snapshot(adj), frozenset(cover)


def rule_lp(g: Graph) -> tuple[Graph, frozenset[int], frozenset[int]]:
    """LP-based reduction: commit P (x>1/2), drop R (x<1/2), keep Q."""
    p_set, q_set, r_set = _lp_partition(_to_adj(g))
    return g.induced_subgraph(q_set), frozenset(p_set), frozenset(r_set)


def _project_v_safe(committed: set[int], folds: list[FoldRecord],
                    reduced: Graph, original: Graph) -> frozenset[int]:
    """Resolve committed fold labels back to original vertices.

    Safe vertices are those fold replay covers both from the committed set
    alone and with every reduced vertex added: fold chains that end in the
    reduced graph stay undecided (the solver picks), the rest resolve here.
    """
    safe = set(committed)
    _replay_folds(safe, folds)
    either = set(committed) | set(reduced.vertices)
    _replay_folds(either, folds)
    safe &= either
    stray = safe - set(original.vertices)
    if stray:  # pragma: no cover - safety net
        raise InfeasibilityBug(f"unresolved fold labels in v_safe: {sorted(stray)}")
    return frozenset(safe)


def _apply_rules(adj: Adj, rules: tuple[str, ...], cover: set[int],
                 folds: list[FoldRecord], counter: int) -> tuple[int, dict[str, int]]:
    """Apply the enabled ``rules`` in place, in the order of ``ALL_RULES``,
    until a round fires none.

    Committed vertices join ``cover`` and folds are appended to ``folds``,
    with fresh labels from ``counter`` up. Returns the next free fold
    label and the firings of each rule. With ``LOW_DEGREE`` every vertex
    left has degree 3 or more.
    """
    counts = dict.fromkeys(ALL_RULES, 0)
    while True:
        fired = sum(counts.values())
        if "sr" in rules:
            counts["sr"] += len(_strip_isolated(adj))
        if "pr" in rules:
            counts["pr"] += _apply_pendants(adj, cover)
        if "d2r" in rules:
            n_d2, counter = _apply_degree2(adj, cover, folds, counter)
            counts["d2r"] += n_d2
        if "hdr" in rules and adj:
            k_ub, _ = _greedy_bound(adj, counter)
            high = sorted(v for v, nb in adj.items() if len(nb) > k_ub)
            for v in high:
                _remove_vertex(adj, v)
            cover.update(high)
            counts["hdr"] += len(high)
        if "lpr" in rules and adj:
            p_set, _, r_set = _lp_partition(adj)
            for v in sorted(p_set | r_set):
                _remove_vertex(adj, v)
            cover.update(p_set)
            counts["lpr"] += len(p_set) + len(r_set)
        if sum(counts.values()) == fired:
            return counter, counts


def reduce(g: Graph, enabled_rules: tuple[str, ...] = ALL_RULES) -> KernelResult:
    """Apply the enabled rules in order (sr, pr, d2r, hdr, lpr) to a fixed point."""
    unknown = set(enabled_rules) - set(ALL_RULES)
    if unknown:
        raise DomainError(f"unknown rules: {sorted(unknown)}")
    adj = _to_adj(g)
    committed: set[int] = set()
    folds: list[FoldRecord] = []
    _, counts = _apply_rules(adj, enabled_rules, committed, folds,
                             max(g.vertices, default=-1) + 1)
    reduced = _snapshot(adj)
    v_safe = _project_v_safe(committed, folds, reduced, g)
    return KernelResult(
        original=g,
        reduced=reduced,
        v_safe=v_safe,
        committed=frozenset(committed),
        folds=tuple(folds),
        rule_counts=counts,
    )


def reconstruct(kernel: KernelResult, cover_on_reduced) -> frozenset[int]:
    """Turn a cover of the reduced graph into a cover of the original graph.

    Folds replay in reverse (``_replay_folds``). The committed set is
    unioned in before replay so nested folds resolve consistently.
    """
    cover = kernel.reduced.check_subset(cover_on_reduced)
    if not is_vertex_cover(kernel.reduced, cover):
        raise DomainError("input is not a vertex cover of the reduced graph")
    full = set(cover) | set(kernel.committed)
    _replay_folds(full, kernel.folds)
    result = frozenset(full)
    if not is_vertex_cover(kernel.original, result):  # pragma: no cover - safety net
        raise InfeasibilityBug("fold replay produced a non-cover")
    return result
