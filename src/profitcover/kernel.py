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
                the bipartite double cover; x>1/2 committed, x<1/2 dropped

``reduce`` applies them in a fixed order until none fires and returns a
KernelResult; ``reconstruct`` replays the fold trace to turn any cover of
the reduced graph into a cover of the original.

Fresh fold labels are allocated above the original label range, so the
reduced graph's labels never collide with input labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .errors import DomainError, InfeasibilityBug
from .graph import Graph, is_vertex_cover

ALL_RULES = ("sr", "pr", "d2r", "hdr", "lpr")

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
    edges = {(u, v) if u < v else (v, u) for u, nbs in adj.items() for v in nbs}
    return Graph(adj.keys(), edges)


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
        neighbors_of_w = list(adj[w])
        _remove_vertex(adj, w)
        cover.add(w)
        count += 1
        for x in neighbors_of_w:
            if x != v and len(adj[x]) == 1:
                queue.append(x)
        del adj[v]
    return count


def _apply_degree2(adj: Adj, cover: set[int], folds: list[FoldRecord],
                   counter: int) -> tuple[int, int]:
    """Resolve degree-2 vertices (smallest label first) until none remain."""
    count = 0
    while True:
        u = min((v for v, nb in adj.items() if len(nb) == 2), default=None)
        if u is None:
            return count, counter
        v, w = sorted(adj[u])
        if w in adj[v]:  # triangle uvw: v and w must be in some minimum cover
            _remove_vertex(adj, v)
            _remove_vertex(adj, w)
            cover.update((v, w))
            if u in adj and not adj[u]:
                del adj[u]
        else:  # fold: merge v and w, defer the choice to replay
            merged = counter
            counter += 1
            new_nb = (adj[v] | adj[w]) - {u, v, w}
            _remove_vertex(adj, u)
            _remove_vertex(adj, v)
            _remove_vertex(adj, w)
            adj[merged] = set(new_nb)
            for x in new_nb:
                adj[x].add(merged)
            folds.append(FoldRecord(u, (v, w), merged))
        count += 1


def _replay_folds(cover: set[int], folds) -> None:
    """Undo folds in reverse, in place: a merged vertex in the cover
    expands to its pair, otherwise the folded degree-2 vertex joins."""
    for rec in reversed(folds):
        if rec.merged_into in cover:
            cover.discard(rec.merged_into)
            cover.update(rec.merged_pair)
        else:
            cover.add(rec.folded_vertex)


def _apply_low_degree(adj: Adj, cover: set[int], folds: list[FoldRecord],
                      counter: int) -> int:
    """Strip isolated vertices, resolve pendants and degree-2 vertices in
    place until none is left, so every remaining vertex has degree 3 or
    more; returns the next free fold label."""
    while True:
        _strip_isolated(adj)
        if _apply_pendants(adj, cover):
            continue
        n_d2, counter = _apply_degree2(adj, cover, folds, counter)
        if not n_d2:
            return counter


def _greedy_bound(adj: Adj, counter: int) -> tuple[int, frozenset[int]]:
    """Greedy cover: exact moves (pendant/degree-2) plus max-degree picks."""
    adj = {v: set(nb) for v, nb in adj.items()}
    cover: set[int] = set()
    folds: list[FoldRecord] = []
    while True:
        counter = _apply_low_degree(adj, cover, folds, counter)
        if not adj:
            break
        pick = max(adj, key=lambda v: (len(adj[v]), -v))
        _remove_vertex(adj, pick)
        cover.add(pick)
    _replay_folds(cover, folds)
    return len(cover), frozenset(cover)


def _lp_partition(g: Graph) -> tuple[set[int], set[int], set[int]]:
    """Half-integral LP optimum via König on the bipartite double cover.

    Returns (P, Q, R): x>1/2 (commit), x=1/2 (keep), x<1/2 (drop).
    """
    n = g.n
    if g.m == 0:
        return set(), set(), set(g.vertices)
    pos = {v: i for i, v in enumerate(g.vertices)}
    rows, cols = [], []
    for u, v in g.edges:
        rows.extend((pos[u], pos[v]))
        cols.extend((pos[v], pos[u]))
    bi = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    match_of_row = maximum_bipartite_matching(bi, perm_type="column")
    row_of_col = np.full(n, -1, dtype=np.int64)
    for r, c in enumerate(match_of_row):
        if c >= 0:
            row_of_col[c] = r
    # König: alternate from unmatched left vertices
    z_left = {i for i in range(n) if match_of_row[i] < 0}
    z_right: set[int] = set()
    stack = list(z_left)
    adj_right = {i: set() for i in range(n)}
    for r, c in zip(rows, cols):
        adj_right[r].add(c)
    while stack:
        left = stack.pop()
        for right in adj_right[left]:
            if right in z_right or match_of_row[left] == right:
                continue
            z_right.add(right)
            back = row_of_col[right]
            if back >= 0 and back not in z_left:
                z_left.add(back)
                stack.append(back)
    in_cover_left = set(range(n)) - z_left
    in_cover_right = z_right
    p_set, q_set, r_set = set(), set(), set()
    for v in g.vertices:
        i = pos[v]
        x2 = (i in in_cover_left) + (i in in_cover_right)
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
    p_set, q_set, r_set = _lp_partition(g)
    return g.induced_subgraph(q_set), frozenset(p_set), frozenset(r_set)


def _project_v_safe(committed: set[int], folds: list[FoldRecord],
                    reduced: Graph, original: Graph) -> frozenset[int]:
    """Resolve committed fold labels back to original vertices.

    Fold chains that end in the reduced graph stay undecided (the solver
    picks); chains ending in a committed or discarded label resolve here.
    """
    safe = set(committed)
    undecided = set(reduced.vertices)
    for rec in reversed(folds):
        if rec.merged_into in safe:
            safe.discard(rec.merged_into)
            safe.update(rec.merged_pair)
        elif rec.merged_into in undecided:
            undecided.discard(rec.merged_into)
            undecided.update((rec.folded_vertex, *rec.merged_pair))
        else:
            safe.add(rec.folded_vertex)
    stray = safe - set(original.vertices)
    if stray:  # pragma: no cover - safety net
        raise InfeasibilityBug(f"unresolved fold labels in v_safe: {sorted(stray)}")
    return frozenset(safe)


def reduce(g: Graph, enabled_rules: tuple[str, ...] = ALL_RULES) -> KernelResult:
    """Apply the enabled rules in order (sr, pr, d2r, hdr, lpr) to a fixed point."""
    unknown = set(enabled_rules) - set(ALL_RULES)
    if unknown:
        raise DomainError(f"unknown rules: {sorted(unknown)}")
    enabled = set(enabled_rules)
    adj = _to_adj(g)
    committed: set[int] = set()
    folds: list[FoldRecord] = []
    counts = {r: 0 for r in ALL_RULES}
    counter = max(g.vertices, default=-1) + 1
    changed = True
    while changed:
        changed = False
        if "sr" in enabled:
            removed = _strip_isolated(adj)
            counts["sr"] += len(removed)
            changed |= bool(removed)
        if "pr" in enabled:
            n_pr = _apply_pendants(adj, committed)
            counts["pr"] += n_pr
            changed |= bool(n_pr)
        if "d2r" in enabled:
            n_d2, counter = _apply_degree2(adj, committed, folds, counter)
            counts["d2r"] += n_d2
            changed |= bool(n_d2)
        if "hdr" in enabled and adj:
            k_ub, _ = _greedy_bound(adj, counter)
            high = sorted(v for v, nb in adj.items() if len(nb) > k_ub)
            for v in high:
                _remove_vertex(adj, v)
            committed.update(high)
            counts["hdr"] += len(high)
            changed |= bool(high)
        if "lpr" in enabled and adj:
            p_set, q_set, r_set = _lp_partition(_snapshot(adj))
            if p_set or r_set:
                for v in sorted(p_set | r_set):
                    _remove_vertex(adj, v)
                committed.update(p_set)
                counts["lpr"] += len(p_set) + len(r_set)
                changed = True
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
