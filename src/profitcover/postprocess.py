"""Rounding solver output into feasible solutions.

A sampled subset rarely covers every edge. ``refine`` completes it into
a vertex cover and then peels redundant vertices, never losing profit:
each greedy pick covers at least one uncovered edge (+1 edge, -1
vertex), and each removed vertex had all edges already covered (+1).
Consequently the result also satisfies |cover| <= |E| - profit(input).

Completion follows a fixed deterministic rule: scan uncovered edges in
sorted order, take the endpoint with more uncovered incident edges,
breaking ties toward the smaller label. The reduction rules run on the
residual graph of uncovered edges first, which resolves easy structure
(pendants, folds, LP-forced vertices) before the greedy pass; the kernel
replays its folds onto the residual's cover.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InfeasibilityBug
from .graph import Graph, is_vertex_cover, profit, uncovered_edges
from .kernel import reconstruct, reduce


@dataclass(frozen=True)
class RefinedSolution:
    """Feasible cover produced from a raw subset, with an audit trail."""

    cover_reduced: frozenset[int]
    profit_before: int
    profit_after: int
    steps: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "cover": sorted(self.cover_reduced),
            "profit_before": self.profit_before,
            "profit_after": self.profit_after,
            "steps": list(self.steps),
        }


def greedy_cover_completion(g: Graph, subset) -> frozenset[int]:
    """Extend a subset to a vertex cover, one uncovered edge at a time."""
    cover = set(g.check_subset(subset))
    adj: dict[int, set[int]] = {}
    for u, v in g.edges:
        if u in cover or v in cover:
            continue
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


def remove_redundant(g: Graph, cover) -> frozenset[int]:
    """Drop cover vertices whose edges are all covered elsewhere.

    Candidates are visited by descending degree, ties by descending
    label, so heavy vertices get the first chance to leave and small
    labels survive ties.
    """
    kept = set(g.check_subset(cover))
    if not is_vertex_cover(g, kept):
        raise DomainError("input to redundancy removal must be a vertex cover")
    for v in sorted(kept, key=lambda v: (-g.degree(v), -v)):
        if all(w in kept for w in g.neighbors(v)):
            kept.discard(v)
    return frozenset(kept)


def refine(g: Graph, subset) -> RefinedSolution:
    """Subset of g -> feasible cover with profit(after) >= profit(before)."""
    base = set(g.check_subset(subset))
    profit_before = profit(g, base)
    steps: list[str] = []
    uncovered = uncovered_edges(g, base)
    if uncovered:
        residual = Graph({v for e in uncovered for v in e}, uncovered)
        kr = reduce(residual)
        fired = {r: c for r, c in kr.rule_counts.items() if c}
        if fired:
            steps.append("rules:" + ",".join(f"{r}={c}" for r, c in sorted(fired.items())))
        sub_cover = greedy_cover_completion(kr.reduced, frozenset())
        if sub_cover:
            steps.append(f"greedy:+{len(sub_cover)}")
        base |= reconstruct(kr, sub_cover)
    cover = frozenset(base)
    pruned = remove_redundant(g, cover)
    if len(pruned) < len(cover):
        steps.append(f"redundant:-{len(cover) - len(pruned)}")
    return RefinedSolution(
        cover_reduced=pruned,
        profit_before=profit_before,
        profit_after=profit(g, pruned),
        steps=tuple(steps),
    )


def finalize(problem: str, original_g: Graph, full_cover: frozenset[int]) -> frozenset[int]:
    """The solution a cover of the working graph stands for.

    ``full_cover`` is the cover already replayed through the kernel
    (``kernel.reconstruct``) onto the working graph, which for cliques is
    the complement of the user's graph; independent sets and cliques are
    its complement within the shared vertex set.
    """
    if problem == "minvc":
        return full_cover
    if problem in ("maxis", "maxcl"):
        return frozenset(original_g.vertices) - full_cover
    raise DomainError(f"unknown problem kind: {problem!r}")


def check_refined(g: Graph, subset, refined: RefinedSolution) -> None:
    """Check the refine contract after the pipeline's refinement of
    ``subset``; a breach is a bug in refinement, not bad input."""
    cover = refined.cover_reduced
    if not is_vertex_cover(g, cover):
        raise InfeasibilityBug("refined set is not a vertex cover")
    if profit(g, cover) < profit(g, subset):
        raise InfeasibilityBug("refinement lost profit")
