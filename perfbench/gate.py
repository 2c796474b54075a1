"""Independent correctness gate for benchmark jobs.

Nothing here trusts a report. The reference optimum of every job comes
from outside the timed ``run_pipeline`` call:

* graphs with at most 20 vertices: a numpy brute force over all subsets;
* bipartite graphs with a known colouring: a maximum matching (Konig);
* anything else (at most 60 vertices): ``oracle.min_vertex_cover_exact``
  on the unreduced working graph.

The returned solution is checked for feasibility against the original
graph by this module's own code, and its size against that optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from profitcover.graph import Graph, complement
from profitcover.oracle import min_vertex_cover_exact

BRUTE_FORCE_MAX = 20


@dataclass(frozen=True)
class Reference:
    work_m: int  # edges of the working graph (the complement for maxcl)
    cover: int  # minimum vertex cover size of the working graph


def brute_force_cover_size(g: Graph) -> int:
    n = g.n
    pos = {v: j for j, v in enumerate(g.vertices)}
    codes = np.arange(1 << n, dtype=np.uint32)
    covers = np.ones(1 << n, dtype=bool)
    for u, v in g.edges:
        covers &= (codes & np.uint32((1 << pos[u]) | (1 << pos[v]))) != 0
    return int(np.bitwise_count(codes[covers]).min())


def konig_cover_size(g: Graph, left: frozenset[int]) -> int:
    rows = {v: i for i, v in enumerate(sorted(left))}
    cols = {v: i for i, v in enumerate(sorted(set(g.vertices) - left))}
    r, c = [], []
    for u, v in g.edges:
        a, b = (u, v) if u in left else (v, u)
        if a not in left or b in left:
            raise ValueError("colouring is not proper")
        r.append(rows[a])
        c.append(cols[b])
    bi = csr_matrix((np.ones(len(r)), (r, c)), shape=(len(rows), len(cols)))
    return int(np.count_nonzero(maximum_bipartite_matching(bi, perm_type="column") >= 0))


def reference(job) -> Reference:
    work = complement(job.graph) if job.config.problem == "maxcl" else job.graph
    if work.n <= BRUTE_FORCE_MAX:
        size = brute_force_cover_size(work)
    elif job.bipartition is not None:
        size = konig_cover_size(work, job.bipartition)
    else:
        size = min_vertex_cover_exact(work).opt_size
    return Reference(work.m, size)


def feasible(problem: str, g: Graph, solution) -> bool:
    s = set(solution)
    if not s <= set(g.vertices):
        return False
    if problem == "minvc":
        return all(u in s or v in s for u, v in g.edges)
    edges = set(g.edges)
    if problem == "maxis":
        return not any(u in s and v in s for u, v in edges)
    members = sorted(s)
    return all((u, v) in edges for i, u in enumerate(members) for v in members[i + 1:])


def cover_size(job, report) -> int:
    """Size of the cover of the working graph that the solution stands for."""
    size = len(report.solution)
    return size if job.config.problem == "minvc" else job.graph.n - size


def check(job, report, ref: Reference) -> list[str]:
    """Reasons the report fails the gate; empty when it passes."""
    problems = []
    if not feasible(job.config.problem, job.graph, report.solution):
        problems.append(f"infeasible {job.config.problem} solution")
    cover = cover_size(job, report)
    if cover < ref.cover:
        problems.append(f"cover size {cover} beats the optimum {ref.cover}")
    exact = job.config.solver == "exact" or report.status == "solved_by_preprocessing"
    if exact and cover != ref.cover:
        problems.append(f"exact path returned cover size {cover}, optimum {ref.cover}")
    if report.reference_cover_size not in (None, ref.cover):
        problems.append(f"report reference {report.reference_cover_size} != {ref.cover}")
    if report.optimal is not None and report.optimal != (cover == ref.cover):
        problems.append("report optimal flag disagrees with the reference")
    return problems


def quality(job, report, ref: Reference) -> dict[str, float]:
    """Per-job quality readings.

    A job without a distribution (exact solver, or solved by the kernel)
    counts as a point mass on its returned cover.
    """
    cover = cover_size(job, report)
    point = (ref.work_m - cover) / (ref.work_m - ref.cover) if ref.work_m > ref.cover else 1.0
    size, best = len(report.solution), ref.cover
    if job.config.problem != "minvc":
        best = job.graph.n - ref.cover
    exact, sampled = report.exact_summary, report.sampled_summary
    out = {
        "optimal": float(cover == ref.cover),
        # 1.0 when optimal, lower when worse, for covers and for sets alike
        "solution_ratio": best / size if job.config.problem == "minvc" else size / best,
        "exp_ratio": point,
        "sampled_ratio": point,
        "mass_opt": float(cover == ref.cover),
    }
    if exact is not None and exact.opt_profit:
        out["exp_ratio"] = exact.weighted_average_profit / exact.opt_profit
        out["mass_opt"] = exact.mass_optimal
    if sampled is not None and sampled.approx_ratio_best is not None:
        out["sampled_ratio"] = sampled.approx_ratio_best
    return out
