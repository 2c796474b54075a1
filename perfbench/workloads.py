"""Seeded job lists for the benchmark workloads.

Every input is drawn from one ``numpy.random.Generator`` seeded with the
workload seed, so the same seed always yields the same jobs. Regular and
Erdos-Renyi graphs come from ``profitcover.instances``, whose generators
are part of the set-up being timed; each call gets its own key drawn from
that generator. The sparse bipartite graphs of ``classical`` come from
this module, because the gate's Konig reference needs their colouring and
``instances`` has no such family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from profitcover import instances
from profitcover.graph import Graph, is_connected
from profitcover.pipeline import PipelineConfig, run_pipeline


@dataclass(frozen=True)
class Job:
    name: str
    graph: Graph
    config: PipelineConfig
    # one colour class of a known 2-colouring, for the Konig reference
    bipartition: frozenset[int] | None = None
    # timed and checked like any job, but left out of the quality means
    canary: bool = False


def _key(rng: np.random.Generator) -> int:
    return int(rng.integers(2**63))


def regular_graph(rng: np.random.Generator, n: int, d: int) -> Graph:
    """Connected d-regular graph from ``instances.gen_regular``, by rejection."""
    while True:
        g = instances.gen_regular(n, d, _key(rng))
        if is_connected(g):
            return g


def erdos_renyi_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    return instances.gen_erdos_renyi_connected(n, p, _key(rng))


def sparse_bipartite_graph(rng: np.random.Generator, n: int) -> tuple[Graph, frozenset[int]]:
    """Random recursive tree plus n/4 edges joining opposite tree-depth parities.

    The extra edges keep the graph bipartite, so its minimum cover equals
    a maximum matching (Konig), which the gate computes independently.
    """
    parent = rng.integers(0, np.arange(1, n))
    # depth parity by pointer jumping: each step doubles the path followed
    up = np.concatenate(([0], parent))
    parity = np.ones(n, dtype=np.int64)
    parity[0] = 0
    for _ in range(n.bit_length()):
        parity ^= parity[up]
        up = up[up]
    edges = {(int(p), v) for v, p in zip(range(1, n), parent)}
    even = np.flatnonzero(parity == 0)
    odd = np.flatnonzero(parity == 1)
    target = len(edges) + n // 4
    while len(edges) < target:
        for u, v in zip(rng.choice(even, n // 4).tolist(), rng.choice(odd, n // 4).tolist()):
            if len(edges) == target:
                break
            edges.add((min(u, v), max(u, v)))
    return Graph(range(n), edges), frozenset(even.tolist())


def _qaoa_wide(rng, seed):
    # n=18: the 4 MiB complex128 state is twice the 2 MiB per-core L2
    g = regular_graph(rng, 18, 3)
    return [Job("wide-r3-n18", g, PipelineConfig(depth=1, shots=100_000, seed=seed))]


def _qaoa_deep(rng, seed):
    return [
        Job(f"deep-r3-n12-{i}", regular_graph(rng, 12, 3),
            PipelineConfig(depth=5, shots=100_000, seed=seed + i))
        for i in range(8)
    ]


def _canary(rng, seed):
    """One small depth-1 QAOA job that calls every traced function.

    Added to the workloads that would otherwise never train or build a
    model, so that no per-layer time reads a constant 0 there. It costs
    under 1 % of their rounds and does not enter their quality means.
    """
    return Job("canary-r3-n8", regular_graph(rng, 8, 3),
               PipelineConfig(depth=1, shots=1000, seed=seed), canary=True)


def _sampling(rng, seed):
    jobs = [
        Job(f"sample-r3-n20-{i}", regular_graph(rng, 20, 3),
            PipelineConfig(solver="random", depth=0, shots=1_000_000, seed=seed + i))
        for i in range(4)
    ]
    return jobs + [_canary(rng, seed)]


def _classical(rng, seed):
    # sizes are fixed so that only graph structure varies with the seed
    jobs = []
    for i in range(150):
        g, side = sparse_bipartite_graph(rng, 500 + 2500 * i // 149)
        problem = "minvc" if i % 2 == 0 else "maxis"
        jobs.append(Job(f"sparse-{i}", g, PipelineConfig(problem=problem, seed=seed), side))
    for i in range(30):
        g = regular_graph(rng, 56 + 2 * (i % 3), 4)
        jobs.append(Job(f"r4-{i}", g, PipelineConfig(solver="exact", seed=seed)))
    for i in range(30):
        g = erdos_renyi_graph(rng, 50 + i % 11, 0.5)
        jobs.append(Job(f"clique-{i}", g,
                        PipelineConfig(problem="maxcl", solver="exact", seed=seed)))
    return jobs + [_canary(rng, seed)]


_BUILDERS = {
    "qaoa-wide": _qaoa_wide,
    "qaoa-deep": _qaoa_deep,
    "sampling": _sampling,
    "classical": _classical,
}
WORKLOADS = tuple(_BUILDERS)


def make_jobs(workload: str, seed: int) -> list[Job]:
    return _BUILDERS[workload](np.random.default_rng(seed), seed)


def warm_up(jobs: list[Job]) -> None:
    """Run each configuration of the jobs once on a small fixed graph.

    This pays first-call costs (lazy imports, ufunc set-up) before any
    timed round; the reports are discarded.
    """
    small = regular_graph(np.random.default_rng(0), 8, 3)
    configs = {(c.problem, c.solver, c.depth, c.shots): c for c in (job.config for job in jobs)}
    for config in configs.values():
        run_pipeline(small, config, "warm-up")
