"""Hybrid solver for minimum vertex cover and its twin problems.

Classical reduction rules shrink the instance, a penalty-free profit
objective turns the residual into an unconstrained binary model, a
statevector QAOA simulator optimizes it, and post-processing rounds
samples into feasible covers, independent sets, or cliques.
"""

from .graph import Graph, complement, is_clique, is_independent_set, is_vertex_cover, profit
from .kernel import KernelResult, reconstruct
from .kernel import reduce as reduce_graph
from .model import build_ising
from .oracle import max_profit_exact, min_vertex_cover_exact
from .pipeline import PipelineConfig, run_pipeline

__all__ = [
    "Graph",
    "KernelResult",
    "PipelineConfig",
    "build_ising",
    "complement",
    "is_clique",
    "is_independent_set",
    "is_vertex_cover",
    "max_profit_exact",
    "min_vertex_cover_exact",
    "profit",
    "reconstruct",
    "reduce_graph",
    "run_pipeline",
]
