"""Cross-problem and relabelling properties on small random graphs.

MinVC, MaxIS and MaxClique reduce to one another: an independent set is
the complement of a vertex cover, and a clique of G is an independent
set of the complement of G. Each exact pipeline run must agree with
these identities and with the brute-force optimum, and its solution must
re-verify on the graph it was asked about. Relabelling the vertices is
a qubit permutation, so it must leave the QAOA expectation and the
optimum size unchanged.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from profitcover.graph import (
    Graph,
    complement,
    is_clique,
    is_independent_set,
    is_vertex_cover,
)
from profitcover.model import build_ising
from profitcover.pipeline import PipelineConfig, run_pipeline
from profitcover.qaoa import AngleSchedule, depth1_objective, expectation_value

from conftest import brute_min_cover_size, random_gnp

VERIFY = {"minvc": is_vertex_cover, "maxis": is_independent_set, "maxcl": is_clique}

GRAPHS = st.builds(random_gnp, st.integers(1, 12),
                   st.sampled_from((0.2, 0.35, 0.5, 0.8)), st.integers(0, 10_000))


def _exact(g, problem):
    report = run_pipeline(g, PipelineConfig(problem=problem, solver="exact"))
    assert VERIFY[problem](g, report.solution), problem
    assert report.solution_size == len(report.solution)
    assert report.optimal is True, problem
    return report.solution_size


@settings(max_examples=150, deadline=None)
@given(GRAPHS)
def test_exact_sizes_obey_the_cross_problem_identities(g):
    min_cover = _exact(g, "minvc")
    assert min_cover == brute_min_cover_size(g)
    assert _exact(g, "maxis") == g.n - min_cover
    assert _exact(g, "maxcl") == _exact(complement(g), "maxis")


def _relabelled(g, seed):
    """g with its vertices mapped to a seeded random sample of labels, so
    the sorted qubit order is a permutation of the original one."""
    labels = random.Random(seed).sample(range(3 * g.n), g.n)
    new = dict(zip(g.vertices, labels))
    return Graph(labels, [(new[u], new[v]) for u, v in g.edges])


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 9), st.integers(0, 10_000))
def test_relabelling_keeps_expectation_and_optimum(n, seed):
    g = random_gnp(n, 0.5, seed)
    h = _relabelled(g, seed)
    m, mh = build_ising(g), build_ising(h)
    rng = np.random.default_rng(seed)
    f, fh = depth1_objective(m), depth1_objective(mh)
    for gamma, beta in rng.uniform(-np.pi, np.pi, (3, 2)):
        assert abs(f(gamma, beta) - fh(gamma, beta)) <= 1e-12
    gammas, betas = rng.uniform(-np.pi, np.pi, (2, 2))
    schedule = AngleSchedule(tuple(gammas), tuple(betas))
    assert abs(expectation_value(m, schedule) - expectation_value(mh, schedule)) <= 1e-12
    assert _exact(g, "minvc") == _exact(h, "minvc")
