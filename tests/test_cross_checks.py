"""Cross-checks of the exact oracle and the kernel against references
that share no code with ``profitcover.kernel``.

The oracle runs the kernel's singleton, pendant and degree-2 rules at
every search node, so a fault in those rules could make the oracle and
the pipeline agree on a wrong answer. The references here are the frozen
branch and bound in ``frozen_oracle`` (its own pendant queue and
matching bound, started from n + 1) and the brute force in ``conftest``.
The LP rule's partition is compared with ``frozen_lp``, which takes its
maximum matching from scipy.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profitcover.graph import Graph, complement, is_vertex_cover
from profitcover.instances import gen_erdos_renyi_connected, gen_regular
from profitcover.kernel import ALL_RULES, _lp_partition, reconstruct, reduce
from profitcover.oracle import min_vertex_cover_exact

from conftest import brute_min_cover, brute_min_cover_size, random_gnp
from frozen_lp import frozen_lp_partition
from frozen_oracle import frozen_min_cover


def _assert_matches_frozen(g):
    cover = min_vertex_cover_exact(g).opt_cover
    assert is_vertex_cover(g, cover)
    assert len(cover) == len(frozen_min_cover(g))
    assert _lp_partition(g) == frozen_lp_partition(g)


# the two exact families of the classical benchmark workload
@pytest.mark.parametrize("seed", range(10))
def test_four_regular_matches_the_frozen_oracle(seed):
    _assert_matches_frozen(gen_regular(56 + seed % 5, 4, seed))


@pytest.mark.parametrize("seed", range(10))
def test_dense_complement_matches_the_frozen_oracle(seed):
    _assert_matches_frozen(complement(gen_erdos_renyi_connected(50 + seed, 0.5, seed)))


@pytest.mark.parametrize("seed", range(24))
def test_gnp_matches_the_frozen_oracle(seed):
    n = 10 + 10 * (seed % 6)  # 10..60
    p = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7)[seed // 4]
    _assert_matches_frozen(random_gnp(n, p, 5000 + seed))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 14), st.sampled_from((0.1, 0.25, 0.4, 0.6, 0.8)),
       st.integers(0, 10_000))
def test_oracle_matches_brute_force(n, p, seed):
    g = random_gnp(n, p, seed)
    cover = min_vertex_cover_exact(g).opt_cover
    assert is_vertex_cover(g, cover)
    assert len(cover) == brute_min_cover_size(g)


@st.composite
def sparse_label_graphs(draw):
    """Up to 30 vertices with labels far apart; a vertex on no drawn edge
    is isolated."""
    labels = draw(st.lists(st.integers(0, 10**9), unique=True, max_size=30))
    index = st.integers(0, max(len(labels) - 1, 0))
    pairs = draw(st.lists(st.tuples(index, index), max_size=3 * len(labels)))
    return Graph(labels, [(labels[i], labels[j]) for i, j in pairs if i != j])


@settings(max_examples=200, deadline=None)
@given(sparse_label_graphs())
def test_lp_partition_matches_the_frozen_scipy_copy(g):
    assert _lp_partition(g) == frozen_lp_partition(g)


SUBSET_GRAPHS = [random_gnp(n, p, 6000 + i) for i, (n, p) in enumerate(
    [(9, 0.3), (11, 0.2), (12, 0.35), (13, 0.25), (14, 0.15), (14, 0.3)])]
SUBSET_OPTIMA = [brute_min_cover_size(g) for g in SUBSET_GRAPHS]
RULE_SUBSETS = [rules for k in range(len(ALL_RULES) + 1)
                for rules in itertools.combinations(ALL_RULES, k)]


def test_lp_partition_of_the_subset_graphs_matches_the_frozen_copy():
    for g in SUBSET_GRAPHS:
        assert _lp_partition(g) == frozen_lp_partition(g)


@pytest.mark.parametrize("rules", RULE_SUBSETS, ids=lambda r: "+".join(r) or "none")
def test_every_rule_subset_lifts_an_optimal_residual_cover(rules):
    """Replaying an optimal cover of the residual gives an optimal cover
    of the input, of size residual optimum + |committed| + |folds|."""
    for g, optimum in zip(SUBSET_GRAPHS, SUBSET_OPTIMA):
        kr = reduce(g, enabled_rules=rules)
        residual_cover = brute_min_cover(kr.reduced)
        cover = reconstruct(kr, residual_cover)
        assert is_vertex_cover(g, cover)
        assert len(cover) == optimum
        assert len(residual_cover) + len(kr.committed) + len(kr.folds) == optimum
