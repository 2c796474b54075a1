"""Exact solvers checked against plain enumeration.

brute_min_cover / brute_max_profit in conftest are the independent
references: pure-python subset enumeration with none of the pruning the
package oracle uses. frozen_oracle is the branch and bound the package
used before it ran the kernel's rules, for graphs past enumeration.
"""

import inspect
import sys

import pytest

from profitcover import oracle
from profitcover.errors import CapacityError, InfeasibilityBug
from profitcover.graph import complement, is_vertex_cover
from profitcover.instances import gen_regular
from profitcover.kernel import _to_adj, reduce
from profitcover.oracle import (
    _branch_and_bound_min_cover,
    max_profit_exact,
    min_vertex_cover_exact,
)

from conftest import (
    brute_max_profit,
    brute_min_cover_size,
    brute_profit,
    complete_graph,
    cycle_graph,
    path_graph,
    random_gnp,
    star_graph,
)
from frozen_oracle import frozen_min_cover


def test_k3_cover_size():
    assert min_vertex_cover_exact(complete_graph(3)).opt_size == 2


def test_c5_cover_size():
    assert min_vertex_cover_exact(cycle_graph(5)).opt_size == 3


def test_named_small_graphs():
    for g, want in [
        (path_graph(5), 2),
        (star_graph(6), 1),
        (complete_graph(4), 3),
        (cycle_graph(6), 3),
    ]:
        res = min_vertex_cover_exact(g)
        assert res.opt_size == want
        assert is_vertex_cover(g, res.opt_cover)
        assert res.opt_profit == g.m - want


def test_empty_graph():
    from profitcover.graph import Graph

    res = min_vertex_cover_exact(Graph(range(3), []))
    assert res.opt_size == 0 and res.opt_cover == frozenset()


@pytest.mark.parametrize("seed", range(40))
def test_exhaustive_matches_brute_force(seed):
    n = 4 + seed % 7  # 4..10
    p = (0.15, 0.35, 0.6)[seed % 3]
    g = random_gnp(n, p, seed)
    res = min_vertex_cover_exact(g)
    assert res.opt_size == brute_min_cover_size(g)
    assert is_vertex_cover(g, res.opt_cover)


@pytest.mark.parametrize("seed", range(20))
def test_branch_and_bound_matches_exhaustive(seed):
    # the search itself, without the ExactResult wrapper
    g = random_gnp(12, 0.3, 1000 + seed)
    cover = _branch_and_bound_min_cover(g)
    assert len(cover) == brute_min_cover_size(g)
    assert is_vertex_cover(g, cover)


def test_branch_and_bound_non_cover_is_an_infeasibility_bug(monkeypatch):
    # a search that finds nothing leaves the empty set, which covers no edge
    monkeypatch.setattr(oracle, "_solve", lambda *args: None)
    with pytest.raises(InfeasibilityBug) as exc:
        _branch_and_bound_min_cover(cycle_graph(5))
    assert exc.type is InfeasibilityBug


def test_branch_and_bound_on_structured_midsize():
    # cycles and complete graphs have closed-form optima: minVC(C_n)=ceil(n/2),
    # minVC(K_n)=n-1
    g = cycle_graph(31)
    res = min_vertex_cover_exact(g)
    assert res.opt_size == 16
    assert is_vertex_cover(g, res.opt_cover)

    g = complete_graph(24)
    res = min_vertex_cover_exact(g)
    assert res.opt_size == 23

    g = star_graph(40)
    assert min_vertex_cover_exact(g).opt_size == 1


def test_capacity_limits(monkeypatch):
    # the graph needs more than five search nodes; the default budget solves it
    g = random_gnp(65, 0.1, 0)
    assert is_vertex_cover(g, min_vertex_cover_exact(g).opt_cover)
    monkeypatch.setattr(oracle, "NODE_BUDGET", 5)
    with pytest.raises(CapacityError):
        min_vertex_cover_exact(g)
    with pytest.raises(CapacityError):
        max_profit_exact(g)


def test_deep_search_does_not_recurse(monkeypatch):
    """The search depth grows with n (about 65 levels here within the
    budget); an exhausted budget raises CapacityError even with only 50
    frames left on the Python stack."""
    g = gen_regular(600, 3, 1)
    monkeypatch.setattr(oracle, "NODE_BUDGET", 2000)
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        with pytest.raises(CapacityError):
            min_vertex_cover_exact(g)
    finally:
        sys.setrecursionlimit(limit)


def test_regular_128_matches_the_frozen_oracle():
    """Past the old 60-vertex cap, at the paper's largest size (the
    frozen search takes 4-8 s here, depending on the seed)."""
    g = gen_regular(128, 3, 7)
    res = min_vertex_cover_exact(g)
    assert is_vertex_cover(g, res.opt_cover)
    assert res.opt_size == len(frozen_min_cover(g))


@pytest.mark.parametrize("seed", range(25))
def test_max_profit_equals_edges_minus_cover(seed):
    n = 4 + seed % 9
    g = random_gnp(n, 0.4, 2000 + seed)
    subset, prof = max_profit_exact(g)
    assert prof == g.m - brute_min_cover_size(g)
    assert prof == brute_max_profit(g)
    assert brute_profit(g, subset) == prof


@pytest.mark.parametrize("seed", range(15))
def test_equivalence_chain(seed):
    """Cover size k pins down profit, independence number, and clique number."""
    n = 5 + seed % 6
    g = random_gnp(n, 0.5, 3000 + seed)
    k = min_vertex_cover_exact(g).opt_size
    assert max_profit_exact(g)[1] == g.m - k
    # max IS = n - k: complement of a minimum cover is a maximum IS
    best_is = max(
        len(s)
        for s in _all_independent_sets(g)
    )
    assert best_is == n - k
    # max clique of the complement has the same size
    cg = complement(g)
    best_clique = max(len(s) for s in _all_independent_sets(complement(cg))
                      ) if cg.n else 0
    assert best_clique == n - k


def _all_independent_sets(g):
    import itertools

    out = [frozenset()]
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(g.vertices, size):
            s = set(combo)
            if not any(u in s and v in s for u, v in g.edges):
                out.append(frozenset(combo))
    return out


def test_deterministic_results():
    g = random_gnp(14, 0.35, 77)
    a = min_vertex_cover_exact(g)
    b = min_vertex_cover_exact(g)
    assert a.opt_cover == b.opt_cover and a.opt_size == b.opt_size


@pytest.mark.parametrize("seed", range(40))
def test_node_reduction_is_reduce_with_the_low_degree_rules(seed):
    """A search node reduces its adjacency as ``reduce`` does with only
    the singleton, pendant and degree-2 rules: the same residual, cover
    and folds, fold labels included."""
    n = 1 + 7 * seed % 59
    g = random_gnp(n, (0.02, 0.05, 0.1, 0.2, 0.35, 0.6)[seed % 6], 7300 + seed)
    adj, cover, folds = _to_adj(g), set(), []
    # a best size of 0 prunes the node right after its reduction, before
    # a leaf would replay the folds into the cover
    assert oracle._solve(adj, cover, folds, n, [0, None]) is None
    kr = reduce(g, ("sr", "pr", "d2r"))
    assert adj == _to_adj(kr.reduced)
    assert cover == kr.committed and tuple(folds) == kr.folds
