"""Exact solvers checked against plain enumeration.

brute_min_cover / brute_max_profit in conftest are the independent
references: pure-python subset enumeration with none of the pruning the
package oracle uses.
"""

import pytest

from profitcover import oracle
from profitcover.errors import CapacityError
from profitcover.graph import complement, is_vertex_cover
from profitcover.oracle import (
    BRANCH_MAX,
    EXHAUSTIVE_MAX,
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
    assert res.method == "exhaustive"


@pytest.mark.parametrize("seed", range(20))
def test_branch_and_bound_matches_exhaustive(seed):
    # min_vertex_cover_exact only routes sizes beyond EXHAUSTIVE_MAX to
    # branch and bound, so call it directly where brute force is affordable
    g = random_gnp(12, 0.3, 1000 + seed)
    cover = _branch_and_bound_min_cover(g)
    assert len(cover) == brute_min_cover_size(g)
    assert is_vertex_cover(g, cover)


def test_branch_and_bound_on_structured_midsize():
    # cycles and complete graphs have closed-form optima: minVC(C_n)=ceil(n/2),
    # minVC(K_n)=n-1; sizes above EXHAUSTIVE_MAX exercise the search path
    g = cycle_graph(31)
    res = min_vertex_cover_exact(g)
    assert res.method == "branch_and_bound"
    assert res.opt_size == 16
    assert is_vertex_cover(g, res.opt_cover)

    g = complete_graph(24)
    res = min_vertex_cover_exact(g)
    assert res.opt_size == 23

    g = star_graph(40)
    assert min_vertex_cover_exact(g).opt_size == 1


def test_capacity_limits():
    with pytest.raises(CapacityError):
        min_vertex_cover_exact(random_gnp(BRANCH_MAX + 1, 0.1, 0))
    with pytest.raises(CapacityError):
        max_profit_exact(random_gnp(EXHAUSTIVE_MAX + 45, 0.1, 0))


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


def _reduce_pendants_from_every_vertex(adj, cover):
    """The pendant reduction with the queue started from every vertex."""
    queue = sorted(adj)
    while queue:
        v = queue.pop()
        nb = adj.get(v)
        if nb is None:
            continue
        if not nb:
            del adj[v]
        elif len(nb) == 1:
            w = next(iter(nb))
            for x in adj[w]:
                if x != v:
                    adj[x].discard(w)
                    queue.append(x)
            del adj[w]
            del adj[v]
            cover.add(w)


def test_pendant_queue_of_low_degree_vertices_keeps_the_covers(monkeypatch):
    """Starting the queue from degree <= 1 vertices returns the same
    cover, not just one of the same size, on sparse graphs past the
    exhaustive range, where branch and bound and its pendant reduction run."""
    graphs = [random_gnp(21 + seed % 24, (1.5 + seed % 5) / (21 + seed % 24), 4800 + seed)
              for seed in range(60)]
    covers = [min_vertex_cover_exact(g).opt_cover for g in graphs]
    monkeypatch.setattr(oracle, "_reduce_pendants", _reduce_pendants_from_every_vertex)
    assert covers == [min_vertex_cover_exact(g).opt_cover for g in graphs]
