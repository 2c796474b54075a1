"""Exact solvers checked against plain enumeration.

brute_min_cover / brute_max_profit in conftest are the independent
references: pure-python subset enumeration with none of the pruning the
package oracle uses. frozen_oracle is the branch and bound the package
used before it ran the kernel's rules, for graphs past enumeration.
"""

import hashlib
import inspect
import sys

import pytest

from profitcover import oracle
from profitcover.errors import CapacityError, InfeasibilityBug
from profitcover.graph import complement, is_vertex_cover
from profitcover.instances import gen_regular
from profitcover.kernel import _to_adj, greedy_upper_bound, reduce
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


def _searched(monkeypatch, g):
    """The oracle's cover of g, its number of search nodes and the size
    of the first cover its search reached."""
    solve, nodes, first = oracle._solve, [], []

    def counting(adj, cover, folds, counter, best):
        nodes.append(None)
        out = solve(adj, cover, folds, counter, best)
        if not first and best[1]:
            first.append(best[0])
        return out

    monkeypatch.setattr(oracle, "_solve", counting)
    cover = _branch_and_bound_min_cover(g)
    return cover, len(nodes), first[0] if first else 0


def _pinned_graph(kind, n, q, seed):
    if kind == "gnp":
        return random_gnp(n, q, seed)
    if kind == "r4":
        return gen_regular(n, q, seed)
    return complement(random_gnp(n, q, seed))  # dense complements


# (graph, cover size, search nodes, sha256 of repr(sorted(cover)) to 12
# hex digits), as the search computed them when it started from the
# greedy cover's size + 1 instead of |V| + 1
PINNED_SEARCHES = [
    (("gnp", 40, 0.15, 5100), 24, 15, "217dc5a2786c"),
    (("gnp", 42, 0.2, 5101), 26, 19, "a7481faa047c"),
    (("gnp", 44, 0.3, 5102), 34, 53, "7032e41e7f08"),
    (("gnp", 46, 0.15, 5103), 28, 15, "b207a20e9dd4"),
    (("gnp", 48, 0.2, 5104), 34, 99, "107a7ae2ba9d"),
    (("gnp", 50, 0.3, 5105), 37, 45, "1f7ae9e47361"),
    (("gnp", 52, 0.15, 5106), 35, 39, "50e049334a2d"),
    (("gnp", 54, 0.2, 5107), 38, 63, "448d5abbe56a"),
    (("gnp", 56, 0.3, 5108), 44, 131, "020d37a6a0b6"),
    (("gnp", 58, 0.15, 5109), 40, 103, "0febc23d424e"),
    (("gnp", 60, 0.2, 5110), 45, 289, "75b7676f0843"),
    (("gnp", 62, 0.3, 5111), 50, 221, "7366e3c5e53d"),
    (("gnp", 64, 0.15, 5112), 45, 191, "daad94c4a81f"),
    (("gnp", 66, 0.2, 5113), 49, 335, "5c93f62ddfac"),
    (("gnp", 68, 0.3, 5114), 56, 597, "1d13a4009144"),
    (("r4", 50, 4, 5200), 31, 99, "bca154461bd5"),
    (("r4", 52, 4, 5201), 32, 113, "e9df46a04d92"),
    (("r4", 54, 4, 5202), 33, 111, "78e9d1864457"),
    (("r4", 56, 4, 5203), 33, 81, "db1562bd6fd0"),
    (("r4", 58, 4, 5204), 35, 109, "8f7a9ca40500"),
    (("r4", 60, 4, 5205), 36, 129, "6006835c7c5e"),
    (("r4", 62, 4, 5206), 38, 197, "b12f62042147"),
    (("r4", 64, 4, 5207), 38, 157, "fca1e1df5199"),
    (("r4", 50, 4, 5208), 31, 89, "aa6c8a3c6475"),
    (("r4", 52, 4, 5209), 31, 85, "ee8de7a37990"),
    (("r4", 54, 4, 5210), 32, 57, "a0bcf7cde343"),
    (("r4", 56, 4, 5211), 33, 105, "52f8e76681fa"),
    (("r4", 58, 4, 5212), 35, 151, "11e71e470f66"),
    (("r4", 60, 4, 5213), 35, 135, "ce55888a8a25"),
    (("r4", 62, 4, 5214), 38, 197, "a91a978cfb21"),
    (("co", 30, 0.3, 5300), 26, 41, "13aeaab47ac1"),
    (("co", 31, 0.4, 5301), 26, 39, "135689cccecb"),
    (("co", 32, 0.5, 5302), 26, 39, "38214c26aa6e"),
    (("co", 33, 0.3, 5303), 28, 49, "6bb445f51caa"),
    (("co", 34, 0.4, 5304), 29, 45, "f1e0662268ac"),
    (("co", 35, 0.5, 5305), 28, 43, "0575542a8f24"),
    (("co", 36, 0.3, 5306), 32, 53, "b2aa83e76f3b"),
    (("co", 37, 0.4, 5307), 32, 49, "420a08408562"),
    (("co", 38, 0.5, 5308), 31, 47, "755c66abd573"),
    (("co", 39, 0.3, 5309), 34, 57, "101b1a72a8ce"),
    (("co", 40, 0.4, 5310), 34, 53, "7c4ed29bca55"),
    (("co", 41, 0.5, 5311), 35, 57, "2885f1d6e25e"),
    (("co", 42, 0.3, 5312), 37, 67, "4007c66d0a37"),
    (("co", 43, 0.4, 5313), 37, 71, "1f977df11809"),
    (("co", 44, 0.5, 5314), 37, 65, "86a4b8164cd9"),
]


@pytest.mark.parametrize("spec,size,nodes,digest", PINNED_SEARCHES,
                         ids=["-".join(map(str, row[0])) for row in PINNED_SEARCHES])
def test_search_visits_the_pinned_nodes_and_returns_the_pinned_cover(
        monkeypatch, spec, size, nodes, digest):
    cover, visited, _ = _searched(monkeypatch, _pinned_graph(*spec))
    assert (len(cover), visited) == (size, nodes)
    assert hashlib.sha256(repr(sorted(cover)).encode()).hexdigest()[:12] == digest


@pytest.mark.parametrize("spec", [row[0] for row in PINNED_SEARCHES[::3]]
                         + [("gnp", n, 0.3, 5400 + n) for n in range(0, 30, 3)])
def test_first_leaf_is_the_greedy_cover(monkeypatch, spec):
    """The search's first descent is the greedy bound's loop, unpruned:
    its first cover has the greedy cover's size."""
    g = _pinned_graph(*spec)
    _, _, first = _searched(monkeypatch, g)
    assert first == greedy_upper_bound(g)[0]
