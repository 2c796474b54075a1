"""Rounding raw subsets into feasible covers without losing profit."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profitcover.errors import DomainError, InfeasibilityBug
from profitcover.graph import (
    Graph,
    is_clique,
    is_independent_set,
    is_vertex_cover,
    profit,
)
from profitcover.kernel import reconstruct, reduce
from profitcover.oracle import max_profit_exact
from profitcover.postprocess import (
    RefinedSolution,
    check_refined,
    finalize,
    greedy_cover_completion,
    refine,
    remove_redundant,
)

from conftest import (
    brute_min_cover_size,
    brute_profit,
    cycle_graph,
    random_gnp,
    star_graph,
)


# ---------------------------------------------------------------------------
# redundancy removal


def test_redundant_c4(c4):
    assert remove_redundant(c4, {0, 1, 2}) == {0, 2}


def test_redundant_k2(k2):
    assert remove_redundant(k2, {0, 1}) == {0}


def test_redundant_minimal_unchanged():
    g = cycle_graph(5)
    cover = {0, 2, 4}
    assert remove_redundant(g, cover) == cover


def test_redundant_rejects_non_cover(c4):
    with pytest.raises(DomainError):
        remove_redundant(c4, {0})


@pytest.mark.parametrize("seed", range(20))
def test_redundant_output_is_irreducible(seed):
    g = random_gnp(9, 0.4, 2100 + seed)
    cover = set(g.vertices)  # full vertex set always covers
    out = remove_redundant(g, cover)
    assert is_vertex_cover(g, out)
    for v in out:
        assert not is_vertex_cover(g, out - {v})


# ---------------------------------------------------------------------------
# greedy completion


def test_greedy_k3_from_single(k3):
    out = greedy_cover_completion(k3, {0})
    assert is_vertex_cover(k3, out)
    assert len(out) == 2
    assert brute_profit(k3, out) == 1 >= brute_profit(k3, {0})


def test_greedy_empty_on_star():
    g = star_graph(4)
    assert greedy_cover_completion(g, set()) == {0}


def test_greedy_keeps_input_subset(c4):
    out = greedy_cover_completion(c4, {1})
    assert 1 in out and is_vertex_cover(c4, out)


@pytest.mark.parametrize("seed", range(40))
def test_greedy_duality_bound(seed):
    """Cover size obeys |cover| <= |E| - profit(input subset)."""
    n = 5 + seed % 6
    g = random_gnp(n, 0.45, 2200 + seed)
    subset = {v for v in g.vertices if (seed >> (v % 7)) & 1}
    out = greedy_cover_completion(g, subset)
    assert is_vertex_cover(g, out)
    assert len(out) <= g.m - brute_profit(g, subset)


# ---------------------------------------------------------------------------
# refine


def test_refine_profit_never_drops(c4):
    r = refine(c4, {0})
    assert r.profit_after >= r.profit_before == profit(c4, {0})
    assert is_vertex_cover(c4, r.cover_reduced)


def test_refine_optimal_input_is_fixed_point():
    g = cycle_graph(6)
    opt, opt_profit = max_profit_exact(g)
    r = refine(g, opt)
    assert r.profit_after == opt_profit
    # the optimum also produces an optimal cover size
    assert len(r.cover_reduced) == brute_min_cover_size(g)


def test_refine_steps_recorded():
    g = random_gnp(8, 0.4, 5)
    r = refine(g, set())
    assert r.steps  # at least one action happened on a nonempty graph
    assert all(isinstance(s, str) for s in r.steps)


@pytest.mark.parametrize("subset,cover", [
    (frozenset(), frozenset()),  # not a cover
    (frozenset({0, 2}), frozenset({0, 1, 2, 3})),  # a cover that lost profit
], ids=["not-a-cover", "lost-profit"])
def test_check_refined_breach_is_an_infeasibility_bug(c4, subset, cover):
    """A broken refinement is a bug (exit 4), not bad input (exit 2)."""
    refined = RefinedSolution(cover, profit(c4, subset), profit(c4, cover), ())
    with pytest.raises(InfeasibilityBug) as exc:
        check_refined(c4, subset, refined)
    assert exc.type is InfeasibilityBug


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 4095))
def test_refine_properties_random_pairs(seed, mask):
    """Profit monotone and duality bound on arbitrary (graph, subset) pairs."""
    g = random_gnp(4 + seed % 9, 0.4, seed)
    subset = {v for i, v in enumerate(g.vertices) if (mask >> i) & 1}
    r = refine(g, subset)
    assert is_vertex_cover(g, r.cover_reduced)
    assert r.profit_before == brute_profit(g, subset)
    assert r.profit_after >= r.profit_before
    assert len(r.cover_reduced) <= g.m - r.profit_before
    assert r.profit_after == g.m - len(r.cover_reduced)


@pytest.mark.parametrize("seed", range(25))
def test_refine_exact_input_gives_exact_cover(seed):
    """Refining the true max-profit subset yields a minimum cover."""
    g = random_gnp(7 + seed % 4, 0.45, 2400 + seed)
    opt_subset, opt_profit = max_profit_exact(g)
    r = refine(g, opt_subset)
    assert r.profit_after == opt_profit
    assert len(r.cover_reduced) == brute_min_cover_size(g)


# ---------------------------------------------------------------------------
# finalize


def test_finalize_minvc_is_cover(c4):
    kr = reduce(c4, ())
    r = refine(c4, {0, 2})
    sol = finalize("minvc", c4, reconstruct(kr, r.cover_reduced))
    assert is_vertex_cover(c4, sol)


def test_finalize_maxis_inverts(c4):
    kr = reduce(c4, ())
    r = refine(c4, {0, 2})
    sol = finalize("maxis", c4, reconstruct(kr, r.cover_reduced))
    assert sol == {1, 3}
    assert is_independent_set(c4, sol)


def test_finalize_maxcl_on_complemented_input():
    # target graph: K3 plus a pendant; work graph is its complement
    from profitcover.graph import complement

    g = Graph(range(4), [(0, 1), (0, 2), (1, 2), (2, 3)])
    work = complement(g)
    kr = reduce(work)
    assert kr.solved  # the complement is a short path, rules finish it
    r = refine(kr.reduced, frozenset())
    sol = finalize("maxcl", work, reconstruct(kr, r.cover_reduced))
    assert is_clique(g, sol)
    assert len(sol) == 3  # the triangle


def test_finalize_replays_folds():
    g = cycle_graph(4)
    kr = reduce(g)
    assert kr.solved
    r = refine(kr.reduced, frozenset())
    sol = finalize("minvc", g, reconstruct(kr, r.cover_reduced))
    assert is_vertex_cover(g, sol) and len(sol) == 2
