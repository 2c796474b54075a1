"""Reduction rules, fixed-point kernelization, and cover reconstruction.

Safety is the heart of this module: an optimal cover of the reduced graph,
replayed through the fold trace and unioned with the committed vertices,
must be an optimal cover of the input. We check this against brute-force
enumeration on a few hundred seeded graphs, plus the rule-by-rule hand
traces that pin down each reduction's local behavior.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profitcover.errors import DomainError
from profitcover.graph import Graph, is_vertex_cover
from profitcover.kernel import (
    ALL_RULES,
    greedy_upper_bound,
    reconstruct,
    reduce,
    rule_degree2,
    rule_high_degree,
    rule_lp,
    rule_pendant,
    rule_singleton,
)

from conftest import (
    brute_min_cover_size,
    complete_graph,
    cycle_graph,
    path_graph,
    random_gnp,
    star_graph,
)


# ---------------------------------------------------------------------------
# singleton rule


def test_singleton_removes_isolated():
    g = Graph(range(3), [(0, 1)])  # K2 plus isolated vertex 2
    g2, removed = rule_singleton(g)
    assert removed == {2}
    assert g2.vertices == (0, 1) and g2.m == 1


def test_singleton_noop():
    g = complete_graph(3)
    g2, removed = rule_singleton(g)
    assert removed == frozenset() and g2 == g


def test_singleton_all_isolated():
    g = Graph(range(5), [])
    g2, removed = rule_singleton(g)
    assert g2.n == 0 and removed == frozenset(range(5))


# ---------------------------------------------------------------------------
# pendant rule


def test_pendant_path3():
    g = path_graph(3)  # 0-1-2
    g2, cover = rule_pendant(g)
    assert cover == {1}
    assert g2.m == 0


def test_pendant_star():
    g = star_graph(4)
    g2, cover = rule_pendant(g)
    assert cover == {0}
    assert g2.m == 0


def test_pendant_path5():
    # path a-b-c-d-e as 0-1-2-3-4: pendant cascade commits {1, 3}
    g = path_graph(5)
    g2, cover = rule_pendant(g)
    assert cover == {1, 3}
    assert g2.m == 0
    assert brute_min_cover_size(g) == 2


def test_pendant_noop_on_cycle():
    g = cycle_graph(5)
    g2, cover = rule_pendant(g)
    assert cover == frozenset() and g2 == g


# ---------------------------------------------------------------------------
# degree-2 rule


def test_degree2_triangle_commits_neighbors():
    g = complete_graph(3)
    g2, cover, folds = rule_degree2(g)
    assert len(cover) == 2 and folds == ()
    assert g2.m == 0
    assert brute_min_cover_size(g) == 2


def test_degree2_path4_folds():
    # 0-1-2-3: fold at vertex 1 merges {0, 2} into a fresh label
    g = path_graph(4)
    g2, cover, folds = rule_degree2(g)
    assert cover == frozenset()
    assert len(folds) >= 1
    f = folds[0]
    assert f.folded_vertex == 1 and set(f.merged_pair) == {0, 2}
    assert f.merged_into not in g.vertices


def test_degree2_c4_fold_yields_k2():
    g = cycle_graph(4)
    kr = reduce(g, enabled_rules=("d2r",))
    assert (kr.reduced.n, kr.reduced.m) == (2, 1)  # one fold leaves a K2
    cover = reconstruct(kr, _optimal_cover_of(kr.reduced))
    assert is_vertex_cover(g, cover)
    assert len(cover) == 2 == brute_min_cover_size(g)


def test_degree2_plus_pendant_empties_c4():
    g = cycle_graph(4)
    kr = reduce(g, enabled_rules=("pr", "d2r"))
    assert kr.solved
    cover = reconstruct(kr, frozenset())
    assert is_vertex_cover(g, cover) and len(cover) == 2


def test_fold_labels_fresh_and_increasing():
    g = cycle_graph(6)
    kr = reduce(g, enabled_rules=("d2r",))
    labels = [f.merged_into for f in kr.folds]
    assert labels == sorted(labels)
    assert all(lab not in g.vertices for lab in labels)


# ---------------------------------------------------------------------------
# greedy bound and high-degree rule


def test_greedy_bound_star():
    k_ub, cover = greedy_upper_bound(star_graph(5))
    assert k_ub == 1 and cover == {0}


def test_greedy_bound_k4():
    k_ub, cover = greedy_upper_bound(complete_graph(4))
    assert k_ub == 3
    assert is_vertex_cover(complete_graph(4), cover)


def test_greedy_bound_c5():
    k_ub, cover = greedy_upper_bound(cycle_graph(5))
    assert k_ub == 3
    assert is_vertex_cover(cycle_graph(5), cover)


@pytest.mark.parametrize("seed", range(20))
def test_greedy_bound_is_valid_cover(seed):
    g = random_gnp(5 + seed % 8, 0.4, 400 + seed)
    k_ub, cover = greedy_upper_bound(g)
    assert is_vertex_cover(g, cover)
    assert k_ub == len(cover) >= brute_min_cover_size(g)


def test_high_degree_star():
    g = star_graph(5)
    g2, cover = rule_high_degree(g, k_ub=1)
    assert cover == {0}
    assert g2.m == 0


def test_high_degree_noop_on_regular():
    g = cycle_graph(6)  # 2-regular; any k_ub >= 2 keeps every vertex
    g2, cover = rule_high_degree(g, k_ub=3)
    assert cover == frozenset() and g2 == g


def test_high_degree_double_star():
    # two centers of degree 4 joined by an edge, k_ub=2 removes both
    edges = [(0, 1)]
    edges += [(0, v) for v in (2, 3, 4)]
    edges += [(1, v) for v in (5, 6, 7)]
    g = Graph(range(8), edges)
    g2, cover = rule_high_degree(g, k_ub=2)
    assert cover == {0, 1}
    assert g2.m == 0


# ---------------------------------------------------------------------------
# LP rule


def test_lp_star_pins_center():
    g = star_graph(3)
    g2, into_cover, removed = rule_lp(g)
    assert into_cover == {0}
    assert removed == {1, 2, 3}
    assert g2.n == 0


def test_lp_c4_all_half():
    g = cycle_graph(4)
    g2, into_cover, removed = rule_lp(g)
    assert into_cover == frozenset() and removed == frozenset()
    assert g2 == g


def test_lp_k2_all_half(k2):
    g2, into_cover, removed = rule_lp(k2)
    assert into_cover == frozenset() and removed == frozenset()
    assert g2 == k2


@pytest.mark.parametrize("seed", range(30))
def test_lp_partition_and_safety(seed):
    """P/Q/R partition the vertex set and committing P keeps optimality."""
    n = 4 + seed % 8
    g = random_gnp(n, 0.35, 500 + seed)
    g2, p_set, r_set = rule_lp(g)
    q_set = set(g2.vertices)
    assert p_set | q_set | r_set == set(g.vertices)
    assert not (p_set & q_set or p_set & r_set or q_set & r_set)
    # Nemhauser-Trotter: minVC(g) = |P| + minVC(G[Q])
    assert brute_min_cover_size(g) == len(p_set) + brute_min_cover_size(g2)


# ---------------------------------------------------------------------------
# full reduction


def test_reduce_edgeless():
    g = Graph(range(4), [])
    kr = reduce(g)
    assert kr.solved and kr.v_safe == frozenset()
    assert kr.reduced.n == 0


def test_reduce_rule_counts_recorded():
    g = path_graph(6)
    kr = reduce(g)
    assert set(kr.rule_counts) == set(ALL_RULES)
    assert sum(kr.rule_counts.values()) > 0


def test_reduce_karate_residual_small():
    from profitcover.instances import load_graph

    g = load_graph("data/instances/karate.edges")
    kr = reduce(g)
    assert kr.reduced.n <= 6
    cover = reconstruct(kr, _optimal_cover_of(kr.reduced))
    assert is_vertex_cover(g, cover)
    assert len(cover) == 14  # known: independence number 20 on 34 vertices


def test_reduce_fixed_point_idempotent():
    for seed in range(12):
        g = random_gnp(10, 0.3, 600 + seed)
        kr = reduce(g)
        again = reduce(kr.reduced)
        assert again.reduced == kr.reduced
        assert again.v_safe == frozenset() and again.folds == ()


def test_identity_kernel_passthrough():
    g = cycle_graph(5)
    kr = reduce(g, ())
    assert kr.reduced == g and kr.v_safe == frozenset() and kr.folds == ()
    cover = reconstruct(kr, {0, 2, 4})
    assert cover == {0, 2, 4}


# ---------------------------------------------------------------------------
# reconstruction


def _optimal_cover_of(g):
    for size in range(g.n + 1):
        for combo in itertools.combinations(g.vertices, size):
            s = set(combo)
            if all(u in s or v in s for u, v in g.edges):
                return frozenset(combo)
    return frozenset(g.vertices)


def test_reconstruct_path4_fold_replay():
    g = path_graph(4)
    kr = reduce(g, enabled_rules=("d2r",))
    # find the merged label for the {0, 2} pair and put it in the cover
    f = next(f for f in kr.folds if set(f.merged_pair) == {0, 2})
    if f.merged_into in kr.reduced.vertices:
        cover = reconstruct(kr, {f.merged_into})
        assert cover == {0, 2}
        assert is_vertex_cover(g, cover)


def test_reconstruct_rejects_non_cover():
    g = cycle_graph(8)
    kr = reduce(g, enabled_rules=("sr",))  # no-op, residual is still C8
    with pytest.raises(DomainError):
        reconstruct(kr, frozenset())


def test_reconstruct_foreign_vertex_rejected():
    g = cycle_graph(4)
    kr = reduce(g)
    with pytest.raises(DomainError):
        reconstruct(kr, {999})


@pytest.mark.parametrize("seed", range(60))
def test_reduction_preserves_optimum(seed):
    """|reconstruct(opt cover of residual)| equals the true minimum."""
    n = 4 + seed % 7
    p = (0.2, 0.4, 0.7)[seed % 3]
    g = random_gnp(n, p, 700 + seed)
    kr = reduce(g)
    cover = reconstruct(kr, _optimal_cover_of(kr.reduced))
    assert is_vertex_cover(g, cover)
    assert len(cover) == brute_min_cover_size(g)


@pytest.mark.parametrize("rules", [
    ("sr",), ("pr",), ("d2r",), ("hdr",), ("lpr",),
    ("sr", "pr"), ("pr", "d2r"), ("d2r", "lpr"), ALL_RULES,
])
def test_each_rule_subset_is_safe(rules):
    for seed in range(10):
        g = random_gnp(8, 0.35, 800 + seed)
        kr = reduce(g, enabled_rules=rules)
        cover = reconstruct(kr, _optimal_cover_of(kr.reduced))
        assert is_vertex_cover(g, cover)
        assert len(cover) == brute_min_cover_size(g)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 255))
def test_reconstruct_valid_for_any_cover(seed, mask):
    """Replay must produce a cover of the input for ANY cover of the
    residual, optimal or not."""
    g = random_gnp(8, 0.4, seed)
    kr = reduce(g)
    reduced = kr.reduced
    # grow an arbitrary cover: start from a masked subset, add endpoints
    subset = {v for i, v in enumerate(reduced.vertices) if (mask >> i) & 1}
    for u, v in reduced.edges:
        if u not in subset and v not in subset:
            subset.add(u)
    cover = reconstruct(kr, subset)
    assert is_vertex_cover(g, cover)


def test_v_safe_covers_everything_removed():
    """v_safe plus any residual cover covers the whole input; with the
    empty residual cover it covers every edge not inside the residual."""
    for seed in range(15):
        g = random_gnp(9, 0.4, 900 + seed)
        kr = reduce(g)
        assert all(v in g.vertices for v in kr.v_safe)
        residual_edges = set(kr.reduced.edges)
        # edges of g outside the residual whose endpoints were not folded
        # away must be covered by v_safe directly
        folded = {f.folded_vertex for f in kr.folds}
        folded |= {x for f in kr.folds for x in f.merged_pair}
        for u, v in g.edges:
            if (u, v) in residual_edges:
                continue
            if u in folded or v in folded:
                continue
            assert u in kr.v_safe or v in kr.v_safe


def test_kernel_json_round_trip():
    g = path_graph(6)
    kr = reduce(g)
    d = kr.to_json_dict()
    assert d["solved"] == kr.solved
    assert sorted(kr.v_safe) == d["v_safe"]
    assert isinstance(d["rule_counts"], dict)
