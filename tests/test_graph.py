"""Graph container, predicates, and the profit objective."""

import gc
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profitcover import instances
from profitcover.errors import DomainError
from profitcover.graph import (
    Graph,
    complement,
    covered_edges,
    is_clique,
    is_connected,
    is_independent_set,
    is_vertex_cover,
    profit,
    uncovered_edges,
)
from profitcover.instances import gen_erdos_renyi_connected, gen_regular, load_graph
from profitcover.kernel import reduce

from conftest import brute_profit, complete_graph, cycle_graph, random_gnp, tree_plus_chords
from frozen_graph import (
    FrozenGraph,
    frozen_complement,
    frozen_covered_edges,
    frozen_is_clique,
    frozen_is_independent_set,
    frozen_is_vertex_cover,
    frozen_profit,
    frozen_uncovered_edges,
)


def test_dedup_and_orientation():
    g = Graph(range(3), [(0, 1), (1, 0), (0, 1), (1, 2)])
    assert g.m == 2
    assert g.edges == ((0, 1), (1, 2))


def test_self_loop_rejected():
    with pytest.raises(DomainError):
        Graph(range(2), [(1, 1)])


def test_unknown_endpoint_rejected():
    with pytest.raises(DomainError):
        Graph(range(2), [(0, 5)])


class _SubInt(int):
    pass


@pytest.mark.parametrize("make", [np.int64, np.int32, np.uint16, _SubInt, int],
                         ids=["int64", "int32", "uint16", "int-subclass", "int"])
def test_integral_labels_are_stored_as_python_ints(make):
    pairs = [(0, 1), (1, 2), (2, 300), (300, 0)]
    g = Graph([make(v) for v in (300, 2, 1, 0, 2)], [(make(u), make(v)) for u, v in pairs])
    twin = Graph([0, 1, 2, 300], pairs)
    assert g == twin and hash(g) == hash(twin)
    assert g.vertices == (0, 1, 2, 300)
    assert all(type(v) is int for v in g.vertices)
    assert all(type(w) is int for v in g.vertices for w in g.neighbors(v))


@pytest.mark.parametrize("bad", [True, False, np.True_, 2.0, 1.5, np.float64(3.0), "a", "1",
                                 None, 1j])
def test_a_label_that_is_not_an_integer_is_refused(bad):
    """A str label would fail inside reduce, a float one would print as 2.0
    and a bool one would pass for 0 or 1."""
    with pytest.raises(DomainError, match=re.escape(f"vertex label {bad!r} is not an integer")):
        Graph([0, 1, bad], [(0, 1)])


def test_a_bool_label_is_refused_beside_its_int():
    for vertices in ([1, True], [True, 1], [0, False, 2]):
        with pytest.raises(DomainError, match="is not an integer"):
            Graph(vertices, [])


def test_labels_survive_subgraph():
    g = Graph([3, 7, 9], [(3, 7), (7, 9)])
    sub = g.induced_subgraph([7, 9])
    assert sub.vertices == (7, 9)
    assert sub.edges == ((7, 9),)


def test_neighbors_sorted_and_degree():
    g = Graph(range(4), [(2, 0), (2, 3), (2, 1)])
    assert g.neighbors(2) == (0, 1, 3)
    assert g.degree(2) == 3
    with pytest.raises(DomainError):
        g.neighbors(99)


def test_complement_k3_is_edgeless(k3):
    cg = complement(k3)
    assert cg.m == 0 and cg.vertices == k3.vertices


def test_cover_predicate_on_c4(c4):
    # C4 is 0-1-2-3-0; {0,2} covers, {0,1} leaves edge (2,3) uncovered
    assert is_vertex_cover(c4, {0, 2})
    assert not is_vertex_cover(c4, {0, 1})
    assert uncovered_edges(c4, {0, 1}) == [(2, 3)]


def test_single_vertex_covers_k2(k2):
    assert is_vertex_cover(k2, {0})
    assert is_independent_set(k2, {0})


def test_clique_vs_independent_on_k3(k3):
    assert is_clique(k3, {0, 1})
    assert not is_independent_set(k3, {0, 1})


def test_foreign_label_raises(k2):
    with pytest.raises(DomainError):
        is_vertex_cover(k2, {0, 9})


def test_profit_k2_single_vertex(k2):
    assert profit(k2, {0}) == 0


def test_profit_k3_pair(k3):
    assert profit(k3, {0, 1}) == 1
    # enumeration over all 8 subsets confirms 1 is the maximum
    best = max(brute_profit(k3, s) for s in
               [set(), {0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}])
    assert best == 1


def test_covered_edges_counts(c4):
    assert covered_edges(c4, set()) == 0
    assert covered_edges(c4, {0}) == 2
    assert covered_edges(c4, {0, 2}) == 4


def test_connectivity():
    assert is_connected(cycle_graph(5))
    assert not is_connected(Graph(range(4), [(0, 1), (2, 3)]))
    assert is_connected(Graph([], []))


@given(st.integers(0, 500))
def test_profit_matches_definition(seed):
    g = random_gnp(8, 0.4, seed)
    rng_subset = {v for v in g.vertices if (seed >> v) & 1}
    assert profit(g, rng_subset) == brute_profit(g, rng_subset)


@settings(max_examples=60)
@given(st.integers(2, 9), st.integers(0, 10_000))
def test_complement_involution(n, seed):
    g = random_gnp(n, 0.5, seed)
    gg = complement(complement(g))
    assert gg == g
    assert g.m + complement(g).m == n * (n - 1) // 2


@settings(max_examples=60)
@given(st.integers(2, 9), st.integers(0, 10_000))
def test_clique_iff_independent_in_complement(n, seed):
    g = random_gnp(n, 0.5, seed)
    cg = complement(g)
    subset = {v for v in g.vertices if (seed >> (v + 3)) & 1}
    assert is_clique(g, subset) == is_independent_set(cg, subset)


def test_graph_equality_and_hash():
    a = complete_graph(3)
    b = Graph([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != complete_graph(4)


def test_slots_hold_no_edge_list():
    assert Graph.__slots__ == ("vertices", "_adj", "m")
    g = Graph(range(3), [(0, 1), (1, 2)])
    assert g.edges == ((0, 1), (1, 2)) and g.edges is not g.edges


# ---------------------------------------------------------------------------
# equivalence with the frozen edge-list Graph


@st.composite
def graph_inputs(draw, labels=None):
    """(vertices, pairs) with sparse labels, repeated and reversed pairs,
    and possibly self-loops and unknown vertices at any position."""
    if labels is None:
        label = st.integers(0, 11) | st.integers(-3, 200)
        labels = draw(st.lists(label, max_size=12, unique=True))
    vertices = labels + draw(st.lists(st.sampled_from(labels), max_size=3)) if labels else []
    pairs = []
    if len(labels) >= 2:
        distinct = st.tuples(st.sampled_from(labels), st.sampled_from(labels)).filter(
            lambda e: e[0] != e[1])
        pairs = draw(st.lists(distinct, max_size=30))
    if pairs:
        # repeat some pairs, some of them reversed
        for i in draw(st.lists(st.integers(0, len(pairs) - 1), max_size=4)):
            u, v = pairs[i]
            pairs.append((v, u) if draw(st.booleans()) else (u, v))
    pairs = draw(st.permutations(pairs))
    foreign = st.integers(201, 205)
    vertex = st.sampled_from(labels) | foreign if labels else foreign
    bad = st.one_of(
        vertex.map(lambda v: (v, v)),
        st.tuples(vertex, foreign),
        st.tuples(foreign, vertex))
    for _ in range(draw(st.integers(0, 2) if draw(st.booleans()) else st.just(0))):
        pairs.insert(draw(st.integers(0, len(pairs))), draw(bad))
    return vertices, pairs


def _outcome(cls, vertices, pairs, as_generator):
    """(graph, None) or (None, error) from the inputs as lists, or as
    one-shot generators."""
    if as_generator:
        vertices, pairs = (v for v in vertices), (e for e in pairs)
    try:
        return cls(vertices, pairs), None
    except DomainError as err:
        return None, err


def _first_offence(vertices, pairs):
    known = set(vertices)
    for u, v in pairs:
        if u == v:
            return f"self-loop at vertex {u}"
        if u not in known or v not in known:
            return f"edge ({u},{v}) references unknown vertex"
    return None


def _assert_same_graph(g, fg):
    assert g.vertices == fg.vertices
    assert g.edges == fg.edges
    assert (g.n, g.m) == (fg.n, fg.m)
    for v in g.vertices:
        assert g.neighbors(v) == fg.neighbors(v)


@settings(max_examples=300, deadline=None)
@given(graph_inputs(), st.booleans())
def test_construction_matches_the_frozen_graph(inputs, as_generator):
    vertices, pairs = inputs
    g, err = _outcome(Graph, vertices, pairs, as_generator)
    fg, frozen_err = _outcome(FrozenGraph, vertices, pairs, as_generator)
    offence = _first_offence(vertices, pairs)
    if offence is not None:
        assert g is fg is None
        assert type(err) is type(frozen_err) is DomainError
        assert str(err) == str(frozen_err) == offence
        return
    assert err is frozen_err is None
    _assert_same_graph(g, fg)


@st.composite
def graph_pairs(draw):
    """Two valid inputs; the second is often the first, reordered."""
    labels = draw(st.lists(st.integers(0, 60), max_size=8, unique=True))
    a = draw(graph_inputs(labels).filter(lambda i: _first_offence(*i) is None))
    if draw(st.booleans()):
        vertices, pairs = a
        pairs = [(v, u) if draw(st.booleans()) else (u, v) for u, v in draw(st.permutations(pairs))]
        if pairs and draw(st.booleans()):
            pairs.pop()
        b = (draw(st.permutations(vertices)), pairs)
    else:
        b = draw(graph_inputs(labels).filter(lambda i: _first_offence(*i) is None))
    return a, b


@settings(max_examples=300, deadline=None)
@given(graph_pairs())
def test_equality_and_hash_match_the_frozen_graph(inputs):
    (va, pa), (vb, pb) = inputs
    a, b = Graph(va, pa), Graph(vb, pb)
    fa, fb = FrozenGraph(va, pa), FrozenGraph(vb, pb)
    assert (a == b) == (fa == fb)
    assert (hash(a) == hash(b)) == (hash(fa) == hash(fb))
    assert a != fa and a.__eq__(fa) is NotImplemented


def _error_text(fn, *args):
    with pytest.raises(DomainError) as err:
        fn(*args)
    return str(err.value)


@settings(max_examples=300, deadline=None)
@given(graph_inputs().filter(lambda i: _first_offence(*i) is None), st.data())
def test_predicates_match_the_frozen_graph(inputs, data):
    vertices, pairs = inputs
    g, fg = Graph(vertices, pairs), FrozenGraph(vertices, pairs)
    subset = data.draw(st.sets(st.sampled_from(g.vertices)) if g.vertices else st.just(set()))
    for ours, frozen in [
        (is_vertex_cover, frozen_is_vertex_cover),
        (is_independent_set, frozen_is_independent_set),
        (is_clique, frozen_is_clique),
        (covered_edges, frozen_covered_edges),
        (profit, frozen_profit),
        (uncovered_edges, frozen_uncovered_edges),
    ]:
        assert ours(g, subset) == frozen(fg, subset), ours.__name__
        foreign = subset | {999}
        assert (_error_text(ours, g, foreign) == _error_text(frozen, fg, foreign)
                == "subset member 999 not in graph")
    _assert_same_graph(g.induced_subgraph(subset), fg.induced_subgraph(subset))
    _assert_same_graph(complement(g), frozen_complement(fg))


# ---------------------------------------------------------------------------
# memory held per edge


def _held_bytes_per_edge(cls, vertices, edges):
    gc.collect()
    tracemalloc.start()
    try:
        g = cls(vertices, edges)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held / g.m


# A Graph holds each edge once in each endpoint's neighbour tuple. On
# the graph below (5996 edges, labels built before tracing) it holds
# 64.7 bytes per edge; the frozen Graph, which also kept the edge list,
# held 128.7. The bound leaves 39 % of headroom over the measurement.
HELD_BYTES_PER_EDGE = 90


def test_a_graph_holds_at_most_90_bytes_per_edge():
    vertices = list(range(3000))
    edges = tree_plus_chords(3000, 3000, seed=1)
    assert _held_bytes_per_edge(Graph, vertices, edges) <= HELD_BYTES_PER_EDGE
    assert _held_bytes_per_edge(FrozenGraph, vertices, edges) > HELD_BYTES_PER_EDGE


def _held_bytes_per_edge_of_fresh_labels(cls):
    """Bytes still traced per edge once the inputs, made inside the trace
    from fresh int objects, are dropped: what the graph itself holds,
    label objects included."""
    gc.collect()
    tracemalloc.start()
    try:
        g = cls(range(3000), tree_plus_chords(3000, 3000, seed=1))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held / g.m


# Counting the label objects too: a Graph whose neighbour entries are the
# vertices' own labels holds 79.3 bytes per edge on the graph above; one
# that kept the int objects its edge pairs carried held 129.5, and the
# frozen Graph holds more. The bound leaves 20 % over the measurement.
HELD_BYTES_PER_EDGE_WITH_LABELS = 95


def test_a_graph_holds_each_label_once():
    assert _held_bytes_per_edge_of_fresh_labels(Graph) <= HELD_BYTES_PER_EDGE_WITH_LABELS
    assert _held_bytes_per_edge_of_fresh_labels(FrozenGraph) > HELD_BYTES_PER_EDGE_WITH_LABELS


# ---------------------------------------------------------------------------
# every construction path shares the vertices' own label objects


def _fresh(v: int) -> int:
    """An int equal to v that is not the object v (for v above 256)."""
    return int(str(v))


def _subdivided_regular() -> Graph:
    """A 3-regular graph on 300 vertices with ten edges subdivided, so
    that the degree-2 rule folds and leaves a residual."""
    edges = list(gen_regular(300, 3, seed=1).edges)
    pairs = edges[10:]
    for w, (u, v) in enumerate(edges[:10], start=300):
        pairs += [(u, w), (w, v)]
    return Graph(range(310), pairs)


def _reduced_with_folds() -> Graph:
    kr = reduce(_subdivided_regular())
    assert kr.folds and kr.reduced.n > 0
    assert max(kr.reduced.vertices) >= 310  # a folded vertex survives
    return kr.reduced


def _ring_text(n: int, line, header: str = "") -> str:
    """A cycle on 1..n with chords i -- i+7, written one edge a line."""
    pairs = [(i, i % n + 1) for i in range(1, n + 1)] + [(i, i + 7) for i in range(1, n - 7, 3)]
    return header.format(n=n, m=len(pairs)) + "".join(line.format(u, v) for u, v in pairs)


def _loaded(tmp_path, name, text) -> Graph:
    path = tmp_path / name
    path.write_text(text)
    g = load_graph(path)
    assert g.n == 400
    return g


def _regular_by_stubs(monkeypatch) -> Graph:
    monkeypatch.setattr(instances, "_PAIRING_ATTEMPTS", 0)
    return gen_regular(300, 3, seed=1)


def _regular_by_complement(monkeypatch) -> Graph:
    """Both pairing routes fail on the dense spec; its sparse complement
    is paired stub by stub."""
    pair_stub_by_stub = instances._pair_stub_by_stub
    sizes = []

    def sparse_only(free, rng):
        sizes.append(len(free))
        return pair_stub_by_stub(free, rng) if len(free) <= 900 else None

    monkeypatch.setattr(instances, "_PAIRING_ATTEMPTS", 0)
    monkeypatch.setattr(instances, "_STUB_ATTEMPTS", 1)
    monkeypatch.setattr(instances, "_pair_stub_by_stub", sparse_only)
    g = gen_regular(300, 296, seed=1)
    assert sizes == [300 * 296, 300 * 3]
    return g


def _fresh_graph() -> Graph:
    return Graph(map(_fresh, range(300, 700)),
                 [(_fresh(300 + u), _fresh(300 + v)) for u, v in tree_plus_chords(400, 300, 2)])


LABEL_PATHS = {
    "fresh-ints": lambda tmp_path, monkeypatch: _fresh_graph(),
    "complement": lambda tmp_path, monkeypatch: complement(_fresh_graph()),
    "induced-subgraph": lambda tmp_path, monkeypatch: _fresh_graph().induced_subgraph(
        map(_fresh, range(300, 700, 2))),
    "reduce-with-folds": lambda tmp_path, monkeypatch: _reduced_with_folds(),
    "edge-list": lambda tmp_path, monkeypatch: _loaded(
        tmp_path, "g.edges", _ring_text(400, "{} {}\n")),
    "dimacs": lambda tmp_path, monkeypatch: _loaded(
        tmp_path, "g.col", _ring_text(400, "e {} {}\n", "p edge {n} {m}\n")),
    "matrix-market": lambda tmp_path, monkeypatch: _loaded(
        tmp_path, "g.mtx", _ring_text(400, "{1} {0}\n",
                                      "%%MatrixMarket matrix coordinate pattern symmetric\n"
                                      "{n} {n} {m}\n")),
    "regular-restart": lambda tmp_path, monkeypatch: gen_regular(300, 3, seed=1),
    "regular-stub-by-stub": lambda tmp_path, monkeypatch: _regular_by_stubs(monkeypatch),
    "regular-complement": lambda tmp_path, monkeypatch: _regular_by_complement(monkeypatch),
    "erdos-renyi": lambda tmp_path, monkeypatch: gen_erdos_renyi_connected(300, 0.05, seed=1),
}


@pytest.mark.parametrize("path", LABEL_PATHS)
def test_every_neighbour_entry_is_the_vertex_label(tmp_path, monkeypatch, path):
    g = LABEL_PATHS[path](tmp_path, monkeypatch)
    assert g.m > 0 and max(g.vertices) > 256  # above the interpreter's small-int cache
    label = {v: v for v in g.vertices}
    assert all(key is v for key, v in zip(g._adj, g.vertices))
    assert all(label[w] is w for nb in g._adj.values() for w in nb)
