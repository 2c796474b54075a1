"""QUBO and Ising forms of the profit objective.

The load-bearing identity is energy(x) = -profit(x) for every bitstring,
held exactly because all coefficients are quarter-integers. Tests verify
it exhaustively against the plain profit definition, not against the
package's own vectorized evaluator.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profitcover.errors import DomainError
from profitcover.graph import Graph
from profitcover.model import (
    bitstring_of_index,
    build_ising,
    build_qubo,
    index_of_bitstring,
    index_of_subset,
    subset_of_index,
)

from conftest import (
    brute_min_cover_size,
    brute_profit,
    complete_graph,
    random_gnp,
)


# ---------------------------------------------------------------------------
# index and bitstring conventions


def test_index_round_trip():
    order = (5, 2, 9)
    for subset in [set(), {5}, {2, 9}, {5, 2, 9}]:
        idx = index_of_subset(subset, order)
        assert subset_of_index(idx, order) == subset


def test_bit0_is_least_significant():
    order = (10, 20)
    assert index_of_subset({10}, order) == 1
    assert index_of_subset({20}, order) == 2
    assert bitstring_of_index(1, 2) == "10"
    assert bitstring_of_index(2, 2) == "01"
    assert index_of_bitstring("10") == 1


def test_bitstring_round_trip():
    for idx in range(16):
        assert index_of_bitstring(bitstring_of_index(idx, 4)) == idx


def test_bits_length_mismatch():
    q = build_qubo(complete_graph(2))
    with pytest.raises(DomainError):
        q.value_of_bits("101")
    m = build_ising(complete_graph(2))
    with pytest.raises(DomainError):
        m.energy_of_bits("1")


# ---------------------------------------------------------------------------
# QUBO


def test_qubo_k2_coefficients(k2):
    q = build_qubo(k2)
    assert q.linear == {0: 0, 1: 0}
    assert q.quadratic == {(0, 1): -1}
    assert q.value_of_bits("11") == -1


def test_qubo_all_zeros_is_zero():
    for seed in range(5):
        g = random_gnp(7, 0.5, seed)
        assert build_qubo(g).value(set()) == 0


def test_qubo_k3_pair(k3):
    q = build_qubo(k3)
    assert q.value({0, 1}) == 1 == brute_profit(k3, {0, 1})


def test_qubo_rejects_empty_graph():
    with pytest.raises(DomainError):
        build_qubo(Graph([], []))
    with pytest.raises(DomainError):
        build_ising(Graph([], []))


def test_qubo_json_shape(k3):
    d = build_qubo(k3).to_json_dict()
    assert d["n"] == 3 and d["sense"] == "maximize"
    assert d["linear"] == {"0": 1, "1": 1, "2": 1}
    assert d["quadratic"] == [[0, 1, -1], [0, 2, -1], [1, 2, -1]]


# ---------------------------------------------------------------------------
# Ising


def test_ising_k2_offset_and_energies(k2):
    m = build_ising(k2)
    assert m.offset == 0.25
    assert m.energy_of_bits("00") == 0.0
    assert m.energy_of_bits("10") == 0.0
    assert m.energy_of_bits("01") == 0.0
    assert m.energy_of_bits("11") == 1.0


def test_ising_k3_110(k3):
    m = build_ising(k3)
    assert m.energy_of_bits("110") == -1.0


def test_ising_single_vertex():
    g = Graph([0], [])
    m = build_ising(g)
    assert m.energy_of_bits("0") == 0.0
    assert m.energy_of_bits("1") == 1.0


def test_ising_karate_offset():
    from profitcover.instances import load_graph

    g = load_graph("data/instances/karate.edges")
    assert build_ising(g).offset == -41.5


def test_ising_couplings_match_edges(c4):
    m = build_ising(c4)
    assert set(m.j4) == set(c4.edges)
    assert all(c == 1 for c in m.j4.values())
    assert m.h4 == {v: 0 for v in c4.vertices}  # deg 2 everywhere


@pytest.mark.parametrize("seed", range(20))
def test_energy_is_negated_profit_exhaustive(seed):
    n = 3 + seed % 6
    g = random_gnp(n, 0.45, 1300 + seed)
    q = build_qubo(g)
    m = build_ising(g)
    for bits_tuple in itertools.product("01", repeat=n):
        bits = "".join(bits_tuple)
        subset = {v for c, v in zip(bits, g.vertices) if c == "1"}
        prof = brute_profit(g, subset)
        assert q.value_of_bits(bits) == prof
        e = m.energy_of_bits(bits)
        assert e == -prof  # exact, no tolerance
        assert e == float(int(e * 4)) / 4  # quarter-integer grid


@pytest.mark.parametrize("seed", range(12))
def test_energies_vector_matches_scalar(seed):
    g = random_gnp(3 + seed % 7, 0.5, 1400 + seed)
    m = build_ising(g)
    vec = m.energies_vector()
    assert vec.shape == (1 << g.n,)
    for idx in range(1 << g.n):
        assert vec[idx] == m.energy(subset_of_index(idx, m.vertex_order))


def _edge_loop_energies(m):
    """|S| - |covered edges| one edge at a time, the O(m 2^n) reference."""
    idx = np.arange(1 << m.n, dtype=np.uint64)
    energy = np.bitwise_count(idx).astype(np.int64)
    pos = {v: j for j, v in enumerate(m.vertex_order)}
    for u, v in m.j4:
        covered = ((idx >> np.uint64(pos[u])) | (idx >> np.uint64(pos[v]))) & np.uint64(1)
        energy -= covered.astype(np.int64)
    return energy.astype(np.float64)


@pytest.mark.parametrize("seed", range(20))
def test_energies_vector_matches_edge_loop(seed):
    g = random_gnp(1 + seed % 14, 0.2 + 0.03 * seed, 2100 + seed)
    m = build_ising(g)
    # bytes, not values: == cannot tell +0.0 from -0.0
    assert m.energies_vector().tobytes() == _edge_loop_energies(m).tobytes()


def test_energies_vector_is_built_once_and_read_only():
    m = build_ising(random_gnp(9, 0.5, 2200))
    vec = m.energies_vector()
    assert m.energies_vector() is vec
    assert vec.dtype == np.float64 and not vec.flags.writeable
    with pytest.raises(ValueError):
        vec[0] = 1.0


@pytest.mark.parametrize("seed", range(4))
def test_phase_levels_are_built_once_and_exact(seed):
    m = build_ising(random_gnp(6 + seed, 0.3 + 0.2 * seed, 2250 + seed))
    table = m.phase_levels()
    assert m.phase_levels() is table
    lo, hi, levels = table
    energies = m.energies_vector()
    assert (lo, hi) == (energies.min(), energies.max())
    assert levels.dtype == np.min_scalar_type(int(hi - lo)) and levels.dtype.kind == "u"
    assert not levels.flags.writeable
    with pytest.raises(ValueError):
        levels[0] = 0
    assert np.array_equal(levels + lo, energies)


@pytest.mark.parametrize("seed", range(12))
def test_min_energy_is_cover_minus_edges(seed):
    g = random_gnp(4 + seed % 6, 0.5, 1500 + seed)
    m = build_ising(g)
    assert m.energies_vector().min() == brute_min_cover_size(g) - g.m


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.integers(0, 10_000))
def test_uniform_average_energy_is_offset(n, seed):
    """Z-terms cancel under the uniform average, leaving the constant."""
    g = random_gnp(n, 0.5, seed)
    m = build_ising(g)
    avg = float(np.mean(m.energies_vector()))
    assert avg == pytest.approx(m.offset, abs=1e-12)
    assert m.offset == g.n / 2 - 3 * g.m / 4


def test_vertex_order_respected_for_sparse_labels():
    g = Graph([4, 7, 11], [(4, 7), (7, 11)])
    m = build_ising(g)
    assert m.vertex_order == (4, 7, 11)
    # bit 0 is vertex 4: selecting only vertex 4 covers edge (4,7)
    assert m.energy_of_bits("100") == -(1 - 1)
    assert m.energy({7}) == -(2 - 1)
