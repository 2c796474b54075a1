"""Penalty-free binary models for the profit objective.

The profit of a subset S of vertices is |edges covered by S| - |S|.
Maximizing it needs no feasibility penalty because every subset is
admissible, so the QUBO is simply

    maximize  sum_{uv in E} (x_u + x_v - x_u x_v)  -  sum_v x_v

with linear coefficient deg(v)-1 and quadratic coefficient -1 per edge.
The spin form (x = (1-z)/2, bit 1 mapped to z = -1) is

    H = 1/4 sum_{uv} (z_u z_v + z_u + z_v) - 1/2 sum_v z_v + offset

with offset = |V|/2 - 3|E|/4, and satisfies H(x) = -profit(x) exactly.
The module builds the spin form, which the simulator reads. Its
coefficients are functions of the graph (h_v = (deg(v) - 2)/4 and
J_uv = 1/4 per edge), so the model holds the graph alone and derives
them. Every basis energy is the integer |S| - |covered edges|, so the
energy vector is int32 and lies in [-|E|, |V|].

Basis-state indexing: bit j (least significant) of a state index holds
the indicator of ``vertex_order[j]``, and the display bitstring writes
that same bit at string position j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .graph import Graph


def bitstring_of_index(idx: int, n: int) -> str:
    return "".join("1" if idx >> j & 1 else "0" for j in range(n))


def _bits_to_subset(bits: str, vertex_order: tuple[int, ...]) -> frozenset[int]:
    if len(bits) != len(vertex_order):
        raise DomainError(
            f"bitstring length {len(bits)} does not match {len(vertex_order)} vertices")
    return frozenset(v for c, v in zip(bits, vertex_order) if c == "1")


@dataclass(frozen=True)
class IsingModel:
    """Spin Hamiltonian of ``graph``'s profit, with H(x) = -profit(x)."""

    graph: Graph

    @property
    def vertex_order(self) -> tuple[int, ...]:
        return self.graph.vertices

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self.graph.edges

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def offset(self) -> float:
        return (2 * self.n - 3 * self.graph.m) / 4.0

    def energies_vector(self) -> np.ndarray:
        """Energies of all 2^n basis states, exactly -profit per state.

        The model's one energy representation: int32, every entry in
        [-m, n], built once per model and returned read-only on every
        call. Profits are its negation, so a zero profit prints as 0.0,
        never -0.0. The energy is |S| - |covered edges|, filled in one
        bit at a time:
        setting bit j of an index x < 2^j adds vertex j, which newly
        covers its deg(j) edges except those to lower vertices already
        in x, so

            E[2^j + x] = E[x] + 1 - deg(j) + popcount(x & lower(j))

        with lower(j) the bitmask of j's neighbours below position j.
        That is O(2^n) work in total, whatever the number of edges.
        """
        energies = self.__dict__.get("_energies")
        if energies is None:
            energies = self._build_energies()
            energies.flags.writeable = False
            object.__setattr__(self, "_energies", energies)
        return energies

    def _build_energies(self) -> np.ndarray:
        n = self.n
        pos = {v: j for j, v in enumerate(self.vertex_order)}
        degree = [0] * n
        lower = [0] * n
        for u, v in self.edges:
            a, b = sorted((pos[u], pos[v]))
            degree[a] += 1
            degree[b] += 1
            lower[b] |= 1 << a
        energy = np.zeros(1 << n, dtype=np.int32)
        idx = np.arange(1 << n >> 1, dtype=np.uint32)
        for j in range(n):
            half = 1 << j
            upper = energy[half:2 * half]
            np.add(energy[:half], 1 - degree[j], out=upper)
            upper += np.bitwise_count(idx[:half] & lower[j])
        return energy


def build_ising(g: Graph) -> IsingModel:
    if g.n == 0:
        raise DomainError("cannot build a model over an empty vertex set")
    return IsingModel(g)
