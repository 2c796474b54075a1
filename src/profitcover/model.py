"""Penalty-free binary models for the profit objective.

The profit of a subset S of vertices is |edges covered by S| - |S|.
Maximizing it needs no feasibility penalty because every subset is
admissible, so the QUBO is simply

    maximize  sum_{uv in E} (x_u + x_v - x_u x_v)  -  sum_v x_v

with linear coefficient deg(v)-1 and quadratic coefficient -1 per edge.
The spin form (x = (1-z)/2, bit 1 mapped to z = -1) is

    H = 1/4 sum_{uv} (z_u z_v + z_u + z_v) - 1/2 sum_v z_v + offset

with offset = |V|/2 - 3|E|/4, and satisfies H(x) = -profit(x) exactly.
All coefficients are quarter-integers, so they are stored as integers
scaled by 4 and every energy is exact in binary floating point.

Basis-state indexing: bit j (least significant) of a state index holds
the indicator of ``vertex_order[j]``, and the display bitstring writes
that same bit at string position j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .graph import Graph


def index_of_subset(subset, vertex_order: tuple[int, ...]) -> int:
    pos = {v: j for j, v in enumerate(vertex_order)}
    idx = 0
    for v in subset:
        idx |= 1 << pos[v]
    return idx


def subset_of_index(idx: int, vertex_order: tuple[int, ...]) -> frozenset[int]:
    return frozenset(v for j, v in enumerate(vertex_order) if idx >> j & 1)


def bitstring_of_index(idx: int, n: int) -> str:
    return "".join("1" if idx >> j & 1 else "0" for j in range(n))


def index_of_bitstring(bits: str) -> int:
    idx = 0
    for j, c in enumerate(bits):
        if c == "1":
            idx |= 1 << j
    return idx


def _bits_to_subset(bits: str, vertex_order: tuple[int, ...]) -> frozenset[int]:
    if len(bits) != len(vertex_order):
        raise DomainError(
            f"bitstring length {len(bits)} does not match {len(vertex_order)} vertices")
    return frozenset(v for c, v in zip(bits, vertex_order) if c == "1")


@dataclass(frozen=True)
class Qubo:
    """Profit objective as a maximization QUBO over 0/1 variables."""

    vertex_order: tuple[int, ...]
    linear: dict[int, int]  # v -> deg(v) - 1
    quadratic: dict[tuple[int, int], int]  # (u, v) -> -1 per edge

    def value(self, subset) -> int:
        s = set(subset)
        total = sum(c for v, c in self.linear.items() if v in s)
        total += sum(c for (u, v), c in self.quadratic.items() if u in s and v in s)
        return total

    def value_of_bits(self, bits: str) -> int:
        return self.value(_bits_to_subset(bits, self.vertex_order))

    def to_json_dict(self) -> dict:
        return {
            "n": len(self.vertex_order),
            "sense": "maximize",
            "vertex_order": list(self.vertex_order),
            "linear": {str(v): c for v, c in sorted(self.linear.items())},
            "quadratic": [[u, v, c] for (u, v), c in sorted(self.quadratic.items())],
        }


@dataclass(frozen=True)
class IsingModel:
    """Spin Hamiltonian with H(x) = -profit(x), coefficients times 4."""

    vertex_order: tuple[int, ...]
    h4: dict[int, int]  # 4*h_v = deg(v) - 2
    j4: dict[tuple[int, int], int]  # 4*J_uv = 1 per edge
    const4: int  # 4*offset = 2|V| - 3|E|

    @property
    def n(self) -> int:
        return len(self.vertex_order)

    @property
    def offset(self) -> float:
        return self.const4 / 4.0

    def energy(self, subset) -> float:
        """Exact energy of the computational basis state for a subset."""
        s = set(subset)
        z = {v: -1 if v in s else 1 for v in self.vertex_order}
        e4 = self.const4
        e4 += sum(c * z[v] for v, c in self.h4.items())
        e4 += sum(c * z[u] * z[v] for (u, v), c in self.j4.items())
        return e4 / 4.0

    def energy_of_bits(self, bits: str) -> float:
        return self.energy(_bits_to_subset(bits, self.vertex_order))

    def energies_vector(self) -> np.ndarray:
        """Energies of all 2^n basis states, exactly -profit per state.

        Built once per model and returned read-only on every call. The
        energy is |S| - |covered edges|, filled in one bit at a time:
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

    def phase_levels(self) -> tuple[float, float, np.ndarray]:
        """(lowest energy, highest energy, level of each basis state).

        The level of a state is E - lowest, an index into a phase table
        of the hi - lo + 1 distinct energies, in the narrowest unsigned
        dtype that holds it. Energies are integers by construction, so
        the levels are exact. Built once per model from
        ``energies_vector`` and returned read-only on every call.
        """
        levels = self.__dict__.get("_phase_levels")
        if levels is None:
            energies = self.energies_vector()
            lo, hi = float(np.min(energies)), float(np.max(energies))
            shifted = (energies - lo).astype(np.min_scalar_type(int(hi - lo)))
            shifted.flags.writeable = False
            levels = (lo, hi, shifted)
            object.__setattr__(self, "_phase_levels", levels)
        return levels

    def _build_energies(self) -> np.ndarray:
        n = self.n
        pos = {v: j for j, v in enumerate(self.vertex_order)}
        degree = [0] * n
        lower = [0] * n
        for u, v in self.j4:
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
        # float64, not an integer dtype: reports print the negated vector,
        # where a zero energy must stay the -0.0 profit they have always shown
        return energy.astype(np.float64)


def build_qubo(g: Graph) -> Qubo:
    if g.n == 0:
        raise DomainError("cannot build a model over an empty vertex set")
    linear = {v: g.degree(v) - 1 for v in g.vertices}
    quadratic = {e: -1 for e in g.edges}
    return Qubo(g.vertices, linear, quadratic)


def build_ising(g: Graph) -> IsingModel:
    if g.n == 0:
        raise DomainError("cannot build a model over an empty vertex set")
    h4 = {v: g.degree(v) - 2 for v in g.vertices}
    j4 = {e: 1 for e in g.edges}
    return IsingModel(g.vertices, h4, j4, 2 * g.n - 3 * g.m)
