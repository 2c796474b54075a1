"""A frozen copy of the QUBO form of the profit objective, of the
subset and bitstring index helpers and of the spin form's per-state
evaluator, as ``profitcover.model`` held them before the package kept
only the energy vector the pipeline uses.

Tests check the model's energies against these evaluators and against
the plain profit definition. Each derives its coefficients from the
graph here, so it takes nothing from the model under test.
"""

from dataclasses import dataclass

from profitcover.errors import DomainError


def index_of_subset(subset, vertex_order: tuple[int, ...]) -> int:
    pos = {v: j for j, v in enumerate(vertex_order)}
    idx = 0
    for v in subset:
        idx |= 1 << pos[v]
    return idx


def subset_of_index(idx: int, vertex_order: tuple[int, ...]) -> frozenset[int]:
    return frozenset(v for j, v in enumerate(vertex_order) if idx >> j & 1)


def index_of_bitstring(bits: str) -> int:
    idx = 0
    for j, c in enumerate(bits):
        if c == "1":
            idx |= 1 << j
    return idx


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
        if len(bits) != len(self.vertex_order):
            raise DomainError(f"bitstring length {len(bits)} does not match "
                              f"{len(self.vertex_order)} vertices")
        return self.value(v for c, v in zip(bits, self.vertex_order) if c == "1")

    def to_json_dict(self) -> dict:
        return {
            "n": len(self.vertex_order),
            "sense": "maximize",
            "vertex_order": list(self.vertex_order),
            "linear": {str(v): c for v, c in sorted(self.linear.items())},
            "quadratic": [[u, v, c] for (u, v), c in sorted(self.quadratic.items())],
        }


def build_qubo(g) -> Qubo:
    if g.n == 0:
        raise DomainError("cannot build a model over an empty vertex set")
    linear = {v: g.degree(v) - 1 for v in g.vertices}
    quadratic = {e: -1 for e in g.edges}
    return Qubo(g.vertices, linear, quadratic)


@dataclass(frozen=True)
class SpinForm:
    """Spin form H(x) = -profit(x) with its coefficients times 4."""

    vertex_order: tuple[int, ...]
    h4: dict[int, int]  # 4*h_v = deg(v) - 2
    j4: dict[tuple[int, int], int]  # 4*J_uv = 1 per edge
    const4: int  # 4*offset = 2|V| - 3|E|

    def energy(self, subset) -> float:
        """Exact energy of the computational basis state for a subset."""
        s = set(subset)
        z = {v: -1 if v in s else 1 for v in self.vertex_order}
        e4 = self.const4
        e4 += sum(c * z[v] for v, c in self.h4.items())
        e4 += sum(c * z[u] * z[v] for (u, v), c in self.j4.items())
        return e4 / 4.0

    def energy_of_bits(self, bits: str) -> float:
        if len(bits) != len(self.vertex_order):
            raise DomainError(f"bitstring length {len(bits)} does not match "
                              f"{len(self.vertex_order)} vertices")
        return self.energy(v for c, v in zip(bits, self.vertex_order) if c == "1")


def build_spin_form(g) -> SpinForm:
    if g.n == 0:
        raise DomainError("cannot build a model over an empty vertex set")
    h4 = {v: g.degree(v) - 2 for v in g.vertices}
    j4 = {e: 1 for e in g.edges}
    return SpinForm(g.vertices, h4, j4, 2 * g.n - 3 * g.m)
