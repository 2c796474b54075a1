"""A frozen copy of the QUBO form of the profit objective and of the
subset and bitstring index helpers, as ``profitcover.model`` held them
before the package kept only the Ising form the pipeline uses.

Tests check the Ising energies against this evaluator and against the
plain profit definition, so it takes nothing from the model under test.
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
