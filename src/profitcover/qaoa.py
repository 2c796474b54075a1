"""Exact statevector simulation of QAOA on the profit Hamiltonian.

States are dense complex128 arrays indexed so that bit j of the array
index is ``vertex_order[j]``.

The cost layer is diagonal, so each basis amplitude picks up the phase
exp(-i*gamma*E). Profit energies are integers spanning at most n+m+1
values, so the phase is one small table exp(-i*gamma*level) gathered by
each state's level index. The levels belong to the model: each
``IsingModel`` builds them once from its energy vector
(``IsingModel.phase_levels``), and ``apply_phase`` takes the model, not
an energy array. The table entries equal exp(-i*gamma*E) bit for bit,
so this is the same diagonal as the elementwise formula.

The mixer applies RX(2*beta) to every qubit. It works on blocks of
``MIXER_BLOCK`` qubits: viewing the state as a (2^n/2^k, 2^k) matrix
whose columns are the k lowest qubits, one complex matmul by
RX(2*beta)^{(x)k} applies the block, and writing the (2^k, 2^n/2^k)
product row-major moves those k qubits to the top of the index. After
ceil(n/k) passes every qubit has moved by n places in total and is back
where it started, so the mixer reads and writes the state ceil(n/k)
times instead of n times, and each pass is one BLAS call. Two buffers
take turns as input and output; the result ends in the caller's array.
The block itself is built by indexing, not by np.kron: entry (r, q) of
RX(2*beta)^{(x)k} is the product of the 2x2 entries RX[r_j, q_j] over
the bits j of r and q, and ``_rx_power`` gathers those entries with
index arrays computed once per k and multiplies them in kron's order,
so the block has the same bytes as the kron product at a fraction of
its cost.

The matmul goes through BLAS, so thread counts matter. Each output
amplitude is one inner product of length 2^k; OpenBLAS splits a matmul
across threads by blocks of the output and never splits that inner sum,
so every amplitude comes from the same arithmetic whatever the thread
count. The tests check this at n=18 under OPENBLAS_NUM_THREADS=1 and
with the thread variables unset. The block size is k = 3. On a 2-core
machine with OPENBLAS_NUM_THREADS=2, k = 4 made every mixer call at
n=12 take 24 ms instead of 0.3 ms (a threaded 16x16 product waiting for
its second thread), and k = 5 showed 32 ms outliers; k = 3 showed
neither. At n=18-20 k = 4 or 5 would save up to a third of the mixer.

Training is layerwise: angles of layers 1..k-1 stay frozen (their state
is cached as a prefix), and (gamma_k, beta_k) is optimized by
Nelder-Mead. The search is ``_nelder_mead``, an in-package copy of
scipy's non-adaptive Nelder-Mead for two parameters, so that running
the package needs numpy only; the tests pin its angles, values and call
counts to scipy's. Layer 1 restarts from a small fixed grid plus (0, 0).
Every later layer runs one search, started from the previous layer's
trained angles: optimal QAOA angles change smoothly with depth (Zhou et
al., arXiv:1812.01041), so the grid restarts there mostly repeat work.
The zero pair is also evaluated directly in every layer; since
gamma=beta=0 is an exact no-op, the best expectation can never get
worse as depth grows.
Layer 1 needs no statevector: at depth 1, <Z_u> and <Z_u Z_v> have
closed forms local to the neighbourhoods of u and v (Ozaeta, van Dam
and McMahon, arXiv:2012.03421), so ``depth1_objective`` evaluates <H>
in O(n+m) instead of O(2^n). Layers 2 and up evaluate one phase and
one mixer pass on the prefix state. Each layer's recorded expectation
is that of the statevector after the trained layer, whichever objective
trained it. Training returns that final prefix state with the angles,
and it is the state a pipeline run samples and summarizes, so the
trained circuit is evolved once per run.

Expectations use elementwise multiply plus np.sum (never a BLAS dot),
keeping values bit-identical across thread counts. Sampling inverts the
cumulative distribution of the probability vector with a counter-based
Philox generator; callers compute ``probabilities(state)`` once and hand
the same vector to sampling and to the exact summary.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import inf, isnan, nan

import numpy as np

from .errors import CapacityError, DomainError, TrainingError
from .model import IsingModel, bitstring_of_index

MAX_QUBITS = 25

# qubits per mixer pass; see the module docstring for why 3
MIXER_BLOCK = 3

# Restart grid for the layer-1 search, covering the gamma period [0, pi)
# and the beta period [0, pi/2) at their quarter points. Later layers
# start from the previous layer's angles instead.
FIXED_STARTS = (
    (np.pi / 4, np.pi / 8),
    (np.pi / 4, 3 * np.pi / 8),
    (3 * np.pi / 4, np.pi / 8),
    (3 * np.pi / 4, 3 * np.pi / 8),
)

# objective evaluations allowed to each Nelder-Mead run, and its
# stopping tolerances on the simplex's spread in angles and in values
MAXFEV = 40
XATOL = 1e-6
FATOL = 1e-12


@dataclass(frozen=True)
class AngleSchedule:
    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        if len(self.gammas) != len(self.betas):
            raise DomainError("schedule needs one beta per gamma")

    @property
    def p(self) -> int:
        return len(self.gammas)

    def truncated(self, depth: int) -> "AngleSchedule":
        return AngleSchedule(self.gammas[:depth], self.betas[:depth])

    def to_json_dict(self) -> dict:
        return {"p": self.p, "gammas": list(self.gammas), "betas": list(self.betas)}


@dataclass(frozen=True)
class LayerRecord:
    layer: int
    gamma: float
    beta: float
    expectation: float
    n_evals: int


@dataclass(frozen=True)
class TrainLog:
    layers: tuple[LayerRecord, ...]

    @property
    def expectations(self) -> tuple[float, ...]:
        return tuple(rec.expectation for rec in self.layers)

    @property
    def total_evals(self) -> int:
        return sum(rec.n_evals for rec in self.layers)

    def to_json_dict(self) -> dict:
        return {
            "layers": [asdict(rec) for rec in self.layers],
            "total_evals": self.total_evals,
        }


def check_width(n: int, max_qubits: int) -> None:
    if n > max_qubits:
        raise CapacityError(
            f"statevector needs {n} qubits, above the limit of {max_qubits}"
        )


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def uniform_state(n: int) -> np.ndarray:
    state = np.empty(1 << n, dtype=np.complex128)
    state.fill(1.0 / np.sqrt(1 << n))
    return state


def apply_phase(state: np.ndarray, ising: IsingModel, gamma: float) -> np.ndarray:
    """Diagonal cost layer of ``ising``; returns a new array."""
    if gamma == 0.0:
        return state.copy()
    lo, hi, levels = ising.phase_levels()
    # state first and into a new array: numpy's complex multiply rounds
    # differently with the operands swapped or written in place
    return state * np.exp(-1j * gamma * np.arange(lo, hi + 1.0)).take(levels)


def _block_picks(k: int) -> np.ndarray:
    """(k, 2^k, 2^k) array: entry [j, r, q] is the entry of the flattened
    2x2 RX that bit j of row r and column q selects, 2*r_j + q_j."""
    idx = np.arange(1 << k)
    bit = np.arange(k)[:, None, None]
    picks = 2 * (idx[:, None] >> bit & 1) + (idx[None, :] >> bit & 1)
    picks.flags.writeable = False
    return picks


# indexed by k, for every block width a mixer pass uses
_BLOCK_PICKS = tuple(_block_picks(k) for k in range(MIXER_BLOCK + 1))


def _rx_power(c: float, s: float, k: int) -> np.ndarray:
    """RX(2*beta) on each of k <= MIXER_BLOCK qubits, as one 2^k x 2^k matrix.

    Entry (r, q) is the product over bits j of RX[r_j, q_j], multiplied
    from bit 0 up with each new factor on the left, which is the order
    and operand order of k-1 nested np.kron(rx, gate) calls, so the
    bytes are the same.
    """
    picks = _BLOCK_PICKS[k]
    rx = np.array([[c, -1j * s], [-1j * s, c]]).ravel()
    gate = rx[picks[0]]
    for j in range(1, k):
        gate = rx[picks[j]] * gate
    return gate


def apply_mixer(state: np.ndarray, n: int, beta: float) -> np.ndarray:
    """RX(2*beta) on every qubit, in place, MIXER_BLOCK qubits per pass."""
    if state.shape != (1 << n,):
        # the passes rotate the index by n bits, so n must be the whole state
        raise DomainError(f"mixer needs a state of 2^{n} amplitudes, got {state.shape}")
    c = np.cos(beta)
    s = np.sin(beta)
    if s == 0.0 and c == 1.0:
        return state
    block = _rx_power(c, s, MIXER_BLOCK)
    src, dst = state, np.empty_like(state)
    for q in range(0, n, MIXER_BLOCK):
        k = min(MIXER_BLOCK, n - q)
        gate = block if k == MIXER_BLOCK else _rx_power(c, s, k)
        np.matmul(gate, src.reshape(-1, 1 << k).T, out=dst.reshape(1 << k, -1))
        src, dst = dst, src
    if src is not state:
        np.copyto(state, src)
    return state


def evolve(ising: IsingModel, schedule: AngleSchedule,
           max_qubits: int = MAX_QUBITS) -> np.ndarray:
    """Statevector after the full alternating sequence, from |+...+>."""
    n = ising.n
    check_width(n, max_qubits)
    state = uniform_state(n)
    for gamma, beta in zip(schedule.gammas, schedule.betas):
        state = apply_phase(state, ising, gamma)
        apply_mixer(state, n, beta)
    return state


def probabilities(state: np.ndarray) -> np.ndarray:
    return state.real ** 2 + state.imag ** 2


def expectation(state: np.ndarray, energies: np.ndarray) -> float:
    """<H> via elementwise product and pairwise sum (thread-count stable)."""
    return float(np.sum(probabilities(state) * energies))


def expectation_value(ising: IsingModel, schedule: AngleSchedule,
                      max_qubits: int = MAX_QUBITS) -> float:
    """<H> of the evolved state; at p=0 this is exactly the offset."""
    return expectation(evolve(ising, schedule, max_qubits), ising.energies_vector())


@dataclass(frozen=True, eq=False)
class SampleDistribution:
    """Measurement counts over basis states, sparse over observed indices."""

    vertex_order: tuple[int, ...]
    shots: int
    seed: int
    indices: np.ndarray  # sorted unique basis-state indices, int64
    counts: np.ndarray  # matching positive counts, int64

    def to_json_dict(self) -> dict:
        n = len(self.vertex_order)
        return {
            "shots": self.shots,
            "seed": self.seed,
            "counts": {bitstring_of_index(int(i), n): int(c)
                       for i, c in zip(self.indices, self.counts)},
        }


def check_probabilities(probs: np.ndarray) -> None:
    """Reject a complex array where a probability vector belongs."""
    if np.iscomplexobj(probs):
        raise DomainError("expected probabilities, got a complex state; "
                          "pass probabilities(state)")


def sample_state(probs: np.ndarray, vertex_order: tuple[int, ...], shots: int,
                 seed: int) -> SampleDistribution:
    """Draw measurement outcomes from the probability vector ``probs`` of
    a state by inverting its cumulative distribution."""
    check_probabilities(probs)
    if shots <= 0:
        raise DomainError("shots must be positive")
    cdf = np.cumsum(probs)
    draws = _rng(seed).random(shots)
    # sorted draws map to the same indices, but the searches walk the
    # cdf in order instead of missing cache at random
    draws.sort()
    picks = np.searchsorted(cdf, draws, side="right")
    np.clip(picks, 0, len(cdf) - 1, out=picks)
    # the picks are sorted, so each distinct index is one run of equal picks
    starts = np.flatnonzero(np.diff(picks)) + 1
    bounds = np.concatenate(([0], starts, [shots]))
    return SampleDistribution(
        vertex_order=vertex_order,
        shots=shots,
        seed=seed,
        indices=picks[bounds[:-1]].astype(np.int64),
        counts=np.diff(bounds).astype(np.int64),
    )


def sample(ising: IsingModel, schedule: AngleSchedule, shots: int, seed: int,
           max_qubits: int = MAX_QUBITS) -> SampleDistribution:
    probs = probabilities(evolve(ising, schedule, max_qubits))
    return sample_state(probs, ising.vertex_order, shots, seed)


def depth1_objective(ising: IsingModel):
    """<H> after one QAOA layer in closed form, as ``(gamma, beta) -> float``.

    With the phase exp(-i*g*H), the mixer RX(2*b) and bit 1 read as
    z = -1, a model H = offset + sum_u h_u z_u + 1/4 sum_uv z_u z_v has,
    for c = cos(g/2), d_u the degree of u and t_uv the number of common
    neighbours of u and v,

        <Z_u> = sin(2b) sin(2g h_u) c^d_u
        <Z_u Z_v> = 1/2 sin(4b) sin(g/2) [cos(2g h_u) c^(d_u-1)
                                          + cos(2g h_v) c^(d_v-1)]
                    - 1/2 sin(2b)^2 c^(d_u+d_v-2-2t_uv)
                      [cos(2g(h_u+h_v)) cos(g)^t_uv - cos(2g(h_u-h_v))]

    The degrees, fields, edge endpoints and common-neighbour counts are
    computed here once, so each call is O(n+m). Every coupling must be
    1/4, as ``build_ising`` makes them; any other raises DomainError.
    """
    other = sorted({c for c in ising.j4.values() if c != 1})
    if other:
        raise DomainError(f"closed-form depth 1 needs every 4*J_uv = 1, got {other}")
    pos = {v: j for j, v in enumerate(ising.vertex_order)}
    nbrs: list[set[int]] = [set() for _ in range(ising.n)]
    for u, v in ising.j4:
        nbrs[pos[u]].add(pos[v])
        nbrs[pos[v]].add(pos[u])
    degree = np.array([len(nb) for nb in nbrs], dtype=np.int64)
    field = np.array([ising.h4[v] for v in ising.vertex_order], dtype=np.float64) / 4.0
    a = np.array([pos[u] for u, _ in ising.j4], dtype=np.intp)
    b = np.array([pos[v] for _, v in ising.j4], dtype=np.intp)
    common = np.array([len(nbrs[i] & nbrs[j]) for i, j in zip(a, b)], dtype=np.int64)
    # neighbours of each endpoint besides the other endpoint, and the
    # neighbours of exactly one endpoint
    rest_a, rest_b = degree[a] - 1, degree[b] - 1
    one_side = rest_a + rest_b - 2 * common
    h_sum, h_diff = field[a] + field[b], field[a] - field[b]
    offset = ising.offset

    def value(gamma: float, beta: float) -> float:
        c = np.cos(gamma / 2)
        z = np.sin(2 * beta) * np.sin(2 * gamma * field) * c ** degree
        cos_field = np.cos(2 * gamma * field)
        zz = (0.5 * np.sin(4 * beta) * np.sin(gamma / 2)
              * (cos_field[a] * c ** rest_a + cos_field[b] * c ** rest_b)
              - 0.5 * np.sin(2 * beta) ** 2 * c ** one_side
              * (np.cos(2 * gamma * h_sum) * np.cos(gamma) ** common
                 - np.cos(2 * gamma * h_diff)))
        return float(offset + np.sum(field * z) + 0.25 * np.sum(zz))

    return value


class _BudgetSpent(Exception):
    """An objective call attempted after ``maxfev`` calls."""


def _sort_simplex(sim: list, fsim: list[float]) -> tuple[list, list[float]]:
    """Vertices and values in ascending order of value, ties kept and NaN
    last, which is the order ``np.argsort`` gives three values."""
    order = sorted(range(3), key=lambda i: (True, 0.0) if isnan(fsim[i]) else (False, fsim[i]))
    return [sim[i] for i in order], [fsim[i] for i in order]


def _nelder_mead(objective, start: tuple[float, float], maxfev: int,
                 ) -> tuple[tuple[float, float], float, int]:
    """Minimize ``objective(gamma, beta)`` from ``start``; returns (x, fun, nfev).

    Nelder and Mead (Comput. J. 1965) as scipy 1.17's
    ``_minimize_neldermead`` runs it non-adaptive and unbounded, with
    ``maxfev``, ``XATOL`` and ``FATOL`` set, copied step for step so that
    every result has the same bits; tests compare the two. As there, a
    call attempted once ``maxfev`` calls are spent ends the iteration it
    falls in, so a shrink can leave a vertex moved with its old value,
    and ``fun`` is NaN if any simplex value is.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nfev = 0

    def call(x: tuple[float, float]) -> float:
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return float(objective(*x))

    sim = [start]
    for k in range(2):
        y = list(start)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append((y[0], y[1]))
    fsim = [inf, inf, inf]
    try:
        for k in range(3):
            fsim[k] = call(sim[k])
    except _BudgetSpent:
        pass
    sim, fsim = _sort_simplex(sim, fsim)
    while nfev < maxfev:
        try:
            best = sim[0]
            if (all(abs(v[i] - best[i]) <= XATOL for v in sim[1:] for i in (0, 1))
                    and all(abs(fsim[0] - f) <= FATOL for f in fsim[1:])):
                break
            worst = sim[-1]
            xbar = tuple((best[i] + sim[1][i]) / 2 for i in (0, 1))
            xr = tuple((1 + rho) * xbar[i] - rho * worst[i] for i in (0, 1))
            fxr = call(xr)
            if fxr < fsim[0]:
                xe = tuple((1 + rho * chi) * xbar[i] - rho * chi * worst[i] for i in (0, 1))
                fxe = call(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = tuple((1 + psi * rho) * xbar[i] - psi * rho * worst[i] for i in (0, 1))
                    fxc = call(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:  # inside contraction
                    xcc = tuple((1 - psi) * xbar[i] + psi * worst[i] for i in (0, 1))
                    fxcc = call(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in (1, 2):
                        sim[j] = tuple(best[i] + sigma * (sim[j][i] - best[i]) for i in (0, 1))
                        fsim[j] = call(sim[j])
        except _BudgetSpent:
            pass
        sim, fsim = _sort_simplex(sim, fsim)
    fun = nan if any(isnan(f) for f in fsim) else min(fsim)
    return sim[0], fun, nfev


def train_layerwise(ising: IsingModel, p: int, *, max_qubits: int = MAX_QUBITS,
                    ) -> tuple[AngleSchedule, TrainLog, np.ndarray]:
    """Greedy depth-by-depth angle optimization with a no-op fallback.

    Layer 1 is trained on the closed form of ``depth1_objective``, with
    one Nelder-Mead run from (0, 0) and one from each of ``FIXED_STARTS``.
    Layer k >= 2 runs one Nelder-Mead search started from the trained
    angles of layer k-1. It sees the frozen prefix state of layers
    1..k-1, so each of its objective calls costs one phase and one mixer
    pass regardless of k. ``MAXFEV`` bounds the evaluations of each run.
    Returns the schedule, the log and the state after all p trained
    layers (the uniform state when p is 0), which has the same bytes as
    ``evolve`` on the returned schedule.
    """
    if p < 0:
        raise DomainError("depth must be non-negative")
    n = ising.n
    check_width(n, max_qubits)
    energies = ising.energies_vector()
    prefix = uniform_state(n)
    gammas: list[float] = []
    betas: list[float] = []
    records: list[LayerRecord] = []

    def layer_value(gamma: float, beta: float) -> float:
        state = apply_phase(prefix, ising, gamma)
        apply_mixer(state, n, beta)
        return expectation(state, energies)

    for layer in range(1, p + 1):
        if layer == 1:
            objective, starts = depth1_objective(ising), ((0.0, 0.0),) + FIXED_STARTS
        else:
            objective, starts = layer_value, ((gammas[-1], betas[-1]),)
        evals = 1
        candidates = [((0.0, 0.0), objective(0.0, 0.0))]
        for start in starts:
            x, fun, nfev = _nelder_mead(objective, start, MAXFEV)
            evals += nfev
            candidates.append((x, fun))
        (gamma, beta), value = min(candidates, key=lambda c: c[1])
        if not np.isfinite(value):
            raise TrainingError(f"layer {layer} expectation is not finite")
        prefix = apply_phase(prefix, ising, gamma)
        apply_mixer(prefix, n, beta)
        gammas.append(gamma)
        betas.append(beta)
        records.append(LayerRecord(layer, gamma, beta, expectation(prefix, energies), evals))
    return AngleSchedule(tuple(gammas), tuple(betas)), TrainLog(tuple(records)), prefix
