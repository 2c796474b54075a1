"""Exact statevector simulation of QAOA on the profit Hamiltonian.

States are dense complex128 arrays indexed so that bit j of the array
index is ``vertex_order[j]``.

The cost layer is diagonal, so each basis amplitude picks up the phase
exp(-i*gamma*E). Profit energies are the integers of the model's int32
energy vector, all in [-m, n], so the phase is one small table: entries
exp(-i*gamma*E) for E = 0..n, then for E = -m..-1, gathered with
``take(..., mode="wrap")`` so that a negative energy -k reads the k-th
entry from the end. ``apply_phase`` takes the model, not an energy
array. The table entries equal exp(-i*gamma*E) bit for bit, and every
slice is multiplied with the state as the first operand, so the result
has the bytes of ``np.multiply(state, factors)`` for the named array
``factors = exp(-1j*gamma*E)`` on every platform. (Complex multiply
rounds differently with its operands swapped, which numpy's temporary
elision may do to the one expression ``state * exp(...)``.)

The mixer applies RX(2*beta) to every qubit. It works on blocks of
``MIXER_BLOCK`` qubits: viewing the state as a (2^n/2^k, 2^k) matrix
whose columns are the k lowest qubits, one complex matmul by
RX(2*beta)^{(x)k} applies the block, and writing the (2^k, 2^n/2^k)
product row-major moves those k qubits to the top of the index. After
ceil(n/k) passes every qubit has moved by n places in total and is back
where it started, so the mixer reads and writes the state ceil(n/k)
times instead of n times, and each pass is one BLAS call. Two buffers
take turns as input and output, and the mixer returns the one its last
pass wrote: the caller's array when ceil(n/k) is even, the second
buffer when it is odd, so the result is never copied back.
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
counts to scipy's. It is a generator: it yields each point it needs
and is sent the value there, and ``_lockstep`` advances a list of runs
together, gathering the pending point of every live run into one call
of a batched objective. Layer 1 restarts from a small fixed grid plus
(0, 0), five runs in lockstep, so its points (at most 200) take at
most 40 calls, one per step, instead of one each.
Every later layer runs one search, started from the previous layer's
trained angles: optimal QAOA angles change smoothly with depth (Zhou et
al., arXiv:1812.01041), so the grid restarts there mostly repeat work.
The zero pair is also a candidate in every layer, and it is not
evaluated: gamma=beta=0 is an exact no-op, so its value is the
expectation before the layer, which training already holds. At layer 1
that is the model's offset, which the closed form at (0, 0) gives bit
for bit because each of its other terms carries a factor sin 0; at a
later layer it is the previous layer's recorded expectation, which an
evaluation at (0, 0) gives bit for bit because the phase copies the
prefix, the mixer leaves it alone and ``expectation`` has the bits of
``weighted_sum``. So the best expectation can never get worse as depth
grows.
Layer 1 needs no statevector: at depth 1, <Z_u> and <Z_u Z_v> have
closed forms local to the neighbourhoods of u and v (Ozaeta, van Dam
and McMahon, arXiv:2012.03421), so ``depth1_objective`` evaluates <H>
in O(n+m) instead of O(2^n), for a batch of angle pairs in one pass of
a few dozen array operations; each value has the bits of the pair
evaluated alone on numpy scalars. Layers 2 and up evaluate one phase
and one mixer pass on the prefix state. After each trained layer, whichever
objective trained it, training squares the state once, records the
layer's expectation from that probability vector and hands the vector
to an optional ``each_layer(layer, probs)`` callback (which is how
``metrics.depth_sweep`` reads every depth) before dropping it. The last
layer's vector is returned with the angles; a pipeline run samples and
summarizes it, so the trained circuit is evolved once per run.

Expectations use elementwise multiply plus np.sum (never a BLAS dot),
keeping values bit-identical across thread counts. ``weighted_sum``
gives the same bits as ``np.sum(probs * values)`` on a full 2^n vector
without the product of half a state: numpy sums a contiguous array by
halving it, so on a power-of-two length the sums of ``CHUNK`` slices,
added in pairs, are the nodes of the same tree. Sampling inverts the
cumulative distribution of the probability vector with a counter-based
Philox generator, and the exact summary reads the same vector.

Memory is what limits the width of a run. In units of one state,
S = 16*2^n bytes, a pipeline run holds:

* all along: the model's int32 energy vector (S/4);
* in training: the prefix state, and through a layer >= 2 search the
  phased state and one work buffer, allocated once per layer and freed
  before the trained layer is applied. The work buffer holds the
  phase's table indices and then serves as the mixer's second buffer;
  whichever of the two buffers the mixer did not finish in holds the
  expectation's probabilities (its first S/2), so an evaluation
  allocates nothing of the state's size; about 3.25 S at the peak. A
  depth-1 run evolves one layer on the uniform state, about 2.4 S;
* after each layer: the state, its probabilities (S/2) and the
  callback's own, dropped before the next layer's evaluations;
* in the readout: the probabilities; the exact summary's negated
  energies (S/4), a boolean mask (S/16) at a time and the weights it
  selects for a mass (at most S/2, usually far less); then sampling's
  cumulative distribution (S/2) with 8 bytes per shot for the draws and
  as many for the picks, the draws and the cdf freed before the runs
  are counted.

``apply_phase``, ``probabilities`` and ``weighted_sum`` work through
their vectors in slices of ``CHUNK`` = 2^14 entries, so their
temporaries (the phase's integer indices, the squared imaginary parts,
the expectation's energies cast to float, the weighted slice) are
128 KiB at most instead of one to one and a half states; the phase
gathers its factors into its output. The
results are elementwise, so they do not depend on the slicing. On a
2-core machine with a 2 MiB L2 per core, slices of 2^14 kept the phase
as fast as the whole-array product at n=18-20 and made it about a
quarter faster at n=22; slices of 2^16, whose temporaries and operands
no longer fit in L2, made it 10-20 % slower at n=18-20.
``check_width`` refuses, before any state exists, a run whose
``STATE_COPIES`` states exceed the machine's physical memory, and
``check_shots`` one whose sampling buffers do.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import asdict, dataclass
from math import inf, isnan, nan

import numpy as np

from .errors import CapacityError, DomainError, TrainingError
from .instances import _rng
from .model import IsingModel, bitstring_of_index

MAX_QUBITS = 25

# qubits per mixer pass; see the module docstring for why 3
MIXER_BLOCK = 3

# entries per slice of the elementwise passes (phase, probabilities,
# weighted sum): their temporaries are one slice, not one state; see the
# module docstring
CHUNK = 1 << 14

# state-sized buffers a run needs at its peak, for the memory pre-flight
# check; a depth-1 run peaks at about 2.4 states, a deeper one at 3.4
STATE_COPIES = 4

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


def physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def check_width(n: int, max_qubits: int) -> None:
    """Refuse a statevector run that is too wide or would not fit in memory."""
    if n > max_qubits:
        raise CapacityError(
            f"statevector needs {n} qubits, above the limit of {max_qubits}"
        )
    need = STATE_COPIES * 16 << n
    have = physical_memory()
    if have is not None and need > have:
        raise CapacityError(
            f"statevector of {n} qubits needs {need} bytes ({STATE_COPIES} states "
            f"of 16*2^{n} bytes), above the {have} bytes of physical memory"
        )


def check_shots(n: int, shots: int) -> None:
    """Refuse a shot count whose sampling buffers would not fit in memory:
    ``sample_state`` holds the sorted draws and their picks at once, 8
    bytes a shot each, beside the cdf of 8*2^n bytes."""
    need = 16 * shots + (8 << n)
    have = physical_memory()
    if have is not None and need > have:
        raise CapacityError(
            f"sampling {shots} shots needs {need} bytes (16 per shot and a cdf "
            f"of 8*2^{n} bytes), above the {have} bytes of physical memory"
        )


def _chunks(size: int):
    """Slices of ``CHUNK`` elements covering range(size)."""
    return (slice(i, i + CHUNK) for i in range(0, size, CHUNK))


def uniform_state(n: int) -> np.ndarray:
    state = np.empty(1 << n, dtype=np.complex128)
    state.fill(1.0 / np.sqrt(1 << n))
    return state


def apply_phase(state: np.ndarray, ising: IsingModel, gamma: float, *,
                out: np.ndarray | None = None, work: np.ndarray | None = None,
                ) -> np.ndarray:
    """Diagonal cost layer of ``ising``, written to ``out`` (by default a
    new array), which is returned.

    Each slice's phase factors are gathered into the output slice and the
    state is multiplied into them, so ``out`` must not overlap the state.
    ``work``, a complex array of the state's shape whose contents are not
    kept, holds the slice's table indices; without it they take a
    slice-sized array.
    """
    if out is None:
        out = np.empty_like(state)
    elif np.may_share_memory(out, state):
        raise DomainError("the phase cannot write over its input state")
    if gamma == 0.0:
        np.copyto(out, state)
        return out
    energies = ising.energies_vector()
    # energies lie in [-m, n]: E = 0..n index the table directly, and
    # mode="wrap" sends E = -m..-1 to the m entries after them
    table = np.exp(-1j * gamma * np.concatenate(
        (np.arange(ising.n + 1), np.arange(-len(ising.j4), 0))))
    index = (np.empty(min(state.size, CHUNK), dtype=np.intp) if work is None
             else work.view(np.intp))
    for s in _chunks(state.size):
        factors = out[s]
        picks = index[:factors.size]
        np.copyto(picks, energies[s])
        table.take(picks, mode="wrap", out=factors)
        np.multiply(state[s], factors, out=factors)
    return out


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


def apply_mixer(state: np.ndarray, n: int, beta: float, *,
                work: np.ndarray | None = None) -> np.ndarray:
    """RX(2*beta) on every qubit, MIXER_BLOCK qubits per pass; returns
    the mixed state, which callers must use in place of ``state``.

    ``work``, an array like the state whose contents are not kept, is the
    second buffer; by default one is allocated. The passes alternate
    between the two, and the result is the buffer the last one wrote:
    ``state`` when the number of passes, ceil(n / MIXER_BLOCK), is even
    (or beta is a no-op), the second buffer when it is odd, in which
    case ``state``'s contents are not kept.
    """
    if state.shape != (1 << n,):
        # the passes rotate the index by n bits, so n must be the whole state
        raise DomainError(f"mixer needs a state of 2^{n} amplitudes, got {state.shape}")
    if work is not None and np.may_share_memory(work, state):
        raise DomainError("the mixer's second buffer overlaps the state")
    c = np.cos(beta)
    s = np.sin(beta)
    if s == 0.0 and c == 1.0:
        return state
    block = _rx_power(c, s, MIXER_BLOCK)
    src, dst = state, np.empty_like(state) if work is None else work
    for q in range(0, n, MIXER_BLOCK):
        k = min(MIXER_BLOCK, n - q)
        gate = block if k == MIXER_BLOCK else _rx_power(c, s, k)
        np.matmul(gate, src.reshape(-1, 1 << k).T, out=dst.reshape(1 << k, -1))
        src, dst = dst, src
    return src


def evolve(ising: IsingModel, schedule: AngleSchedule,
           max_qubits: int = MAX_QUBITS) -> np.ndarray:
    """Statevector after the full alternating sequence, from |+...+>."""
    n = ising.n
    check_width(n, max_qubits)
    state = uniform_state(n)
    for gamma, beta in zip(schedule.gammas, schedule.betas):
        state = apply_phase(state, ising, gamma)
        state = apply_mixer(state, n, beta)
    return state


def _float_buffers(size: int, work: np.ndarray | None = None,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """A float64 vector of ``size`` entries and a spare of at least one
    slice after it, in the bytes of ``work``, a complex array of ``size``
    entries, or of one new array."""
    floats = np.empty(size + min(size, CHUNK)) if work is None else work.view(np.float64)
    return floats[:size], floats[size:]


def _square(state: np.ndarray, probs: np.ndarray, spare: np.ndarray,
            weights: np.ndarray | None = None) -> np.ndarray:
    """Writes real^2 + imag^2 of ``state``, times ``weights`` if given,
    into ``probs`` and returns it. Each slice's imag^2, and its weights
    cast to float, go through ``spare``: numpy's mixed-type multiply
    would cast the int32 energies in a 64 KiB buffer of its own."""
    if not np.iscomplexobj(state):
        # squaring a probability vector again would otherwise pass silently
        raise DomainError("expected a complex state, got a real array; "
                          "train_layerwise returns probabilities already")
    # np.square has the bits of x ** 2
    np.square(state.real, out=probs)
    imag = state.imag
    for s in _chunks(state.size):
        chunk = probs[s]
        part = spare[:chunk.size]
        chunk += np.square(imag[s], out=part)
        if weights is not None:
            np.copyto(part, weights[s])
            chunk *= part
    return probs


def probabilities(state: np.ndarray) -> np.ndarray:
    """|amplitude|^2 of every basis state, as real^2 + imag^2."""
    return _square(state, *_float_buffers(state.size))


def expectation(state: np.ndarray, energies: np.ndarray, *,
                work: np.ndarray | None = None) -> float:
    """<H> via elementwise product and pairwise sum (thread-count stable).

    The product overwrites the probability vector, so it needs no
    temporary of half a state. With ``work``, a complex array of the
    state's shape whose contents are not kept, the probabilities and
    their spare slice are its bytes and nothing is allocated.
    """
    probs = _square(state, *_float_buffers(state.size, work), energies)
    return float(probs.sum())


def weighted_sum(probs: np.ndarray, values: np.ndarray) -> float:
    """``np.sum(probs * values)`` in bits, for a full vector of 2^n entries.

    Each ``CHUNK`` slice is multiplied into one slice-sized buffer and
    summed; the slice sums are then added in pairs, which is the top of
    numpy's pairwise tree only when the length is a power of two.
    """
    size = probs.size
    if size < 1 or size & (size - 1) or values.shape != probs.shape:
        raise DomainError(f"weighted_sum needs two vectors of 2^n entries, got "
                          f"shapes {probs.shape} and {values.shape}")
    # a power of two is one short slice or a whole number of slices
    buf = np.empty(min(size, CHUNK))
    parts = np.array([np.sum(np.multiply(probs[s], values[s], out=buf))
                      for s in _chunks(size)])
    while parts.size > 1:
        parts = parts[0::2] + parts[1::2]
    return float(parts[0])


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
    del cdf, draws
    np.clip(picks, 0, probs.size - 1, out=picks)
    # the picks are sorted, so each distinct index is one run of equal picks
    first = np.empty(shots, dtype=bool)
    first[0] = True
    np.not_equal(picks[1:], picks[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.empty(starts.size, dtype=np.int64)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = shots - starts[-1]
    return SampleDistribution(
        vertex_order=vertex_order,
        shots=shots,
        seed=seed,
        indices=picks[starts].astype(np.int64, copy=False),
        counts=counts,
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
    # neighbours of a vertex besides one of them (the other endpoint of
    # an edge), and of exactly one endpoint of an edge
    rest = degree - 1
    one_side = rest[a] + rest[b] - 2 * common
    h_sum, h_diff = field[a] + field[b], field[a] - field[b]
    offset = ising.offset

    def value(gamma, beta):
        """One value per pair of ``gamma`` and ``beta``, arrays of one
        shape; a float for two scalars."""
        gamma_in = np.asarray(gamma, dtype=np.float64)
        # one row per pair, columns over vertices or edges; every entry is
        # the arithmetic of a one-pair call on numpy scalars, so the bits
        # do not depend on the batch
        g = gamma_in.reshape(-1, 1)
        t = np.asarray(beta, dtype=np.float64).reshape(-1, 1)
        half, two_g = g / 2, 2 * g
        c = np.cos(half)
        sin_2b = np.sin(2 * t)
        angle = two_g * field
        z = sin_2b * np.sin(angle) * c ** degree
        # cos(2g h_u) c^(d_u-1) per vertex, gathered at both endpoints
        side = np.cos(angle) * c ** rest
        # a scalar's ** 2 is C pow(), which a Python float's is too;
        # np.square and np.power round some values differently
        sin_2b_sq = np.array([[s ** 2] for s in sin_2b.ravel().tolist()])
        zz = (0.5 * np.sin(4 * t) * np.sin(half)
              * (side.take(a, axis=1) + side.take(b, axis=1))
              - 0.5 * sin_2b_sq * c ** one_side
              * (np.cos(two_g * h_sum) * np.cos(g) ** common
                 - np.cos(two_g * h_diff)))
        values = offset + (field * z).sum(axis=1) + 0.25 * zz.sum(axis=1)
        return float(values[0]) if gamma_in.ndim == 0 else values

    return value


class _BudgetSpent(Exception):
    """An objective call attempted after ``maxfev`` calls."""


def _sort_simplex(sim: list, fsim: list[float]) -> tuple[list, list[float]]:
    """Vertices and values in ascending order of value, ties kept and NaN
    last, which is the order ``np.argsort`` gives three values."""
    order = sorted(range(3), key=lambda i: (True, 0.0) if isnan(fsim[i]) else (False, fsim[i]))
    return [sim[i] for i in order], [fsim[i] for i in order]


def _nelder_mead(start: tuple[float, float], maxfev: int):
    """Minimize from ``start`` as a generator of steps: it yields each
    point (gamma, beta) it needs evaluated, is sent the objective's value
    there, and returns (x, fun, nfev); ``_lockstep`` drives it.

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

    def call(x: tuple[float, float]):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return float((yield x))

    sim = [start]
    for k in range(2):
        y = list(start)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append((y[0], y[1]))
    fsim = [inf, inf, inf]
    try:
        for k in range(3):
            fsim[k] = yield from call(sim[k])
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
            fxr = yield from call(xr)
            if fxr < fsim[0]:
                xe = tuple((1 + rho * chi) * xbar[i] - rho * chi * worst[i] for i in (0, 1))
                fxe = yield from call(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = tuple((1 + psi * rho) * xbar[i] - psi * rho * worst[i] for i in (0, 1))
                    fxc = yield from call(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:  # inside contraction
                    xcc = tuple((1 - psi) * xbar[i] + psi * worst[i] for i in (0, 1))
                    fxcc = yield from call(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in (1, 2):
                        sim[j] = tuple(best[i] + sigma * (sim[j][i] - best[i]) for i in (0, 1))
                        fsim[j] = yield from call(sim[j])
        except _BudgetSpent:
            pass
        sim, fsim = _sort_simplex(sim, fsim)
    fun = nan if any(isnan(f) for f in fsim) else min(fsim)
    return sim[0], fun, nfev


def _lockstep(objective, starts, maxfev: int) -> list[tuple[tuple[float, float], float, int]]:
    """(x, fun, nfev) of one ``_nelder_mead`` run from each start.

    The runs advance together: each step evaluates the pending point of
    every live run in one call ``objective(gammas, betas)``, on two
    float64 arrays, which returns one value per pair. A run that stops
    drops out; the others go on. The objective must give each pair the
    value it gives that pair alone, as ``depth1_objective`` does bit for
    bit, so that no run's result depends on the others.
    """
    runs = [_nelder_mead(start, maxfev) for start in starts]
    results: list = [None] * len(runs)
    pending: dict[int, tuple[float, float]] = {}

    def advance(i: int, value: float | None) -> None:
        try:
            pending[i] = runs[i].send(value)
        except StopIteration as stop:
            results[i] = stop.value
            pending.pop(i, None)

    for i in range(len(runs)):
        advance(i, None)
    while pending:
        live = list(pending)
        values = objective(np.array([pending[i][0] for i in live]),
                           np.array([pending[i][1] for i in live]))
        for i, value in zip(live, values):
            advance(i, value)
    return results


def _layer_objective(ising: IsingModel, prefix: np.ndarray, energies: np.ndarray):
    """<H> after one more layer on ``prefix``, as ``(gammas, betas) -> values``,
    one phase, mixer and expectation per pair.

    The phased state and one work buffer are allocated here once, so an
    evaluation allocates nothing of the state's size; they live as long
    as the returned function. The work buffer holds the phase's table
    indices and is then the mixer's second buffer; the mixer finishes in
    one of the two, and the other holds the probability vector.
    """
    n = ising.n
    phased = np.empty_like(prefix)
    work = np.empty_like(prefix)

    def values(gammas: np.ndarray, betas: np.ndarray) -> list[float]:
        out = []
        for gamma, beta in zip(gammas.tolist(), betas.tolist()):
            apply_phase(prefix, ising, gamma, out=phased, work=work)
            state = apply_mixer(phased, n, beta, work=work)
            spare = work if state is phased else phased
            out.append(expectation(state, energies, work=spare))
        return out

    return values


def train_layerwise(ising: IsingModel, p: int, *, max_qubits: int = MAX_QUBITS,
                    each_layer: Callable[[int, np.ndarray], None] | None = None,
                    ) -> tuple[AngleSchedule, TrainLog, np.ndarray]:
    """Greedy depth-by-depth angle optimization with a no-op fallback.

    Layer 1 is trained on the closed form of ``depth1_objective``, with
    one Nelder-Mead run from (0, 0) and one from each of ``FIXED_STARTS``;
    the five runs advance in lockstep, each step one batched call.
    Layer k >= 2 runs one Nelder-Mead search started from the trained
    angles of layer k-1. It sees the frozen prefix state of layers
    1..k-1, so each of its objective calls costs one phase and one mixer
    pass regardless of k. ``MAXFEV`` bounds the evaluations of each run.
    Every layer also weighs the no-op (0, 0), first so that it wins ties,
    at the expectation before the layer (the offset at layer 1, the
    previous record after it) without evaluating it; a layer's
    ``n_evals`` counts the points the objective evaluated, the searches'
    alone.
    Each layer's state is squared once; its expectation is read from
    that vector, which ``each_layer(layer, probs)``, if given, then sees.
    Returns the schedule, the log and the probability vector of the
    state after all p trained layers (when p is 0, the uniform
    distribution, filled in directly with no state built), which has the
    same bytes as ``probabilities(evolve(...))`` on the returned
    schedule. The state itself is freed on return.
    """
    if p < 0:
        raise DomainError("depth must be non-negative")
    n = ising.n
    check_width(n, max_qubits)
    energies = ising.energies_vector()
    prefix = uniform_state(n) if p else None
    gammas: list[float] = []
    betas: list[float] = []
    expectations: list[float] = []
    evals: list[int] = []
    for layer in range(1, p + 1):
        if layer == 1:
            objective, starts = depth1_objective(ising), ((0.0, 0.0),) + FIXED_STARTS
        else:
            objective = _layer_objective(ising, prefix, energies)
            starts = ((gammas[-1], betas[-1]),)
        runs = _lockstep(objective, starts, MAXFEV)
        del objective  # frees a layer's buffers before the layer is applied
        # gamma = beta = 0 is the identity, so the no-op keeps the value
        # before this layer; listed first, it wins every tie
        noop = expectations[-1] if expectations else ising.offset
        candidates = [((0.0, 0.0), noop)] + [(x, fun) for x, fun, _ in runs]
        (gamma, beta), value = min(candidates, key=lambda c: c[1])
        if not np.isfinite(value):
            raise TrainingError(f"layer {layer} expectation is not finite")
        prefix = apply_phase(prefix, ising, gamma)
        prefix = apply_mixer(prefix, n, beta)
        gammas.append(gamma)
        betas.append(beta)
        evals.append(sum(nfev for _, _, nfev in runs))
        probs = probabilities(prefix)
        expectations.append(weighted_sum(probs, energies))
        if each_layer is not None:
            each_layer(layer, probs)
        if layer < p:  # not held through the next layer's evaluations
            del probs
    if not p:  # the bytes of probabilities(uniform_state(n)), with no state built
        r = 1.0 / np.sqrt(1 << n)
        probs = np.full(1 << n, r * r)
    records = tuple(LayerRecord(layer, *row)
                    for layer, row in enumerate(zip(gammas, betas, expectations, evals), 1))
    return AngleSchedule(tuple(gammas), tuple(betas)), TrainLog(records), probs
