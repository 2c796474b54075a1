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
take turns as input and output (see ``apply_mixer``). The block itself
is built by indexing, not by np.kron: entry (r, q) of
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
The zero pair is also a candidate in every layer, not evaluated:
gamma=beta=0 is an exact no-op, so its value is the expectation before
the layer (the offset at layer 1), which an evaluation at (0, 0) would
give bit for bit. So the best expectation never gets worse with depth.
Layer 1 needs no statevector: at depth 1, <Z_u> and <Z_u Z_v> have
closed forms local to the neighbourhoods of u and v (Ozaeta, van Dam
and McMahon, arXiv:2012.03421), so ``depth1_objective`` evaluates <H>
in O(n+m) instead of O(2^n), for a batch of angle pairs in one pass of
a few dozen array operations; each value has the bits of the pair
evaluated alone on numpy scalars. Layers 2 and up evaluate one phase
and one mixer pass on the prefix state, through the buffers and step
lists of views that ``_layer_objective`` builds once per layer;
``apply_phase``, ``apply_mixer`` and ``expectation`` run the same step
lists, so there is one implementation of each. Layer 1 of every run and
of ``evolve`` phases the uniform state without building it
(``_phase_steps``). Each trained layer's state is squared once, for
training and ``each_layer`` to read (``train_layerwise``), and a
pipeline run samples and summarizes the last layer's vector.

Expectations use elementwise multiply plus np.sum (never a BLAS dot),
keeping values bit-identical across thread counts. ``weighted_sum`` and
``expectation`` sum each ``CHUNK`` slice's products and add the sums in
pairs (``_tree_sum``): numpy sums a contiguous array by halving it, so
on a power-of-two length these are the nodes of the same tree as
``np.sum(probs * values)``. ``expectation`` squares each slice of the
state as it goes (Häner and Steiger, arXiv:1704.01127) and writes no
probability vector. Sampling inverts the cumulative distribution of the
probability vector with a counter-based Philox generator and counts the
sorted picks a block at a time into uint32 arrays of one entry a run
(``count_runs``); the exact summary reads the same vector.

Memory is what limits the width of a run. ``peak_bytes`` gives the
bytes a run holds at its peak, buffer by buffer, and ``check_memory``
refuses, before any state exists, a run whose peak would not fit in
the machine's physical memory.

The simulator works through its vectors in slices of ``CHUNK`` = 2^14
entries, so its temporaries (the phase's integer indices, the squared
parts, the energies cast to float, the weighted slice) are 128 KiB at
most instead of one to one and a half states, and the results, being
elementwise, do not depend on the slicing. The states a caller passes
in are checked; the buffers written are the simulator's own. On a
2-core machine with a 2 MiB L2 per core, slices of 2^14 kept the phase
as fast as the whole-array product at n=18-20 and made it about a
quarter faster at n=22; slices of 2^16, whose temporaries and operands
no longer fit in L2, made it 10-20 % slower at n=18-20.
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

# sorted draws that ``invert_cdf`` searches at a time, in the slice of the
# cdf they span
SAMPLE_BLOCK = 1 << 12

# sorted picks that ``count_runs`` compares at a time
COUNT_BLOCK = 1 << 15

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


def peak_bytes(n: int, depth: int, shots: int = 0) -> int:
    """Bytes that a run on ``n`` qubits holds at its peak: training to
    ``depth`` layers, then the readout of ``shots`` draws.

    With S = 16*2^n bytes for a state, a run holds the model's int32
    energies (S/4) all along, and beside them the larger of two peaks.

    Training holds nothing of the state's size at depth 0. From layer 1
    on it holds the prefix state and the phased state with a slice of
    table indices, then after each layer the prefix beside the layer's
    probability vector (S/2 and a spare slice) and whatever reads that
    vector: the weighted sum's buffers, or the exact summary of
    ``each_layer``. Through a layer >= 2 search it holds the prefix, the
    phased state and the mixer's second buffer, 3 S; the phase's table
    indices and the expectation's slices take the bytes of whichever of
    the last two is free.

    The readout is the largest of four steps:

    * the exact summary: the probability vector with a boolean mask
      (S/16) and the weights a mass selects, counted as all of them
      (S/2), or with the weighted sum's slice and numpy's buffer for
      casting the energies;
    * inverting the cdf, which is the probability vector itself, for 8
      bytes a draw and the picks of one ``SAMPLE_BLOCK``;
    * counting, once the cdf is freed: the picks written over the draws,
      the indices and starts of r = min(shots, 2^n) runs at most, in
      ``run_dtype`` (4 bytes each below 2^32), and a block's one-byte
      mask with the int64 offsets of its run starts;
    * the sampled summary: the r indices and counts, the r energies and
      weights (20 bytes a run in uint32), with a one-byte mask a run, or
      numpy's cast buffer for the weighted mean. Its masses' selected weights
      are not counted: on a spread distribution, near shots = 2^n, r
      overcounts the runs by more than they take, and elsewhere another
      step is larger. Nor are the indices of runs tied on the best or
      likeliest outcome, which are few unless every draw is distinct,
      as it is only for shots far below 2^n.

    Building the energies (S/4, and 9 S/32 of temporaries) stays below
    the readout's first step.
    """
    size = 1 << n
    state = 16 * size
    chunk = 8 * min(size, CHUNK)
    # training's vector has a spare slice (probabilities); depth 0's has none
    probs = state // 2 + (chunk if depth else 0)
    exact = probs + max(size + state // 2, chunk + 8 * min(size, np.getbufsize()))
    train = max(2 * state + chunk, state + exact, 3 * state if depth > 1 else 0) if depth else 0
    runs = min(shots, size)
    run = 2 * run_dtype(size - 1, shots).itemsize
    readout = max(exact,
                  probs + 8 * shots + 8 * min(shots, SAMPLE_BLOCK),
                  8 * shots + run * runs + min(shots, COUNT_BLOCK) + 8 * min(runs, COUNT_BLOCK),
                  (run + 12) * runs + max(runs, 8 * min(runs, np.getbufsize())))
    return state // 4 + max(train, readout)


def check_memory(n: int, max_qubits: int, depth: int, shots: int = 0) -> None:
    """Refuse a statevector run that is too wide, or whose ``peak_bytes``
    exceed the machine's physical memory; an unknown figure checks
    nothing."""
    if n > max_qubits:
        raise CapacityError(f"statevector needs {n} qubits, above the limit of {max_qubits}")
    need = peak_bytes(n, depth, shots)
    have = physical_memory()
    if have is not None and need > have:
        raise CapacityError(f"a run of {n} qubits at depth {depth} with {shots} shots needs "
                            f"{need} bytes at its peak, above the {have} bytes of physical memory")


def _chunks(size: int):
    """Slices of ``CHUNK`` elements covering range(size)."""
    return (slice(i, i + CHUNK) for i in range(0, size, CHUNK))


def _check_state(state, size: int, what: str) -> None:
    """Refuse ``state`` unless it is a contiguous complex128 vector of
    ``size`` amplitudes, which is what the step lists' views assume."""
    if not (isinstance(state, np.ndarray) and state.dtype == np.complex128
            and state.shape == (size,) and state.flags.c_contiguous):
        got = (f"a {state.dtype} array of shape {state.shape}"
               if isinstance(state, np.ndarray) else type(state).__name__)
        raise DomainError(f"{what} must be a contiguous complex state of {size} "
                          f"amplitudes, got {got}")


def uniform_state(n: int) -> np.ndarray:
    state = np.empty(1 << n, dtype=np.complex128)
    state.fill(1.0 / np.sqrt(1 << n))
    return state


def _phase_steps(state: np.ndarray | None, ising: IsingModel, out: np.ndarray,
                 scratch: np.ndarray | None = None) -> Callable[[float], None]:
    """The cost layer of ``ising`` from ``state`` into ``out``, a new
    complex vector of 2^n amplitudes, as a function of gamma.

    The state is checked here, and the table's levels, the table indices'
    slice (in the bytes of ``scratch``, an array of at least one slice
    that no call needs kept, or in a new array) and each ``CHUNK``
    slice's views (input, output, energies) are built once, so a call
    runs only the arithmetic. ``state`` None stands for the uniform
    state: the factors are gathered alone and their float64 view
    multiplied by r = 2^(-n/2), which has the bytes of the phase of
    ``uniform_state(n)`` because r + 0j times a factor rounds to r*re,
    r*im.
    """
    size = 1 << ising.n
    if state is not None:
        _check_state(state, size, "the phase's input")
    chunk = min(size, CHUNK)
    picks = np.empty(chunk, dtype=np.intp) if scratch is None else scratch.view(np.intp)[:chunk]
    energies = ising.energies_vector()
    # energies lie in [-m, n]: E = 0..n index the table directly, and
    # mode="wrap" sends E = -m..-1 to the m entries after them
    levels = np.concatenate((np.arange(ising.n + 1), np.arange(-ising.graph.m, 0)))
    steps = [(None if state is None else state[s], out[s], energies[s])
             for s in _chunks(size)]
    r = 1.0 / np.sqrt(size)
    floats = out.view(np.float64)

    def phase(gamma: float) -> None:
        if gamma == 0.0:
            if state is None:
                out.fill(r)
            else:
                np.copyto(out, state)
            return
        table = np.exp(-1j * gamma * levels)
        for src, dst, energy in steps:
            np.copyto(picks, energy)
            table.take(picks, mode="wrap", out=dst)
            if src is not None:
                np.multiply(src, dst, out=dst)
        if state is None:
            np.multiply(floats, r, out=floats)

    return phase


def apply_phase(state: np.ndarray, ising: IsingModel, gamma: float) -> np.ndarray:
    """Diagonal cost layer of ``ising``, as a new state.

    Each slice's phase factors are gathered into the new state's slice
    and the state is multiplied into them; the table indices take a
    slice-sized array.
    """
    out = np.empty(1 << ising.n, dtype=np.complex128)
    _phase_steps(state, ising, out)(gamma)
    return out


def _uniform_phased(ising: IsingModel, gamma: float) -> np.ndarray:
    """``apply_phase(uniform_state(n), ising, gamma)`` in bytes, with no
    uniform state built: the first layer of every run."""
    out = np.empty(1 << ising.n, dtype=np.complex128)
    _phase_steps(None, ising, out)(gamma)
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
    # the flattened 2x2 RX, indexed as 2*r_j + q_j
    rx = np.array((c, -1j * s, -1j * s, c))
    gate = rx[picks[0]]
    for j in range(1, k):
        gate = rx[picks[j]] * gate
    return gate


def _rotation(beta: float) -> tuple[float, float] | None:
    """(cos beta, sin beta), or None where RX(2*beta) is the identity to the bit."""
    c, s = np.cos(beta), np.sin(beta)
    return None if s == 0.0 and c == 1.0 else (c, s)


def _mixer_steps(state: np.ndarray, n: int, work: np.ndarray,
                 ) -> Callable[[float], np.ndarray]:
    """RX(2*beta) on every qubit of ``state``, as a function of beta that
    returns the mixed state.

    Each pass's width and its input and output views, alternating
    between ``state`` and ``work``, two contiguous complex vectors of
    2^n amplitudes, are built once, so a call runs ``_rx_power`` once per
    width and one matmul per pass. It returns the buffer the last pass
    wrote, or ``state`` when beta is a no-op.
    """
    passes = []
    src, dst = state, work
    for q in range(0, n, MIXER_BLOCK):
        k = min(MIXER_BLOCK, n - q)
        passes.append((k, src.reshape(-1, 1 << k).T, dst.reshape(1 << k, -1)))
        src, dst = dst, src
    mixed = src

    def mix(beta: float) -> np.ndarray:
        rotation = _rotation(beta)
        if rotation is None:
            return state
        block = _rx_power(*rotation, MIXER_BLOCK)
        for k, columns, rows in passes:
            np.matmul(block if k == MIXER_BLOCK else _rx_power(*rotation, k), columns, out=rows)
        return mixed

    return mix


def apply_mixer(state: np.ndarray, n: int, beta: float) -> np.ndarray:
    """RX(2*beta) on every qubit, MIXER_BLOCK qubits per pass; returns
    the mixed state, which callers must use in place of ``state``.

    The passes alternate between the state and a second buffer of its
    size, and the result is the buffer the last one wrote: ``state`` when
    the number of passes, ceil(n / MIXER_BLOCK), is even, the second
    buffer when it is odd, in which case ``state``'s contents are not
    kept. A no-op beta returns ``state`` with no second buffer allocated.
    """
    # the passes rotate the index by n bits, so n must be the whole state
    _check_state(state, 1 << n, "the mixer's state")
    if _rotation(beta) is None:
        return state
    return _mixer_steps(state, n, np.empty_like(state))(beta)


def _apply_layer(state: np.ndarray | None, ising: IsingModel, gamma: float,
                 beta: float) -> np.ndarray:
    """The phase and the mixer of one layer on ``state``, None for the
    uniform state, which is not built."""
    phased = (_uniform_phased(ising, gamma) if state is None
              else apply_phase(state, ising, gamma))
    return apply_mixer(phased, ising.n, beta)


def evolve(ising: IsingModel, schedule: AngleSchedule,
           max_qubits: int = MAX_QUBITS) -> np.ndarray:
    """Statevector after the full alternating sequence, from |+...+>."""
    # checked as at least one layer: a run builds a state only from
    # depth 1 on, and the caller squares the result beside it
    check_memory(ising.n, max_qubits, max(schedule.p, 1))
    if not schedule.p:
        return uniform_state(ising.n)
    state = None
    for gamma, beta in zip(schedule.gammas, schedule.betas):
        state = _apply_layer(state, ising, gamma, beta)
    return state


def probabilities(state: np.ndarray) -> np.ndarray:
    """|amplitude|^2 of every basis state, as real^2 + imag^2; each
    ``CHUNK`` slice's imag^2 goes through a spare slice allocated after
    the vector."""
    size = np.size(state)
    _check_state(state, size, "the squared state")
    floats = np.empty(size + min(size, CHUNK))
    probs, spare = floats[:size], floats[size:]
    np.square(state.real, out=probs)  # np.square has the bits of x ** 2
    for s in _chunks(size):
        part = probs[s]
        part += np.square(state.imag[s], out=spare[:part.size])
    return probs


def _tree_sum(parts: list) -> float:
    """The sums of the ``CHUNK`` slices of a vector of 2^n entries, added
    in pairs: the top of numpy's pairwise tree, so the result has the
    bits of ``np.sum`` of the whole vector."""
    while len(parts) > 1:
        parts = [a + b for a, b in zip(parts[0::2], parts[1::2])]
    return float(parts[0])


def _tree_size(what: str, *vectors) -> int:
    """The length of the ``vectors``, refused unless they share one power of two."""
    size, shapes = np.size(vectors[0]), [np.shape(v) for v in vectors]
    if size < 1 or size & (size - 1) or any(shape != (size,) for shape in shapes):
        raise DomainError(f"{what} needs vectors of 2^n entries, got shapes {shapes}")
    return size


def _expectation_steps(state: np.ndarray, weights: np.ndarray,
                       scratch: np.ndarray | None = None) -> Callable[[], float]:
    """<H> under ``weights`` of ``state``'s current amplitudes, as a
    function of no arguments.

    The state is checked, and two slice buffers (in the bytes of
    ``scratch``, an array of at least two slices that no call needs kept,
    or in a new array) and each ``CHUNK`` slice's views are built once. A
    call squares each slice into one buffer, weighs it by the slice's
    weights cast to float in the other (numpy's mixed-type multiply
    would cast them in a 64 KiB buffer of its own) and sums it, which
    gives the bits of ``weighted_sum(probabilities(state), weights)``
    with no probability vector written.
    """
    size = _tree_size("expectation", weights)
    _check_state(state, size, "the expectation's state")
    chunk = min(size, CHUNK)
    floats = np.empty(2 * chunk) if scratch is None else scratch.view(np.float64)
    products, spare = floats[:chunk], floats[chunk:2 * chunk]
    steps = [(state.real[s], state.imag[s], weights[s]) for s in _chunks(size)]

    def value() -> float:
        sums = []
        for real, imag, weight in steps:
            part = np.square(real, out=products)  # np.square has the bits of x ** 2
            part += np.square(imag, out=spare)
            np.copyto(spare, weight)
            part *= spare
            sums.append(part.sum())
        return _tree_sum(sums)

    return value


def expectation(state: np.ndarray, energies: np.ndarray) -> float:
    """<H> of ``state`` in one fused pass over its slices, with the bits of
    ``weighted_sum(probabilities(state), energies)``: elementwise
    products and pairwise sums, never a BLAS dot (thread-count stable)."""
    return _expectation_steps(state, energies)()


def weighted_sum(probs: np.ndarray, values: np.ndarray) -> float:
    """``np.sum(probs * values)`` in bits, for a full vector of 2^n entries.

    Each ``CHUNK`` slice is multiplied into one slice-sized buffer and
    summed; ``_tree_sum`` adds the slice sums.
    """
    size = _tree_size("weighted_sum", probs, values)
    # a power of two is one short slice or a whole number of slices
    buf = np.empty(min(size, CHUNK))
    return _tree_sum([np.sum(np.multiply(probs[s], values[s], out=buf)) for s in _chunks(size)])


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
    # from count_runs, read-only and of run_dtype: uint32 unless wider is needed
    indices: np.ndarray  # sorted unique basis-state indices
    counts: np.ndarray  # matching positive counts

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


def invert_cdf(cdf: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Sorted basis-state indices of ``shots`` draws, int64, by inverting
    the cumulative distribution ``cdf`` of a probability vector.

    The draws are sorted, so each block of ``SAMPLE_BLOCK`` of them is
    searched in the slice of the cdf between its first and last draw,
    and its picks are written over the draws it read: the result is the
    draws' buffer. Searching ``cdf[:-1]`` sends a draw at or above the
    last entry, which rounding can leave below 1.0, to the last index.
    """
    check_probabilities(cdf)
    if shots <= 0:
        raise DomainError("shots must be positive")
    draws = _rng(seed).random(shots)
    draws.sort()
    picks = draws.view(np.int64)
    inner = cdf[:-1]
    for s in range(0, shots, SAMPLE_BLOCK):
        block = draws[s:s + SAMPLE_BLOCK]
        lo, hi = np.searchsorted(inner, block[[0, -1]], side="right").tolist()
        # the block's indices are a temporary, not held beside the next block's
        np.add(np.searchsorted(inner[lo:hi], block, side="right"), lo,
               out=picks[s:s + SAMPLE_BLOCK])
    return picks


def run_dtype(top: int, shots: int) -> np.dtype:
    """The dtype of a distribution's indices and counts: uint32, wider only
    where the largest index ``top`` or ``shots`` does not fit."""
    return np.promote_types(np.uint32, np.min_scalar_type(max(top, shots)))


def count_runs(picks: np.ndarray, vertex_order: tuple[int, ...],
               seed: int) -> SampleDistribution:
    """The distribution of the sorted int64 ``picks`` of ``invert_cdf``:
    each distinct index is one run of equal picks.

    Each ``COUNT_BLOCK`` of picks is compared with the picks one place
    before it, so a run across a block edge stays one run. A first pass
    counts the run starts, so that the read-only ``run_dtype`` indices
    and counts are allocated at their length; a second writes each run's
    index and start, and one subtraction turns the starts into counts."""
    shots = picks.size
    changed = np.empty(min(shots, COUNT_BLOCK), dtype=bool)

    def run_starts(s: int) -> np.ndarray:  # which picks of the block at s start a run
        e = min(s + COUNT_BLOCK, shots)
        return np.not_equal(picks[s:e], picks[s - 1:e - 1], out=changed[:e - s])

    blocks = range(1, shots, COUNT_BLOCK)
    indices = np.empty(1 + sum(np.count_nonzero(run_starts(s)) for s in blocks),
                       run_dtype(int(picks[-1]), shots))
    starts = np.empty_like(indices)
    indices[0], starts[0], runs = picks[0], 0, 1
    for s in blocks:
        found = run_starts(s).nonzero()[0]
        found += s
        end = runs + found.size
        starts[runs:end] = found
        # each pick is read at its position before the position is overwritten
        indices[runs:end] = picks.take(found, out=found, mode="clip")
        runs = end
        del found  # not held beside the next block's
    # numpy reads each start ahead of the one it overwrites, with no copy
    counts = starts
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = shots - starts[-1]
    indices.flags.writeable = counts.flags.writeable = False
    return SampleDistribution(vertex_order, shots, seed, indices, counts)


def sample_state(probs: np.ndarray, vertex_order: tuple[int, ...], shots: int,
                 seed: int) -> SampleDistribution:
    """Draw measurement outcomes from the probability vector ``probs`` of
    a state: ``invert_cdf`` on a new cdf, then ``count_runs``."""
    picks = invert_cdf(np.cumsum(probs), shots, seed)
    return count_runs(picks, vertex_order, seed)


def sample(ising: IsingModel, schedule: AngleSchedule, shots: int, seed: int,
           max_qubits: int = MAX_QUBITS) -> SampleDistribution:
    """Draws from the evolved state, read out as a run reads its trained
    state: the probabilities become the cdf in place, which is freed
    before the runs are counted. The draws are those of ``sample_state``."""
    check_memory(ising.n, max_qubits, max(schedule.p, 1), shots)
    probs = probabilities(evolve(ising, schedule, max_qubits))
    picks = invert_cdf(np.cumsum(probs, out=probs), shots, seed)
    del probs
    return count_runs(picks, ising.vertex_order, seed)


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

    The profit model's fields are h_u = (d_u - 2)/4. The degrees, fields,
    edge endpoints and common-neighbour counts are computed here once, so
    each call is O(n+m).
    """
    pos = {v: j for j, v in enumerate(ising.vertex_order)}
    nbrs = [{pos[w] for w in ising.graph.neighbors(v)} for v in ising.vertex_order]
    degree = np.array([len(nb) for nb in nbrs], dtype=np.int64)
    field = (degree - 2) / 4.0
    edges = ising.edges  # each read rebuilds the sorted tuple
    a = np.array([pos[u] for u, _ in edges], dtype=np.intp)
    b = np.array([pos[v] for _, v in edges], dtype=np.intp)
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

    The phased state and the mixer's second buffer are allocated here
    once, so an evaluation allocates nothing of the state's size; they
    live as long as the returned function. So are the step lists of one
    evaluation: the phase from the prefix into the phased state, with its
    table indices in the second buffer, which the mixer's first pass
    overwrites; the mixer's passes between the two; and the expectation
    of either place the mixer can end in (the buffer its last pass
    writes, or the phased state when beta is a no-op), with its slice
    buffers in the other. An evaluation runs only the arithmetic, the
    calls and operands of ``apply_phase``, ``apply_mixer`` and
    ``expectation`` in their order, so each value has their bits.
    """
    phased = np.empty_like(prefix)
    work = np.empty_like(prefix)
    phase = _phase_steps(prefix, ising, phased, work)
    mix = _mixer_steps(phased, ising.n, work)
    expect_phased = _expectation_steps(phased, energies, work)
    expect_work = _expectation_steps(work, energies, phased)

    def values(gammas: np.ndarray, betas: np.ndarray) -> list[float]:
        out = []
        for gamma, beta in zip(gammas.tolist(), betas.tolist()):
            phase(gamma)
            out.append((expect_phased if mix(beta) is phased else expect_work)())
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
    check_memory(n, max_qubits, p)
    energies = ising.energies_vector()
    prefix = None  # the uniform state, which the first layer's phase reads unbuilt
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
        prefix = _apply_layer(prefix, ising, gamma, beta)
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
