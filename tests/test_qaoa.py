"""Statevector evolution, expectation, sampling, and layerwise training.

Grid searches over (gamma, beta) serve as the training oracle: a trained
single layer must reach at least the best value on a dense grid, up to
the grid's own resolution.
"""

import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.optimize import minimize

from profitcover import qaoa
from profitcover.errors import CapacityError, DomainError
from profitcover.instances import gen_erdos_renyi_connected, gen_regular
from profitcover.graph import Graph
from profitcover.model import build_ising
from profitcover.qaoa import (
    FIXED_STARTS,
    AngleSchedule,
    apply_mixer,
    apply_phase,
    check_memory,
    depth1_objective,
    evolve,
    expectation,
    expectation_value,
    probabilities,
    sample,
    sample_state,
    train_layerwise,
    uniform_state,
    weighted_sum,
)

from conftest import cycle_graph, random_gnp, star_graph


def _rand_schedule(p, seed):
    rng = np.random.default_rng(seed)
    return AngleSchedule(
        tuple(rng.uniform(0, np.pi, p)), tuple(rng.uniform(0, np.pi / 2, p))
    )


# ---------------------------------------------------------------------------
# schedules


def test_schedule_shape_checks():
    s = AngleSchedule((0.1, 0.2), (0.3, 0.4))
    assert s.p == 2
    assert s.truncated(1).gammas == (0.1,)
    with pytest.raises(DomainError):
        AngleSchedule((0.1,), ())


def test_schedule_json():
    s = AngleSchedule((0.5,), (0.25,))
    assert s.to_json_dict() == {"p": 1, "gammas": [0.5], "betas": [0.25]}


# ---------------------------------------------------------------------------
# evolution


def test_p0_is_uniform(k3):
    m = build_ising(k3)
    state = evolve(m, AngleSchedule((), ()))
    assert np.allclose(state, 1 / np.sqrt(8), atol=0)


def test_zero_angles_are_identity(k3):
    m = build_ising(k3)
    state = evolve(m, AngleSchedule((0.0,), (0.0,)))
    np.testing.assert_array_equal(state, uniform_state(3))


@pytest.mark.parametrize("seed", range(10))
def test_norm_preserved(seed):
    g = random_gnp(4 + seed % 9, 0.5, 1600 + seed)
    m = build_ising(g)
    state = evolve(m, _rand_schedule(3, seed))
    assert abs(np.vdot(state, state).real - 1.0) < 1e-12


def test_capacity_error_names_count():
    with pytest.raises(CapacityError, match="30"):
        check_memory(30, 25, 1)
    g = random_gnp(7, 0.6, 1)
    m = build_ising(g)
    with pytest.raises(CapacityError):
        evolve(m, AngleSchedule((), ()), max_qubits=6)
    with pytest.raises(CapacityError):
        train_layerwise(m, 1, max_qubits=5)


@pytest.mark.parametrize("depth,states", [
    # the energies (1/4), the probabilities (1/2) with the exact summary's
    # mask (1/16) and every weight a mass may select (1/2)
    (0, 1 + 5 / 16),
    # the energies, the prefix beside the trained layer's probabilities
    # (1/2 and a spare slice of 1/128) and an exact summary of them
    (1, 1 / 4 + 1 + 1 / 2 + 1 / 128 + 1 / 16 + 1 / 2),
    # the energies, the prefix, the phased state and the mixer's second
    # buffer, whose free one holds the table indices and the
    # expectation's slices
    (2, 3 + 1 / 4),
    (5, 3 + 1 / 4),
])
def test_peak_bytes_of_training_and_the_exact_summary(depth, states):
    """At n=20 a state is 16 MiB and a slice of 2^14 floats 1/128 of one."""
    assert qaoa.peak_bytes(20, depth) == states * (16 << 20)


@pytest.mark.parametrize("shots,states", [
    # the exact summary: the energies, the probabilities, a mask, the weights
    (1 << 19, 1 + 5 / 16),
    # the sampled summary: the energies, and 29 bytes a run for 2^20 runs
    (1 << 20, 1 / 4 + 29 / 16),
])
def test_peak_bytes_of_the_readout(shots, states):
    assert qaoa.peak_bytes(20, 0, shots) == states * (16 << 20)


def test_memory_check_refuses_a_state_that_does_not_fit(monkeypatch):
    """check_memory compares peak_bytes with physical memory, whose figure
    is patched here: a run of 20 qubits is admitted at exactly its peak
    and refused one byte below; nothing is allocated."""
    for depth, shots in [(0, 0), (1, 0), (2, 0), (0, 1 << 22), (1, 1 << 22)]:
        need = qaoa.peak_bytes(20, depth, shots)
        monkeypatch.setattr(qaoa, "physical_memory", lambda: need)
        check_memory(20, 25, depth, shots)
        monkeypatch.setattr(qaoa, "physical_memory", lambda: need - 1)
        with pytest.raises(CapacityError, match=f"a run of 20 qubits at depth {depth} with "
                                                f"{shots} shots needs {need} bytes at its "
                                                f"peak, above the {need - 1} bytes"):
            check_memory(20, 25, depth, shots)
        monkeypatch.setattr(qaoa, "physical_memory", lambda: None)
        check_memory(20, 25, depth, shots)  # an unknown figure checks nothing


@pytest.mark.parametrize("shots,need", [
    # 2^16 shots, four for each of the 2^14 states: the energies (4 bytes
    # a state), the picks (8 a shot), and the starts and indices of 2^14
    # runs (16 a run)
    (1 << 16, (4 << 14) + (8 << 16) + (16 << 14)),
    # 2^17 shots: the run mask and the starts take as much as that
    (1 << 17, (4 << 14) + (8 << 17) + (16 << 14)),
    # 2^18 shots: the run mask (1 byte a shot) and the starts (8 a run)
    (1 << 18, (4 << 14) + (8 << 18) + (1 << 18) + (8 << 14)),
])
def test_shot_check_states_the_larger_counting_peak(monkeypatch, shots, need):
    """On 14 qubits, with four to sixteen shots a state, counting is the
    readout's largest step: the picks written over the draws, and the
    larger of a one-byte mask a shot with 8 bytes a run start, or 8 bytes
    a start and 8 an index, for at most min(shots, 2^14) runs."""
    assert qaoa.peak_bytes(14, 0, shots) == need
    monkeypatch.setattr(qaoa, "physical_memory", lambda: need)
    check_memory(14, 25, 0, shots)
    monkeypatch.setattr(qaoa, "physical_memory", lambda: need - 1)
    with pytest.raises(CapacityError, match=f"with {shots} shots needs {need} bytes"):
        check_memory(14, 25, 0, shots)


def test_sample_checks_its_shots_before_evolving(monkeypatch):
    """``sample`` refuses shots whose readout would not fit before it
    builds the state, and reads out in place as a run does."""
    m = build_ising(random_gnp(8, 0.5, 3))
    schedule = _rand_schedule(1, 4)
    want = sample_state(probabilities(evolve(m, schedule)), m.vertex_order, 3000, 7)
    got = sample(m, schedule, shots=3000, seed=7)
    assert np.array_equal(got.indices, want.indices) and np.array_equal(got.counts, want.counts)

    def no_state(*args, **kwargs):
        raise AssertionError("a state was built")

    monkeypatch.setattr(qaoa, "uniform_state", no_state)
    monkeypatch.setattr(qaoa, "physical_memory", lambda: qaoa.peak_bytes(8, 1, 1 << 20) - 1)
    with pytest.raises(CapacityError, match="with 1048576 shots needs"):
        sample(m, schedule, shots=1 << 20, seed=7)


def test_physical_memory_is_positive():
    assert qaoa.physical_memory() is None or qaoa.physical_memory() > 0


def test_energy_vector_length_checked():
    with pytest.raises(DomainError):
        apply_mixer(uniform_state(4), 3, 0.4)


def test_mixer_against_dense_matrix():
    """apply_mixer must equal the Kronecker power of the RX(2*beta) gate."""
    rng = np.random.default_rng(42)
    # n > 3 spans several MIXER_BLOCK=3 passes, n = 4, 5, 7, 8 a short last one
    for n in range(1, 10):
        beta = 0.3123
        c, s = np.cos(beta), np.sin(beta)
        rx = np.array([[c, -1j * s], [-1j * s, c]])
        full = np.array([[1.0]])
        for _ in range(n):
            full = np.kron(rx, full)  # qubit 0 is least significant
        state = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        state /= np.linalg.norm(state)
        got = apply_mixer(state.copy(), n, beta)
        np.testing.assert_allclose(got, full @ state, atol=1e-12)


def test_phase_is_diagonal():
    m = build_ising(Graph(range(3), [(0, 1), (1, 2)]))
    energies = m.energies_vector()
    state = uniform_state(3)
    out = apply_phase(state, m, 0.7)
    np.testing.assert_allclose(np.abs(out), np.abs(state), atol=1e-15)
    np.testing.assert_allclose(out, state * np.exp(-1j * 0.7 * energies), atol=0)


def test_phase_table_bit_equal_to_exp():
    """The lookup-table phase is the elementwise exp formula, bit for bit."""
    m = build_ising(random_gnp(10, 0.4, 77))
    energies = m.energies_vector()
    rng = np.random.default_rng(7)
    state = rng.standard_normal(1 << 10) + 1j * rng.standard_normal(1 << 10)
    gammas = list(rng.uniform(-3 * np.pi, 3 * np.pi, 16)) + [-0.5, 2 * np.pi + 0.1, 7.0, -9.5]
    for gamma in gammas:
        want = (state * np.exp(-1j * gamma * energies)).tobytes()
        assert apply_phase(state, m, gamma).tobytes() == want


def test_phase_of_interleaved_models_is_bit_equal_to_exp():
    """Two live models each phase by their own energies, call after call."""
    a = build_ising(random_gnp(9, 0.4, 78))
    b = build_ising(cycle_graph(9))
    rng = np.random.default_rng(8)
    state = rng.standard_normal(1 << 9) + 1j * rng.standard_normal(1 << 9)
    for gamma in rng.uniform(-3 * np.pi, 3 * np.pi, 8):
        for m in (a, b, a):
            want = (state * np.exp(-1j * gamma * m.energies_vector())).tobytes()
            assert apply_phase(state, m, gamma).tobytes() == want


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)


def _peak_bytes(fn):
    """Bytes that ``fn()`` allocates at its peak, numpy buffers included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [10, 13, 14, 17])
def test_chunked_phase_and_probabilities_match_the_one_shot_formulas(n):
    """Slices of qaoa.CHUNK amplitudes give the bytes of one whole-array
    pass: one partial slice at n=10 and 13, one whole at 14, eight at 17.
    The factors are bound to a name: numpy may evaluate ``state * <a
    temporary>`` in the temporary's buffer with the operands swapped,
    which rounds differently, but never a named array."""
    m = build_ising(random_gnp(n, 0.3, 5100 + n))
    state = _random_state(n, n)
    energies = m.energies_vector()
    for gamma in (0.7, -2.3, 5.1):
        factors = np.exp(-1j * gamma * energies)
        want = np.multiply(state, factors).tobytes()
        assert apply_phase(state, m, gamma).tobytes() == want
    want = (state.real ** 2 + state.imag ** 2).tobytes()
    assert probabilities(state).tobytes() == want


def test_phase_and_probabilities_allocate_one_output_and_a_slice():
    """At n=20 a slice is 1/64 of the state. The whole-array formulas
    allocated 1.5 states (phase: the gathered factors and their intp
    indices) and 2 probability vectors."""
    m = build_ising(random_gnp(20, 0.2, 5200))
    state = _random_state(20, 3)
    m.energies_vector()
    assert _peak_bytes(lambda: apply_phase(state, m, 0.4)) <= 1.1 * state.nbytes
    assert _peak_bytes(lambda: probabilities(state)) <= 1.1 * state.nbytes / 2


def test_layer_evaluation_reuses_its_buffers():
    """A layer >= 2 evaluation runs the step lists built with the
    objective, writing into the phased state and the mixer's second
    buffer allocated with it, and every value has the bits of fresh
    ``apply_phase``, ``apply_mixer`` and ``expectation`` calls;
    allocating the buffers per evaluation cost 1.5 states each time.
    n = 1, 2, 4, 5, 13 and 16 end the mixer with a pass of width 1 or 2;
    its ceil(n/3) passes are odd at n = 1, 2, 13, 15 (ending in the
    second buffer) and even at 4, 5, 12, 16 (ending in the phased
    state), and the expectation reads whichever one the mixer ended in,
    with its slice buffers in the other; n = 15 and 16 span two and four
    ``CHUNK`` slices. The angles include gamma = 0, beta = 0,
    negative values and values above 2*pi. The allocation bound is
    checked from n = 13 on, where S/16 is above the evaluation's 4 KiB
    of small arrays (the table, the 8x8 blocks, the values)."""
    gammas = np.array([0.7, -2.4, 0.0, 0.0, 7.9, -8.3, 1.3])
    betas = np.array([0.3, 1.1, 0.0, -0.6, 0.0, 6.9, -7.2])
    for n in (1, 2, 4, 5, 12, 13, 15, 16):
        m = build_ising(random_gnp(n, 0.6 if n < 8 else 0.2, 5185 + n))
        energies = m.energies_vector()
        prefix = _random_state(n, 5190 + n)
        values = qaoa._layer_objective(m, prefix, energies)
        want = [expectation(apply_mixer(apply_phase(prefix, m, g), n, b), energies)
                for g, b in zip(gammas.tolist(), betas.tolist())]
        assert np.array(values(gammas, betas)).tobytes() == np.array(want).tobytes(), n
        if n >= 13:
            assert _peak_bytes(lambda: values(gammas, betas)) <= prefix.nbytes // 16, n


@pytest.mark.parametrize("n", [1, 2, 5, 8, 12, 13, 16, 18])
def test_first_layer_phase_has_the_bytes_of_the_phased_uniform_state(n):
    """The first layer gathers exp(-i*gamma*E) into a new state and
    scales its float64 view by r = 2^(-n/2) with no uniform state built;
    r + 0j times a factor rounds to r*re, r*im, so the bytes are those of
    ``apply_phase(uniform_state(n), ...)``. gamma = 0 fills in r."""
    for seed in range(2):
        m = build_ising(random_gnp(n, 0.5, 5500 + 10 * n + seed))
        uniform = uniform_state(n)
        for gamma in (0.1, 0.77, 2.3, -1.1, 0.0, 7.9, -9.4):
            want = apply_phase(uniform, m, gamma)
            assert qaoa._uniform_phased(m, gamma).tobytes() == want.tobytes(), gamma
            one_layer = AngleSchedule((gamma,), (0.4,))
            assert evolve(m, one_layer).tobytes() == apply_mixer(want, n, 0.4).tobytes()


def test_first_layer_builds_no_uniform_state(monkeypatch):
    def no_state(n):
        raise AssertionError("a uniform state was built")

    monkeypatch.setattr(qaoa, "uniform_state", no_state)
    m = build_ising(gen_regular(8, 3, 4404))
    schedule, _, probs = train_layerwise(m, 2)
    assert probs.tobytes() == probabilities(evolve(m, schedule)).tobytes()


def _refuses(call):
    """``call()`` raises DomainError naming the 2^8 amplitudes it wants,
    with no warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="complex state of 256 amplitudes"):
            call()


def test_phase_and_expectation_refuse_wrong_buffers():
    """A state that is not a contiguous complex128 vector of the model's
    or the energies' 2^8 amplitudes is refused before anything is
    written; numpy raised ValueError for a short one."""
    m = build_ising(random_gnp(8, 0.4, 5600))
    energies = m.energies_vector()
    state = _random_state(8, 1)
    _refuses(lambda: apply_phase(uniform_state(7), m, 0.3))
    _refuses(lambda: apply_phase(state.astype(np.complex64), m, 0.3))
    _refuses(lambda: apply_phase(np.repeat(state, 2)[::2], m, 0.3))
    _refuses(lambda: expectation(uniform_state(7), energies))
    _refuses(lambda: expectation(state.astype(np.complex64), energies))
    _refuses(lambda: apply_mixer(np.repeat(state, 2)[::2], 8, 0.3))
    # a no-op angle is checked too
    _refuses(lambda: apply_phase(uniform_state(7), m, 0.0))
    _refuses(lambda: apply_mixer(uniform_state(7), 8, 0.0))


def test_sample_state_frees_its_draws_before_counting():
    """With as many shots as states the cdf and the sorted draws, which
    become the picks, are two probability vectors, and counting half as
    many runs adds no more once the cdf is freed: 2.13 vectors at the
    peak. Separate picks took 3, and the whole-array counting 4.2."""
    probs = probabilities(_random_state(16, 4))
    probs /= probs.sum()
    peak = _peak_bytes(lambda: sample_state(probs, tuple(range(16)), 1 << 16, 5))
    assert peak <= 2.25 * probs.nbytes


def _butterfly_mixer(state, n, beta):
    """The qubit-by-qubit RX mixer the block mixer replaced, as a reference."""
    c = np.cos(beta)
    s = np.sin(beta)
    if s == 0.0 and c == 1.0:
        return state
    for q in range(n):
        st = state.reshape(-1, 2, 1 << q)
        a = st[:, 0, :].copy()
        b = st[:, 1, :]
        st[:, 0, :] = c * a - 1j * s * b
        st[:, 1, :] = c * b - 1j * s * a
    return state


@pytest.mark.parametrize("seed", range(3))
def test_training_matches_butterfly_mixer(seed, monkeypatch):
    m = build_ising(random_gnp(8 + seed, 0.45, 2300 + seed))
    schedule, log, _ = train_layerwise(m, 2)
    monkeypatch.setattr(qaoa, "apply_mixer", _butterfly_mixer)
    ref_schedule, ref_log, _ = train_layerwise(m, 2)
    np.testing.assert_allclose(schedule.gammas, ref_schedule.gammas, rtol=0, atol=1e-9)
    np.testing.assert_allclose(schedule.betas, ref_schedule.betas, rtol=0, atol=1e-9)
    np.testing.assert_allclose(log.expectations, ref_log.expectations, rtol=0, atol=1e-9)


MIXER_HASH_SCRIPT = """
import hashlib, numpy as np
from profitcover.qaoa import apply_mixer
n = 18
rng = np.random.default_rng(18)
state = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
state /= np.sqrt(np.sum(state.real ** 2 + state.imag ** 2))  # no BLAS
digest = hashlib.sha256()
for beta in (0.3123, 1.1, -0.7):
    digest.update(apply_mixer(state.copy(), n, beta).tobytes())
print(digest.hexdigest())
"""


def test_mixer_bytes_independent_of_blas_threads():
    """One BLAS thread or the default count: the same n=18 mixer bytes."""
    digests = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", MIXER_HASH_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


# ---------------------------------------------------------------------------
# expectation


def test_p0_expectation_is_offset():
    # 1e-12 tolerance: for odd n the uniform amplitude (1/sqrt(2^n))^2
    # differs from 2^-n by one ulp, so the sum is not bit-exact
    for seed in range(8):
        g = random_gnp(4 + seed, 0.4, 1700 + seed)
        m = build_ising(g)
        val = expectation_value(m, AngleSchedule((), ()))
        assert val == pytest.approx(m.offset, abs=1e-12)


def test_gamma0_any_beta_keeps_offset(k3):
    """The mixer alone cannot move a uniform state's diagonal expectation."""
    m = build_ising(k3)
    for beta in (0.3, 1.0, 1.4):
        val = expectation_value(m, AngleSchedule((0.0,), (beta,)))
        assert val == pytest.approx(m.offset, abs=1e-12)


def test_beta0_keeps_distribution_uniform():
    """With no mixing, phases cancel in |amplitude|^2 for any gammas."""
    g = random_gnp(6, 0.5, 60)
    m = build_ising(g)
    state = evolve(m, AngleSchedule((0.9, 2.1, 0.4), (0.0, 0.0, 0.0)))
    np.testing.assert_allclose(probabilities(state), 1 / 64, atol=1e-14)


@pytest.mark.parametrize("seed", range(8))
def test_expectation_two_ways(seed):
    """Vectorized expectation agrees with a streaming python accumulation."""
    g = random_gnp(4 + seed, 0.5, 1800 + seed)
    m = build_ising(g)
    energies = m.energies_vector()
    state = evolve(m, _rand_schedule(2, seed))
    fast = expectation(state, energies)
    slow = 0.0
    for idx in range(state.size):
        amp = state[idx]
        slow += (amp.real ** 2 + amp.imag ** 2) * energies[idx]
    assert abs(fast - slow) < 1e-10


# ---------------------------------------------------------------------------
# sampling


def test_sample_counts_sum_to_shots(k2):
    m = build_ising(k2)
    d = sample(m, AngleSchedule((), ()), shots=1000, seed=5)
    assert int(d.counts.sum()) == 1000 == d.shots


def test_sample_deterministic(k3):
    m = build_ising(k3)
    a = sample(m, _rand_schedule(1, 3), shots=5000, seed=11)
    b = sample(m, _rand_schedule(1, 3), shots=5000, seed=11)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.counts, b.counts)
    c = sample(m, _rand_schedule(1, 3), shots=5000, seed=12)
    assert not (
        a.indices.shape == c.indices.shape
        and np.array_equal(a.counts, c.counts)
    )


def test_sample_uniform_k2_quarter(k2):
    m = build_ising(k2)
    d = sample(m, AngleSchedule((), ()), shots=200_000, seed=1)
    counts = d.to_json_dict()["counts"]
    assert counts["11"] / d.shots == pytest.approx(0.25, abs=5e-3)


def test_sample_chi_square_uniform():
    n = 6
    state = uniform_state(n)
    d = sample_state(probabilities(state), tuple(range(n)), shots=100_000, seed=9)
    observed = np.zeros(1 << n)
    observed[d.indices] = d.counts
    res = stats.chisquare(observed)
    assert res.pvalue > 0.001


def test_sample_counts_match_unsorted_inversion():
    """Sorting the draws first leaves every draw on the same basis state."""
    m = build_ising(gen_regular(12, 3, 4))
    state = evolve(m, AngleSchedule((0.6,), (0.35,)))
    d = sample_state(probabilities(state), m.vertex_order, shots=200_000, seed=21)
    cdf = np.cumsum(probabilities(state))
    draws = np.random.Generator(np.random.Philox(key=21)).random(200_000)
    picks = np.clip(np.searchsorted(cdf, draws, side="right"), 0, len(cdf) - 1)
    indices, counts = np.unique(picks, return_counts=True)
    np.testing.assert_array_equal(d.indices, indices)
    np.testing.assert_array_equal(d.counts, counts)


def test_sample_requires_positive_shots(k2):
    m = build_ising(k2)
    with pytest.raises(DomainError):
        sample(m, AngleSchedule((), ()), shots=0, seed=1)


def test_sample_json_shape(k2):
    m = build_ising(k2)
    d = sample(m, AngleSchedule((), ()), shots=64, seed=2)
    j = d.to_json_dict()
    assert j["shots"] == 64 and j["seed"] == 2
    assert sum(j["counts"].values()) == 64
    assert all(len(k) == 2 for k in j["counts"])


# ---------------------------------------------------------------------------
# training


def _grid_best(m, steps=64):
    """Dense-grid oracle for the single-layer optimum."""
    energies = m.energies_vector()
    best = np.inf
    for gamma in np.linspace(0, np.pi, steps, endpoint=False):
        for beta in np.linspace(0, np.pi / 2, steps, endpoint=False):
            state = evolve(m, AngleSchedule((gamma,), (beta,)))
            best = min(best, expectation(state, energies))
    return best


def test_train_p1_k2_beats_uniform(k2):
    m = build_ising(k2)
    schedule, log, _ = train_layerwise(m, 1)
    val = expectation_value(m, schedule)
    assert val < 0.25  # strictly below the p=0 value (= offset)
    assert val <= _grid_best(m) + 1e-6


def test_train_p1_k3_beats_uniform(k3):
    m = build_ising(k3)
    schedule, _, _ = train_layerwise(m, 1)
    val = expectation_value(m, schedule)
    assert val < m.offset == -0.75
    assert val <= _grid_best(m) + 1e-6


def test_train_depth0_is_empty(k3):
    m = build_ising(k3)
    schedule, log, _ = train_layerwise(m, 0)
    assert schedule.p == 0 and log.layers == ()


@pytest.mark.parametrize("seed", range(6))
def test_train_monotone_in_depth(seed):
    g = random_gnp(6 + seed % 4, 0.45, 1900 + seed)
    m = build_ising(g)
    schedule, log, _ = train_layerwise(m, 5)
    exps = log.expectations
    assert all(b <= a + 1e-9 for a, b in zip(exps, exps[1:]))
    assert exps[0] < m.offset  # layer 1 strictly improves on uniform


def test_train_log_matches_final_state():
    g = cycle_graph(7)
    m = build_ising(g)
    schedule, log, _ = train_layerwise(m, 3)
    for depth in range(1, 4):
        val = expectation_value(m, schedule.truncated(depth))
        assert val == pytest.approx(log.expectations[depth - 1], abs=1e-12)


def test_warm_start_identity_layer():
    """Appending a (0,0) layer reproduces the previous depth exactly."""
    g = random_gnp(7, 0.5, 71)
    m = build_ising(g)
    schedule, log, _ = train_layerwise(m, 2)
    padded = AngleSchedule(schedule.gammas[:1] + (0.0,), schedule.betas[:1] + (0.0,))
    assert expectation_value(m, padded) == expectation_value(m, schedule.truncated(1))


def test_train_rejects_bad_args(k2):
    m = build_ising(k2)
    with pytest.raises(DomainError):
        train_layerwise(m, -1)


def test_train_deterministic(k3):
    m = build_ising(k3)
    s1, _, _ = train_layerwise(m, 2)
    s2, _, _ = train_layerwise(m, 2)
    assert s1 == s2


# ---------------------------------------------------------------------------
# warm-started later layers


def test_later_layers_run_one_search_from_the_previous_angles(monkeypatch):
    calls = []
    lockstep = qaoa._lockstep

    def recording_lockstep(objective, starts, maxfev):
        runs = lockstep(objective, starts, maxfev)
        calls.extend((tuple(start), nfev) for start, (_, _, nfev) in zip(starts, runs))
        return runs

    monkeypatch.setattr(qaoa, "_lockstep", recording_lockstep)
    schedule, log, _ = train_layerwise(build_ising(gen_regular(10, 3, 4800)), 4)
    assert len(calls) == 5 + 3
    assert [start for start, _ in calls[:5]] == [(0.0, 0.0), *FIXED_STARTS]
    assert log.layers[0].n_evals == sum(nfev for _, nfev in calls[:5])
    for k, (start, nfev) in enumerate(calls[5:], start=2):
        previous = (schedule.gammas[k - 2], schedule.betas[k - 2])
        assert previous != (0.0, 0.0)
        assert start == previous
        assert log.layers[k - 1].n_evals == nfev


@pytest.mark.parametrize("n", [7, 8, 9, 12, 13, 15])
def test_noop_of_a_later_layer_has_the_previous_record(n):
    """Training weighs a later layer's (0, 0) at the previous layer's
    recorded expectation instead of evaluating it. Evaluated on the
    prefix, (0, 0) gives those bits: the phase copies the prefix, the
    mixer leaves it alone and ``expectation`` has the bits of
    ``weighted_sum``. The mixer takes an odd number of passes at n = 7-9
    and 13-15 and an even one at n = 12."""
    m = build_ising(random_gnp(n, 0.4, 5400 + n))
    energies = m.energies_vector()
    schedule, log, _ = train_layerwise(m, 4)
    zero = np.zeros(1)
    for depth in (2, 3, 4):
        prefix = evolve(m, schedule.truncated(depth - 1))
        value = qaoa._layer_objective(m, prefix, energies)(zero, zero)[0]
        assert np.float64(value).tobytes() == np.float64(log.expectations[depth - 2]).tobytes()


def test_later_layers_evaluate_the_points_they_count(monkeypatch):
    """Each layer >= 2 objective evaluates exactly its layer's ``n_evals``
    points, all of them the search's."""
    points: dict[int, list[int]] = {}
    layer_objective = qaoa._layer_objective

    def counting(ising, prefix, energies):
        values = layer_objective(ising, prefix, energies)
        sizes = points.setdefault(len(points) + 2, [])

        def counted(gammas, betas):
            sizes.append(gammas.size)
            return values(gammas, betas)
        return counted

    monkeypatch.setattr(qaoa, "_layer_objective", counting)
    _, log, _ = train_layerwise(build_ising(gen_regular(10, 3, 4800)), 4)
    assert sorted(points) == [2, 3, 4]
    for layer, sizes in points.items():
        assert sum(sizes) == log.layers[layer - 1].n_evals > 0


# ---------------------------------------------------------------------------
# the in-package Nelder-Mead against scipy's


def _scipy_nelder_mead(objective, start, maxfev, seen=None):
    """(x, fun, nfev) from scipy's Nelder-Mead with the package's settings;
    adds every point it evaluates to ``seen`` and returns its final
    simplex too."""
    def fun(x):
        if seen is not None:
            seen.add((float(x[0]), float(x[1])))
        return objective(x[0], x[1])

    res = minimize(fun, np.asarray(start, dtype=np.float64), method="Nelder-Mead",
                   options={"maxfev": maxfev, "xatol": qaoa.XATOL, "fatol": qaoa.FATOL})
    x = (float(res.x[0]), float(res.x[1]))
    return (x, float(res.fun), int(res.nfev)), res.final_simplex[0]


def _same_result(a, b):
    (xa, fa, na), (xb, fb, nb) = a, b
    return xa == xb and na == nb and (fa == fb or (np.isnan(fa) and np.isnan(fb)))


def _batched(objective, sizes=None):
    """``objective(gamma, beta)`` as ``qaoa._lockstep`` calls it, on arrays
    of angles; appends each call's number of points to ``sizes``."""
    def values(gammas, betas):
        if sizes is not None:
            sizes.append(gammas.size)
        return [objective(g, t) for g, t in zip(gammas.tolist(), betas.tolist())]
    return values


def _search(objective, start, maxfev):
    """(x, fun, nfev) of one Nelder-Mead run from ``start``, on its own."""
    return qaoa._lockstep(_batched(objective), [start], maxfev)[0]


def _seeded_objectives(seed):
    rng = np.random.default_rng(8800 + seed)
    a, b, c, d, e = rng.normal(size=5)
    return {
        "depth1": depth1_objective(build_ising(random_gnp(6 + seed % 5, 0.45, 8900 + seed))),
        "smooth": lambda g, t: float(a * np.sin(c * g) + b * np.cos(2 * t + d) + e * g * t),
        # rounding makes plateaus, where contractions fail and the simplex shrinks
        "plateau": lambda g, t: float(np.round((g - a) ** 2 + (t - b) ** 2, 1)),
        "nan": lambda g, t: float("nan") if g > 0.5 + abs(a) else float(np.sin(g) * np.cos(t)),
    }, ((0.0, 0.0), FIXED_STARTS[seed % 4], (float(c), float(d)), (0.0, float(e)))


@pytest.mark.parametrize("seed", range(8))
def test_nelder_mead_matches_scipy(seed):
    objectives, starts = _seeded_objectives(seed)
    for name, objective in objectives.items():
        for start in starts:
            for maxfev in (1, 4, 5, 6, 10, 40, 200):
                want, _ = _scipy_nelder_mead(objective, start, maxfev)
                got = _search(objective, start, maxfev)
                assert _same_result(got, want), (name, start, maxfev, got, want)


def test_nelder_mead_matches_scipy_when_the_budget_ends_inside_a_shrink():
    objective = lambda g, t: float(np.round((g - 0.5) ** 2 + (t - 0.2) ** 2, 1))  # noqa: E731
    for maxfev in (5, 6):
        seen = set()
        want, simplex = _scipy_nelder_mead(objective, (0.0, 0.0), maxfev, seen)
        # the shrink moved a vertex that the budget left unevaluated
        assert any((float(v[0]), float(v[1])) not in seen for v in simplex)
        assert _same_result(_search(objective, (0.0, 0.0), maxfev), want)


def _shrink_budget_objective(g, t):
    return float(np.round((g - 0.5) ** 2 + (t - 0.2) ** 2, 1))


@pytest.mark.parametrize("seed", range(4))
def test_lockstep_runs_match_runs_alone(seed):
    """Runs advanced together give each start the bits it gets alone, with
    one objective call per step: budgets of 1-6 calls, budgets that end
    inside a shrink (the plateau objectives and the rounded bowl) and an
    objective that returns NaN."""
    objectives, starts = _seeded_objectives(seed)
    objectives["shrink"] = _shrink_budget_objective
    starts = starts + ((0.0, 0.0), (-0.3, 2.0))  # a start twice
    for name, objective in objectives.items():
        for maxfev in (1, 2, 3, 4, 5, 6, 10, 40):
            alone = [_search(objective, start, maxfev) for start in starts]
            sizes = []
            together = qaoa._lockstep(_batched(objective, sizes), starts, maxfev)
            for start, a, b in zip(starts, together, alone):
                assert _same_result(a, b), (name, start, maxfev, a, b)
            assert len(sizes) == max(nfev for _, _, nfev in alone)
            assert sum(sizes) == sum(nfev for _, _, nfev in alone)


def test_lockstep_with_no_budget_evaluates_nothing():
    sizes = []
    runs = qaoa._lockstep(_batched(lambda g, t: 0.0, sizes), [(0.0, 0.0), (1.0, 2.0)], 0)
    assert sizes == [] and [nfev for _, _, nfev in runs] == [0, 0]
    assert [x for x, _, _ in runs] == [(0.0, 0.0), (1.0, 2.0)]


def _five_start_final_expectation(m, p):
    """Final <H> of layerwise training as it was before later layers were
    warm-started: every layer restarts from (0, 0) and FIXED_STARTS."""
    energies = m.energies_vector()
    prefix = uniform_state(m.n)

    def layer_value(gamma, beta):
        state = apply_phase(prefix, m, gamma)
        state = apply_mixer(state, m.n, beta)
        return expectation(state, energies)

    for layer in range(1, p + 1):
        objective = depth1_objective(m) if layer == 1 else layer_value
        candidates = [((0.0, 0.0), objective(0.0, 0.0))]
        for start in ((0.0, 0.0),) + FIXED_STARTS:
            res = minimize(
                lambda x: objective(x[0], x[1]),
                np.asarray(start, dtype=np.float64),
                method="Nelder-Mead",
                options={"maxfev": 40, "xatol": 1e-6, "fatol": 1e-12},
            )
            candidates.append(((float(res.x[0]), float(res.x[1])), float(res.fun)))
        (gamma, beta), _ = min(candidates, key=lambda c: c[1])
        prefix = apply_phase(prefix, m, gamma)
        prefix = apply_mixer(prefix, m.n, beta)
    return expectation(prefix, energies)


def test_warm_start_no_worse_than_five_starts():
    graphs = []
    for s in range(10):
        graphs.append(gen_regular(8 + 2 * (s % 2), 3, 7000 + s))
        graphs.append(gen_erdos_renyi_connected(8 + s % 3, 0.3 + 0.1 * (s % 4), 7100 + s))
    new, old = [], []
    for g in graphs:
        m = build_ising(g)
        new.append(train_layerwise(m, 4)[1].expectations[-1])
        old.append(_five_start_final_expectation(m, 4))
    assert sum(new) <= sum(old)
    # no graph more than 1 % worse; some come out better (one by 1.7 %)
    for k, (a, b) in enumerate(zip(new, old)):
        assert a <= b + 0.01 * abs(b), (k, a, b)


# ---------------------------------------------------------------------------
# closed-form depth 1


def _closed_form_family():
    """200 seeded graphs: ER (triangles included), cycles, stars, and
    graphs with an isolated vertex and sparse labels."""
    graphs = [random_gnp(2 + k % 11, (0.3, 0.6, 0.9)[k % 3], 4100 + k)
              for k in range(170)]
    graphs += [cycle_graph(n) for n in range(3, 13)]
    graphs += [star_graph(leaves) for leaves in range(1, 11)]
    for k in range(10):
        g = random_gnp(3 + k % 8, 0.6, 4300 + k)
        labels = [7 * v + 3 for v in g.vertices] + [1000]  # 1000 is isolated
        graphs.append(Graph(labels, [(7 * u + 3, 7 * v + 3) for u, v in g.edges]))
    return graphs


def test_depth1_closed_form_matches_statevector():
    """The closed form agrees with the statevector, and at (0, 0) it has
    the bytes of the offset, since every other term carries a factor
    sin 0: training weighs layer 1's no-op there without evaluating it."""
    rng = np.random.default_rng(2012_03421)
    graphs = _closed_form_family()
    assert len(graphs) == 200
    for k, g in enumerate(graphs):
        m = build_ising(g)
        value = depth1_objective(m)
        assert np.float64(value(0.0, 0.0)).tobytes() == np.float64(m.offset).tobytes(), k
        angles = [(0.0, 0.0), (-0.5, 7.0), (7.5, -1.2)]
        angles += [tuple(rng.uniform(-3 * np.pi, 3 * np.pi, 2)) for _ in range(3)]
        for gamma, beta in angles:
            ref = expectation_value(m, AngleSchedule((gamma,), (beta,)))
            assert abs(value(gamma, beta) - ref) <= 1e-12, (k, gamma, beta)


def _statevector_layer1(m):
    """Layer-1 training on the statevector objective the closed form replaced."""
    energies = m.energies_vector()
    prefix = uniform_state(m.n)

    def layer_value(gamma, beta):
        state = apply_phase(prefix, m, gamma)
        state = apply_mixer(state, m.n, beta)
        return expectation(state, energies)

    evals = 1
    candidates = [((0.0, 0.0), layer_value(0.0, 0.0))]
    for start in ((0.0, 0.0),) + FIXED_STARTS:
        res = minimize(
            lambda x: layer_value(x[0], x[1]),
            np.asarray(start, dtype=np.float64),
            method="Nelder-Mead",
            options={"maxfev": 40, "xatol": 1e-6, "fatol": 1e-12},
        )
        evals += int(res.nfev)
        candidates.append(((float(res.x[0]), float(res.x[1])), float(res.fun)))
    (gamma, beta), _ = min(candidates, key=lambda c: c[1])
    return gamma, beta, evals


@pytest.mark.parametrize("g", [
    random_gnp(9, 0.45, 4400), random_gnp(10, 0.6, 4401), cycle_graph(8),
    gen_regular(12, 3, 4402), star_graph(6),
], ids=["er9", "er10", "c8", "r3-12", "star6"])
def test_layer1_training_matches_statevector_objective(g):
    m = build_ising(g)
    schedule, log, _ = train_layerwise(m, 1)
    gamma, beta, evals = _statevector_layer1(m)
    assert schedule.gammas[0] == pytest.approx(gamma, abs=1e-9)
    assert schedule.betas[0] == pytest.approx(beta, abs=1e-9)
    # the reference also evaluates the (0, 0) candidate, which training
    # takes from the offset instead
    assert log.layers[0].n_evals == evals - 1
    # the recorded expectation is still the statevector's
    assert log.expectations[0] == expectation_value(m, schedule)


def test_layer1_training_makes_one_objective_call_per_step(monkeypatch):
    """The five layer-1 runs advance in lockstep: at most one closed-form
    call per step and none for the (0, 0) candidate, against one call per
    point (200 here) when the runs went one after the other."""
    sizes = []
    closed_form = qaoa.depth1_objective

    def counting(ising):
        value = closed_form(ising)

        def counted(gammas, betas):
            sizes.append(np.size(gammas))
            return value(gammas, betas)
        return counted

    monkeypatch.setattr(qaoa, "depth1_objective", counting)
    _, log, _ = train_layerwise(build_ising(gen_regular(12, 3, 4403)), 1)
    assert len(sizes) <= qaoa.MAXFEV
    assert max(sizes) == 5
    assert sum(sizes) == log.layers[0].n_evals > 100


def _closed_form_one_pair(m, gamma, beta):
    """The closed form as it was evaluated for one (gamma, beta) pair at a
    time, on numpy scalars, as the reference for the batched form."""
    pos = {v: j for j, v in enumerate(m.vertex_order)}
    nbrs = [set() for _ in range(m.n)]
    for u, v in m.graph.edges:
        nbrs[pos[u]].add(pos[v])
        nbrs[pos[v]].add(pos[u])
    degree = np.array([len(nb) for nb in nbrs], dtype=np.int64)
    # the profit model's fields, 4*h_v = deg(v) - 2
    field = np.array([m.graph.degree(v) - 2 for v in m.vertex_order], dtype=np.float64) / 4.0
    a = np.array([pos[u] for u, _ in m.graph.edges], dtype=np.intp)
    b = np.array([pos[v] for _, v in m.graph.edges], dtype=np.intp)
    common = np.array([len(nbrs[i] & nbrs[j]) for i, j in zip(a, b)], dtype=np.int64)
    rest_a, rest_b = degree[a] - 1, degree[b] - 1
    one_side = rest_a + rest_b - 2 * common
    h_sum, h_diff = field[a] + field[b], field[a] - field[b]
    c = np.cos(gamma / 2)
    z = np.sin(2 * beta) * np.sin(2 * gamma * field) * c ** degree
    cos_field = np.cos(2 * gamma * field)
    zz = (0.5 * np.sin(4 * beta) * np.sin(gamma / 2)
          * (cos_field[a] * c ** rest_a + cos_field[b] * c ** rest_b)
          - 0.5 * np.sin(2 * beta) ** 2 * c ** one_side
          * (np.cos(2 * gamma * h_sum) * np.cos(gamma) ** common
             - np.cos(2 * gamma * h_diff)))
    return float(m.offset + np.sum(field * z) + 0.25 * np.sum(zz))


_angles = st.one_of(st.sampled_from([0.0, np.pi, -np.pi, 2 * np.pi, 6.5, -9.75]),
                    st.floats(-20.0, 20.0))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 14), st.sampled_from([0.3, 0.6, 0.9]), st.integers(0, 10_000),
       st.lists(st.tuples(_angles, _angles), min_size=1, max_size=6))
def test_batched_closed_form_has_the_bytes_of_single_calls(n, p, seed, pairs):
    m = build_ising(random_gnp(n, p, seed))
    value = depth1_objective(m)
    gammas = np.array([g for g, _ in pairs])
    betas = np.array([b for _, b in pairs])
    batch = value(gammas, betas)
    assert batch.shape == (len(pairs),)
    for got, (gamma, beta) in zip(batch, pairs):
        single = value(gamma, beta)
        assert type(single) is float
        want = np.float64(_closed_form_one_pair(m, gamma, beta)).tobytes()
        assert np.float64(got).tobytes() == want, (gamma, beta)
        assert np.float64(single).tobytes() == want, (gamma, beta)


def test_batched_closed_form_keeps_the_scalar_square():
    """The one-pair form squared sin(2b) as a numpy scalar, which is C
    pow(); np.square and np.power round about one value in a thousand
    differently. On angles where they differ, which a few of the values
    show, the batched form still has the one-pair bits."""
    m = build_ising(gen_regular(12, 3, 4404))
    value = depth1_objective(m)
    rng = np.random.default_rng(4405)
    betas = rng.uniform(-np.pi, np.pi, 1 << 20)
    s = np.sin(2 * betas)
    betas = betas[np.square(s) != np.array([v ** 2 for v in s.tolist()])]
    gammas = rng.uniform(-np.pi, np.pi, betas.size)
    assert betas.size > 500
    for k in range(0, betas.size, 5):
        got = value(gammas[k:k + 5], betas[k:k + 5])
        want = [_closed_form_one_pair(m, g, b)
                for g, b in zip(gammas[k:k + 5].tolist(), betas[k:k + 5].tolist())]
        assert got.tobytes() == np.array(want).tobytes(), k


def test_layer1_training_runs_one_mixer(monkeypatch):
    calls = []

    def counting_mixer(state, n, beta, **kwargs):
        calls.append(beta)
        return apply_mixer(state, n, beta, **kwargs)

    monkeypatch.setattr(qaoa, "apply_mixer", counting_mixer)
    _, log, _ = train_layerwise(build_ising(gen_regular(12, 3, 4403)), 1)
    assert log.total_evals > 100
    assert len(calls) <= 1


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10_000), st.integers(1, 3))
def test_norm_and_offset_properties(n, seed, p):
    g = random_gnp(n, 0.5, seed)
    if g.m == 0:
        return
    m = build_ising(g)
    state = evolve(m, _rand_schedule(p, seed))
    assert abs(float(np.sum(probabilities(state))) - 1.0) < 1e-12
    # expectation of any evolved state stays within the spectrum
    energies = m.energies_vector()
    val = expectation(state, energies)
    assert energies.min() - 1e-9 <= val <= energies.max() + 1e-9


# ---------------------------------------------------------------------------
# mixer block, trained state and probability inputs


def _kron_rx_power(c, s, k):
    """The mixer block as nested np.kron products, as it was first built."""
    rx = np.array([[c, -1j * s], [-1j * s, c]])
    gate = rx
    for _ in range(k - 1):
        gate = np.kron(rx, gate)
    return gate


def test_rx_power_matches_kron_bytes():
    rng = np.random.default_rng(4600)
    betas = np.concatenate([
        rng.uniform(-4 * np.pi, 4 * np.pi, 1000),  # negative and above 2*pi
        [0.0, -0.0, np.pi, -np.pi, np.pi / 2, 2 * np.pi, 1e-300, -1e-300, 50.0],
    ])
    pairs = [(np.cos(b), np.sin(b)) for b in betas]
    # s = 0 and c = 0 exactly, which no float beta gives for c
    pairs += [(1.0, 0.0), (-1.0, 0.0), (1.0, -0.0), (0.0, 1.0), (0.0, -1.0), (-0.0, 1.0)]
    for k in (1, 2, 3):
        for c, s in pairs:
            got, ref = qaoa._rx_power(c, s, k), _kron_rx_power(c, s, k)
            assert got.dtype == ref.dtype and got.shape == ref.shape == (1 << k, 1 << k)
            assert got.tobytes() == ref.tobytes(), (k, c, s)


def _kron_mixer(state, n, beta):
    """The block mixer's passes on fresh arrays, with blocks built by
    np.kron: the arithmetic ``apply_mixer`` does, without its buffers."""
    c, s = np.cos(beta), np.sin(beta)
    for q in range(0, n, qaoa.MIXER_BLOCK):
        k = min(qaoa.MIXER_BLOCK, n - q)
        state = (_kron_rx_power(c, s, k) @ state.reshape(-1, 1 << k).T).ravel()
    return state


@pytest.mark.parametrize("n", range(1, 11))
def test_mixer_returns_the_buffer_its_last_pass_wrote(n):
    """ceil(n/3) passes alternate between the state and the second
    buffer; the result is the caller's array after an even number of
    passes and the second buffer after an odd one, and nothing is copied
    back. Either way it has the bytes of the reference passes."""
    state = _random_state(n, 5300 + n)
    want = _kron_mixer(state, n, 0.3123)
    even = -(-n // qaoa.MIXER_BLOCK) % 2 == 0
    mine = state.copy()
    got = apply_mixer(mine, n, 0.3123)
    assert (got is mine) if even else not np.shares_memory(got, mine)
    assert got.tobytes() == want.tobytes()
    # a no-op beta leaves the state where it is, whatever the parity
    assert apply_mixer(mine, n, 0.0) is mine


def test_a_noop_mixer_allocates_no_second_buffer():
    """beta = 0 rotates nothing, so the state is returned before a
    buffer of its size is allocated; any other beta allocates one."""
    state = _random_state(16, 5)
    assert _peak_bytes(lambda: apply_mixer(state, 16, 0.0)) < state.nbytes // 16
    assert _peak_bytes(lambda: apply_mixer(state, 16, 0.3)) >= state.nbytes


@pytest.mark.parametrize("n", [9, 10, 11])
def test_trained_state_is_the_evolved_schedule(n):
    """n mod 3 = 0, 1 and 2, so the short last mixer pass is covered."""
    m = build_ising(random_gnp(n, 0.4, 4700 + n))
    for p in range(5):
        schedule, log, probs = train_layerwise(m, p)
        assert schedule.p == p == len(log.layers)
        state = evolve(m, schedule)
        assert probs.tobytes() == probabilities(state).tobytes()
        if p:
            assert log.expectations[-1] == expectation(state, m.energies_vector())


@pytest.mark.parametrize("n", range(1, 21))
def test_depth0_distribution_has_the_bytes_of_the_squared_uniform_state(n):
    probs = train_layerwise(build_ising(Graph(range(n), [])), 0)[2]
    assert probs.tobytes() == probabilities(uniform_state(n)).tobytes()


@pytest.mark.parametrize("n", range(1, 19))
def test_weighted_sum_has_the_bytes_of_the_full_product(n):
    """n up to 18 crosses the CHUNK = 2^14 boundary, where the sum is
    split into slices."""
    rng = np.random.default_rng(5200 + n)
    probs = rng.dirichlet(np.ones(1 << n))
    values = rng.integers(-3 * n, n + 1, 1 << n, dtype=np.int32)
    values[0], values[-1] = -3 * n, n  # both signs at every n
    got = weighted_sum(probs, values)
    assert np.float64(got).tobytes() == np.sum(probs * values).tobytes()


@pytest.mark.parametrize("n", range(1, 19))
def test_expectation_has_the_bytes_of_the_squared_state_summed(n):
    """The fused pass squares, weighs and sums each ``CHUNK`` slice and
    adds the slice sums in pairs; n up to 18 crosses CHUNK = 2^14. Its
    value has the bytes of ``weighted_sum`` on the probability vector and
    of the whole-array product summed, also for a state with zero
    amplitudes."""
    m = build_ising(random_gnp(n, 0.5, 5700 + n))
    energies = m.energies_vector()
    sparse = _random_state(n, 5750 + n)
    sparse[::3] = 0
    for state in (_random_state(n, 5720 + n), sparse):
        probs = probabilities(state)
        got = np.float64(expectation(state, energies)).tobytes()
        assert got == np.float64(weighted_sum(probs, energies)).tobytes()
        assert got == np.sum(probs * energies).tobytes()


@pytest.mark.parametrize("size", [0, 3, 12, (1 << 14) + 1])
def test_weighted_sum_rejects_a_length_off_the_tree(size):
    with pytest.raises(DomainError, match="2\\^n"):
        weighted_sum(np.ones(size), np.ones(size, dtype=np.int32))
    with pytest.raises(DomainError, match="2\\^n"):
        expectation(np.ones(size, dtype=np.complex128), np.ones(size, dtype=np.int32))


def test_probabilities_rejects_a_probability_vector():
    probs = train_layerwise(build_ising(cycle_graph(5)), 1)[2]
    with pytest.raises(DomainError, match="complex state"):
        probabilities(probs)


def test_sample_state_rejects_a_state():
    state = uniform_state(3)
    with pytest.raises(DomainError, match="probabilities"):
        sample_state(state, tuple(range(3)), shots=10, seed=1)
    d = sample_state(probabilities(state), tuple(range(3)), shots=10, seed=1)
    assert int(d.counts.sum()) == 10


def _unique_picks(probs, shots, seed):
    """Indices and counts as np.unique gave them before runs were counted."""
    draws = qaoa._rng(seed).random(shots)
    draws.sort()
    picks = np.searchsorted(np.cumsum(probs), draws, side="right")
    np.clip(picks, 0, len(probs) - 1, out=picks)
    return np.unique(picks, return_counts=True)


def _thirds(gap):
    """Three outcomes of 1/3 with ``gap`` zeros after each of the first
    two: with 12 289 shots, three blocks of 4096 and one draw, the block
    edges fall near cdf values 1/3 and 2/3, on those flat runs."""
    probs = np.zeros(2 * gap + 3)
    probs[::gap + 1] = 1 / 3
    return probs


def _long_cdf():
    """Seven outcomes whose cumulative sum ends above 1.0."""
    probs = np.full(7, 1 / 7)
    probs[-1] += 1e-15
    assert np.cumsum(probs)[-1] > 1.0
    return probs


@pytest.mark.parametrize("probs", [
    np.random.default_rng(3).dirichlet(np.ones(64)),
    np.random.default_rng(4).dirichlet(np.full(16, 0.05)),  # a few heavy outcomes
    np.eye(8)[0], np.eye(8)[3], np.eye(8)[7],  # point masses
    np.array([0.5, 0.0, 0.0, 0.5]),  # ties at the ends
    np.array([0.0, 0.5, 0.5, 0.0]),
    np.full(10, 0.1),  # the cumulative sum stops short of 1.0
    _long_cdf(),
    _thirds(1), _thirds(40),  # zero-probability runs at the block edges
    np.where(np.arange(512) % 64 < 40, 0.0, 1 / 192),  # many flat runs
], ids=["dirichlet", "sparse", "mass-first", "mass-middle", "mass-last",
        "ends", "inner", "short-cdf", "long-cdf", "thirds-1", "thirds-40", "flat-runs"])
@pytest.mark.parametrize("shots", [1, 7, 4095, 4096, 4097, 10_000, 12_289])
def test_sample_state_counts_runs_like_unique(probs, shots):
    """The blocked search of the sorted draws, 4096 at a time in the
    slice of the cdf they span, picks what one search of the whole cdf
    does, and the runs of equal picks count what np.unique does."""
    assert qaoa.SAMPLE_BLOCK == 4096
    d = sample_state(probs, tuple(range(len(probs))), shots=shots, seed=11)
    indices, counts = _unique_picks(probs, shots, 11)
    assert d.indices.dtype == d.counts.dtype == np.int64
    assert np.array_equal(d.indices, indices) and np.array_equal(d.counts, counts)
