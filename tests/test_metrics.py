"""Distribution summaries, threshold masses, and depth sweeps."""

import json
import tracemalloc
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profitcover import metrics, qaoa
from profitcover.errors import DomainError
from profitcover.metrics import (
    DEPTH_SWEEP_FIELDS,
    _summarize,
    aggregate_mass_stats,
    canonical_json,
    depth_sweep,
    depth_sweep_rows,
    lex_min_index,
    lex_min_of_mask,
    summarize,
    summarize_exact,
    write_csv,
)
from profitcover.model import bitstring_of_index, build_ising
from profitcover.oracle import max_profit_exact
from profitcover.pipeline import PipelineConfig, run_pipeline
from profitcover.qaoa import (
    CHUNK,
    AngleSchedule,
    SampleDistribution,
    evolve,
    probabilities,
    sample,
    train_layerwise,
    uniform_state,
)

from conftest import complete_graph, path_graph, random_gnp
from frozen_summary import summarize_profits
from profitcover.instances import gen_regular


def _uniform_exhaustive_dist(ising):
    """One count per basis state: the analytic uniform distribution."""
    n = ising.n
    return SampleDistribution(
        vertex_order=ising.vertex_order,
        shots=1 << n,
        seed=0,
        indices=np.arange(1 << n, dtype=np.int64),
        counts=np.ones(1 << n, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# summarize fundamentals


def test_k2_uniform_mass_optimal(k2):
    m = build_ising(k2)
    s = summarize(_uniform_exhaustive_dist(m), m, opt_profit=0)
    # optimal profit 0 is attained by 00, 10, 01 -> 3 of 4 equally likely
    assert s.mass_optimal == 0.75
    assert s.best_profit == 0.0
    assert s.mass_90 is None and s.mass_80 is None  # opt <= 0


def test_k2_uniform_expected_cover(k2):
    m = build_ising(k2)
    d = _uniform_exhaustive_dist(m)
    assert summarize(d, m).expected_cover_size == 1.25


def test_uniform_expected_cover_analytic():
    """Uniform expectation: |E|/4 + |V|/2 for any graph."""
    for seed in range(6):
        g = random_gnp(4 + seed, 0.5, 2500 + seed)
        m = build_ising(g)
        d = _uniform_exhaustive_dist(m)
        want = g.m / 4 + g.n / 2
        assert summarize(d, m).expected_cover_size == pytest.approx(want, abs=1e-12)


def test_single_outcome_at_optimum():
    g = complete_graph(3)
    m = build_ising(g)
    opt_subset, opt_profit = max_profit_exact(g)
    idx = sum(1 << j for j, v in enumerate(m.vertex_order) if v in opt_subset)
    d = SampleDistribution(m.vertex_order, 10, 0,
                           np.array([idx], dtype=np.int64),
                           np.array([10], dtype=np.int64))
    s = summarize(d, m, opt_profit)
    assert s.mass_optimal == 1.0 and s.approx_ratio_best == 1.0
    assert s.expected_cover_size == 2.0  # minVC(K3)


def test_empty_distribution_raises(k2):
    m = build_ising(k2)
    d = SampleDistribution(m.vertex_order, 1, 0,
                           np.array([], dtype=np.int64),
                           np.array([], dtype=np.int64))
    with pytest.raises(DomainError):
        summarize(d, m)


def test_most_likely_tie_prefers_lex_smallest(k2):
    m = build_ising(k2)
    # indices 1 ("10") and 2 ("01") tie on counts; "01" < "10"
    d = SampleDistribution(m.vertex_order, 8, 0,
                           np.array([1, 2], dtype=np.int64),
                           np.array([4, 4], dtype=np.int64))
    s = summarize(d, m)
    assert s.most_likely_bitstring == "01"


def test_best_profit_tie_prefers_lex_smallest(k2):
    m = build_ising(k2)
    # profits: "10" and "01" both 0 (the best present); lex pick "01"
    d = SampleDistribution(m.vertex_order, 9, 0,
                           np.array([1, 2, 3], dtype=np.int64),
                           np.array([3, 3, 3], dtype=np.int64))
    s = summarize(d, m)
    assert s.best_profit == 0.0
    assert s.best_bitstring == "01"


def test_lex_min_index_bit_reversal():
    # display strings: idx 1 -> "100", idx 4 -> "001", idx 2 -> "010"
    idxs = np.array([1, 2, 4], dtype=np.int64)
    assert lex_min_index(idxs, 3) == 4


def _lex_min_by_bit_reversal(indices, n):
    """The bit-reversal pick that the narrowing replaced, as a reference."""
    rev = np.zeros_like(indices)
    for j in range(n):
        rev |= ((indices >> j) & 1) << (n - 1 - j)
    return int(indices[np.argmin(rev)])


def test_lex_min_index_matches_bit_reversal():
    rng = np.random.default_rng(119)
    for n in range(1, 13):
        full = np.arange(1 << n, dtype=np.int64)
        sets = [full, full[::-1].copy(), full[-1:], full[:1]]
        for _ in range(40):
            size = int(rng.integers(1, (1 << n) + 1))
            sets.append(rng.choice(full, size, replace=False))
        for indices in sets:
            assert lex_min_index(indices, n) == _lex_min_by_bit_reversal(indices, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.sampled_from(["all", "single", "top", "sparse", "dense"]),
       st.integers(0, 2**32 - 1))
def test_lex_min_of_mask_matches_lex_min_index(n, kind, seed):
    rng = np.random.default_rng(seed)
    size = 1 << n
    if kind == "all":
        mask = np.ones(size, dtype=bool)
    elif kind in ("single", "top"):
        mask = np.zeros(size, dtype=bool)
        mask[size - 1 if kind == "top" else rng.integers(size)] = True
    else:
        mask = rng.random(size) < (0.02 if kind == "sparse" else 0.9)
        mask[rng.integers(size)] = True  # one entry must hold
    assert lex_min_of_mask(mask) == lex_min_index(np.flatnonzero(mask), n)


def test_threshold_is_integer_exact():
    """A profit of exactly 0.9*opt counts toward mass_90.

    0.9*30 = 27.000000000000004 in floats; the scaled-integer comparison
    must include profit 27.
    """
    g = random_gnp(6, 0.9, 1)
    m = build_ising(g)
    profits = -m.energies_vector()
    idx27 = int(np.flatnonzero(profits == profits.max())[0])
    d = SampleDistribution(m.vertex_order, 1, 0,
                           np.array([idx27], dtype=np.int64),
                           np.array([1], dtype=np.int64))
    prof = int(profits[idx27])
    s = summarize(d, m, opt_profit=prof)  # pretend this is 90% of opt...
    # direct construction: opt = 10*prof/9 only when divisible; instead
    # assert the rule on a fabricated pair (27, 30)
    # _summarize takes energies, minus the profits, and writes over its
    # weights, so each call gets its own
    out = _summarize("sampled", 1, np.array([0], dtype=np.int64), np.array([1.0]),
                     np.array([-27], dtype=np.int32), 1, 40, opt_profit=30)
    assert out.mass_90 == 1.0  # 27 >= 0.9*30 exactly
    out = _summarize("sampled", 1, np.array([0], dtype=np.int64), np.array([1.0]),
                     np.array([-26], dtype=np.int32), 1, 40, opt_profit=30)
    assert out.mass_90 == 0.0
    assert s.mass_optimal == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 10))
def test_threshold_nesting_and_weight_bounds(seed, scale):
    """mass_opt <= mass_90 <= mass_80 and the mean stays inside the range."""
    g = random_gnp(3 + seed % 8, 0.5, seed)
    if g.m == 0:
        return
    m = build_ising(g)
    d = sample(m, AngleSchedule((), ()), shots=scale * 500, seed=seed)
    _, opt = max_profit_exact(g)
    s = summarize(d, m, opt)
    if opt > 0:
        assert s.mass_optimal <= s.mass_90 <= s.mass_80 <= 1.0
        assert s.approx_ratio_best <= 1.0
    profits = -m.energies_vector()
    observed = profits[d.indices]
    assert observed.min() <= s.weighted_average_profit <= observed.max()


def test_sampled_summary_of_many_outcomes_matches_a_reference():
    """More distinct outcomes than one CHUNK slice, and not a power of
    two of them: the sampled summary sums its support directly. The
    reference reads the masses with the scaled integer comparisons."""
    g = gen_regular(16, 3, 7)
    m = build_ising(g)
    _, opt = max_profit_exact(g)
    d = sample(m, AngleSchedule((), ()), shots=100_000, seed=5)
    size = d.indices.size
    assert size > CHUNK and size & (size - 1)
    profits = -m.energies_vector()[d.indices]
    weights = d.counts / d.shots
    best = profits.max()
    top = d.counts.max()
    likely = _lex_min_by_bit_reversal(d.indices[d.counts == top], 16)
    mean = float(np.sum(weights * profits))
    want = {
        "kind": "sampled", "shots": d.shots, "n_distinct": size,
        "best_bitstring": bitstring_of_index(
            _lex_min_by_bit_reversal(d.indices[profits == best], 16), 16),
        "best_profit": float(best),
        "most_likely_bitstring": bitstring_of_index(likely, 16),
        "most_likely_profit": float(profits[np.searchsorted(d.indices, likely)]),
        "most_likely_probability": float(top / d.shots),
        "weighted_average_profit": mean,
        "expected_cover_size": float(g.m) - mean,
        "opt_profit": opt,
        "approx_ratio_best": float(best) / opt,
        "mass_optimal": float(np.sum(weights[profits == opt])),
        "mass_90": float(np.sum(weights[10 * profits >= 9 * opt])),
        "mass_80": float(np.sum(weights[5 * profits >= 4 * opt])),
    }
    assert canonical_json(summarize(d, m, opt).to_json_dict()) == canonical_json(want)


def test_sampled_close_to_exact_at_many_shots():
    g = random_gnp(8, 0.5, 321)
    m = build_ising(g)
    _, opt = max_profit_exact(g)
    state = uniform_state(m.n)
    exact = summarize_exact(probabilities(state), m, opt)
    from profitcover.qaoa import sample_state

    sampled = summarize(sample_state(probabilities(state), m.vertex_order, 1_000_000, 7),
                        m, opt)
    assert sampled.mass_optimal == pytest.approx(exact.mass_optimal, abs=0.01)
    assert sampled.mass_90 == pytest.approx(exact.mass_90, abs=0.01)
    assert sampled.mass_80 == pytest.approx(exact.mass_80, abs=0.01)
    assert sampled.weighted_average_profit == pytest.approx(
        exact.weighted_average_profit, abs=0.05)


def test_exact_summary_rejects_a_state(k3):
    m = build_ising(k3)
    with pytest.raises(DomainError, match="probabilities"):
        summarize_exact(uniform_state(3), m, opt_profit=1)


def _gathered_summary(probs, ising, opt_profit):
    """summarize_exact as it gathered the support for every distribution."""
    support = np.flatnonzero(probs > 0.0)
    return _summarize("exact", None, support, probs[support],
                      ising.energies_vector()[support], ising.n, ising.graph.m,
                      opt_profit)


@pytest.mark.parametrize("seed", range(4))
def test_exact_summary_dense_path_matches_the_gather(seed):
    """A uniform or trained state has no zero amplitude, so summarize_exact
    reads the whole vectors; zeroing one amplitude of the same state sends
    it down the gather. Both equal the gather formula, field by field, in
    bits. In the uniform state the most likely outcome is not the best."""
    g = gen_regular(12, 3, 60 + seed)
    m = build_ising(g)
    _, opt = max_profit_exact(g)
    _, _, probs = train_layerwise(m, seed % 3)
    assert probs.min() > 0.0
    sparse = probs.copy()
    sparse[int(np.argmax(probs))] = 0.0  # the most likely outcome moves
    for p in (probs, sparse):
        got, want = summarize_exact(p, m, opt), _gathered_summary(p, m, opt)
        assert canonical_json(got.to_json_dict()) == canonical_json(want.to_json_dict())
    assert summarize_exact(sparse, m, opt).n_distinct == probs.size - 1


def _same_bits(got, want) -> bool:
    """Equal field by field in bits: the canonical text tells -0.0 from 0.0."""
    return canonical_json(got.to_json_dict()) == canonical_json(want.to_json_dict())


# weights that tie often, and any positive double down to the least subnormal
_WEIGHTS = st.one_of(st.sampled_from([0.5, 0.25, 0.125, 1 / 3]),
                     st.floats(min_value=5e-324, max_value=1.0))


@st.composite
def _distributions(draw):
    """(n, weights, int32 energies) over all 2^n basis states; energies from
    a small range, so that several outcomes tie on the best one."""
    n = draw(st.integers(0, 6))
    size = 1 << n
    weights = np.array(draw(st.lists(_WEIGHTS, min_size=size, max_size=size)))
    energies = np.array(draw(st.lists(st.integers(-6, 4), min_size=size, max_size=size)),
                        dtype=np.int32)
    return n, weights, energies


@settings(max_examples=300, deadline=None)
@given(_distributions(), st.one_of(st.none(), st.integers(-2, 8)), st.data())
def test_energy_summary_matches_the_frozen_profit_summary(dist, opt, data):
    """Reading energies and negating only scalars and cut-offs gives the
    bits of the summary that read negated profits, on the dense path
    (every basis state) and on the gathered one (a support of them)."""
    n, weights, energies = dist
    profits = -energies
    got = _summarize("exact", None, None, weights, energies, n, 9, opt)
    want = summarize_profits("exact", None, None, weights, profits, n, 9, opt)
    assert _same_bits(got, want)
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=weights.size,
                                       max_size=weights.size)))
    keep[data.draw(st.integers(0, weights.size - 1))] = True  # not empty
    support = np.flatnonzero(keep)
    got = _summarize("sampled", 7, support, weights[support], energies[support], n, 9, opt)
    want = summarize_profits("sampled", 7, support, weights[support], profits[support],
                             n, 9, opt)
    assert _same_bits(got, want)


def test_energy_summary_resolves_ties_as_the_profit_summary():
    """Outcomes 1, 2 and 3 tie on the best profit and 0, 2 and 3 on the
    probability. Bit j is display position j, so the best is 2, "01",
    not the lower index 1, "10"."""
    energies = np.array([0, -2, -2, -2], dtype=np.int32)
    weights = np.array([0.25, 0.125, 0.25, 0.25])
    for support in (None, np.arange(4), np.array([1, 2, 3])):
        w = weights if support is None else weights[support]
        e = energies if support is None else energies[support]
        got = _summarize("exact", None, support, w.copy(), e, 2, 3, 2)
        assert _same_bits(got, summarize_profits("exact", None, support, w, -e, 2, 3, 2))
        assert got.best_bitstring == "01"
    assert _summarize("exact", None, None, weights, energies, 2, 3, 2).most_likely_bitstring == "00"


def test_zero_mean_profit_stays_positive_zero():
    """The uniform distribution on the path 0-1-2 has profits summing to
    zero: its mean is 0.0, not -0.0, in the exact summary, in the frozen
    profit summary and in a run's report."""
    m = build_ising(path_graph(3))
    probs = train_layerwise(m, 0)[2]
    got = summarize_exact(probs, m, 1)
    assert repr(got.weighted_average_profit) == "0.0"
    assert _same_bits(got, summarize_profits("exact", None, None, probs,
                                             -m.energies_vector(), 3, 2, 1))
    report = run_pipeline(path_graph(3), PipelineConfig(solver="random", rules=(), shots=64))
    assert repr(report.exact_summary.weighted_average_profit) == "0.0"
    assert "-0.0" not in report.canonical_json()


@pytest.mark.parametrize("uniform", [False, True], ids=["trained", "uniform"])
def test_dense_exact_summary_allocates_two_probability_vectors(uniform):
    """At n=16, 1.13 probability vectors above the inputs: one boolean
    mask at a time and the weights a mass selects, which at the low
    optimum given here are about one vector. A negated copy of the
    energies took half a vector more, 1.63. Ties build no index, so the
    uniform state, where every basis state ties on probability, costs no
    more than a trained one; with an index it took 2.63 vectors, and the
    gather took 5.1."""
    m = build_ising(gen_regular(16, 3, 2))
    probs = probabilities(uniform_state(16)) if uniform else train_layerwise(m, 1)[2]
    m.energies_vector()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        summarize_exact(probs, m, opt_profit=5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * probs.nbytes


def test_exact_summary_kind_and_shots(k3):
    m = build_ising(k3)
    s = summarize_exact(probabilities(uniform_state(3)), m, opt_profit=1)
    assert s.kind == "exact" and s.shots is None
    assert s.n_distinct == 8
    # profit 1 is attained by all three singletons and all three pairs
    assert s.mass_optimal == pytest.approx(6 / 8)


# ---------------------------------------------------------------------------
# canonical json


def test_canonical_json_stable():
    a = canonical_json({"b": 1, "a": [1, 2]})
    b = canonical_json({"a": [1, 2], "b": 1})
    assert a == b and a.endswith("\n")
    assert json.loads(a) == {"a": [1, 2], "b": 1}


def test_canonical_json_rejects_nan():
    for bad in (float("nan"), float("inf"), -float("inf")):
        for doc in ({"x": bad}, [1.0, [bad]], {"a": [0, {"b": bad}]}, {bad: 1}, bad):
            with pytest.raises(ValueError, match="not JSON compliant"):
                canonical_json(doc)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _outcome(encode, obj):
    """The text, or the type of the exception raised."""
    try:
        return encode(obj)
    except Exception as err:  # noqa: BLE001 - the type is the outcome
        return type(err)


_JSON_INTS = st.integers() | st.booleans() | st.sampled_from([2**70, -2**70, 2**63])
_JSON_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, 1e300, 1e-300, float("nan"), float("inf"), -float("inf")])
# any code point: non-ASCII, control characters and lone surrogates
_JSON_STRS = st.text(st.characters(exclude_categories=()), max_size=8)
_JSON_SCALARS = st.none() | _JSON_INTS | _JSON_FLOATS | _JSON_STRS
_JSON_DOCS = st.recursive(
    _JSON_SCALARS | st.lists(st.integers(), max_size=6),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        # one key type per dict, or any mix, which sorting mostly refuses
        | st.dictionaries(_JSON_STRS, inner, max_size=4)
        | st.dictionaries(_JSON_INTS | _JSON_FLOATS, inner, max_size=4)
        | st.dictionaries(_JSON_SCALARS, inner, max_size=3)),
    max_leaves=24)


@settings(max_examples=600, deadline=None)
@given(_JSON_DOCS)
def test_canonical_json_is_json_dumps(doc):
    assert _outcome(canonical_json, doc) == _outcome(_json_dumps, doc)


class _Level(IntEnum):
    LOW = 1
    HIGH = 20


@pytest.mark.parametrize("doc,text", [
    ({}, "{}\n"),
    ([], "[]\n"),
    ((), "[]\n"),
    ({"a": {}, "b": []}, '{\n  "a": {},\n  "b": []\n}\n'),
    (3, "3\n"),
    (-0.0, "-0.0\n"),
    ("\u00e9\n", '"\\u00e9\\n"\n'),
    (None, "null\n"),
    ({10: "a", 9: "b", 2.5: "c"}, '{\n  "2.5": "c",\n  "9": "b",\n  "10": "a"\n}\n'),
    ({True: 1, None: 2}, TypeError),
    ({"a": 1, 2: 3}, TypeError),
    ({(1, 2): 0}, TypeError),
    ({"x": np.float64(0.1), "y": [np.float64(-2.5)]}, '{\n  "x": 0.1,\n  "y": [\n    -2.5\n  ]\n}\n'),
    (np.int64(3), TypeError),
    ([1, np.int64(3)], TypeError),
    ({"s": {1, 2}}, TypeError),
    # an IntEnum is written by int.__repr__, not by its own repr
    ([1, _Level.HIGH], "[\n  1,\n  20\n]\n"),
    ({_Level.LOW: _Level.HIGH}, '{\n  "1": 20\n}\n'),
    ([2, True, 3], "[\n  2,\n  true,\n  3\n]\n"),
    ({"v": (5, -1, 2**70)}, '{\n  "v": [\n    5,\n    -1,\n    1180591620717411303424\n  ]\n}\n'),
])
def test_canonical_json_pinned_cases(doc, text):
    assert _outcome(canonical_json, doc) == _outcome(_json_dumps, doc) == text


# ---------------------------------------------------------------------------
# depth sweep


def test_depth_sweep_p0_is_uniform(monkeypatch):
    g = random_gnp(7, 0.5, 900)
    m = build_ising(g)
    _, opt = max_profit_exact(g)
    uniform = summarize_exact(probabilities(uniform_state(m.n)), m, opt)

    def no_state(n):
        raise AssertionError("a depth-0 sweep built a state")

    monkeypatch.setattr(qaoa, "uniform_state", no_state)
    sweep = depth_sweep(m, [0], opt_profit=opt)
    assert len(sweep.points) == 1
    pt = sweep.points[0]
    assert pt.depth == 0 and pt.gamma is None
    assert pt.summary == uniform
    assert pt.expectation == pytest.approx(m.offset, abs=1e-12)


def test_depth_sweep_expectation_monotone():
    g = gen_regular(10, 3, seed=4)
    m = build_ising(g)
    _, opt = max_profit_exact(g)
    sweep = depth_sweep(m, range(0, 6), opt_profit=opt)
    exps = [pt.expectation for pt in sweep.points]
    assert len(exps) == 6
    assert all(b <= a + 1e-9 for a, b in zip(exps, exps[1:]))


def test_depth_sweep_requested_depths_only():
    g = random_gnp(6, 0.5, 11)
    m = build_ising(g)
    sweep = depth_sweep(m, [0, 2, 4])
    assert [pt.depth for pt in sweep.points] == [0, 2, 4]
    assert sweep.schedule.p == 4


def test_depth_sweep_rejects_bad_depths(k2):
    m = build_ising(k2)
    for bad in ([], [-1, 2], [1.5, True], [1.5], [True], [2.0], [np.bool_(True)]):
        with pytest.raises(DomainError):
            depth_sweep(m, bad)


def test_depth_sweep_takes_numpy_integers():
    m = build_ising(random_gnp(6, 0.5, 11))
    assert depth_sweep(m, np.arange(3)) == depth_sweep(m, [0, 1, 2])


def test_depth_sweep_evolves_as_often_as_training(monkeypatch):
    """The sweep reads each layer from training; replaying the trained
    circuit to read the layers again would apply more mixers."""
    m = build_ising(gen_regular(8, 3, 5))
    calls = []
    mixer = qaoa.apply_mixer

    def counting_mixer(*args, **kwargs):
        calls.append(args[2])
        return mixer(*args, **kwargs)

    for module in (qaoa, metrics):  # wherever a caller may have imported it
        monkeypatch.setattr(module, "apply_mixer", counting_mixer, raising=False)
    train_layerwise(m, 4)
    trained = len(calls)
    calls.clear()
    depth_sweep(m, range(0, 5))
    assert trained > 0 and len(calls) == trained


def test_depth_sweep_points_are_the_evolved_truncated_schedules():
    """Each depth's summary is that of the state the truncated schedule
    evolves to, and its expectation is the log's record of that layer."""
    g = gen_regular(10, 3, 6)
    m = build_ising(g)
    _, opt = max_profit_exact(g)
    schedule, log, _ = train_layerwise(m, 5)
    sweep = depth_sweep(m, range(0, 6), opt_profit=opt)
    assert sweep.schedule == schedule
    for pt in sweep.points[1:]:
        d = pt.depth
        probs = probabilities(evolve(m, schedule.truncated(d)))
        assert pt.summary == summarize_exact(probs, m, opt)
        assert pt.expectation == log.expectations[d - 1]
        assert (pt.gamma, pt.beta) == (schedule.gammas[d - 1], schedule.betas[d - 1])


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_depth_sweep_peaks_at_training():
    """At n=16 the sweep holds no state beside training's: it peaked at
    3.38 states while it replayed the circuit. Its only extra objects
    through training are the summaries it keeps, well under a 64th of a
    state. Training itself stays at the prefix, the phased state and the
    mixer's buffer; a layer's probability vector kept through the next
    layer's evaluations would read about 3.5."""
    g = gen_regular(16, 3, 2)
    m = build_ising(g)
    state = 16 << m.n
    m.energies_vector()
    trained = {p: _traced_peak(lambda: train_layerwise(m, p)) for p in (2, 3)}
    swept = _traced_peak(lambda: depth_sweep(m, range(0, 4), opt_profit=5))
    assert max(trained.values()) <= 3.05 * state
    assert swept <= trained[3] + state // 64


def test_depth_sweep_csv_round_trip(tmp_path):
    g = random_gnp(6, 0.5, 12)
    m = build_ising(g)
    _, opt = max_profit_exact(g)
    sweep = depth_sweep(m, [0, 1], opt_profit=opt)
    rows = depth_sweep_rows("toy", sweep)
    assert [r["depth"] for r in rows] == [0, 1]
    path = tmp_path / "sweep.csv"
    write_csv(path, DEPTH_SWEEP_FIELDS, rows)
    text = path.read_text().splitlines()
    assert text[0] == ",".join(DEPTH_SWEEP_FIELDS)
    assert len(text) == 3


def test_aggregate_mass_stats():
    sweeps = []
    for seed in (1, 2, 3):
        g = random_gnp(6, 0.5, 2600 + seed)
        m = build_ising(g)
        _, opt = max_profit_exact(g)
        sweeps.append(depth_sweep(m, [0, 1], opt_profit=opt))
    stats = aggregate_mass_stats(sweeps)
    assert set(stats) == {"0", "1"}
    assert stats["0"]["mass_optimal"]["count"] == 3
    assert 0.0 <= stats["0"]["mass_optimal"]["mean"] <= 1.0
    assert stats["1"]["mass_optimal"]["var"] >= 0.0
