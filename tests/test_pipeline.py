"""End-to-end pipeline runs compared against the exact oracle."""

import collections
import json
import tracemalloc

import numpy as np
import pytest

from profitcover.errors import CapacityError, DomainError
from profitcover.graph import (
    Graph,
    complement,
    is_clique,
    is_independent_set,
    is_vertex_cover,
)
from profitcover import metrics, oracle, pipeline, qaoa
from profitcover.instances import gen_regular, load_graph, parse_gen
from profitcover.kernel import ALL_RULES
from profitcover.model import build_ising
from profitcover.pipeline import (
    REPORT_CSV_FIELDS,
    PipelineConfig,
    edge_coloring_colors,
    report_csv_row,
    run_batch,
    run_pipeline,
)

from conftest import (
    brute_min_cover_size,
    complete_graph,
    cycle_graph,
    path_graph,
    random_gnp,
    star_graph,
    tree_plus_chords,
)

KARATE = "data/instances/karate.edges"


@pytest.mark.parametrize("field", ["depth", "shots", "seed", "max_qubits"])
@pytest.mark.parametrize("value", [1.5, 2.0, True, "2", None, np.int64(2)])
def test_config_rejects_a_count_that_is_not_an_int(field, value):
    """A float seed would sample like its integer but print as a float; a
    float depth would fail in range() only after the oracle ran."""
    with pytest.raises(DomainError, match=field):
        PipelineConfig(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("rules", "sr"),                # a string, not a tuple of names
    ("rules", ["sr", "pr"]),        # a list would make the config unhashable
    ("rules", ("sr", "bogus")),     # not a rule
    ("rules", ("sr", 1)),
    ("rules", None),
    ("reference_note", 5),          # would print into canonical JSON
    ("reference_note", b"note"),
    ("reference_note", ["note"]),
    ("rules", ("sr", "sr")),        # two report texts for one run
])
def test_config_rejects_bad_rules_and_notes(field, value):
    with pytest.raises(DomainError, match=field):
        PipelineConfig(**{field: value})


def test_config_takes_rule_tuples_and_notes():
    for rules in ((), ("d2r",), ("lpr", "sr"), ALL_RULES):
        assert PipelineConfig(rules=rules).rules == rules
    assert PipelineConfig(reference_note="from the paper").reference_note == "from the paper"
    hash(PipelineConfig(reference_note=None))


def test_config_validation():
    with pytest.raises(DomainError):
        PipelineConfig(problem="tsp")
    with pytest.raises(DomainError):
        PipelineConfig(solver="dwave")
    with pytest.raises(DomainError):
        PipelineConfig(depth=-1)
    with pytest.raises(DomainError, match="max_qubits must be non-negative"):
        PipelineConfig(max_qubits=-1)
    with pytest.raises(DomainError):
        PipelineConfig(shots=0)
    for seed in (-1, 2 ** 128):  # outside the Philox keys
        with pytest.raises(DomainError):
            PipelineConfig(seed=seed)
    PipelineConfig(seed=2 ** 128 - 1)


def test_a_zero_qubit_limit_runs_what_the_kernel_solves():
    report = run_pipeline(path_graph(6), PipelineConfig(max_qubits=0))
    assert report.feasible and report.optimal and report.config.max_qubits == 0


def test_numpy_integer_labels_run_like_their_range_twin():
    """A run on np.int64 labels would reach its end and then fail to encode."""
    g = Graph(np.arange(4), zip(np.arange(3), np.arange(1, 4)))
    twin = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    assert g == twin and hash(g) == hash(twin)
    config = PipelineConfig(solver="exact")
    assert run_pipeline(g, config).canonical_json() == run_pipeline(twin, config).canonical_json()


def test_edge_coloring_bounds():
    # greedy edge coloring uses between Delta and 2*Delta-1 colors
    g = star_graph(5)
    assert edge_coloring_colors(g) == 5
    c = cycle_graph(6)
    assert 2 <= edge_coloring_colors(c) <= 3
    assert edge_coloring_colors(Graph(range(3), [])) == 0


def test_preprocessing_solves_tree():
    g = path_graph(7)
    report = run_pipeline(g, PipelineConfig(problem="minvc", solver="qaoa"))
    assert report.status == "solved_by_preprocessing"
    assert report.feasible and report.optimal
    assert report.cover_size == brute_min_cover_size(g) == 3
    assert report.schedule is None and report.sampled_summary is None
    assert report.two_qubit_gates == 0 and report.depth_proxy == 0


def test_exact_solver_small_dense():
    g = random_gnp(9, 0.6, 41)
    report = run_pipeline(g, PipelineConfig(solver="exact"))
    assert report.feasible and report.optimal
    assert report.cover_size == brute_min_cover_size(g)


@pytest.mark.parametrize("seed", range(25))
def test_exact_pipeline_matches_oracle(seed):
    n = 5 + seed % 6
    g = random_gnp(n, 0.45, 2700 + seed)
    report = run_pipeline(g, PipelineConfig(problem="minvc", solver="exact"))
    assert report.feasible
    assert report.cover_size == brute_min_cover_size(g)
    assert report.optimal is True
    assert is_vertex_cover(g, report.solution)


@pytest.mark.parametrize("problem", ["minvc", "maxis", "maxcl"])
def test_each_problem_feasible(problem):
    g = random_gnp(8, 0.5, 77)
    report = run_pipeline(g, PipelineConfig(problem=problem, solver="exact"))
    assert report.feasible
    if problem == "minvc":
        assert is_vertex_cover(g, report.solution)
    elif problem == "maxis":
        assert is_independent_set(g, report.solution)
    else:
        assert is_clique(g, report.solution)


def test_maxis_size_is_n_minus_cover():
    g = random_gnp(9, 0.5, 88)
    vc = run_pipeline(g, PipelineConfig(problem="minvc", solver="exact"))
    mis = run_pipeline(g, PipelineConfig(problem="maxis", solver="exact"))
    assert mis.solution_size == g.n - vc.cover_size
    assert mis.cover_size == vc.cover_size


def test_maxcl_uses_complement():
    g = complete_graph(5)
    report = run_pipeline(g, PipelineConfig(problem="maxcl", solver="exact"))
    assert report.solution_size == 5  # K5 is its own max clique
    assert report.work_m == 0  # complement of K5 is edgeless
    assert is_clique(g, report.solution)


@pytest.mark.parametrize("problem", ["minvc", "maxis", "maxcl"])
def test_a_run_never_reads_the_input_edge_list(problem, monkeypatch):
    """A Graph derives ``edges`` on every read, so the run path reads the
    input's adjacency only. maxcl works on the complement, so its input
    is the complement of the sparse graph."""
    # a tree plus n/4 chords, as the sparse inputs the kernel solves outright
    sparse = Graph(range(1000), tree_plus_chords(1000, 250, 1))
    g = complement(sparse) if problem == "maxcl" else sparse
    reads = collections.Counter()
    edges = Graph.edges

    def counted(self):
        reads[id(self)] += 1
        return edges.fget(self)

    monkeypatch.setattr(Graph, "edges", property(counted))
    report = run_pipeline(g, PipelineConfig(problem=problem, solver="exact"))
    assert report.feasible and report.status == "solved_by_preprocessing"
    assert reads[id(g)] == 0
    assert g.edges == edges.fget(g) and reads[id(g)] == 1


def test_karate_maxis_known_optimum():
    g = load_graph(KARATE)
    report = run_pipeline(g, PipelineConfig(problem="maxis", solver="exact"))
    assert report.solution_size == 20
    assert report.feasible
    assert is_independent_set(g, report.solution)


def test_karate_maxcl_known_optimum():
    g = load_graph(KARATE)
    report = run_pipeline(g, PipelineConfig(problem="maxcl", solver="exact"))
    assert report.solution_size == 5
    assert is_clique(g, report.solution)


def test_qaoa_path_end_to_end():
    g = random_gnp(10, 0.7, 5)
    cfg = PipelineConfig(problem="minvc", solver="qaoa", depth=2,
                         shots=20_000, seed=3, rules=())
    report = run_pipeline(g, cfg)
    assert report.status == "solver"
    assert report.feasible
    assert is_vertex_cover(g, report.solution)
    assert report.schedule is not None and report.schedule.p == 2
    assert report.sampled_summary is not None
    assert report.exact_summary is not None
    assert report.two_qubit_gates == 2 * g.m
    assert report.depth_proxy == 2 * edge_coloring_colors(g)
    # duality bound: the refined cover beats |E| minus the sampled profit
    assert report.cover_size <= g.m - report.refined.profit_before


def test_random_solver_is_p0_sampling():
    g = random_gnp(8, 0.6, 6)
    cfg = PipelineConfig(solver="random", shots=5000, seed=2, rules=())
    report = run_pipeline(g, cfg)
    assert report.status == "solver"
    assert report.schedule is None or report.schedule.p == 0
    assert report.feasible


@pytest.mark.parametrize("solver", ["random", "qaoa"])
@pytest.mark.parametrize("spec", ["regular:n=10,d=3,seed=1", "regular:n=12,d=3,seed=2",
                                  "er:n=9,p=0.6,seed=5"])
def test_canonical_report_prints_no_negative_zero(spec, solver):
    """Profits are negated integer energies, so the empty set's profit is
    0.0; a float energy vector printed it as -0.0."""
    name, g = parse_gen(spec)
    report = run_pipeline(g, PipelineConfig(solver=solver, shots=1000), name)
    assert report.status == "solver"
    assert "-0.0" not in report.canonical_json()


@pytest.mark.parametrize("seed", range(12))
def test_random_never_beats_exact(seed):
    """p=0 sampling plus rounding never produces a smaller cover than the
    exact solver (which is optimal)."""
    g = random_gnp(9, 0.5, 2800 + seed)
    exact = run_pipeline(g, PipelineConfig(problem="minvc", solver="exact"))
    rand = run_pipeline(g, PipelineConfig(problem="minvc", solver="random",
                                          shots=2000, seed=seed))
    assert rand.cover_size >= exact.cover_size
    assert rand.feasible


def test_empty_rules_keep_full_graph():
    g = path_graph(6)  # rules would solve this outright
    cfg = PipelineConfig(solver="exact", rules=())
    report = run_pipeline(g, cfg)
    assert report.status == "solver"
    assert report.kernel.reduced == g
    assert report.cover_size == brute_min_cover_size(g)


def test_rules_subset_respected():
    g = star_graph(6)
    cfg = PipelineConfig(solver="exact", rules=("sr",))
    report = run_pipeline(g, cfg)
    assert report.kernel.rule_counts.get("pr", 0) == 0
    assert report.feasible and report.optimal


def test_capacity_error_before_allocation():
    g = random_gnp(30, 0.2, 1)
    cfg = PipelineConfig(solver="qaoa", rules=())
    with pytest.raises(CapacityError, match="30"):
        run_pipeline(g, cfg)


def test_width_is_checked_before_the_oracle(monkeypatch):
    """A run too wide for the statevector fails before the reference
    oracle, which on this 30-vertex residual would run first."""
    calls = []
    exact = pipeline.min_vertex_cover_exact

    def counting_exact(g):
        calls.append(g.n)
        return exact(g)

    monkeypatch.setattr(pipeline, "min_vertex_cover_exact", counting_exact)
    with pytest.raises(CapacityError, match="30"):
        run_pipeline(gen_regular(30, 3, 1), PipelineConfig())
    assert calls == []


def test_memory_check_runs_before_the_oracle_and_allocates_no_state(monkeypatch):
    """Physical memory patched to 32 MiB, below the peak of a depth-1 run
    of 20 qubits (2.32 states of 16 MiB: the energies, the prefix beside
    its probabilities and their exact summary): the run stops before the
    oracle, having allocated far less than one state."""
    calls = []
    monkeypatch.setattr(pipeline, "min_vertex_cover_exact", lambda g: calls.append(g.n))
    monkeypatch.setattr(qaoa, "physical_memory", lambda: 1 << 25)
    g = gen_regular(20, 3, 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="a run of 20 qubits at depth 1 with 100000 "
                                                "shots needs 38928384 bytes at its peak, "
                                                "above the 33554432 bytes of physical memory"):
            run_pipeline(g, PipelineConfig(rules=()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    assert peak < (16 << 20) // 16


def _oracle_must_not_run(g):
    raise AssertionError("the oracle ran")


@pytest.mark.parametrize("solver", ["random", "qaoa"])
def test_shot_check_runs_before_the_oracle(monkeypatch, solver):
    """Physical memory patched to 1 MiB: 2^17 shots on 8 qubits need 8
    bytes each for the draws, 32 KiB for a block's run mask, 16 for each
    of the at most 256 runs (its index and start, and its offset in a
    block) and the 1 KiB of energies, at depth 0 and at depth 1 alike, so
    the run stops before the oracle."""
    monkeypatch.setattr(pipeline, "min_vertex_cover_exact", _oracle_must_not_run)
    monkeypatch.setattr(qaoa, "physical_memory", lambda: 1 << 20)
    config = PipelineConfig(solver=solver, rules=(), shots=1 << 17)
    with pytest.raises(CapacityError, match="with 131072 shots needs 1086464 bytes "
                                            r"at its peak, above the 1048576 bytes"):
        run_pipeline(gen_regular(8, 3, 1), config)


def test_shot_check_admits_buffers_that_fit_exactly(monkeypatch):
    """8 bytes a shot, a block's 32 KiB run mask, 16 bytes a run of 2^8
    states and 4 for each state's energy fill the patched memory exactly;
    one byte less is refused."""
    shots = 116_280
    need = 8 * shots + (1 << 15) + 16 * 256 + 4 * 256
    assert need == qaoa.peak_bytes(8, 0, shots) == 968_128
    monkeypatch.setattr(qaoa, "physical_memory", lambda: need)
    g = gen_regular(8, 3, 1)
    report = run_pipeline(g, PipelineConfig(solver="random", rules=(), shots=shots))
    assert report.sample_dist.shots == shots
    monkeypatch.setattr(qaoa, "physical_memory", lambda: need - 1)
    with pytest.raises(CapacityError, match="with 116280 shots needs 968128 bytes "
                                            r"at its peak, above the 968127 bytes"):
        run_pipeline(g, PipelineConfig(solver="random", rules=(), shots=shots))


# Python-side objects beside the arrays that peak_bytes counts: the
# graph's copies, the kernel's and the oracle's sets, the optimizer's
# points and the report; the grid below reaches about 28 KiB
PYTHON_SLACK = 64 << 10


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_peak_bytes_bounds_every_traced_peak():
    """run_pipeline and depth_sweep on 3-regular graphs of 12 to 16
    qubits, at depths 0 to 3 and with shots on both sides of 2^n: every
    traced peak is at most peak_bytes plus PYTHON_SLACK, and at n=16
    peak_bytes exceeds it by at most 0.75 states."""
    for n in (12, 14, 16):
        g = gen_regular(n, 3, 1)
        ising = build_ising(g)
        opt = oracle.max_profit_exact(g)[1]
        size, state = 1 << n, 16 << n
        runs = [("random", 0, shots) for shots in (100, size // 8, size, 4 * size)]
        runs += [("qaoa", depth, shots) for depth in (1, 2, 3) for shots in (size // 2, 2 * size)]
        points = []
        for solver, depth, shots in runs:
            config = PipelineConfig(solver=solver, depth=depth, shots=shots, rules=(),
                                    max_qubits=n)
            points.append((f"run {solver} {depth} {shots}", qaoa.peak_bytes(n, depth, shots),
                           _traced_peak(lambda: run_pipeline(g, config))))
        for depth in (0, 1, 3):
            points.append((f"sweep {depth}", qaoa.peak_bytes(n, depth), _traced_peak(
                lambda: metrics.depth_sweep(ising, range(depth + 1), opt_profit=opt,
                                            max_qubits=n))))
        for name, model, peak in points:
            assert peak <= model + PYTHON_SLACK, (n, name, model, peak)
            if n == 16:
                assert model - peak <= 0.75 * state, (n, name, model, peak)


def test_a_readout_beyond_memory_is_refused_before_the_oracle(monkeypatch):
    """A random run at n=12 with 30 000 shots holds the energies, 8 bytes a
    draw, a block's one-byte mask of the 30 000 picks and 16 bytes for
    each of the 2^12 runs, 351 920 bytes. Physical memory patched to
    305 536 bytes, which the shot buffers alone fit, stops it before the
    oracle; patched to its peak, it runs and its traced peak fits."""
    g = gen_regular(12, 3, 1)
    config = PipelineConfig(solver="random", rules=(), shots=30_000)
    need = qaoa.peak_bytes(12, 0, 30_000)
    assert need == (4 << 12) + 8 * 30_000 + 30_000 + (16 << 12) == 351_920
    monkeypatch.setattr(qaoa, "physical_memory", lambda: 305_536)
    exact = pipeline.min_vertex_cover_exact
    monkeypatch.setattr(pipeline, "min_vertex_cover_exact", _oracle_must_not_run)
    with pytest.raises(CapacityError, match="needs 351920 bytes at its peak, "
                                            "above the 305536 bytes"):
        run_pipeline(g, config)
    monkeypatch.setattr(pipeline, "min_vertex_cover_exact", exact)
    monkeypatch.setattr(qaoa, "physical_memory", lambda: need)
    assert _traced_peak(lambda: run_pipeline(g, config)) <= need + PYTHON_SLACK


def test_a_depth_1_run_below_four_states_is_admitted(monkeypatch):
    """A depth-1 run at n=16 peaks at 2.4375 states: the energies, and the
    prefix beside its probabilities and their exact summary. With physical
    memory patched to that figure, below the four states once asked of
    every run, it runs and its traced peak fits; one byte less is
    refused."""
    g = gen_regular(16, 3, 1)
    config = PipelineConfig(depth=1, rules=(), shots=1000)
    need = qaoa.peak_bytes(16, 1, 1000)
    assert need == 2.4375 * (16 << 16) == 2_555_904 < 4 * (16 << 16)
    monkeypatch.setattr(qaoa, "physical_memory", lambda: need)
    assert _traced_peak(lambda: run_pipeline(g, config)) <= need + PYTHON_SLACK
    monkeypatch.setattr(qaoa, "physical_memory", lambda: need - 1)
    with pytest.raises(CapacityError, match="needs 2555904 bytes at its peak"):
        run_pipeline(g, config)


@pytest.mark.parametrize("solver,depth", [("random", 0), ("qaoa", 1), ("qaoa", 2)])
def test_in_place_readout_samples_as_sample_state(solver, depth):
    """The run turns its probability vector into the cdf in place and
    writes the picks over the draws; sample_state on the same trained
    vector gives the same uint32 indices and counts."""
    g = gen_regular(12, 3, 4)
    config = PipelineConfig(solver=solver, depth=depth, rules=(), shots=20_000, seed=6)
    report = run_pipeline(g, config)
    ising = build_ising(g)
    probs = qaoa.train_layerwise(ising, report.schedule.p)[2]
    want = qaoa.sample_state(probs, ising.vertex_order, config.shots, config.seed)
    got = report.sample_dist
    assert got.indices.dtype == got.counts.dtype == np.uint32
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.counts, want.counts)


def test_a_report_distribution_is_read_only():
    """A report's indices and counts refuse writes, so a caller cannot edit
    the counts that --emit-distribution prints."""
    config = PipelineConfig(solver="random", rules=(), shots=500)
    dist = run_pipeline(gen_regular(8, 3, 1), config).sample_dist
    for runs in (dist.indices, dist.counts):
        with pytest.raises(ValueError, match="read-only"):
            runs[0] = 0


@pytest.mark.parametrize("n,shots", [(12, 1000), (12, 1 << 14), (16, 1 << 16)])
def test_a_report_distribution_holds_8_bytes_a_run(n, shots):
    """The indices and counts of a random run are uint32 arrays of their
    own, exactly one entry a run: 8 bytes a run, where they took 16."""
    config = PipelineConfig(solver="random", rules=(), shots=shots, seed=2)
    dist = run_pipeline(gen_regular(n, 3, 1), config).sample_dist
    for runs in (dist.indices, dist.counts):
        assert runs.base is None and runs.dtype == np.uint32
    assert dist.indices.nbytes + dist.counts.nbytes == 8 * dist.indices.size


def test_a_sampling_job_peaks_while_it_inverts_the_cdf():
    """The uniform-sampling job of the benchmark (a random run at n=20 with
    10^6 shots) holds the most while it inverts the cdf: the energies
    (4 bytes a state), the cdf (8 a state), the draws (8 a shot) and the
    picks of one block. Counting its about 645 000 runs and summarizing
    them stay below that, with the int64 copy of the indices that the
    summary's search once made."""
    n, shots = 20, 1_000_000
    config = PipelineConfig(solver="random", rules=(), shots=shots, seed=1)
    g = gen_regular(n, 3, 3)
    invert = (4 << n) + (8 << n) + 8 * shots + 8 * qaoa.SAMPLE_BLOCK
    assert _traced_peak(lambda: run_pipeline(g, config)) <= invert + PYTHON_SLACK


def test_random_run_readout_peak():
    """A random-solver run at n=16 with 2^16 shots peaks in the readout,
    at 2.59 probability vectors, while it inverts the cdf: the energies
    (half a vector), the cdf and the draws. Counting the whole picks into
    int64 starts and indices of about 0.63*2^16 runs peaked at 2.91, and
    sampling from a second cdf with separate picks, beside the
    probabilities and a negated copy of the energies, at 4.54."""
    g = gen_regular(16, 3, 1)
    config = PipelineConfig(solver="random", rules=(), shots=1 << 16, seed=1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_pipeline(g, config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (8 << 16)


def test_exact_runs_are_not_shot_checked(monkeypatch):
    monkeypatch.setattr(qaoa, "physical_memory", lambda: 1 << 20)
    report = run_pipeline(gen_regular(8, 3, 1),
                          PipelineConfig(solver="exact", rules=(), shots=10 ** 13))
    assert report.optimal


def test_report_determinism_bytewise():
    g = random_gnp(11, 0.5, 99)
    cfg = PipelineConfig(problem="maxis", solver="qaoa", depth=2,
                         shots=30_000, seed=17)
    a = run_pipeline(g, cfg, "twin")
    b = run_pipeline(g, cfg, "twin")
    assert a.canonical_json() == b.canonical_json()


def test_report_json_has_no_timings():
    g = random_gnp(7, 0.5, 15)
    report = run_pipeline(g, PipelineConfig(solver="exact"))
    doc = json.loads(report.canonical_json())
    assert "timings" not in doc
    assert report.timings  # measured, kept on the report


def test_alpha_solution_semantics():
    g = random_gnp(9, 0.5, 23)
    vc = run_pipeline(g, PipelineConfig(problem="minvc", solver="exact"))
    assert vc.alpha_solution == 1.0  # optimal run
    mis = run_pipeline(g, PipelineConfig(problem="maxis", solver="exact"))
    assert mis.alpha_solution == 1.0


@pytest.mark.parametrize("problem", ["minvc", "maxis"])
@pytest.mark.parametrize("g", [Graph([0], []), Graph([], [])], ids=["edgeless", "empty"])
def test_alpha_solution_of_an_empty_optimum(g, problem):
    """An optimal answer of size 0 (a cover of an edgeless graph, an
    independent set of the empty graph) has ratio 1.0, not None."""
    report = run_pipeline(g, PipelineConfig(problem=problem, solver="exact"))
    assert report.optimal is True
    assert report.alpha_solution == 1.0


def test_exhausted_oracle_budget(monkeypatch):
    """The exact solver fails; any other solver runs on without a reference."""
    g = gen_regular(10, 3, 1)  # its residual needs a branching search
    monkeypatch.setattr(oracle, "NODE_BUDGET", 1)
    with pytest.raises(CapacityError, match="budget"):
        run_pipeline(g, PipelineConfig(solver="exact"))
    random_run = PipelineConfig(solver="random", shots=1000)
    report = run_pipeline(g, random_run)
    assert report.status == "solver" and report.feasible
    assert report.optimal is None
    assert report.alpha_solution is None
    assert report.reference_cover_size is None
    reports, rows = run_batch([("exact", g, PipelineConfig(solver="exact")),
                               ("random", g, random_run)])
    assert reports[0] is None and rows[0]["error"].startswith("CapacityError")
    assert rows[1]["error"] == ""
    assert rows[1]["optimal"] is None
    assert rows[1]["alpha_solution"] is None
    assert rows[1]["reference_cover_size"] is None


def test_csv_row_fields_complete():
    g = random_gnp(8, 0.5, 31)
    report = run_pipeline(g, PipelineConfig(solver="exact"), "rowtest")
    row = report_csv_row(report)
    assert set(row) == set(REPORT_CSV_FIELDS)
    assert row["name"] == "rowtest"
    assert row["error"] == ""


def test_run_batch_empty():
    reports, rows = run_batch([])
    assert reports == [] and rows == []


def test_run_batch_duplicate_configs_identical():
    g = random_gnp(8, 0.6, 44)
    cfg = PipelineConfig(solver="qaoa", depth=1, shots=5000, seed=5)
    reports, rows = run_batch([("a", g, cfg), ("a", g, cfg)])
    assert rows[0] == rows[1]
    assert reports[0].canonical_json() == reports[1].canonical_json()


def test_run_batch_row_errors_recorded():
    g_ok = random_gnp(6, 0.5, 1)
    g_big = random_gnp(28, 0.2, 1)
    cfg = PipelineConfig(solver="qaoa", rules=(), depth=1, shots=100)
    reports, rows = run_batch([("ok", g_ok, cfg), ("big", g_big, cfg)])
    assert len(rows) == 2
    assert rows[0]["error"] == ""
    assert "CapacityError" in rows[1]["error"]
    assert reports[1] is None


def test_batch_documents_name_failed_jobs():
    g = random_gnp(6, 0.5, 1)
    narrow = PipelineConfig(solver="random", rules=(), max_qubits=2, shots=100)
    reports, rows = run_batch([("ok", g, PipelineConfig(solver="exact")),
                               ("narrow", g, narrow)])
    docs = pipeline.batch_documents(reports, rows)
    assert docs[0] == reports[0].to_json_dict()
    assert docs[1] == {"name": "narrow", "error": rows[1]["error"]}
    assert rows[1]["error"].startswith("CapacityError")


def test_layer_and_exact_summary_json_keys():
    """Keys of the report parts that no golden digest pins."""
    config = PipelineConfig(depth=1, shots=500, seed=3, rules=())
    doc = json.loads(run_pipeline(cycle_graph(7), config).canonical_json())
    assert sorted(doc["training"]["log"]["layers"][0]) == [
        "beta", "expectation", "gamma", "layer", "n_evals"]
    assert sorted(doc["distribution"]["exact"]) == [
        "approx_ratio_best", "best_bitstring", "best_profit", "expected_cover_size",
        "kind", "mass_80", "mass_90", "mass_optimal", "most_likely_bitstring",
        "most_likely_probability", "most_likely_profit", "n_distinct", "opt_profit",
        "shots", "weighted_average_profit"]


def test_reference_cover_size_consistency():
    """Residual optimum plus committed plus folds equals the reference."""
    for seed in range(10):
        g = random_gnp(10, 0.4, 2900 + seed)
        report = run_pipeline(g, PipelineConfig(problem="minvc", solver="exact"))
        assert report.reference_cover_size == brute_min_cover_size(g)
        assert report.cover_size == report.reference_cover_size


@pytest.mark.parametrize("solver,depth", [("qaoa", 2), ("qaoa", 0), ("random", 0)])
def test_run_pipeline_evolves_once_and_squares_once(monkeypatch, solver, depth):
    """The trained state is sampled as training left it: training squares
    the state after each trained layer once, besides the expectations of
    its search, and the pipeline squares nothing of its own."""
    calls = {"evolve": 0, "train_layerwise": 0, "run_pipeline": 0}
    caller = ["run_pipeline"]
    evolve, probabilities = qaoa.evolve, qaoa.probabilities

    def counting_evolve(*args, **kwargs):
        calls["evolve"] += 1
        return evolve(*args, **kwargs)

    def counting_probabilities(state):
        # the expectations of the search square their own states
        if caller[-1] != "expectation":
            calls[caller[-1]] += 1
        return probabilities(state)

    def marked(name, fn):
        def call(*args, **kwargs):
            caller.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                caller.pop()
        return call

    for module in (qaoa, metrics, pipeline):
        monkeypatch.setattr(module, "evolve", counting_evolve, raising=False)
        monkeypatch.setattr(module, "probabilities", counting_probabilities,
                            raising=False)
    monkeypatch.setattr(qaoa, "expectation", marked("expectation", qaoa.expectation))
    monkeypatch.setattr(pipeline, "train_layerwise",
                        marked("train_layerwise", pipeline.train_layerwise))
    config = PipelineConfig(solver=solver, depth=depth, shots=500, seed=3, rules=())
    report = run_pipeline(cycle_graph(7), config)
    assert report.status == "solver" and report.exact_summary is not None
    # at depth 0 training fills in the uniform distribution and squares nothing
    assert calls == {"evolve": 0, "train_layerwise": depth, "run_pipeline": 0}


def test_random_solver_builds_no_state(monkeypatch):
    def no_state(n):
        raise AssertionError("the random solver built a state")

    monkeypatch.setattr(qaoa, "uniform_state", no_state)
    config = PipelineConfig(solver="random", shots=500, seed=3, rules=())
    assert run_pipeline(cycle_graph(7), config).status == "solver"
