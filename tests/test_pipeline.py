"""End-to-end pipeline runs compared against the exact oracle."""

import json

import pytest

from profitcover.errors import CapacityError, DomainError
from profitcover.graph import (
    Graph,
    is_clique,
    is_independent_set,
    is_vertex_cover,
)
from profitcover import metrics, oracle, pipeline, qaoa
from profitcover.instances import gen_regular, load_graph
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
)

KARATE = "data/instances/karate.edges"


def test_config_validation():
    with pytest.raises(DomainError):
        PipelineConfig(problem="tsp")
    with pytest.raises(DomainError):
        PipelineConfig(solver="dwave")
    with pytest.raises(DomainError):
        PipelineConfig(depth=-1)
    with pytest.raises(DomainError):
        PipelineConfig(shots=0)
    for seed in (-1, 2 ** 128):  # outside the Philox keys
        with pytest.raises(DomainError):
            PipelineConfig(seed=seed)
    PipelineConfig(seed=2 ** 128 - 1)


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
    assert report.timings  # measured, available via with_timings
    assert "timings" in report.to_json_dict(with_timings=True)


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
    """The trained state is sampled as training left it, and its
    probabilities are computed once for sampling and the exact summary."""
    calls = {"evolve": 0, "probabilities": 0}
    training = [False]
    evolve, probabilities = qaoa.evolve, qaoa.probabilities
    train_layerwise = pipeline.train_layerwise

    def counting_evolve(*args, **kwargs):
        calls["evolve"] += 1
        return evolve(*args, **kwargs)

    def counting_probabilities(state):
        # training squares its own states for the expectations; those
        # calls are not the ones counted here
        if not training[0]:
            calls["probabilities"] += 1
        return probabilities(state)

    def flagged_train(*args, **kwargs):
        training[0] = True
        try:
            return train_layerwise(*args, **kwargs)
        finally:
            training[0] = False

    for module in (qaoa, metrics, pipeline):
        monkeypatch.setattr(module, "evolve", counting_evolve, raising=False)
        monkeypatch.setattr(module, "probabilities", counting_probabilities)
    monkeypatch.setattr(pipeline, "train_layerwise", flagged_train)
    config = PipelineConfig(solver=solver, depth=depth, shots=500, seed=3, rules=())
    report = run_pipeline(cycle_graph(7), config)
    assert report.status == "solver" and report.exact_summary is not None
    assert calls == {"evolve": 0, "probabilities": 1}
