"""Smoke-size tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gate
import run
import spans
import workloads
from profitcover.pipeline import PipelineConfig, run_pipeline

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _small_job(problem="minvc", solver="qaoa"):
    g = workloads.regular_graph(np.random.default_rng(3), 10, 3)
    return workloads.Job("small", g, PipelineConfig(problem=problem, solver=solver,
                                                      shots=2000, seed=3))


def test_metric_names_are_well_formed_and_emitted():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    job = _small_job()
    counters = dict.fromkeys(run.job_counters(run_pipeline(job.graph, job.config)), 1)
    counters["qaoa.mass_opt_mean"] = counters["postprocess.optimal_frac"] = 1.0
    setup_split = dict.fromkeys(
        ["setup.generate_s", "setup.warm_up_s", "instances.generate_s"], 0.0)
    emitted = run.layer_metrics({}, counters, 0.0, setup_split)
    assert set(emitted) == {m["name"] for m in SPEC["per_layer"]}


def test_wrappers_restore_originals():
    targets = spans.TARGETS + (("qaoa", "no_such_fn", "x", None),)
    originals = {}
    for module, path, _, _ in targets:
        found = spans._resolve(module, path)
        if found:
            originals[(module, path)] = getattr(*found)
    tracer = spans.Tracer()
    job = _small_job()
    with tracer.installed(targets):
        for (module, path), original in originals.items():
            assert getattr(*spans._resolve(module, path)).__wrapped__ is original
        traced = run_pipeline(job.graph, job.config).canonical_json()
    for (module, path), original in originals.items():
        assert getattr(*spans._resolve(module, path)) is original
    assert tracer.absent == ["qaoa.no_such_fn"]
    names = {s[3] for s in tracer.spans}
    assert {"qaoa.apply_mixer", "model.energies_vector", "kernel.reduce"} <= names
    assert traced == run_pipeline(job.graph, job.config).canonical_json()


def test_p90_stays_within_measured_times():
    assert run.job_p90([1.0, 2.0]) == pytest.approx(1.9)
    times = [0.01 * k for k in range(1, 101)]
    assert min(times) <= run.job_p90(times) <= max(times)


def test_generation_is_traced_and_restored():
    original = workloads.instances.gen_regular
    tracer = spans.Tracer()
    with tracer.installed(spans.SETUP_TARGETS):
        jobs = workloads.make_jobs("classical", 2)
    assert workloads.instances.gen_regular is original
    totals = tracer.totals()
    assert totals["instances.gen_regular"]["calls"] >= 31
    assert totals["instances.gen_erdos_renyi_connected"]["calls"] == 30
    assert [j.graph for j in jobs] == [j.graph for j in workloads.make_jobs("classical", 2)]


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: sum(range(10_000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    totals = tracer.totals()
    assert totals["inner"]["calls"] == 3
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["total_s"] - totals["inner"]["total_s"])


@pytest.mark.parametrize("problem", ["minvc", "maxis", "maxcl"])
def test_gate_passes_real_reports_and_trips_on_corruption(problem):
    job = _small_job(problem)
    report = run_pipeline(job.graph, job.config)
    ref = gate.reference(job)
    assert gate.check(job, report, ref) == []
    if problem == "minvc":
        corrupt = set(report.solution) - {min(report.solution)}
    else:
        corrupt = set(report.solution) | (set(job.graph.vertices) - set(report.solution))
    bad = dataclasses.replace(report, solution=frozenset(corrupt))
    assert gate.check(job, bad, ref)


def test_gate_trips_on_suboptimal_exact_answer():
    job = _small_job(solver="exact")
    report = run_pipeline(job.graph, job.config)
    ref = gate.reference(job)
    assert gate.check(job, report, ref) == []
    everything = dataclasses.replace(report, solution=frozenset(job.graph.vertices))
    assert any("exact path" in p for p in gate.check(job, everything, ref))


def test_references_agree():
    rng = np.random.default_rng(5)
    for _ in range(3):
        g, left = workloads.sparse_bipartite_graph(rng, 18)
        brute = gate.brute_force_cover_size(g)
        assert brute == gate.konig_cover_size(g, left)
        assert brute == gate.min_vertex_cover_exact(g).opt_size


def test_jobs_follow_the_seed():
    a, b, c = (workloads.make_jobs("qaoa-deep", s) for s in (7, 7, 8))
    assert [j.graph for j in a] == [j.graph for j in b]
    assert [j.graph for j in a] != [j.graph for j in c]
    for job in a:
        assert all(job.graph.degree(v) == 3 for v in job.graph.vertices)


def test_fails_without_program_source(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "qaoa-deep",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""

