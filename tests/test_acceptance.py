"""Acceptance suite: one test per numbered shipping criterion.

Each test emits exactly one "[criterion N] PASS: ..." line on success or
fails with a single "[criterion N] FAIL: ..." message carrying the
diagnostics.  Criteria that need published benchmark graphs look for
them under data/instances/; only the karate club graph ships with the
repository.  A criterion whose graph has no file there is reported as
SKIPPED, with a reason naming each missing dataset, the file names
tried, and the remedy (scripts/fetch_instances.py).  A skip is not a
pass: the criterion is unverified on that checkout, and it runs
wherever the files are present.  A file that is present but parses to
the wrong (|V|, |E|) is not skipped; the test fails with the expected
size and the remedy.  The chesapeake half of criterion 2 is its own
test so that a missing chesapeake file does not hide the karate half,
which needs no download.

The criteria, in brief:
  1. preprocessing alone solves farm, football, rt-retweet, and the
     kangaroo complement, each under one second;
  2. exact end-to-end runs recover MaxIS 17 on chesapeake and a
     MaxIS of at least 19 on karate, each under a minute;
  3. 200-graph duality sweep: max profit equals |E| minus the minimum
     cover size, refinement respects the cover-size bound, and the
     exact pipeline returns optimal covers, zero violations;
  4. model energies equal minus profit bitwise on every basis state,
     and the depth-0 expectation equals the constant offset to 1e-12;
  5. layerwise training on 20 synthetic graphs: expectations monotone
     through depth 8, depth 1 strictly below the offset, and the mean
     near-optimal mass trending upward with depth;
  6. full-graph depth-1 sampling on the two 17-vertex benchmarks beats
     the random-sampling baseline and post-processes to the optimum;
  7. metrics sanity: threshold nesting, the K2 closed form, and
     sampled-vs-exact agreement at a million shots;
  8. byte-identical reports across repeat runs and thread settings.
"""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import complete_graph, cycle_graph, star_graph
from profitcover.graph import is_vertex_cover, profit
from profitcover.instances import gen_erdos_renyi_connected, gen_regular, load_graph
from profitcover.metrics import aggregate_mass_stats, depth_sweep, summarize, summarize_exact
from profitcover.model import build_ising
from profitcover.oracle import max_profit_exact, min_vertex_cover_exact
from profitcover.pipeline import PipelineConfig, run_pipeline
from profitcover.postprocess import refine
from profitcover.qaoa import (AngleSchedule, evolve, expectation_value, probabilities, sample,
                              train_layerwise, uniform_state)

DATA_DIR = Path(__file__).resolve().parents[1] / "data" / "instances"
FETCH_HINT = "download it with scripts/fetch_instances.py"

# name -> (expected (|V|, |E|), candidate file names under data/instances/)
DATASETS = {
    "karate": ((34, 78), ("karate.edges", "karate.mtx")),
    "farm": ((17, 39), ("farm.edges", "farm.mtx")),
    "football": ((35, 118), ("football.edges", "football.mtx")),
    "rt-retweet": ((96, 117), ("rt-retweet.edges", "rt-retweet.mtx", "rt_retweet.edges")),
    "mammalia-kangaroo-interactions": (
        (17, 91),
        ("mammalia-kangaroo-interactions.edges", "mammalia-kangaroo-interactions.mtx"),
    ),
    "chesapeake": ((39, 170), ("chesapeake.edges", "chesapeake.mtx")),
}


def _absent(names, data_dir):
    """The datasets among `names` with no candidate file under `data_dir`."""
    return [name for name in names
            if not any((data_dir / fname).exists() for fname in DATASETS[name][1])]


def _needs(*names):
    """Skip unless every named dataset has a file under data/instances.

    Only absence skips: a present file of the wrong size runs the test,
    which then fails with _load_dataset's mismatch diagnostic.
    """
    absent = _absent(names, DATA_DIR)
    tried = "; ".join(f"{name} (tried {', '.join(DATASETS[name][1])})" for name in absent)
    return pytest.mark.skipif(
        bool(absent),
        reason=f"unverified, no file under {DATA_DIR} for {tried}; "
               f"download with scripts/fetch_instances.py")


# Summaries emitted while this module runs; criterion 7 re-checks the
# threshold nesting on every one of them.
EMITTED_SUMMARIES = []


def _load_dataset(name):
    """Return (graph, None) on success or (None, diagnostic) on failure."""
    (exp_n, exp_m), candidates = DATASETS[name]
    for fname in candidates:
        path = DATA_DIR / fname
        if path.exists():
            g = load_graph(path)
            if (g.n, g.m) != (exp_n, exp_m):
                return None, (f"{name}: {path} parsed to (|V|,|E|)=({g.n},{g.m}), "
                              f"expected ({exp_n},{exp_m}); re-{FETCH_HINT}")
            return g, None
    return None, (f"{name}: no file under {DATA_DIR} "
                  f"(tried {', '.join(candidates)}); "
                  f"expected (|V|,|E|)=({exp_n},{exp_m}); {FETCH_HINT}")


def _collect(report):
    for s in (report.sampled_summary, report.exact_summary):
        if s is not None:
            EMITTED_SUMMARIES.append(s)


def _finish(num, failures, notes):
    if failures:
        detail = "; ".join(failures)
        if notes:
            detail += " [ok: " + "; ".join(notes) + "]"
        pytest.fail(f"[criterion {num}] FAIL: {detail}")
    print(f"[criterion {num}] PASS: " + "; ".join(notes))


@_needs("farm", "football", "rt-retweet", "mammalia-kangaroo-interactions")
def test_criterion_1_preprocessing_only_solves():
    """Four benchmark graphs are solved by the reduction rules alone."""
    jobs = [
        # (dataset, problem, target size, direction of "or better")
        ("farm", "maxis", 10, "ge"),
        ("football", "maxis", 16, "ge"),
        ("rt-retweet", "minvc", 32, "le"),
        ("mammalia-kangaroo-interactions", "maxcl", 9, "ge"),
    ]
    failures, notes = [], []
    for name, problem, target, sense in jobs:
        g, err = _load_dataset(name)
        if err is not None:
            failures.append(err)
            continue
        config = PipelineConfig(problem=problem, solver="exact", seed=1)
        t0 = time.perf_counter()
        report = run_pipeline(g, config, name=name)
        dt = time.perf_counter() - t0
        _collect(report)
        issues = []
        if report.status != "solved_by_preprocessing":
            issues.append(f"status={report.status!r}, wanted preprocessing-only")
        size_ok = (report.solution_size >= target if sense == "ge"
                   else report.solution_size <= target)
        if not size_ok:
            issues.append(f"{problem} size {report.solution_size}, target {sense} {target}")
        if not report.feasible:
            issues.append("solution failed feasibility re-check")
        if dt >= 1.0:
            issues.append(f"runtime {dt:.2f}s, budget 1s")
        if issues:
            failures.append(f"{name}: " + ", ".join(issues))
        else:
            notes.append(f"{name} {problem}={report.solution_size} in {dt * 1e3:.0f}ms")
    _finish(1, failures, notes)


def test_criterion_2_exact_end_to_end_named_instances():
    """Exact solver on the residuals reproduces karate's known optimum."""
    failures, notes = [], []

    g, err = _load_dataset("karate")
    if err is not None:
        failures.append(err)
    else:
        t0 = time.perf_counter()
        report = run_pipeline(g, PipelineConfig(problem="maxis", solver="exact", seed=1),
                              name="karate")
        dt = time.perf_counter() - t0
        _collect(report)
        if report.solution_size not in (19, 20):
            failures.append(f"karate MaxIS {report.solution_size}, wanted 19 or 20")
        elif dt >= 60.0:
            failures.append(f"karate runtime {dt:.1f}s, budget 60s")
        else:
            notes.append(f"karate maxis={report.solution_size} in {dt:.2f}s")

    _finish(2, failures, notes)


@_needs("chesapeake")
def test_criterion_2_chesapeake_exact_end_to_end():
    """Exact solver on the residuals reproduces chesapeake's known optimum."""
    failures, notes = [], []

    g, err = _load_dataset("chesapeake")
    if err is not None:
        failures.append(err)
    else:
        t0 = time.perf_counter()
        report = run_pipeline(g, PipelineConfig(problem="maxis", solver="exact", seed=1),
                              name="chesapeake")
        dt = time.perf_counter() - t0
        _collect(report)
        if report.solution_size != 17:
            failures.append(f"chesapeake MaxIS {report.solution_size}, known optimum 17")
        elif dt >= 60.0:
            failures.append(f"chesapeake runtime {dt:.1f}s, budget 60s")
        else:
            notes.append(f"chesapeake maxis=17 in {dt:.2f}s")

    _finish(2, failures, notes)


def test_criterion_3_duality_suite_200_graphs():
    """Profit/cover duality, refinement bound, and pipeline optimality."""
    t0 = time.perf_counter()
    rng = random.Random(20260815)
    violations = []
    for i in range(200):
        n = rng.randrange(4, 13)
        p = rng.choice((0.2, 0.3, 0.5, 0.7))
        g = gen_erdos_renyi_connected(n, p, seed=1000 + i)
        tag = f"#{i} er(n={n},p={p})"

        exact = min_vertex_cover_exact(g)
        _, best_profit = max_profit_exact(g)
        if best_profit != g.m - exact.opt_size:
            violations.append(f"{tag}: max profit {best_profit} != |E|-minVC "
                              f"{g.m - exact.opt_size}")

        start = frozenset(v for v in g.vertices if rng.random() < 0.5)
        refined = refine(g, start)
        if not is_vertex_cover(g, refined.cover_reduced):
            violations.append(f"{tag}: refine returned a non-cover")
        if len(refined.cover_reduced) > g.m - refined.profit_before:
            violations.append(f"{tag}: refined cover {len(refined.cover_reduced)} "
                              f"exceeds |E|-profit bound "
                              f"{g.m - refined.profit_before}")

        report = run_pipeline(g, PipelineConfig(problem="minvc", solver="exact", seed=i),
                              name=tag)
        if report.cover_size != exact.opt_size:
            violations.append(f"{tag}: pipeline cover {report.cover_size}, "
                              f"optimum {exact.opt_size}")
    dt = time.perf_counter() - t0
    failures = []
    if violations:
        failures.append(f"{len(violations)} violations, first: "
                        + " | ".join(violations[:5]))
    if dt >= 300.0:
        failures.append(f"runtime {dt:.0f}s, budget 300s")
    _finish(3, failures, [f"200 graphs, zero violations, {dt:.1f}s"])


def test_criterion_4_energy_identity_and_depth0_expectation():
    """Every basis-state energy equals minus the profit; depth-0 mean is the offset."""
    graphs = [
        ("K2", complete_graph(2)),
        ("K3", complete_graph(3)),
        ("C4", cycle_graph(4)),
        ("star6", star_graph(6)),
    ]
    for n, p, seed in ((5, 0.5, 41), (7, 0.4, 42), (8, 0.6, 43), (9, 0.3, 44),
                       (10, 0.5, 45), (11, 0.25, 46), (12, 0.4, 47)):
        graphs.append((f"er(n={n},p={p})", gen_erdos_renyi_connected(n, p, seed)))
    graphs.append(("3reg10", gen_regular(10, 3, seed=48)))

    violations = []
    states_checked = 0
    for tag, g in graphs:
        ising = build_ising(g)
        energies = ising.energies_vector()
        order = ising.vertex_order
        for idx in range(1 << g.n):
            subset = {order[j] for j in range(g.n) if (idx >> j) & 1}
            if energies[idx] != -profit(g, subset):
                violations.append(f"{tag}: state {idx} energy {energies[idx]} "
                                  f"!= -profit {-profit(g, subset)}")
        states_checked += 1 << g.n
        e0 = expectation_value(ising, AngleSchedule((), ()))
        if abs(e0 - ising.offset) > 1e-12:
            violations.append(f"{tag}: depth-0 expectation {e0!r} vs offset "
                              f"{ising.offset!r}, gap {abs(e0 - ising.offset):.2e}")
    failures = []
    if violations:
        failures.append(f"{len(violations)} violations, first: "
                        + " | ".join(violations[:5]))
    _finish(4, failures,
            [f"{len(graphs)} graphs, {states_checked} basis states bitwise exact, "
             f"depth-0 expectation within 1e-12"])


def test_criterion_5_depth_scaling_20_instances():
    """Layerwise training is monotone and concentrates near-optimal mass."""
    t0 = time.perf_counter()
    instances = []
    for i, n in enumerate((10, 12, 14)):
        for j, p in enumerate((0.1, 0.3, 0.5, 0.8)):
            g = gen_erdos_renyi_connected(n, p, seed=500 + 10 * i + j)
            instances.append((f"er(n={n},p={p})", g))
    for n, seed in ((8, 21), (10, 22), (12, 23), (14, 24),
                    (8, 25), (10, 26), (12, 27), (14, 28)):
        instances.append((f"3reg(n={n},s={seed})", gen_regular(n, 3, seed)))
    assert len(instances) == 20

    failures, sweeps = [], []
    for tag, g in instances:
        _, opt = max_profit_exact(g)
        ising = build_ising(g)
        sweep = depth_sweep(ising, range(0, 9), opt_profit=opt)
        sweeps.append(sweep)
        for pt in sweep.points:
            EMITTED_SUMMARIES.append(pt.summary)
        exp = {pt.depth: pt.expectation for pt in sweep.points}
        for d in range(1, 8):
            if exp[d + 1] > exp[d] + 1e-9:
                failures.append(f"{tag}: expectation rose {exp[d]:.6f} -> "
                                f"{exp[d + 1]:.6f} at depth {d + 1}")
        if not exp[1] < ising.offset:
            failures.append(f"{tag}: depth-1 expectation {exp[1]:.6f} not "
                            f"below offset {ising.offset}")

    stats = aggregate_mass_stats(sweeps)
    means = [stats[str(d)]["mass_90"]["mean"] for d in range(1, 9)]
    for k in range(len(means) - 1):
        if means[k + 1] < means[k] - 0.02:
            failures.append(f"mean mass_90 fell {means[k]:.4f} -> {means[k + 1]:.4f} "
                            f"from depth {k + 1} to {k + 2} (dip > 0.02)")
    dt = time.perf_counter() - t0
    if dt >= 1800.0:
        failures.append(f"runtime {dt:.0f}s, budget 1800s")
    _finish(5, failures,
            [f"20 instances monotone to depth 8, mean mass_90 "
             f"{means[0]:.3f}->{means[-1]:.3f}, {dt:.0f}s"])


@_needs("farm", "mammalia-kangaroo-interactions")
def test_criterion_6_full_graph_depth1_sampling():
    """Depth-1 sampling on the raw 17-vertex graphs beats random sampling."""
    jobs = [
        # (dataset, best sampled profit from uniform-random baseline, optimal MaxIS)
        ("farm", 31, 10),
        ("mammalia-kangaroo-interactions", 78, 4),
    ]
    failures, notes = [], []
    for name, baseline, maxis_opt in jobs:
        g, err = _load_dataset(name)
        if err is not None:
            failures.append(err)
            continue
        config = PipelineConfig(problem="maxis", solver="qaoa", depth=1,
                                shots=100_000, seed=1, rules=())
        report = run_pipeline(g, config, name=name)
        _collect(report)
        issues = []
        best = report.sampled_summary.best_profit
        if best < baseline:
            issues.append(f"best sampled profit {best} below baseline {baseline}")
        if report.solution_size != maxis_opt:
            issues.append(f"MaxIS {report.solution_size}, optimum {maxis_opt}")
        if issues:
            failures.append(f"{name}: " + ", ".join(issues))
        else:
            notes.append(f"{name} best profit {best} >= {baseline}, "
                         f"maxis={report.solution_size}")
    _finish(6, failures, notes)


def test_criterion_7_metrics_sanity():
    """Threshold nesting, the K2 closed form, and finite-shot agreement."""
    failures = []

    k2 = build_ising(complete_graph(2))
    s = summarize_exact(probabilities(uniform_state(2)), k2, 0)
    EMITTED_SUMMARIES.append(s)
    if s.mass_optimal != 0.75:
        failures.append(f"K2 uniform mass_optimal {s.mass_optimal!r} != 0.75")

    compared = ("weighted_average_profit", "expected_cover_size",
                "mass_optimal", "mass_90", "mass_80")
    for n, p, seed in ((6, 0.5, 31), (8, 0.4, 32), (10, 0.3, 33)):
        g = gen_erdos_renyi_connected(n, p, seed)
        ising = build_ising(g)
        _, opt = max_profit_exact(g)
        schedule, _, _ = train_layerwise(ising, 2)
        exact = summarize_exact(probabilities(evolve(ising, schedule)), ising, opt)
        sampled = summarize(sample(ising, schedule, 10**6, seed=77), ising, opt)
        EMITTED_SUMMARIES.extend((exact, sampled))
        for fieldname in compared:
            a, b = getattr(exact, fieldname), getattr(sampled, fieldname)
            if (a is None) != (b is None):
                failures.append(f"n={n}: {fieldname} defined on one side only")
            elif a is not None and abs(a - b) > 0.01:
                failures.append(f"n={n}: {fieldname} exact {a:.4f} vs sampled "
                                f"{b:.4f}, gap > 0.01")

    nested = 0
    for s in EMITTED_SUMMARIES:
        pairs = ((s.mass_optimal, s.mass_90), (s.mass_90, s.mass_80))
        for lo, hi in pairs:
            if lo is not None and hi is not None and lo > hi:
                failures.append(f"nesting broken: {lo} > {hi} in {s.kind} summary")
        nested += 1
    _finish(7, failures,
            [f"K2 mass 0.75 exact, 3 sampled-vs-exact pairs within 0.01, "
             f"nesting on {nested} summaries"])


def test_criterion_8_byte_identical_reports(tmp_path):
    """Same config, same bytes: repeat runs and different thread settings."""
    failures = []

    g = gen_erdos_renyi_connected(12, 0.4, seed=5)
    config = PipelineConfig(problem="minvc", solver="qaoa", depth=2,
                            shots=50_000, seed=9)
    r1 = run_pipeline(g, config, name="det")
    r2 = run_pipeline(g, config, name="det")
    _collect(r1)
    if r1.canonical_json() != r2.canonical_json():
        failures.append("repeat in-process runs differ")

    outputs = []
    for threads in ("1", "4"):
        out = tmp_path / f"report-{threads}.json"
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            env[var] = threads
        proc = subprocess.run(
            [sys.executable, "-m", "profitcover", "run",
             "--gen", "er:n=12,p=0.4,seed=5", "--problem", "minvc",
             "--layers", "2", "--shots", "50000", "--seed", "9",
             "--out", str(out)],
            env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            failures.append(f"CLI run with {threads} threads exited "
                            f"{proc.returncode}: {proc.stderr.strip()[:200]}")
        else:
            outputs.append(out.read_bytes())
    if len(outputs) == 2 and outputs[0] != outputs[1]:
        failures.append("reports differ across thread-count settings")
    _finish(8, failures,
            ["in-process repeat identical, 1-thread vs 4-thread CLI bytes identical"])


def test_dataset_guard_skips_only_absent_files(tmp_path, monkeypatch):
    """Only a missing file skips; a wrong-size file fails the criterion."""
    guarded = ("farm", "football", "rt-retweet",
               "mammalia-kangaroo-interactions", "chesapeake")
    assert _absent(guarded, tmp_path) == list(guarded)

    (tmp_path / "rt_retweet.edges").write_text("1 2\n")
    (tmp_path / "chesapeake.mtx").write_text("1 2\n")
    assert _absent(guarded, tmp_path) == ["farm", "football",
                                          "mammalia-kangaroo-interactions"]

    # A triangle stands in for every guarded graph: nothing is absent, so
    # no criterion would be skipped, and each one fails on the size check.
    for name in guarded:
        for fname in DATASETS[name][1]:
            (tmp_path / fname).unlink(missing_ok=True)
        (tmp_path / DATASETS[name][1][0]).write_text("1 2\n2 3\n1 3\n")
    assert _absent(guarded, tmp_path) == []
    monkeypatch.setattr(sys.modules[__name__], "DATA_DIR", tmp_path)
    for name in guarded:
        g, err = _load_dataset(name)
        assert g is None
        assert "parsed to (|V|,|E|)=(3,3)" in err, err
    for criterion in (test_criterion_1_preprocessing_only_solves,
                      test_criterion_2_chesapeake_exact_end_to_end,
                      test_criterion_6_full_graph_depth1_sampling):
        with pytest.raises(pytest.fail.Exception, match=r"FAIL: .*parsed to"):
            criterion()
