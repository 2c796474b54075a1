"""Benchmark for profitcover: time to a verified solution on one workload.

    python3 perfbench/run.py --workload qaoa-wide --seed 1 --seconds 15 --trace 0

One process drives ``pipeline.run_pipeline`` job after job: a closed loop
with one client. A round runs every job of the workload once. Rounds
repeat until they have taken ``--seconds``, and at least twice, so that
each job's canonical report is compared across repeats. With ``--trace 1``
untraced and traced rounds alternate; the traced rounds give the
per-layer metrics and must reproduce the untraced reports byte for byte.

Every job is checked by ``gate`` against an independent optimum. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any job
failed. A result file with provenance, and with ``--trace 1`` a JSONL file
of spans, is written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_SAMPLES = 7
MAX_LAYERS = 5
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# per-layer metric -> (span name, field of Tracer.totals)
SPAN_METRICS = {
    "qaoa.apply_mixer_s": ("qaoa.apply_mixer", "self_s"),
    "qaoa.apply_mixer_calls": ("qaoa.apply_mixer", "calls"),
    "qaoa.apply_phase_s": ("qaoa.apply_phase", "self_s"),
    "qaoa.apply_phase_calls": ("qaoa.apply_phase", "calls"),
    "qaoa.expectation_s": ("qaoa.expectation", "self_s"),
    "qaoa.train_layerwise_self_s": ("qaoa.train_layerwise", "self_s"),
    "qaoa.evolve_energies_s": ("qaoa.evolve_energies", "self_s"),
    "qaoa.evolve_energies_calls": ("qaoa.evolve_energies", "calls"),
    "qaoa.sample_state_s": ("qaoa.sample_state", "self_s"),
    "qaoa.state_bytes": ("qaoa.evolve_energies", "max_bytes"),
    "qaoa.mixer_bytes_computed": ("qaoa.apply_mixer", "bytes"),
    "model.energies_vector_s": ("model.energies_vector", "self_s"),
    "model.energies_vector_calls": ("model.energies_vector", "calls"),
    "model.energy_bytes": ("model.energies_vector", "bytes"),
    "model.build_ising_s": ("model.build_ising", "self_s"),
    "metrics.summarize_s": ("metrics.summarize", "self_s"),
    "metrics.summarize_exact_s": ("metrics.summarize_exact", "self_s"),
    "kernel.reduce_s": ("kernel.reduce", "self_s"),
    "kernel.reduce_calls": ("kernel.reduce", "calls"),
    "kernel.reconstruct_s": ("kernel.reconstruct", "self_s"),
    "oracle.min_vertex_cover_exact_s": ("oracle.min_vertex_cover_exact", "self_s"),
    "oracle.calls": ("oracle.min_vertex_cover_exact", "calls"),
    "postprocess.refine_s": ("postprocess.refine", "self_s"),
    "postprocess.finalize_s": ("postprocess.finalize", "self_s"),
    "postprocess.check_refined_s": ("postprocess.check_refined", "self_s"),
    "pipeline.run_pipeline_s": ("pipeline.run_pipeline", "total_s"),
    "pipeline.self_s": ("pipeline.run_pipeline", "self_s"),
}


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter that imports and generates anew."""
    out = subprocess.run([sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def job_counters(report) -> dict[str, float]:
    """Counters read from public report fields."""
    log = report.train_log.layers if report.train_log else ()
    refined = report.refined
    out = {
        "qaoa.evals": sum(rec.n_evals for rec in log),
        "kernel.rule_firings": sum(report.kernel.rule_counts.values()),
        "kernel.residual_n": report.kernel.reduced.n,
        "kernel.residual_m": report.kernel.reduced.m,
        "kernel.input_n": report.work_n,
        "postprocess.refine_gain": refined.profit_after - refined.profit_before if refined else 0,
    }
    for layer in range(1, MAX_LAYERS + 1):
        out[f"qaoa.evals_l{layer}"] = sum(rec.n_evals for rec in log if rec.layer == layer)
    return out


def run_round(jobs, order, run_pipeline, tracer, index, on_report):
    """One pass over the jobs in the given order; times and digests by job index."""
    times, digests = [0.0] * len(jobs), [""] * len(jobs)
    for j in order:
        job = jobs[j]
        if tracer is not None:
            tracer.job = f"{index}/{job.name}"
        start = time.perf_counter()
        try:
            report = run_pipeline(job.graph, job.config, job.name)
            text = report.canonical_json()
        except Exception as err:  # noqa: BLE001 - a failed job is counted, the run goes on
            report, text = None, f"error: {type(err).__name__}: {err}"
        times[j] = time.perf_counter() - start
        digests[j] = hashlib.sha256(text.encode()).hexdigest()
        on_report(job, report, text)
    return {"traced": tracer is not None, "round_s": sum(times), "job_s": times,
            "digests": digests}


def job_p90(job_s: list[float]) -> float:
    """90th percentile, interpolated between measured job times, never beyond them."""
    return statistics.quantiles(job_s, n=10, method="inclusive")[-1]


def pass_seconds(rounds) -> float:
    """Seconds of one pass over all jobs: each job's median over the rounds, summed."""
    return sum(statistics.median(col) for col in zip(*(rnd["job_s"] for rnd in rounds)))


def cache_sizes() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "caches": cache_sizes(),
        "git_commit": git_commit(),
        "load": "one process, closed loop with one client",
    }


def layer_metrics(totals, counters, overhead_s, setup_split) -> dict[str, float]:
    out = {name: totals.get(span, {}).get(field, 0) for name, (span, field) in SPAN_METRICS.items()}
    evals = counters["qaoa.evals"]
    train_s = totals.get("qaoa.train_layerwise", {}).get("total_s", 0.0)
    out["qaoa.eval_ms"] = 1000.0 * train_s / evals if evals else 0.0
    for name in ("qaoa.evals", "kernel.rule_firings", "kernel.residual_m",
                 "postprocess.refine_gain", "postprocess.optimal_frac", "qaoa.mass_opt_mean"):
        out[name] = counters[name]
    for layer in range(1, MAX_LAYERS + 1):
        out[f"qaoa.evals_l{layer}"] = counters[f"qaoa.evals_l{layer}"]
    inputs = counters["kernel.input_n"]
    out["kernel.residual_frac"] = counters["kernel.residual_n"] / inputs if inputs else 0.0
    out["trace.overhead_s"] = overhead_s
    out.update(setup_split)
    return out


def main(argv=None) -> int:
    if not (SRC / "profitcover" / "__init__.py").is_file():
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gate
    import numpy as np
    import spans
    import workloads
    from profitcover import pipeline

    args = parse_args(argv, workloads.WORKLOADS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    generation = spans.Tracer()
    t0 = time.perf_counter()
    with generation.installed(spans.SETUP_TARGETS):
        jobs = workloads.make_jobs(args.workload, args.seed)
    t1 = time.perf_counter()
    workloads.warm_up(jobs)
    setup_split = {
        "setup.generate_s": t1 - t0,
        "setup.warm_up_s": time.perf_counter() - t1,
        "instances.generate_s": sum(row["total_s"] for row in generation.totals().values()),
    }
    refs = {job.name: gate.reference(job) for job in jobs}
    # the inputs live for the whole run; keep the collector from rescanning them
    gc.collect()
    gc.freeze()

    first: dict[str, dict] = {}  # job name -> gate verdict, quality, counters

    def on_report(job, report, text):
        if job.name in first:
            return
        entry = {"problems": [text] if report is None else gate.check(job, report, refs[job.name])}
        if report is not None:
            entry["quality"] = gate.quality(job, report, refs[job.name])
            entry["counters"] = job_counters(report)
        first[job.name] = entry

    tracer = spans.Tracer() if args.trace else None
    traced_run = tracer.wrap(pipeline.run_pipeline, spans.ROOT_SPAN) if tracer else None
    # set-up is measured untraced only, by probes spread between the rounds,
    # so that they sample the machine over the same window as the rounds
    probes = 0 if args.trace else SETUP_SAMPLES
    setup, rounds, measured = [], [], 0.0
    while len(rounds) < 2 or measured < args.seconds:
        if len(setup) < probes:
            setup.append(setup_seconds(args.workload, args.seed))
        start = time.perf_counter()
        # a fresh order each round spreads every kind of job over the whole run
        order = np.random.default_rng([args.seed, len(rounds)]).permutation(len(jobs))
        if tracer is not None and len(rounds) % 2 == 1:
            with tracer.installed():
                rounds.append(run_round(jobs, order, traced_run, tracer, len(rounds), on_report))
        else:
            rounds.append(run_round(jobs, order, pipeline.run_pipeline, None, len(rounds),
                                    on_report))
        measured += time.perf_counter() - start
    setup += [setup_seconds(args.workload, args.seed) for _ in range(probes - len(setup))]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    for r, rnd in enumerate(rounds):
        for j, job in enumerate(jobs):
            problems = list(first[job.name]["problems"])
            if rnd["digests"][j] != rounds[0]["digests"][j]:
                problems.append("canonical report differs from round 0")
            if problems:
                failures.append({"round": r, "job": job.name, "problems": problems})
    attempted = len(rounds) * len(jobs)
    passed = [e for e in first.values() if "quality" in e]
    graded = [first[job.name]["quality"] for job in jobs
              if not job.canary and "quality" in first[job.name]]

    def mean(key):
        return statistics.fmean(q[key] for q in graded) if graded else 0.0

    counters = Counter()
    for entry in passed:
        counters.update(entry["counters"])
    counters["qaoa.mass_opt_mean"] = mean("mass_opt")
    counters["postprocess.optimal_frac"] = mean("optimal")

    plain = [rnd for rnd in rounds if not rnd["traced"]]
    if tracer is None:
        job_s = [t for rnd in plain for t in rnd["job_s"]]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": pass_seconds(plain),
            "job_p50_s": statistics.median(job_s),
            "job_p90_s": job_p90(job_s),
            "peak_rss_mb": peak_rss_mb,
            "solution_ratio_mean": mean("solution_ratio"),
            "exp_ratio_mean": mean("exp_ratio"),
            "sampled_ratio_mean": mean("sampled_ratio"),
        }
        absent = []
    else:
        traced = [(i, rnd) for i, rnd in enumerate(rounds) if rnd["traced"]]
        overhead = pass_seconds([rnd for _, rnd in traced]) - pass_seconds(plain)
        per_round = [layer_metrics(tracer.totals({f"{i}/{job.name}" for job in jobs}),
                                   counters, overhead, setup_split) for i, rnd in traced]
        values = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        absent = sorted(set(tracer.absent + generation.absent))

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"provenance": provenance(args), "result": result, "setup_samples": setup,
              "absent_targets": absent, "failures": failures,
              "rounds": [{k: v for k, v in rnd.items() if k != "digests"} for rnd in rounds]}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write_jsonl(Path(f"{stem}.spans.jsonl"))

    for failure in failures[:20]:
        print(f"FAIL round {failure['round']} {failure['job']}: {'; '.join(failure['problems'])}")
    for name in absent:
        print(f"absent: {name} (its metrics read 0)")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
