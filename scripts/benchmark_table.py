#!/usr/bin/env python3
"""Run the full pipeline over the benchmark graphs and emit the summary table.

Each available dataset under data/instances/ is run once per listed
problem; missing datasets are reported with a pointer to
scripts/fetch_instances.py and skipped.  A synthetic block of seeded
random instances can be appended so the script produces a table even in
a fresh checkout (only the karate club graph ships).

The table columns match the batch CSV: instance sizes, kernel
statistics, solver status, sampled and post-processed profits, solution
sizes, and the estimated circuit cost of the residual model.

Examples:
    python scripts/benchmark_table.py --out results.csv
    python scripts/benchmark_table.py --solver qaoa --layers 2 --synthetic 6
"""

import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from profitcover.errors import DomainError  # noqa: E402
from profitcover.instances import gen_erdos_renyi_connected, load_graph  # noqa: E402
from profitcover.metrics import canonical_json, write_csv  # noqa: E402
from profitcover.pipeline import (  # noqa: E402
    REPORT_CSV_FIELDS,
    PipelineConfig,
    batch_documents,
    run_batch,
)

DATA_DIR = Path(__file__).resolve().parents[1] / "data" / "instances"

# dataset -> (problems to run, best published cover-size equivalent per problem)
BENCHMARKS = {
    "karate": (("maxis", "maxcl"), "published best: MaxIS 20, MaxCl 5"),
    "farm": (("maxis", "maxcl"), "published best: MaxIS 10, MaxCl 3"),
    "football": (("maxis", "maxcl"), "published best: MaxIS 16, MaxCl 6"),
    "chesapeake": (("maxis", "maxcl"), "published best: MaxIS 17, MaxCl 5"),
    "rt-retweet": (("minvc", "maxcl"), "published best: MinVC 32, MaxCl 4"),
    "mammalia-kangaroo-interactions": (("maxis", "maxcl"),
                                       "published best: MaxIS 4, MaxCl 9"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--solver", default="exact", choices=("exact", "qaoa", "random"),
                        help="solver for residual graphs (default exact)")
    parser.add_argument("--layers", type=int, default=1, help="QAOA depth p")
    parser.add_argument("--shots", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max-qubits", type=int, default=25)
    parser.add_argument("--synthetic", type=int, default=0, metavar="K",
                        help="append K seeded random instances (n=14, p=0.35)")
    parser.add_argument("--out", help="CSV path; stdout if omitted")
    parser.add_argument("--json", dest="json_out",
                        help="also write the full reports as canonical JSON")
    args = parser.parse_args(argv)
    try:
        base = PipelineConfig(problem="minvc", solver=args.solver, depth=args.layers,
                              shots=args.shots, seed=args.seed, max_qubits=args.max_qubits)
    except DomainError as err:
        parser.error(str(err))

    jobs = []
    for name, (problems, note) in BENCHMARKS.items():
        path = DATA_DIR / f"{name}.edges"
        if not path.exists():
            print(f"note: {name}: no file at {path}; fetch it with "
                  f"scripts/fetch_instances.py", file=sys.stderr)
            continue
        g = load_graph(path)
        for problem in problems:
            config = dataclasses.replace(base, problem=problem, reference_note=note)
            jobs.append((name, g, config))
    for k in range(args.synthetic):
        g = gen_erdos_renyi_connected(14, 0.35, seed=9000 + k)
        jobs.append((f"er-14-035-{k}", g, base))
    if not jobs:
        print("nothing to run: no datasets found and --synthetic 0", file=sys.stderr)
        return 1

    reports, rows = run_batch(jobs)
    for (name, _, config), row in zip(jobs, rows):
        status = row["error"] or (f"{config.problem}={row['sol_size']} "
                                  f"(cover {row['cover_size']}, status {row['status']})")
        print(f"{name}: {status}", file=sys.stderr)

    write_csv(args.out, REPORT_CSV_FIELDS, rows)
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    if args.json_out:
        Path(args.json_out).write_text(canonical_json(batch_documents(reports, rows)))
        print(f"wrote full reports to {args.json_out}", file=sys.stderr)
    return 0 if all(r is not None for r in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
