#!/usr/bin/env python3
"""Print one sha256 digest of a benchmark workload's reports per seed.

For every pair of --workload and --seed the script builds the workload's
jobs with ``perfbench/workloads.py``, runs ``run_pipeline`` on each job
once, in job order, and hashes each report's canonical JSON followed,
where the job sampled, by the int64 bytes of its sampled basis-state
indices and of their counts. It prints one line per pair, the 64 hex
digits alone, workload by workload and, within one, seed by seed, in the
order given. Two source trees print the same line for a pair only if
every report and every sample of it is byte-identical.

The workloads module is imported as it stands and no bytecode is
written beside it.

Examples:
    python scripts/report_digests.py --workload qaoa-wide --seed 1
    python scripts/report_digests.py --seed 1 --seed 2
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from profitcover.pipeline import run_pipeline  # noqa: E402


def digest(workload: str, seed: int) -> str:
    """sha256 over the reports and samples of every job of one workload run."""
    h = hashlib.sha256()
    for job in workloads.make_jobs(workload, seed):
        report = run_pipeline(job.graph, job.config, job.name)
        h.update(report.canonical_json().encode())
        if report.sample_dist is not None:
            h.update(report.sample_dist.indices.astype("<i8", copy=False).tobytes())
            h.update(report.sample_dist.counts.astype("<i8", copy=False).tobytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, action="append", required=True,
                        help="workload seed (repeatable)")
    args = parser.parse_args(argv)
    for workload in args.workload or workloads.WORKLOADS:
        for seed in args.seed:
            print(digest(workload, seed), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
