"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload classical --seeds 1 2 3 4 5

Every run is untraced, so the metrics are the end-to-end ones. The spread
of a metric is the distance between its first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of its median; the
bounds in BENCHMARK.json are checked against it. Runs are sequential,
each with the run length BENCHMARK.json sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=int, nargs="+")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        result = json.loads(out.stdout.splitlines()[-1])
        if out.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed ({result['failed']} of {result['attempted']})")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else None,
                         "bound": bounds[name], "values": vals}
        print(f"{name:34s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {summary[name]['spread'] if med else float('nan'):.4f} "
              f"bound {bounds[name]}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
