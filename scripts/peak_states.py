#!/usr/bin/env python3
"""Peak memory of a full-graph QAOA run, in statevectors above the import.

For every pair of --n and --depth the script starts a fresh Python
process. The process imports the package and reads its peak resident
set size (``ru_maxrss``), then runs ``run_pipeline`` on a connected
3-regular graph on n vertices with ``rules=()``, so that the statevector
has all n qubits, and reads the peak again. The script prints the
difference in MiB and in states of 16*2^n bytes, beside the ``model``
column, ``qaoa.peak_bytes`` for the same run in states, and the run
time.

Examples:
    python scripts/peak_states.py --n 22 --n 24 --depth 1 --depth 2
    python scripts/peak_states.py --n 16 --depth 1 --shots 1000
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from profitcover.qaoa import peak_bytes  # noqa: E402

# run in the child: argv is n, depth, shots, seed
CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
import profitcover, profitcover.cli, profitcover.pipeline
from profitcover.graph import is_connected
from profitcover.instances import gen_regular
from profitcover.pipeline import PipelineConfig, run_pipeline

def peak():
    # kilobytes on Linux, bytes on macOS
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss if sys.platform == "darwin" else rss * 1024

n, depth, shots, seed = map(int, sys.argv[2:])
imported = peak()
key = seed
g = gen_regular(n, 3, key)
while not is_connected(g):
    key += 1
    g = gen_regular(n, 3, key)
config = PipelineConfig(depth=depth, shots=shots, seed=seed, rules=(), max_qubits=n)
t = time.perf_counter()
run_pipeline(g, config, f"r3-n{n}")
print(json.dumps({"imported": imported, "peak": peak(),
                  "run_s": time.perf_counter() - t}))
"""


def measure(n: int, depth: int, shots: int, seed: int) -> dict:
    """Import and run figures of one child process; its errors pass through."""
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC), str(n), str(depth), str(shots), str(seed)],
        stdout=subprocess.PIPE, text=True)
    if out.returncode:
        raise SystemExit(f"error: n={n} depth={depth}: the run exited with {out.returncode}")
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, action="append", required=True,
                        help="vertices, which is qubits (repeatable)")
    parser.add_argument("--depth", type=int, action="append", required=True,
                        help="QAOA depth (repeatable)")
    parser.add_argument("--shots", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=1,
                        help="run seed, and the first graph seed tried")
    args = parser.parse_args(argv)

    mib = 1 << 20
    print(f"{'n':>3} {'depth':>5} {'import MiB':>10} {'above MiB':>9} "
          f"{'states':>6} {'model':>6} {'run s':>6}")
    for n in args.n:
        for depth in args.depth:
            r = measure(n, depth, args.shots, args.seed)
            above = r["peak"] - r["imported"]
            model = peak_bytes(n, depth, args.shots)
            print(f"{n:>3} {depth:>5} {r['imported'] / mib:>10.1f} {above / mib:>9.1f} "
                  f"{above / (16 << n):>6.2f} {model / (16 << n):>6.2f} {r['run_s']:>6.2f}",
                  flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
