"""Set-up probe: import the program, generate a workload's inputs, warm up.

    python3 perfbench/probe.py <workload> <seed>

Prints the seconds this took, measured from the first line of the script,
so every sample pays a cold import in a fresh interpreter.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    workloads.warm_up(workloads.make_jobs(workload, seed))
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
