#!/usr/bin/env python3
"""Sweep QAOA depth on one or more instances and tabulate the metrics.

For every instance the script trains a layerwise schedule once at the
deepest requested depth, with the pipeline's ``qaoa.MAXFEV`` evaluations
per Nelder-Mead run, and as each requested layer is trained records the
exact expectation and the distribution summary of its state (best
profit, weighted average, expected cover size, near-optimal masses), so
the circuit is evolved once. One CSV holds all rows; aggregate mass
statistics per depth print as JSON at the end.

Examples:
    python scripts/depth_sweep.py --gen er:n=12,p=0.5,seed=3 --depths 0-6
    python scripts/depth_sweep.py --gen regular:n=10,d=3,seed=1 \
        --gen regular:n=10,d=3,seed=2 --depths 0,2,4,8 --out sweep.csv
    python scripts/depth_sweep.py --input data/instances/karate.edges \
        --skip-oracle --depths 0-3
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from profitcover.cli import check_writable  # noqa: E402
from profitcover.errors import CapacityError, DomainError, ParseError  # noqa: E402
from profitcover.instances import load_graph, parse_gen  # noqa: E402
from profitcover.metrics import (  # noqa: E402
    DEPTH_SWEEP_FIELDS,
    aggregate_mass_stats,
    canonical_json,
    depth_sweep,
    depth_sweep_rows,
    write_csv,
)
from profitcover.model import build_ising  # noqa: E402
from profitcover.oracle import max_profit_exact  # noqa: E402
from profitcover.qaoa import MAX_QUBITS, check_width  # noqa: E402


def parse_depths(text: str) -> list[int]:
    """Depth list from a spec like "0-8" or "0,2,4,8"; ValueError if the
    spec is malformed or names no depth or a negative one."""
    if "," in text or "-" not in text:
        depths = [int(tok) for tok in text.split(",") if tok]
    else:
        lo, hi = text.split("-", 1)
        depths = list(range(int(lo), int(hi) + 1))
    if not depths or min(depths) < 0:
        raise ValueError("no depth, or a negative one")
    return depths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input", action="append", default=[],
                        help="graph file (repeatable)")
    parser.add_argument("--gen", action="append", default=[],
                        help="synthetic spec like er:n=12,p=0.5,seed=3 "
                             "or regular:n=10,d=3,seed=1 (repeatable)")
    parser.add_argument("--depths", default="0-8",
                        help="range 0-8 or list 0,2,4,8")
    parser.add_argument("--skip-oracle", action="store_true",
                        help="do not compute the optimal profit "
                             "(near-optimal masses stay empty)")
    parser.add_argument("--out", help="CSV path; stdout rows if omitted")
    args = parser.parse_args(argv)

    try:
        depths = parse_depths(args.depths)
    except ValueError as err:
        parser.error(f"--depths {args.depths!r}: {err}; "
                     f"give a range like 0-8 or a list like 0,2,4,8")
    try:
        instances = [parse_gen(spec) for spec in args.gen]
        instances += [(Path(path).stem, load_graph(path)) for path in args.input]
    except (ParseError, DomainError) as err:
        parser.error(str(err))
    if not instances:
        parser.error("give at least one --gen or --input")
    try:  # before the sweep, not after it
        check_writable(args.out)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for name, g in instances:  # every width before the first sweep
        try:
            check_width(g.n, MAX_QUBITS)
        except CapacityError as err:
            print(f"capacity error: {name}: {err}", file=sys.stderr)
            return 3

    rows, sweeps = [], []
    for name, g in instances:
        opt = None
        if not args.skip_oracle:
            try:
                _, opt = max_profit_exact(g)
            except CapacityError:
                print(f"warning: {name}: n={g.n} beyond the exact solver, "
                      f"masses left empty (use --skip-oracle to silence)",
                      file=sys.stderr)
        sweep = depth_sweep(build_ising(g), depths, opt_profit=opt)
        sweeps.append(sweep)
        rows.extend(depth_sweep_rows(name, sweep))
        print(f"{name}: n={g.n} m={g.m} opt_profit={opt} "
              f"expectation {sweep.points[0].expectation:.4f} -> "
              f"{sweep.points[-1].expectation:.4f}", file=sys.stderr)

    write_csv(args.out, DEPTH_SWEEP_FIELDS, rows)
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    print(canonical_json(aggregate_mass_stats(sweeps)), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
