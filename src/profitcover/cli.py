"""Command-line entry points.

Two subcommands:

* ``run``   - one instance through the full pipeline; canonical JSON
              report to --out or stdout (timings go to stderr so the
              payload stays byte-reproducible).
* ``batch`` - a JSON manifest of independent jobs; per-row failures are
              recorded in the output table and the batch continues.

Exit codes: 0 success, 2 parse/input error, 3 capacity exceeded,
4 infeasibility bug (a failed internal feasibility check).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from .errors import CapacityError, DomainError, InfeasibilityBug, ParseError
from .graph import Graph
from .instances import load_graph, parse_gen
from .kernel import ALL_RULES
from .metrics import canonical_json, write_csv
from .pipeline import (
    PROBLEMS,
    REPORT_CSV_FIELDS,
    SOLVERS,
    PipelineConfig,
    batch_documents,
    report_csv_row,
    run_batch,
    run_pipeline,
)

# job key -> (PipelineConfig field, accepted JSON type); run flags use the
# same keys, and a key left out takes the PipelineConfig default
CONFIG_KEYS = {
    "problem": ("problem", str),
    "solver": ("solver", str),
    "layers": ("depth", int),
    "shots": ("shots", int),
    "seed": ("seed", int),
    "rules": ("rules", (str, list)),
    "max_qubits": ("max_qubits", int),
    "reference_note": ("reference_note", str),
}
SOURCE_KEYS = ("input", "gen", "format", "name")
JOB_KEYS = (*SOURCE_KEYS, *CONFIG_KEYS)


def _parse_rules(value: str | list) -> tuple[str, ...]:
    """Rules from a comma-separated string (run) or a list (manifest)."""
    items = value.split(",") if isinstance(value, str) else value
    if not all(isinstance(r, str) for r in items):
        raise ParseError(f"rules must be rule names, got {value!r}")
    rules = tuple(r.strip() for r in items if r.strip())
    unknown = set(rules) - set(ALL_RULES)
    if unknown:
        raise ParseError(f"unknown rules {sorted(unknown)}; choose from {ALL_RULES}")
    return rules


def _job(entry: dict, where: str) -> tuple[str, Graph, PipelineConfig]:
    """(name, graph, config) from run flags or one manifest entry.

    A key whose value is null counts as left out. Files are named by their
    stem, generator specs by ``instances.parse_gen``.
    """
    entry = {key: value for key, value in entry.items() if value is not None}
    unknown = sorted(set(entry) - set(JOB_KEYS))
    if unknown:
        raise ParseError(f"{where}: unknown keys {unknown}; choose from {list(JOB_KEYS)}")
    if ("input" in entry) == ("gen" in entry):
        raise ParseError(f"{where} needs exactly one of input/gen")
    for key, value in entry.items():
        want = CONFIG_KEYS[key][1] if key in CONFIG_KEYS else str
        if not isinstance(value, want) or (want is int and isinstance(value, bool)):
            raise ParseError(f"{where}: {key} has the wrong type: {value!r}")
    if "input" in entry:
        fmt = entry.get("format", "auto")
        name = Path(entry["input"]).stem
        g = load_graph(entry["input"], None if fmt == "auto" else fmt)
    else:
        name, g = parse_gen(entry["gen"])
    fields = {CONFIG_KEYS[key][0]: value for key, value in entry.items() if key in CONFIG_KEYS}
    if "rules" in fields:
        fields["rules"] = _parse_rules(fields["rules"])
    return entry.get("name", name), g, PipelineConfig(**fields)


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    # flags default to None so that PipelineConfig supplies the defaults
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="path to a graph file")
    src.add_argument("--gen", help="synthetic spec, e.g. er:n=10,p=0.3,seed=1 "
                                   "or regular:n=10,d=3,seed=1")
    sub.add_argument("--format", choices=("auto", "edge_list", "dimacs", "matrix_market"))
    sub.add_argument("--name", help="instance label for reports")
    sub.add_argument("--problem", choices=PROBLEMS)
    sub.add_argument("--solver", choices=SOLVERS)
    sub.add_argument("--layers", type=int, help="QAOA depth p")
    sub.add_argument("--shots", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--rules", help="comma-separated reduction rules to enable; "
                                     "\"\" runs on the full graph")
    sub.add_argument("--max-qubits", type=int)
    sub.add_argument("--out", help="report path (.json or .csv); stdout if omitted")
    sub.add_argument("--emit-kernel", help="write the kernel dump JSON here")
    sub.add_argument("--emit-distribution",
                     help="write the sampled distribution JSON here")


@contextmanager
def _writing(path: str):
    """An output path that cannot be written is an input error (exit 2)."""
    try:
        yield
    except OSError as err:
        raise ParseError(f"cannot write {path}: {err.strerror or err}") from None


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with _writing(out), open(out, "w") as fh:
            fh.write(text)


def _write_report(out: str | None, rows: list[dict], doc) -> None:
    """``rows`` as CSV when ``out`` ends in .csv, else ``doc`` as canonical JSON."""
    if out is not None and out.endswith(".csv"):
        with _writing(out):
            write_csv(out, REPORT_CSV_FIELDS, rows)
    else:
        _write_text(canonical_json(doc), out)


def _check_out(out: str | None) -> None:
    if out is not None and not out.endswith((".json", ".csv")):
        raise ParseError("--out must end in .json or .csv")


def _cmd_run(args) -> int:
    _check_out(args.out)
    flags = {key: value for key, value in vars(args).items() if key in JOB_KEYS}
    name, g, config = _job(flags, "run")
    report = run_pipeline(g, config, name)
    _write_report(args.out, [report_csv_row(report)], report.to_json_dict())
    if args.emit_kernel:
        _write_text(canonical_json(report.kernel.to_json_dict()), args.emit_kernel)
    if args.emit_distribution:
        doc = report.sample_dist.to_json_dict() if report.sample_dist else None
        _write_text(canonical_json({"distribution": doc}), args.emit_distribution)
    timings = " ".join(f"{k}={v:.3f}s" for k, v in sorted(report.timings.items()))
    print(f"{name}: status={report.status} |Sol|={report.solution_size} "
          f"profit={report.cover_profit} {timings}", file=sys.stderr)
    return 0


def _jobs_from_manifest(path: str) -> list[tuple[str, Graph, PipelineConfig]]:
    try:
        with open(path) as fh:
            entries = json.load(fh)
    except OSError as err:
        raise ParseError(f"cannot read manifest {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ParseError(f"manifest {path} is not valid JSON: {err}") from None
    if not isinstance(entries, list):
        raise ParseError("manifest must be a JSON list of job objects")
    jobs = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ParseError(f"manifest entry {i} is not an object")
        jobs.append(_job(entry, f"manifest entry {i}"))
    return jobs


def _cmd_batch(args) -> int:
    _check_out(args.out)
    reports, rows = run_batch(_jobs_from_manifest(args.manifest))
    for report, row in zip(reports, rows):
        if report is None:
            print(f"{row['name']}: FAILED {row['error']}", file=sys.stderr)
        else:
            print(f"{report.name}: status={report.status} |Sol|={report.solution_size}",
                  file=sys.stderr)
    _write_report(args.out, rows, batch_documents(reports, rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="profitcover",
        description="Vertex cover, independent set, and clique via reduction "
                    "rules plus a simulated-QAOA profit objective.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="solve one instance")
    _add_run_flags(run_p)
    run_p.set_defaults(func=_cmd_run)
    batch_p = sub.add_parser("batch", help="run a manifest of jobs")
    batch_p.add_argument("--manifest", required=True,
                         help="JSON list of job objects")
    batch_p.add_argument("--out", help="table path (.json or .csv); stdout if omitted")
    batch_p.set_defaults(func=_cmd_batch)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CapacityError as err:
        print(f"capacity error: {err}", file=sys.stderr)
        return 3
    except InfeasibilityBug as err:
        print(f"infeasibility bug: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
