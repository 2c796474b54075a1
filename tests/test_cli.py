"""Command-line interface: argument handling, outputs, exit codes."""

import csv
import dataclasses
import importlib.util
import io
import json
import re
import subprocess
import sys
import tarfile
import time
import zipfile
from pathlib import Path

import pytest

from profitcover import cli, oracle, pipeline, qaoa
from profitcover.cli import CONFIG_KEYS, _parse_rules, main
from profitcover.errors import DomainError, ParseError
from profitcover.instances import (
    gen_erdos_renyi_connected,
    gen_regular,
    load_graph,
    parse_gen,
)
from profitcover.pipeline import PipelineConfig
from profitcover.postprocess import RefinedSolution

KARATE = "data/instances/karate.edges"


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# argument parsing helpers


def test_parse_gen_er():
    name, g = parse_gen("er:n=10,p=0.3,seed=4")
    assert name == "er_n10_p0.3_s4" and g == gen_erdos_renyi_connected(10, 0.3, 4)


def test_parse_gen_regular_default_seed():
    name, g = parse_gen("regular:n=8,d=3")
    assert name == "reg_n8_d3_s0" and g == gen_regular(8, 3, 0)


@pytest.mark.parametrize("spec", [
    "grid:n=3",            # unknown generator
    "er:n=10",             # missing p
    "er:n=ten,p=0.3",      # non-numeric
    "er:n10,p=0.3",        # not key=value
])
def test_parse_gen_errors(spec):
    with pytest.raises(ParseError):
        parse_gen(spec)


def test_parse_rules():
    """Names are split here and checked by PipelineConfig alone."""
    assert _parse_rules("pr,sr") == ("pr", "sr")
    assert _parse_rules(" pr, ,warp") == ("pr", "warp")
    with pytest.raises(ParseError):
        _parse_rules(["pr", 3])


# ---------------------------------------------------------------------------
# run subcommand


def test_run_stdout_json(capsys):
    code = run_cli("run", "--gen", "er:n=8,p=0.5,seed=1", "--solver", "exact")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["solution"]["feasible"] is True
    assert doc["config"]["solver"] == "exact"


def test_run_json_file(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run_cli("run", "--input", KARATE, "--problem", "maxis",
                   "--solver", "exact", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["solution"]["size"] == 20
    assert doc["name"] == "karate"


def test_run_csv_file(tmp_path):
    out = tmp_path / "r.csv"
    code = run_cli("run", "--gen", "regular:n=8,d=3,seed=2",
                   "--solver", "exact", "--out", str(out))
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 1
    assert rows[0]["status"] in ("solver", "solved_by_preprocessing")
    assert rows[0]["error"] == ""


def test_run_emits_kernel_and_distribution(tmp_path):
    kern = tmp_path / "kernel.json"
    dist = tmp_path / "dist.json"
    code = run_cli("run", "--gen", "er:n=10,p=0.7,seed=3",
                   "--rules", "", "--layers", "1",
                   "--shots", "2000",
                   "--out", str(tmp_path / "r.json"),
                   "--emit-kernel", str(kern),
                   "--emit-distribution", str(dist))
    assert code == 0
    kdoc = json.loads(kern.read_text())
    assert kdoc["solved"] is False  # no rules keep the graph
    ddoc = json.loads(dist.read_text())
    assert sum(ddoc["distribution"]["counts"].values()) == 2000


def test_run_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ("run", "--gen", "er:n=9,p=0.6,seed=8", "--layers", "2",
            "--shots", "10000", "--seed", "12")
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_name_override(tmp_path, capsys):
    code = run_cli("run", "--input", KARATE, "--solver", "exact",
                   "--name", "zachary")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "zachary"


# ---------------------------------------------------------------------------
# exit codes


def test_exit_2_on_bad_gen(capsys):
    assert run_cli("run", "--gen", "er:n=10") == 2


def test_exit_2_on_a_format_with_gen(capsys):
    assert run_cli("run", "--gen", "er:n=6,p=0.5,seed=1", "--format", "dimacs") == 2
    captured = capsys.readouterr()
    assert "format applies to input only" in captured.err and captured.out == ""


@pytest.mark.parametrize("spec", ["er:n=1000000,p=0.001", "regular:n=1000000,d=3"])
def test_exit_2_on_a_gen_spec_above_the_cap(capsys, spec):
    assert run_cli("run", "--gen", spec, "--solver", "exact") == 2
    captured = capsys.readouterr()
    assert "above the limit" in captured.err and captured.out == ""


def test_exit_2_on_a_too_sparse_er_spec(capsys):
    """Refused before any draw; all 1000 attempts took 20 s."""
    start = time.perf_counter()
    assert run_cli("run", "--gen", "er:n=2000,p=0.001", "--solver", "exact") == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert "expects 270.7 isolated vertices" in captured.err and captured.out == ""


def test_batch_exit_2_on_a_too_sparse_er_spec_before_any_job(tmp_path, capsys, monkeypatch):
    def no_jobs(jobs):
        raise AssertionError("a job ran")

    monkeypatch.setattr(cli, "run_batch", no_jobs)
    manifest = _write_manifest(tmp_path, [{"gen": "er:n=6,p=0.5,seed=1", "solver": "exact"},
                                          {"gen": "er:n=2000,p=0.001", "solver": "exact"}])
    start = time.perf_counter()
    assert run_cli("batch", "--manifest", manifest) == 2
    assert time.perf_counter() - start < 1.0
    assert "expects 270.7 isolated vertices" in capsys.readouterr().err


def test_exit_2_on_missing_file(capsys):
    assert run_cli("run", "--input", "/no/such/file.edges") == 2


def test_exit_2_on_malformed_file(tmp_path, capsys):
    f = tmp_path / "bad.edges"
    f.write_text("1 2\nbroken\n")
    assert run_cli("run", "--input", str(f)) == 2


def test_exit_2_on_non_utf8_file(tmp_path, capsys):
    f = tmp_path / "bad.edges"
    f.write_bytes(b"\xff\xfe\x00\x01")
    assert run_cli("run", "--input", str(f)) == 2
    captured = capsys.readouterr()
    assert "UTF-8" in captured.err and captured.out == ""


@pytest.mark.parametrize("name,text", [
    ("neg.col", "p edge -3 0\n"),
    ("neg.mtx", "%%MatrixMarket matrix coordinate pattern symmetric\n-2 -2 0\n"),
])
def test_exit_2_on_negative_vertex_count(tmp_path, capsys, name, text):
    f = tmp_path / name
    f.write_text(text)
    assert run_cli("run", "--input", str(f)) == 2
    captured = capsys.readouterr()
    assert f"{name}:" in captured.err and "negative" in captured.err
    assert captured.out == ""


# one vertex above the cap, so a missing cap costs one 10^5-vertex graph
@pytest.mark.parametrize("name,text", [
    ("huge.col", "p edge 100001 0\n"),
    ("huge.mtx", "%%MatrixMarket matrix coordinate pattern symmetric\n100001 100001 0\n"),
])
def test_exit_2_on_vertex_count_above_the_cap(tmp_path, capsys, name, text):
    f = tmp_path / name
    f.write_text(text)
    assert run_cli("run", "--input", str(f)) == 2
    captured = capsys.readouterr()
    assert f"{name}:" in captured.err and "above the limit" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("solver", ["qaoa", "exact"])
@pytest.mark.parametrize("seed_args", [
    ("--gen", "regular:n=10,d=3,seed=1", "--seed", "-1"),
    ("--gen", "regular:n=10,d=3,seed=-3"),
    ("--gen", "regular:n=10,d=3,seed=1", "--seed", str(2 ** 128)),
], ids=["run-seed", "gen-seed", "run-seed-too-large"])
def test_exit_2_on_a_seed_outside_the_philox_keys(capsys, solver, seed_args):
    assert run_cli("run", *seed_args, "--solver", solver) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith("error: seed must be in [0, 2**128)")
    assert captured.out == ""


@pytest.mark.parametrize("flag,file", [
    ("--out", "r.json"), ("--out", "r.csv"),
    ("--emit-kernel", "k.json"), ("--emit-distribution", "d.json"),
])
def test_run_exit_2_on_an_unwritable_output(tmp_path, capsys, flag, file):
    path = tmp_path / "missing" / file
    assert run_cli("run", "--gen", "regular:n=8,d=3,seed=1", "--solver", "exact",
                   flag, str(path)) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {path}: No such file or directory" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("suffix", [".json", ".csv"])
def test_batch_exit_2_on_an_unwritable_output(tmp_path, capsys, suffix):
    manifest = _write_manifest(tmp_path, [{"gen": "er:n=6,p=0.5,seed=1", "solver": "exact"}])
    path = tmp_path / "missing" / f"table{suffix}"
    assert run_cli("batch", "--manifest", manifest, "--out", str(path)) == 2
    assert f"error: cannot write {path}: No such file or directory" in capsys.readouterr().err


def test_config_keys_name_every_pipeline_config_field():
    """Every setting of a run can be given on the command line and in a
    manifest, and no key sets anything else."""
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    assert {field for field, _ in CONFIG_KEYS.values()} == fields


@pytest.mark.parametrize("flag", ["--skip-preprocess", "--no-postprocess-rules"])
def test_removed_flags_exit_2(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--gen", "er:n=16,p=0.3,seed=2", "--solver", "exact", flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# the kernel solves this graph outright (five folds)
KERNEL_SOLVED = "er:n=16,p=0.3,seed=2"


def test_run_empty_rules_keep_the_kernel_unsolved(capsys):
    assert run_cli("run", "--gen", KERNEL_SOLVED, "--solver", "exact") == 0
    assert json.loads(capsys.readouterr().out)["status"] == "solved_by_preprocessing"
    assert run_cli("run", "--gen", KERNEL_SOLVED, "--solver", "exact", "--rules", "") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "solver" and doc["kernel"]["solved"] is False
    assert doc["config"]["rules"] == [] and doc["solution"]["optimal"] is True


def test_batch_empty_rules_keep_the_kernel_unsolved(tmp_path, capsys):
    manifest = _write_manifest(tmp_path, [
        {"gen": KERNEL_SOLVED, "solver": "exact"},
        {"gen": KERNEL_SOLVED, "solver": "exact", "rules": []},
    ])
    assert run_cli("batch", "--manifest", manifest) == 0
    kept, unsolved = json.loads(capsys.readouterr().out)
    assert kept["status"] == "solved_by_preprocessing" and kept["kernel"]["solved"]
    assert unsolved["status"] == "solver" and unsolved["kernel"]["solved"] is False
    assert unsolved["solution"]["size"] == kept["solution"]["size"]


def test_exit_3_on_capacity(capsys):
    code = run_cli("run", "--gen", "er:n=28,p=0.2,seed=1", "--rules", "")
    assert code == 3


def test_exit_3_when_the_exact_search_runs_out_of_budget(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "NODE_BUDGET", 1)
    assert run_cli("run", "--gen", "regular:n=10,d=3,seed=1", "--solver", "exact") == 3
    assert "budget" in capsys.readouterr().err


def test_exit_4_on_a_broken_refinement(monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "refine",
                        lambda g, subset: RefinedSolution(frozenset(), 0, 0, ()))
    assert run_cli("run", "--gen", "regular:n=8,d=3,seed=1", "--solver", "random") == 4
    assert "infeasibility bug" in capsys.readouterr().err


def test_exit_4_on_a_non_cover_from_the_oracle(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "_solve", lambda *args: None)
    assert run_cli("run", "--gen", "regular:n=22,d=3,seed=1", "--solver", "exact",
                   "--rules", "") == 4
    assert "infeasibility bug" in capsys.readouterr().err


def test_exit_2_on_unknown_rule(capsys):
    assert run_cli("run", "--gen", "er:n=6,p=0.5,seed=1",
                   "--rules", "pr,bogus") == 2
    assert "'bogus'" in capsys.readouterr().err


def _no_job(*args):
    raise AssertionError("a job ran")


@pytest.mark.parametrize("flag", ["--out", "--emit-kernel", "--emit-distribution"])
def test_run_checks_every_output_path_before_the_job(monkeypatch, tmp_path, capsys, flag):
    monkeypatch.setattr(cli, "run_pipeline", _no_job)
    bad = tmp_path / "missing" / "x.json"
    assert run_cli("run", "--gen", "er:n=6,p=0.5,seed=1", flag, str(bad)) == 2
    assert "cannot write" in capsys.readouterr().err


def test_a_failed_run_leaves_no_output_file(monkeypatch, tmp_path, capsys):
    """The paths are checked before the job, and the check leaves no
    file behind for a run that then fails: 2^17 shots on 8 qubits need
    1 086 464 bytes, above the 1 MiB patched in."""
    monkeypatch.setattr(qaoa, "physical_memory", lambda: 1 << 20)
    paths = [tmp_path / name for name in ("r.json", "k.json", "d.json")]
    assert run_cli("run", "--gen", "regular:n=8,d=3,seed=1", "--rules", "",
                   "--solver", "random", "--shots", str(1 << 17),
                   "--out", str(paths[0]), "--emit-kernel", str(paths[1]),
                   "--emit-distribution", str(paths[2])) == 3
    assert "needs 1086464 bytes at its peak" in capsys.readouterr().err
    assert not any(path.exists() for path in paths)


def test_batch_checks_its_output_path_before_any_job(monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setattr(pipeline, "run_pipeline", lambda *args: calls.append(args))
    manifest = _write_manifest(tmp_path, [{"gen": "er:n=6,p=0.5,seed=1"}])
    bad = tmp_path / "missing" / "t.csv"
    assert run_cli("batch", "--manifest", manifest, "--out", str(bad)) == 2
    assert calls == []
    assert "cannot write" in capsys.readouterr().err


# a misspelt seed and a parameter the regular generator does not take
UNKNOWN_GEN_PARAMS = [("er:n=8,p=0.5,sede=4", "sede"), ("regular:n=8,d=3,p=0.5", "'p'")]


@pytest.mark.parametrize("spec,key", [("regular:n=10,d=3,seed=1,seed=2", "'seed'"),
                                      ("er:n=6,p=0.5,n=8", "'n'")])
def test_exit_2_on_a_repeated_gen_parameter(capsys, spec, key):
    """A repeated parameter is refused, not read as its last value."""
    with pytest.raises(ParseError, match=f"repeats parameter {key}"):
        parse_gen(spec)
    assert run_cli("run", "--gen", spec, "--solver", "exact") == 2
    captured = capsys.readouterr()
    assert f"repeats parameter {key}" in captured.err and captured.out == ""


@pytest.mark.parametrize("spec,key", UNKNOWN_GEN_PARAMS)
def test_exit_2_on_unknown_gen_parameter(capsys, spec, key):
    assert run_cli("run", "--gen", spec, "--solver", "exact") == 2
    captured = capsys.readouterr()
    assert key in captured.err and "status=" not in captured.err
    assert captured.out == ""


def test_run_bad_out_suffix_exits_2_before_the_job(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert run_cli("run", "--gen", "er:n=8,p=0.5,seed=1", "--solver", "exact",
                   "--out", str(out)) == 2
    assert "--out must end in .json or .csv" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# batch subcommand


def _write_manifest(tmp_path, entries):
    f = tmp_path / "jobs.json"
    f.write_text(json.dumps(entries))
    return str(f)


def test_batch_json_output(tmp_path, capsys):
    manifest = _write_manifest(tmp_path, [
        {"gen": "er:n=8,p=0.5,seed=1", "solver": "exact"},
        {"input": KARATE, "problem": "maxis", "solver": "exact"},
    ])
    out = tmp_path / "table.json"
    assert run_cli("batch", "--manifest", manifest, "--out", str(out)) == 0
    docs = json.loads(out.read_text())
    assert len(docs) == 2
    assert docs[1]["solution"]["size"] == 20


def test_batch_csv_output(tmp_path, capsys):
    manifest = _write_manifest(tmp_path, [
        {"gen": "regular:n=8,d=3,seed=1", "solver": "exact"},
        {"gen": "er:n=30,p=0.2,seed=1", "rules": []},
    ])
    out = tmp_path / "table.csv"
    assert run_cli("batch", "--manifest", manifest, "--out", str(out)) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 2
    assert rows[0]["error"] == ""
    assert "CapacityError" in rows[1]["error"]


def test_batch_empty_manifest(tmp_path, capsys):
    manifest = _write_manifest(tmp_path, [])
    out = tmp_path / "t.json"
    assert run_cli("batch", "--manifest", manifest, "--out", str(out)) == 0
    assert json.loads(out.read_text()) == []


def test_batch_stdout(tmp_path, capsys):
    manifest = _write_manifest(tmp_path, [
        {"gen": "er:n=6,p=0.6,seed=2", "solver": "exact"},
    ])
    assert run_cli("batch", "--manifest", manifest) == 0
    docs = json.loads(capsys.readouterr().out)
    assert len(docs) == 1


def test_batch_bad_manifest(tmp_path, capsys):
    f = tmp_path / "broken.json"
    f.write_text("{not json")
    assert run_cli("batch", "--manifest", str(f)) == 2
    f.write_text(json.dumps({"not": "a list"}))
    assert run_cli("batch", "--manifest", str(f)) == 2
    f.write_text(json.dumps([{"gen": "er:n=6,p=0.5", "input": "x"}]))
    assert run_cli("batch", "--manifest", str(f)) == 2


def test_batch_missing_manifest(capsys):
    assert run_cli("batch", "--manifest", "/no/such/manifest.json") == 2


@pytest.mark.parametrize("bad", [
    {"depth": 3},                    # unknown key (the flag is "layers")
    {"layers": "x"},                 # not an integer
    {"skip_preprocess": "false"},    # a removed key; "rules": [] replaces it
    {"rules": ["pr", "bogus"]},      # unknown rule
    {"postprocess_rules": False},    # a removed key; refinement always runs the rules
    {"seed": -1},                    # not a Philox key
    {"gen": "regular:n=6,d=3,seed=-3"},  # the generator's seed is not a Philox key
    {"format": "matrix_market"},     # a format reads files; gen builds a graph
    {"max_qubits": -1},              # would fail only at the first statevector
], ids=["unknown-key", "layers-str", "skip-preprocess-str", "unknown-rule",
        "postprocess-rules", "negative-seed", "negative-gen-seed", "format-with-gen",
        "negative-max-qubits"])
def test_batch_bad_entry_exits_2_before_any_job(tmp_path, capsys, bad):
    manifest = _write_manifest(tmp_path, [
        {"gen": "er:n=6,p=0.5,seed=1", "solver": "exact"},
        {"gen": "er:n=6,p=0.5,seed=2", **bad},
    ])
    assert run_cli("batch", "--manifest", manifest) == 2
    captured = capsys.readouterr()
    assert "status=" not in captured.err and captured.out == ""


@pytest.mark.parametrize("spec,key", UNKNOWN_GEN_PARAMS)
def test_batch_unknown_gen_parameter_exits_2_before_any_job(tmp_path, capsys, spec, key):
    manifest = _write_manifest(tmp_path, [
        {"gen": "er:n=6,p=0.5,seed=1", "solver": "exact"},
        {"gen": spec, "solver": "exact"},
    ])
    assert run_cli("batch", "--manifest", manifest) == 2
    captured = capsys.readouterr()
    assert key in captured.err and "status=" not in captured.err
    assert captured.out == ""


def test_batch_bad_out_suffix_exits_2_before_any_job(tmp_path, capsys):
    manifest = _write_manifest(tmp_path, [
        {"gen": "er:n=6,p=0.5,seed=1", "solver": "exact"},
    ])
    out = tmp_path / "table.txt"
    assert run_cli("batch", "--manifest", manifest, "--out", str(out)) == 2
    assert "status=" not in capsys.readouterr().err
    assert not out.exists()


def test_batch_default_names_match_run(tmp_path, capsys):
    manifest = _write_manifest(tmp_path, [
        {"gen": "er:n=8,p=0.5,seed=1", "solver": "exact"},
        {"input": KARATE, "solver": "exact"},
    ])
    assert run_cli("batch", "--manifest", manifest) == 0
    names = [doc["name"] for doc in json.loads(capsys.readouterr().out)]
    assert names == ["er_n8_p0.5_s1", "karate"]


def test_run_with_more_shots_than_memory_exits_3_before_the_oracle(monkeypatch, capsys):
    """10^13 shots need 80 TB for the draws: one line, exit 3, and neither
    the oracle nor training runs."""
    monkeypatch.setattr(pipeline, "min_vertex_cover_exact", _no_job)
    monkeypatch.setattr(pipeline, "train_layerwise", _no_job)
    monkeypatch.setattr(qaoa, "physical_memory", lambda: 8 << 30)
    assert run_cli("run", "--gen", "regular:n=8,d=3,seed=1", "--rules", "",
                   "--solver", "random", "--shots", "10000000000000") == 3
    err = capsys.readouterr().err
    assert err == ("capacity error: a run of 8 qubits at depth 0 with 10000000000000 shots "
                   "needs 80000000039936 bytes at its peak, above the 8589934592 bytes of "
                   "physical memory\n")


def test_run_beyond_physical_memory_exits_3(monkeypatch, capsys):
    """The default run, depth 1 with 10^5 shots, on 12 qubits peaks at
    914 688 bytes: refused one byte below, admitted at exactly that."""
    need = qaoa.peak_bytes(12, 1, 100_000)
    assert need == 914_688
    monkeypatch.setattr(qaoa, "physical_memory", lambda: need - 1)
    assert run_cli("run", "--gen", "regular:n=12,d=3,seed=1", "--rules", "") == 3
    assert capsys.readouterr().err == (
        "capacity error: a run of 12 qubits at depth 1 with 100000 shots needs 914688 "
        "bytes at its peak, above the 914687 bytes of physical memory\n")
    monkeypatch.setattr(qaoa, "physical_memory", lambda: need)
    assert run_cli("run", "--gen", "regular:n=12,d=3,seed=1", "--rules", "") == 0


# ---------------------------------------------------------------------------
# scripts


def _load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_table_json_names_failed_jobs(tmp_path, capsys):
    """The script's --json documents are the batch command's."""
    benchmark_table = _load_script("benchmark_table")
    out = tmp_path / "t.json"
    assert benchmark_table.main(["--synthetic", "1", "--solver", "random", "--shots", "100",
                                 "--max-qubits", "1", "--out", str(tmp_path / "t.csv"),
                                 "--json", str(out)]) == 1
    # the synthetic job comes after the shipped datasets' jobs
    failed = json.loads(out.read_text())[-1]
    assert sorted(failed) == ["error", "name"] and failed["name"] == "er-14-035-0"
    assert failed["error"].startswith("CapacityError")


def test_depth_sweep_stdout_is_well_formed_csv(tmp_path, capsys):
    depth_sweep = _load_script("depth_sweep")
    graph = tmp_path / "a,b.edges"  # a comma in the instance name
    graph.write_text("0 1\n1 2\n2 0\n")
    assert depth_sweep.main(["--gen", "er:n=6,p=0.5,seed=3", "--input", str(graph),
                             "--depths", "0,1", "--skip-oracle"]) == 0
    out = capsys.readouterr().out
    table = list(csv.reader(io.StringIO(out[:out.index("{")])))  # JSON follows
    header, rows = table[0], table[1:]
    assert len(rows) == 4
    assert all(len(row) == len(header) for row in rows)
    assert [row[0] for row in rows] == ["er_n6_p0.5_s3"] * 2 + ["a,b"] * 2


def test_depth_sweep_warns_when_the_oracle_runs_out_of_budget(monkeypatch, capsys):
    depth_sweep = _load_script("depth_sweep")
    monkeypatch.setattr(oracle, "NODE_BUDGET", 1)
    assert depth_sweep.main(["--gen", "regular:n=10,d=3,seed=1", "--depths", "0"]) == 0
    assert "beyond the exact solver, masses left empty" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--depths", "3-1"],
    ["--depths", "a"],
    ["--depths", "2-"],
    ["--depths", "0,-2"],
    ["--input", "no-such-graph.edges"],
], ids=["empty-range", "not-a-number", "open-range", "negative-in-list", "missing-input"])
def test_depth_sweep_bad_input_exits_2(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    depth_sweep = _load_script("depth_sweep")
    with pytest.raises(SystemExit) as exc:
        depth_sweep.main(["--gen", "er:n=6,p=0.5,seed=3", "--skip-oracle"] + args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_depth_sweep_checks_an_unwritable_out_before_the_sweep(tmp_path, monkeypatch, capsys):
    depth_sweep = _load_script("depth_sweep")

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the output path was checked")

    monkeypatch.setattr(depth_sweep, "depth_sweep", no_sweep)
    out = tmp_path / "missing" / "x.csv"
    assert depth_sweep.main(["--gen", "er:n=6,p=0.5,seed=3", "--skip-oracle",
                             "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


def test_depth_sweep_checks_every_width_before_the_first_sweep(monkeypatch, capsys):
    """A graph too wide for the statevector ends the run with exit 3, as
    ``profitcover run`` does, before any instance is swept."""
    depth_sweep = _load_script("depth_sweep")

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran before every width was checked")

    monkeypatch.setattr(depth_sweep, "depth_sweep", no_sweep)
    assert depth_sweep.main(["--gen", "er:n=8,p=0.5,seed=1", "--gen", "er:n=30,p=0.3,seed=1",
                             "--depths", "1", "--skip-oracle"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("capacity error: er_n30_p0.3_s1: statevector needs 30 qubits")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("flag", ["--out", "--json"])
def test_benchmark_table_checks_unwritable_outputs_before_the_jobs(flag, tmp_path,
                                                                   monkeypatch, capsys):
    benchmark_table = _load_script("benchmark_table")

    def no_jobs(jobs):
        raise AssertionError("the jobs ran before the output paths were checked")

    monkeypatch.setattr(benchmark_table, "run_batch", no_jobs)
    out = tmp_path / "missing" / "x.csv"
    assert benchmark_table.main(["--synthetic", "1", "--solver", "random", "--shots", "100",
                                 flag, str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


def test_peak_states_prints_one_row_per_run(capsys):
    peak_states = _load_script("peak_states")
    assert peak_states.main(["--n", "8", "--depth", "0", "--depth", "1",
                             "--shots", "100"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["n", "depth", "import", "MiB", "peak", "MiB", "above", "MiB",
                              "states", "model", "run", "s"]
    assert [row.split()[:2] for row in rows] == [["8", "0"], ["8", "1"]]
    for row in rows:
        imported, peak, above = map(float, row.split()[2:5])
        assert imported > 0 and abs(peak - imported - above) <= 0.1
    assert [row.split()[6] for row in rows] == [
        f"{qaoa.peak_bytes(8, depth, 100) / (16 << 8):.2f}" for depth in (0, 1)]


def test_peak_states_reports_a_failed_run():
    peak_states = _load_script("peak_states")
    with pytest.raises(SystemExit, match="n=7 depth=1: the run exited with 1"):
        peak_states.main(["--n", "7", "--depth", "1"])  # no 3-regular graph on 7


def test_report_digests_prints_the_same_digest_twice():
    """Two fresh processes hash the same reports and samples."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "report_digests.py"
    outs = [subprocess.run([sys.executable, str(script), "--workload", "qaoa-wide",
                            "--seed", "1"], capture_output=True, text=True, check=True,
                           timeout=300).stdout for _ in range(2)]
    assert re.fullmatch(r"[0-9a-f]{64}\n", outs[0])
    assert outs[1] == outs[0]


# 17 vertices, 39 edges, the size fetch_instances expects of farm: a
# cycle, its chords of length 2 and five of length 5, labelled 1..17
FARM_EDGES = ([(i, i % 17 + 1) for i in range(1, 18)]
              + [(i, (i + 1) % 17 + 1) for i in range(1, 18)]
              + [(i, i + 5) for i in range(1, 6)])


def _zip_bytes(name, text):
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("readme.txt", "not the graph\n")
        zf.writestr(name, text)
    return buf.getvalue()


def _tar_gz_bytes(name, text):
    buf = io.BytesIO()
    data = text.encode()
    with tarfile.open(fileobj=buf, mode="w:gz") as tf:
        info = tarfile.TarInfo(name)
        info.size = len(data)
        tf.addfile(info, io.BytesIO(data))
    return buf.getvalue()


def _farm_payloads(edges):
    """(source name, payload) of the graph in each form the script reads."""
    mtx = ("%%MatrixMarket matrix coordinate pattern symmetric\n% farm\n"
           f"17 17 {len(edges)}\n" + "".join(f"{v} {u}\n" for u, v in edges))
    pairs = "".join(f"{u} {v}\n" for u, v in edges)
    net = ("*Vertices 17\n" + "".join(f'{i} "v{i}"\n' for i in range(1, 18))
           + "*Edges\n" + pairs)
    csv_text = "# source,target\n" + "".join(f"{u},{v}\n" for u, v in edges)
    return {
        "zip-mtx": ("eco-farm.zip", _zip_bytes("eco-farm/eco-farm.mtx", mtx)),
        "tar-gz-edges": ("farm.tar.gz", _tar_gz_bytes("farm/farm.edges", pairs)),
        "pajek-net": ("farm.net", net.encode()),
        "csv": ("farm.csv", csv_text.encode()),
    }


@pytest.fixture
def fetch_instances(tmp_path, monkeypatch):
    """The fetch script, writing under ``tmp_path`` and never downloading."""
    script = _load_script("fetch_instances")

    def no_download(url, timeout):
        pytest.fail(f"the test downloaded {url}")

    monkeypatch.setattr(script, "DATA_DIR", tmp_path / "instances")
    monkeypatch.setattr(script, "download", no_download)
    (tmp_path / "instances").mkdir()
    return script


@pytest.mark.parametrize("form", sorted(_farm_payloads(FARM_EDGES)))
def test_fetch_installs_farm_from_each_form(fetch_instances, form):
    source, payload = _farm_payloads(FARM_EDGES)[form]
    message = fetch_instances.install("farm", payload, source)
    assert message.startswith("wrote farm.edges")
    g = load_graph(fetch_instances.DATA_DIR / "farm.edges")
    assert (g.n, g.m) == (17, 39)


@pytest.mark.parametrize("form", sorted(_farm_payloads(FARM_EDGES)))
def test_fetch_refuses_a_payload_of_the_wrong_size(fetch_instances, form):
    source, payload = _farm_payloads(FARM_EDGES[:-1])[form]
    with pytest.raises(ValueError, match=r"\(17,38\), expected \(17, 39\)"):
        fetch_instances.install("farm", payload, source)
    assert list(fetch_instances.DATA_DIR.iterdir()) == []


def test_fetch_main_installs_a_local_file(fetch_instances, tmp_path, capsys):
    source, payload = _farm_payloads(FARM_EDGES)["zip-mtx"]
    path = tmp_path / source
    path.write_bytes(payload)
    assert fetch_instances.main(["farm", "--file", f"farm={path}"]) == 0
    assert "[ok]   farm: wrote farm.edges" in capsys.readouterr().out
    g = load_graph(fetch_instances.DATA_DIR / "farm.edges")
    assert (g.n, g.m) == (17, 39)
    # a second run finds the file and keeps it
    assert fetch_instances.main(["farm"]) == 0
    assert "already present" in capsys.readouterr().out


def test_fetch_refuses_a_payload_that_does_not_load(fetch_instances):
    """A comment-only payload loads as an empty vertex set; the install
    raises and leaves neither the graph file nor its temporary."""
    with pytest.raises(DomainError, match="empty vertex set"):
        fetch_instances.install("farm", b"# nothing but a comment\n", "farm.txt")
    assert list(fetch_instances.DATA_DIR.iterdir()) == []


def test_fetch_replaces_an_existing_file_that_does_not_load(fetch_instances, tmp_path,
                                                            capsys):
    (fetch_instances.DATA_DIR / "farm.edges").write_text("# nothing but a comment\n")
    source, payload = _farm_payloads(FARM_EDGES)["csv"]
    path = tmp_path / source
    path.write_bytes(payload)
    assert fetch_instances.main(["farm", "--file", f"farm={path}"]) == 0
    out = capsys.readouterr().out
    assert "[warn] farm: existing file does not load" in out
    assert "[ok]   farm: wrote farm.edges" in out
    g = load_graph(fetch_instances.DATA_DIR / "farm.edges")
    assert (g.n, g.m) == (17, 39)
    assert [p.name for p in fetch_instances.DATA_DIR.iterdir()] == ["farm.edges"]


@pytest.mark.parametrize("args", [["--seed", "-1"], ["--layers", "-1"], ["--shots", "0"]],
                         ids=["seed", "layers", "shots"])
def test_benchmark_table_bad_config_exits_2(args, capsys):
    benchmark_table = _load_script("benchmark_table")
    with pytest.raises(SystemExit) as exc:
        benchmark_table.main(["--synthetic", "1"] + args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
