"""Pinned canonical report bytes, and how often a run calls the oracle.

The digests are sha256 of ``report.canonical_json()`` for seeded runs that
take no trained angles: the exact solver on kernel-solved graphs, on a
12-vertex residual with folds and on residuals of 21 to 50 vertices, and
the depth-0 random solver (labels name the oracle engine that first
pinned each case). QAOA training runs are left out
because Nelder-Mead floats can differ between numpy builds. A refactor
that changes which cover, distribution or reference a run reports
changes a digest here.
"""

import hashlib

import pytest

from profitcover import pipeline
from profitcover.instances import gen_erdos_renyi_connected, gen_regular, load_graph
from profitcover.pipeline import PipelineConfig, run_pipeline

KARATE = "data/instances/karate.edges"

GOLDEN = [
    # (label, graph factory, config, status, sha256 of the canonical JSON)
    ("karate-maxis", lambda: load_graph(KARATE),
     PipelineConfig(problem="maxis", solver="exact"), "solved_by_preprocessing",
     "fd1b6fad5fe3022ef1574847df2df1e9afee51e2bbc7ddf2b69443eef9864fa1"),
    ("karate-maxcl", lambda: load_graph(KARATE),
     PipelineConfig(problem="maxcl", solver="exact"), "solved_by_preprocessing",
     "ae7e65f2db1876a5847d146eb33f5c63888168260b8ecd36e3994879f467a25f"),
    # the kernel solves it with five folds
    ("er16-kernel", lambda: gen_erdos_renyi_connected(16, 0.3, 2),
     PipelineConfig(solver="exact"), "solved_by_preprocessing",
     "4cd476c09b3b4007344947bc7d595fb6d7d7953441d778a1abe2b1184d53806d"),
    # residual of 12 vertices after two folds
    ("er16-exhaustive", lambda: gen_erdos_renyi_connected(16, 0.3, 0),
     PipelineConfig(solver="exact"), "solver",
     "fec32563c2324bd68ec3f1459297f9ccf6dcbc749d7dbf4397b90ebabd0b001a"),
    # residuals of 40, 50 and 21 vertices; on reg50 the order in which the
    # search resolves pendants picks one of several optimal covers
    ("reg40-bnb", lambda: gen_regular(40, 4, 1),
     PipelineConfig(solver="exact"), "solver",
     "37df14d51e53368104f8954e6c1d8555f154950d051f5d800be55d939283cce4"),
    ("reg50-bnb", lambda: gen_regular(50, 4, 0),
     PipelineConfig(solver="exact"), "solver",
     "469c7bfe1d35562e7c0e4372ab9c4580bc61bfdf2d1f27dc30bc7f611749be1a"),
    ("er30-bnb", lambda: gen_erdos_renyi_connected(30, 0.15, 1),
     PipelineConfig(solver="exact"), "solver",
     "91db4b0b46ca17fc796b041252cee30fb79f5ac895fa2cd9614d030d8f54f74d"),
    ("reg10-random", lambda: gen_regular(10, 3, 1),
     PipelineConfig(solver="random"), "solver",
     "4c09391620216a2fe068e8d40380c2308d17b5b80e65bf502bdc1f6830613dcc"),
]


@pytest.mark.parametrize("label, make, config, status, digest", GOLDEN,
                         ids=[row[0] for row in GOLDEN])
def test_canonical_report_digest(label, make, config, status, digest):
    report = run_pipeline(make(), config, label)
    assert report.status == status
    assert hashlib.sha256(report.canonical_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("make, config, oracle_calls", [
    (lambda: gen_erdos_renyi_connected(16, 0.3, 0), PipelineConfig(solver="exact"), 1),
    (lambda: gen_regular(40, 4, 1), PipelineConfig(solver="exact"), 1),
    (lambda: gen_erdos_renyi_connected(16, 0.3, 2), PipelineConfig(solver="exact"), 0),
    (lambda: gen_regular(10, 3, 1), PipelineConfig(solver="random"), 1),
], ids=["exhaustive", "branch-and-bound", "kernel-solved", "random"])
def test_one_oracle_call_and_one_replay_per_run(monkeypatch, make, config, oracle_calls):
    calls = {"oracle": 0, "reconstruct": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pipeline, "min_vertex_cover_exact",
                        counted("oracle", pipeline.min_vertex_cover_exact))
    # refine replays the kernel of its own residual; only the pipeline's
    # replay of the input's kernel is counted
    monkeypatch.setattr(pipeline, "reconstruct",
                        counted("reconstruct", pipeline.reconstruct))
    run_pipeline(make(), config)
    assert calls == {"oracle": oracle_calls, "reconstruct": 1}
