"""Pinned canonical report bytes, and how often a run calls the oracle.

The digests are sha256 of ``report.canonical_json()`` for seeded runs that
take no trained angles: the exact solver on kernel-solved graphs (one
of them through two LP rounds), on a 12-vertex residual with folds, on
residuals of 21 to 50 vertices and on a dense clique instance under
three rule sets, and the depth-0 random solver (labels name the oracle engine that first
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
    # re-pinned when energies became int32: "most_likely_profit" of the
    # empty set went from -0.0 to 0.0, the report's only change
    ("reg10-random", lambda: gen_regular(10, 3, 1),
     PipelineConfig(solver="random"), "solver",
     "c5f7081d846221db3d6b35dd8818df293832adadacfcc48e28dabb785387b5e8"),
    # sparse: the LP rule fires in two rounds, between pendants and folds
    ("er40-lp-two-rounds", lambda: gen_erdos_renyi_connected(40, 0.08, 4),
     PipelineConfig(solver="exact"), "solved_by_preprocessing",
     "787edb96623774dd2de1a0b44b756b245f086faaed6711b4b5b40d0ad9a02e8b"),
    # dense: no rule fires on the complement, and the oracle solves all 45
    # vertices, under every rule, the low-degree ones alone and LP alone
    ("er45-maxcl", lambda: gen_erdos_renyi_connected(45, 0.5, 0),
     PipelineConfig(problem="maxcl", solver="exact"), "solver",
     "7ee5f6f238da21cace0f4a5d1f0873b18c51ba1dc623888dd6f55f385102722d"),
    ("er45-maxcl-low-degree", lambda: gen_erdos_renyi_connected(45, 0.5, 0),
     PipelineConfig(problem="maxcl", solver="exact", rules=("sr", "pr", "d2r")), "solver",
     "c7fe32948dc5b7b8558fc87bb75660354f2a2d0cfa2896e33d4de49d73c0f3a1"),
    ("er45-maxcl-lp", lambda: gen_erdos_renyi_connected(45, 0.5, 0),
     PipelineConfig(problem="maxcl", solver="exact", rules=("lpr",)), "solver",
     "b7367bce4d563c0a93a4d2f71da6087e901c51ce50e1ebb68221fa5c93dbf11a"),
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
