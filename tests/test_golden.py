"""Pinned canonical report bytes, and how often a run calls the oracle.

The digests are sha256 of ``report.canonical_json()`` for seeded runs that
take no trained angles: the exact solver on kernel-solved graphs, on an
exhaustive-sized residual with folds and on branch-and-bound-sized
residuals, and the depth-0 random solver. QAOA training runs are left out
because Nelder-Mead floats can differ between numpy builds. A refactor
that changes which cover, distribution or reference a run reports
changes a digest here.
"""

import hashlib

import pytest

from profitcover import pipeline, postprocess
from profitcover.instances import gen_erdos_renyi_connected, gen_regular, load_graph
from profitcover.pipeline import PipelineConfig, run_pipeline

KARATE = "data/instances/karate.edges"

GOLDEN = [
    # (label, graph factory, config, status, sha256 of the canonical JSON)
    ("karate-maxis", lambda: load_graph(KARATE),
     PipelineConfig(problem="maxis", solver="exact"), "solved_by_preprocessing",
     "0c5eabebe7b770c440b911db5d645bd9bb9d666e48e7ff2aa911029e82b5ebc2"),
    ("karate-maxcl", lambda: load_graph(KARATE),
     PipelineConfig(problem="maxcl", solver="exact"), "solved_by_preprocessing",
     "148dfaf52e2ba269ec1ad245a770218be6154220d8e40e0eaee48bb6051786c1"),
    # the kernel solves it with five folds
    ("er16-kernel", lambda: gen_erdos_renyi_connected(16, 0.3, 2),
     PipelineConfig(solver="exact"), "solved_by_preprocessing",
     "2a767d7e5b618177f3e8c8fe0a5c5aa54c59d16d80fda914e61d882e26300107"),
    # residual of 12 vertices after two folds: exhaustive oracle
    ("er16-exhaustive", lambda: gen_erdos_renyi_connected(16, 0.3, 0),
     PipelineConfig(solver="exact"), "solver",
     "d98e538d2eeaa9e611ce80ee500bcbb5642c9e1625909b5ee834e237f41ba931"),
    # residuals of 40, 50 and 21 vertices: branch and bound; on reg50 the
    # order in which it resolves pendants picks one of several optimal covers
    ("reg40-bnb", lambda: gen_regular(40, 4, 1),
     PipelineConfig(solver="exact"), "solver",
     "08d4b24efa2d1f45d508dc48f5371a34e484adf876ee65e3c7ca9063b2a4df8b"),
    ("reg50-bnb", lambda: gen_regular(50, 4, 0),
     PipelineConfig(solver="exact"), "solver",
     "54b1b669880fb79d21f8a944706b46b639c4e388908b0c0f122714ee19184eae"),
    ("er30-bnb", lambda: gen_erdos_renyi_connected(30, 0.15, 1),
     PipelineConfig(solver="exact"), "solver",
     "3846052436a55bb1425bd860ef2a9a91bb461146112ba77683fec0991034834a"),
    ("reg10-random", lambda: gen_regular(10, 3, 1),
     PipelineConfig(solver="random"), "solver",
     "a4050f34175063050dda384fe258e53c436da1e441f1cf4b5e7d9afb0a4a65cb"),
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
    # without refinement rules, refine itself replays nothing
    (lambda: gen_regular(10, 3, 1),
     PipelineConfig(solver="random", postprocess_rules=False), 1),
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
    for module in (pipeline, postprocess):
        monkeypatch.setattr(module, "reconstruct",
                            counted("reconstruct", module.reconstruct))
    run_pipeline(make(), config)
    assert calls == {"oracle": oracle_calls, "reconstruct": 1}
