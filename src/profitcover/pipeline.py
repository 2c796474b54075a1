"""End-to-end pipeline: reduce, model, solve, round, verify.

Flow for a problem instance (cover, independent set, or clique):

1. clique inputs are complemented, so everything downstream is a cover
   problem on the working graph;
2. the configured reduction rules shrink the working graph;
3. if edges remain, the residual becomes a profit Hamiltonian solved by
   simulated QAOA, exact enumeration, or plain uniform sampling;
4. the best sampled subset is rounded to a cover of the residual,
   replayed through the fold trace, and inverted if the problem asks
   for an independent set or clique;
5. the final set is verified against the original graph.

Reports serialize to canonical JSON (sorted keys, no timings) so two
runs with the same config produce byte-identical files; wall-clock
timings live in a separate section that canonical output omits.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from .errors import CapacityError, DomainError, InfeasibilityBug
from .graph import Graph, complement, is_clique, is_independent_set, is_vertex_cover, profit
from .instances import check_seed
from .kernel import ALL_RULES, KernelResult, reconstruct, reduce
from .metrics import (
    DistributionSummary,
    canonical_json,
    summarize,
    summarize_exact,
)
from .model import build_ising, index_of_bitstring, subset_of_index
from .oracle import min_vertex_cover_exact
from .postprocess import RefinedSolution, check_refined, finalize, refine
from .qaoa import (
    MAX_QUBITS,
    AngleSchedule,
    SampleDistribution,
    TrainLog,
    check_width,
    probabilities,
    sample_state,
    train_layerwise,
)

PROBLEMS = ("minvc", "maxis", "maxcl")
SOLVERS = ("qaoa", "exact", "random")


@dataclass(frozen=True)
class PipelineConfig:
    problem: str = "minvc"
    solver: str = "qaoa"
    depth: int = 1
    shots: int = 100_000
    seed: int = 1
    rules: tuple[str, ...] = ALL_RULES
    max_qubits: int = MAX_QUBITS
    reference_note: str | None = None  # free-text provenance, not asserted

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise DomainError(f"problem must be one of {PROBLEMS}")
        if self.solver not in SOLVERS:
            raise DomainError(f"solver must be one of {SOLVERS}")
        if self.depth < 0:
            raise DomainError("depth must be non-negative")
        if self.shots < 1:
            raise DomainError("shots must be positive")
        check_seed(self.seed)

    def to_json_dict(self) -> dict:
        return asdict(self)


def edge_coloring_colors(g: Graph) -> int:
    """Colors used by greedy edge coloring; proxy for phase-layer depth.

    Edges on disjoint vertex pairs commute and can run in parallel, so
    one QAOA layer needs about this many sequential two-qubit stages.
    """
    color_at: dict[int, set[int]] = {v: set() for v in g.vertices}
    used = 0
    for u, v in g.edges:
        taken = color_at[u] | color_at[v]
        c = 0
        while c in taken:
            c += 1
        color_at[u].add(c)
        color_at[v].add(c)
        used = max(used, c + 1)
    return used


@dataclass(frozen=True)
class PipelineReport:
    name: str
    config: PipelineConfig
    original_n: int
    original_m: int
    work_n: int
    work_m: int
    status: str  # "solved_by_preprocessing" or "solver"
    kernel: KernelResult
    refined: RefinedSolution | None
    solution: frozenset[int]
    solution_size: int
    cover_size: int
    cover_profit: int
    feasible: bool
    optimal: bool | None
    alpha_solution: float | None
    reference_cover_size: int | None
    residual_opt_profit: int | None
    schedule: AngleSchedule | None
    train_log: TrainLog | None
    sampled_summary: DistributionSummary | None
    exact_summary: DistributionSummary | None
    two_qubit_gates: int
    depth_proxy: int
    # raw sample counts, for --emit-distribution; not part of canonical JSON
    sample_dist: SampleDistribution | None = None
    timings: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self, with_timings: bool = False) -> dict:
        doc = {
            "name": self.name,
            "config": self.config.to_json_dict(),
            "graph": {"n": self.original_n, "m": self.original_m},
            "work_graph": {"n": self.work_n, "m": self.work_m},
            "status": self.status,
            "kernel": self.kernel.to_json_dict(),
            "refined": self.refined.to_json_dict() if self.refined else None,
            "solution": {
                "vertices": sorted(self.solution),
                "size": self.solution_size,
                "cover_size": self.cover_size,
                "cover_profit": self.cover_profit,
                "feasible": self.feasible,
                "optimal": self.optimal,
                "alpha_solution": self.alpha_solution,
                "reference_cover_size": self.reference_cover_size,
                "reference_note": self.config.reference_note,
            },
            "residual_opt_profit": self.residual_opt_profit,
            "training": {
                "schedule": self.schedule.to_json_dict() if self.schedule else None,
                "log": self.train_log.to_json_dict() if self.train_log else None,
            },
            "distribution": {
                "sampled": self.sampled_summary.to_json_dict() if self.sampled_summary else None,
                "exact": self.exact_summary.to_json_dict() if self.exact_summary else None,
            },
            "circuit": {
                "two_qubit_gates": self.two_qubit_gates,
                "depth_proxy": self.depth_proxy,
            },
        }
        if with_timings:
            doc["timings"] = dict(self.timings)
        return doc

    def canonical_json(self) -> str:
        return canonical_json(self.to_json_dict(with_timings=False))


def _alpha_solution(problem: str, size: int, reference: int | None) -> float | None:
    """Best/Opt on solution sizes; for covers the ratio is inverted so
    that 1.0 always means optimal and values below 1.0 mean worse."""
    if reference is None:
        return None
    if size == reference == 0:  # the empty answer is the optimum
        return 1.0
    if reference == 0 or size == 0:
        return None
    if problem == "minvc":
        return reference / size
    return size / reference


def run_pipeline(g: Graph, config: PipelineConfig, name: str = "instance") -> PipelineReport:
    t0 = time.perf_counter()
    timings: dict[str, float] = {}

    work = complement(g) if config.problem == "maxcl" else g

    t = time.perf_counter()
    kr = reduce(work, config.rules)
    timings["reduce_s"] = time.perf_counter() - t

    residual = kr.reduced
    schedule = train_log = sampled_summary = exact_summary = None
    refined: RefinedSolution | None = None
    dist: SampleDistribution | None = None
    residual_opt_profit = None
    residual_opt_size = None
    two_qubit = depth_proxy = 0

    if residual.m == 0:
        status = "solved_by_preprocessing"
        refined = RefinedSolution(frozenset(), 0, 0, ())
        residual_opt_size = 0
        residual_opt_profit = 0
    else:
        status = "solver"
        if config.solver != "exact":
            # before the oracle, which a too-wide run would otherwise wait for
            check_width(residual.n, config.max_qubits)
        # one oracle call serves as both the reference and the exact
        # solver; only the exact solver fails when its search budget runs out
        try:
            opt = min_vertex_cover_exact(residual)
            residual_opt_size, residual_opt_profit = opt.opt_size, opt.opt_profit
        except CapacityError:
            if config.solver == "exact":
                raise

        if config.solver == "exact":
            refined = RefinedSolution(opt.opt_cover, opt.opt_profit,
                                      opt.opt_profit, ("exact",))
        else:
            ising = build_ising(residual)
            t = time.perf_counter()
            # training ends on the trained state; it is not evolved again.
            # Depth 0, and the random solver, give the uniform state.
            schedule, train_log, state = train_layerwise(
                ising, config.depth if config.solver == "qaoa" else 0,
                max_qubits=config.max_qubits)
            timings["train_s"] = time.perf_counter() - t

            t = time.perf_counter()
            probs = probabilities(state)
            dist = sample_state(probs, ising.vertex_order, config.shots,
                                config.seed)
            timings["sample_s"] = time.perf_counter() - t
            sampled_summary = summarize(dist, ising, residual_opt_profit)
            exact_summary = summarize_exact(probs, ising, residual_opt_profit)
            raw = subset_of_index(index_of_bitstring(sampled_summary.best_bitstring),
                                  ising.vertex_order)
            refined = refine(residual, raw)
            check_refined(residual, raw, refined)
            two_qubit = schedule.p * residual.m
            depth_proxy = schedule.p * edge_coloring_colors(residual)

    full_cover = reconstruct(kr, refined.cover_reduced)
    solution = finalize(config.problem, work, full_cover)

    if config.problem == "minvc":
        feasible = is_vertex_cover(g, solution)
    elif config.problem == "maxis":
        feasible = is_independent_set(g, solution)
    else:
        feasible = is_clique(g, solution)
    if not feasible:
        raise InfeasibilityBug(
            f"pipeline produced an infeasible {config.problem} solution")

    reference_cover_size = None
    reference_solution_size = None
    optimal = None
    if residual_opt_size is not None:
        # fold replay adds one vertex per fold and every committed vertex,
        # so the reduced optimum lifts to the full optimum additively
        reference_cover_size = residual_opt_size + len(kr.committed) + len(kr.folds)
        optimal = len(full_cover) == reference_cover_size
        if config.problem == "minvc":
            reference_solution_size = reference_cover_size
        else:
            reference_solution_size = work.n - reference_cover_size

    timings["total_s"] = time.perf_counter() - t0
    return PipelineReport(
        name=name,
        config=config,
        original_n=g.n,
        original_m=g.m,
        work_n=work.n,
        work_m=work.m,
        status=status,
        kernel=kr,
        refined=refined,
        solution=solution,
        solution_size=len(solution),
        cover_size=len(full_cover),
        cover_profit=profit(work, full_cover),
        feasible=feasible,
        optimal=optimal,
        alpha_solution=_alpha_solution(config.problem, len(solution),
                                       reference_solution_size),
        reference_cover_size=reference_cover_size,
        residual_opt_profit=residual_opt_profit,
        schedule=schedule,
        train_log=train_log,
        sampled_summary=sampled_summary,
        exact_summary=exact_summary,
        two_qubit_gates=two_qubit,
        depth_proxy=depth_proxy,
        sample_dist=dist,
        timings=timings,
    )


REPORT_CSV_FIELDS = [
    "name", "problem", "solver", "depth", "seed", "n", "m", "work_n", "work_m",
    "v_safe", "residual_n", "residual_m", "status", "best_sampled_profit",
    "post_profit", "sol_size", "cover_size", "optimal", "alpha_solution",
    "reference_cover_size", "two_qubit_gates", "depth_proxy", "error",
]


def report_csv_row(report: PipelineReport) -> dict:
    """Flatten a report into the tabular column set (one row per run)."""
    best = report.sampled_summary.best_profit if report.sampled_summary else None
    return {
        "name": report.name,
        "problem": report.config.problem,
        "solver": report.config.solver,
        "depth": report.config.depth,
        "seed": report.config.seed,
        "n": report.original_n,
        "m": report.original_m,
        "work_n": report.work_n,
        "work_m": report.work_m,
        "v_safe": len(report.kernel.v_safe),
        "residual_n": report.kernel.reduced.n,
        "residual_m": report.kernel.reduced.m,
        "status": report.status,
        "best_sampled_profit": best,
        "post_profit": report.cover_profit,
        "sol_size": report.solution_size,
        "cover_size": report.cover_size,
        "optimal": report.optimal,
        "alpha_solution": report.alpha_solution,
        "reference_cover_size": report.reference_cover_size,
        "two_qubit_gates": report.two_qubit_gates,
        "depth_proxy": report.depth_proxy,
        "error": "",
    }


def error_csv_row(name: str, config: PipelineConfig, err: Exception) -> dict:
    row = {key: "" for key in REPORT_CSV_FIELDS}
    row.update({
        "name": name,
        "problem": config.problem,
        "solver": config.solver,
        "depth": config.depth,
        "seed": config.seed,
        "error": f"{type(err).__name__}: {err}",
    })
    return row


def run_batch(jobs: list[tuple[str, Graph, PipelineConfig]],
              ) -> tuple[list[PipelineReport | None], list[dict]]:
    """Run independent configs; per-row failures are recorded, not raised."""
    reports: list[PipelineReport | None] = []
    rows: list[dict] = []
    for name, graph, config in jobs:
        try:
            report = run_pipeline(graph, config, name)
        except Exception as err:  # noqa: BLE001 - batch rows fail independently
            reports.append(None)
            rows.append(error_csv_row(name, config, err))
            continue
        reports.append(report)
        rows.append(report_csv_row(report))
    return reports, rows


def batch_documents(reports: list[PipelineReport | None],
                    rows: list[dict]) -> list[dict]:
    """The JSON document of each ``run_batch`` job: its report, or for a
    failed job its name and error."""
    return [report.to_json_dict() if report is not None
            else {"name": row["name"], "error": row["error"]}
            for report, row in zip(reports, rows)]
