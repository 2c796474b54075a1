"""Solution-quality metrics over measurement distributions.

Summaries report three profit readings (best observed, most likely
outcome, probability-weighted average), the approximation ratio of the
best outcome, and the probability mass at or above fractions of the
optimum. Ties on profit or probability resolve to the lexicographically
smallest bitstring so every report is reproducible.

Mass conventions: mass_optimal uses exact equality (no profit can
exceed the optimum, so >= and == coincide) and is always defined once
the optimum is known; the fractional masses at 0.9 and 0.8 are left
undefined when the optimum is non-positive, where a fraction of the
optimum stops being a meaningful threshold.
"""

from __future__ import annotations

import csv
import json
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError
from .model import IsingModel, bitstring_of_index
from .qaoa import (
    MAX_QUBITS,
    AngleSchedule,
    SampleDistribution,
    apply_mixer,
    apply_phase,
    check_probabilities,
    probabilities,
    train_layerwise,
    uniform_state,
)


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, fixed indent, no NaN, newline."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def lex_min_index(indices: np.ndarray, n: int) -> int:
    """Index whose display bitstring is lexicographically smallest.

    Display position j is bit j, so the candidates narrow from bit 0 up:
    at each bit those with a 0 there are kept, if there are any, until
    one candidate is left.
    """
    candidates = indices
    for j in range(n):
        if candidates.size <= 1:
            break
        zeros = candidates[(candidates & (1 << j)) == 0]
        if zeros.size:
            candidates = zeros
    return int(candidates[0])


@dataclass(frozen=True)
class DistributionSummary:
    kind: str  # "sampled" or "exact"
    shots: int | None
    n_distinct: int
    best_bitstring: str
    best_profit: float
    most_likely_bitstring: str
    most_likely_profit: float
    most_likely_probability: float
    weighted_average_profit: float
    expected_cover_size: float
    opt_profit: int | None
    approx_ratio_best: float | None
    mass_optimal: float | None
    mass_90: float | None
    mass_80: float | None

    def to_json_dict(self) -> dict:
        return asdict(self)


def _summarize(kind: str, shots: int | None, indices: np.ndarray,
               weights: np.ndarray, profits: np.ndarray, n: int,
               m_edges: int, opt_profit: int | None) -> DistributionSummary:
    """Summary of a distribution over the sorted, unique basis ``indices``."""
    if indices.size == 0:
        raise DomainError("empty distribution")
    best_profit = float(np.max(profits))
    best_idx = lex_min_index(indices[profits == best_profit], n)
    top_w = np.max(weights)
    likely_idx = lex_min_index(indices[weights == top_w], n)
    likely_profit = float(profits[np.searchsorted(indices, likely_idx)])
    mean_profit = float(np.sum(weights * profits))

    alpha = mass_opt = mass_90 = mass_80 = None
    if opt_profit is not None:
        mass_opt = float(np.sum(weights[profits == opt_profit]))
        if opt_profit > 0:
            alpha = best_profit / opt_profit
            # profits and the optimum are integers, so compare the scaled
            # integers instead of multiplying by an inexact 0.9 or 0.8
            mass_90 = float(np.sum(weights[10 * profits >= 9 * opt_profit]))
            mass_80 = float(np.sum(weights[5 * profits >= 4 * opt_profit]))
    return DistributionSummary(
        kind=kind,
        shots=shots,
        n_distinct=int(indices.size),
        best_bitstring=bitstring_of_index(best_idx, n),
        best_profit=best_profit,
        most_likely_bitstring=bitstring_of_index(likely_idx, n),
        most_likely_profit=likely_profit,
        most_likely_probability=float(top_w),
        weighted_average_profit=mean_profit,
        expected_cover_size=float(m_edges) - mean_profit,
        opt_profit=opt_profit,
        approx_ratio_best=alpha,
        mass_optimal=mass_opt,
        mass_90=mass_90,
        mass_80=mass_80,
    )


def summarize(dist: SampleDistribution, ising: IsingModel,
              opt_profit: int | None = None) -> DistributionSummary:
    """Summary of a sampled (finite-shot) distribution."""
    # negate only the gathered energies; a zero energy still gives -0.0
    profits = -ising.energies_vector()[dist.indices]
    weights = dist.counts / dist.shots
    return _summarize("sampled", dist.shots, dist.indices, weights,
                      profits, ising.n, len(ising.j4), opt_profit)


def summarize_exact(probs: np.ndarray, ising: IsingModel,
                    opt_profit: int | None = None) -> DistributionSummary:
    """Summary of the exact distribution ``probs = probabilities(state)``
    of a statevector (support = prob > 0)."""
    check_probabilities(probs)
    support = np.flatnonzero(probs > 0.0)
    return _summarize("exact", None, support, probs[support],
                      -ising.energies_vector()[support], ising.n, len(ising.j4),
                      opt_profit)


@dataclass(frozen=True)
class DepthPoint:
    depth: int
    gamma: float | None
    beta: float | None
    expectation: float
    summary: DistributionSummary


@dataclass(frozen=True)
class DepthSweep:
    schedule: AngleSchedule
    points: tuple[DepthPoint, ...]


def depth_sweep(ising: IsingModel, p_list, *, opt_profit: int | None = None,
                max_qubits: int = MAX_QUBITS) -> DepthSweep:
    """Train once to max(p_list) and report exact metrics at those depths.

    Depth d reuses the trained prefix (gamma_1..d, beta_1..d), so the
    sweep replays one evolution instead of retraining per depth; depth 0
    is the uniform superposition baseline.
    """
    depths = sorted(set(int(p) for p in p_list))
    if not depths or depths[0] < 0:
        raise DomainError("depth list must contain non-negative depths")
    p_max = depths[-1]
    schedule, _, _ = train_layerwise(ising, p_max, max_qubits=max_qubits)
    energies = ising.energies_vector()
    n = ising.n

    def point(d, gamma, beta, state):
        probs = probabilities(state)
        # the same sum as qaoa.expectation, from the same probabilities
        return DepthPoint(d, gamma, beta, float(np.sum(probs * energies)),
                          summarize_exact(probs, ising, opt_profit))

    state = uniform_state(n)
    points = []
    if 0 in depths:
        points.append(point(0, None, None, state))
    for d in range(1, p_max + 1):
        gamma, beta = schedule.gammas[d - 1], schedule.betas[d - 1]
        state = apply_phase(state, ising, gamma)
        apply_mixer(state, n, beta)
        if d in depths:
            points.append(point(d, gamma, beta, state))
    return DepthSweep(schedule, tuple(points))


def write_csv(path, fieldnames: list[str], rows: list[dict]) -> None:
    """Header plus one line per row, to ``path`` or, if it is None, to stdout."""
    with nullcontext(sys.stdout) if path is None else open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


_POINT_COLUMNS = ("depth", "gamma", "beta", "expectation")
_SUMMARY_COLUMNS = (
    "best_profit", "weighted_average_profit", "expected_cover_size",
    "approx_ratio_best", "mass_optimal", "mass_90", "mass_80",
)
DEPTH_SWEEP_FIELDS = ["instance", *_POINT_COLUMNS, *_SUMMARY_COLUMNS]


def depth_sweep_rows(name: str, sweep: DepthSweep) -> list[dict]:
    """Flatten a sweep into CSV-friendly records."""
    return [
        {"instance": name,
         **{key: getattr(pt, key) for key in _POINT_COLUMNS},
         **{key: getattr(pt.summary, key) for key in _SUMMARY_COLUMNS}}
        for pt in sweep.points
    ]


def aggregate_mass_stats(sweeps: list[DepthSweep]) -> dict:
    """Mean and variance of the near-optimal masses per depth, across runs."""
    by_depth: dict[int, dict[str, list[float]]] = {}
    for sweep in sweeps:
        for pt in sweep.points:
            slot = by_depth.setdefault(pt.depth, {"mass_optimal": [], "mass_90": [], "mass_80": []})
            s = pt.summary
            for key in slot:
                val = getattr(s, key)
                if val is not None:
                    slot[key].append(val)
    out = {}
    for depth in sorted(by_depth):
        stats = {}
        for key, values in by_depth[depth].items():
            if values:
                arr = np.asarray(values)
                stats[key] = {"mean": float(arr.mean()),
                              "var": float(arr.var()),
                              "count": len(values)}
        out[str(depth)] = stats
    return out
