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
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii
from numbers import Integral

import numpy as np

from .errors import DomainError
from .model import IsingModel, bitstring_of_index
from .qaoa import (
    CHUNK,
    MAX_QUBITS,
    AngleSchedule,
    SampleDistribution,
    check_probabilities,
    train_layerwise,
    weighted_sum,
)


_INF = float("inf")
_INT_ONLY = {int}


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, fixed indent, no NaN, newline.

    The text is byte for byte
    ``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\\n"``,
    so the standard ``json`` module reproduces any report. The function
    does not call ``json.dumps`` because CPython encodes with C only
    when ``indent`` is None and takes a pure-Python path otherwise.
    Here the scalars go through the C routines that path calls
    (``encode_basestring_ascii``, ``int.__repr__``, ``float.__repr__``)
    in ``json``'s order of ``isinstance`` tests, and a list or tuple of
    exact ints, most of a report's bytes, is written by one ``repr``.
    NaN and infinities raise ``ValueError`` and unsupported types
    ``TypeError``, as in ``json``; a circular container exhausts the
    recursion limit instead of raising ``ValueError``.
    """
    chunks: list[str] = []
    _emit(obj, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def _float_text(x: float) -> str:
    if -_INF < x < _INF:
        return float.__repr__(x)
    raise ValueError("Out of range float values are not JSON compliant: " + repr(x))


def _key_text(key) -> str:
    """A dict key as ``json`` converts it before quoting."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _emit(o, newline: str, put) -> None:
    """Append the text of ``o`` at the indent that ``newline`` ends in."""
    if isinstance(o, str):
        put(encode_basestring_ascii(o))
    elif o is None:
        put("null")
    elif o is True:
        put("true")
    elif o is False:
        put("false")
    elif isinstance(o, int):
        put(int.__repr__(o))
    elif isinstance(o, float):
        put(_float_text(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            put("[]")
            return
        inner = newline + "  "
        # exact ints only: a bool or an IntEnum has a repr json does not print
        if {*map(type, o)} == _INT_ONLY:
            put("[" + inner + repr(list(o))[1:-1].replace(", ", "," + inner) + newline + "]")
            return
        sep = "[" + inner
        for value in o:
            put(sep)
            sep = "," + inner
            _emit(value, inner, put)
        put(newline + "]")
    elif isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(o.items()):
            put(sep + encode_basestring_ascii(_key_text(key)) + ": ")
            sep = "," + inner
            _emit(value, inner, put)
        put(newline + "}")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


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


def lex_min_of_mask(mask: np.ndarray) -> int:
    """Position of the True entry of a full-length boolean ``mask`` whose
    display bitstring is lexicographically smallest; one entry must hold.

    The narrowing of ``lex_min_index`` on strided views instead of an
    index: with bits 0..j-1 of r chosen, the candidates that also have a
    0 at bit j are ``mask[r::2 << j]``, and if none holds, bit j of r is
    set. Once ``mask[r]`` holds, r is the candidate whose higher bits
    are all 0, so the narrowing stops there.
    """
    r = j = 0
    while not mask[r]:
        if not mask[r::2 << j].any():
            r |= 1 << j
        j += 1
    return r


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


def _summarize(kind: str, shots: int | None, indices: np.ndarray | None,
               weights: np.ndarray, energies: np.ndarray, n: int,
               m_edges: int, opt_profit: int | None) -> DistributionSummary:
    """Summary of a distribution over the sorted, unique basis ``indices``;
    ``indices=None`` means every basis state, in order.

    A profit is a negated energy, so the energies are read as they are
    and only scalars and cut-offs are negated. With ``indices`` given,
    ``weights`` belongs to the summary: the mean's products are written
    over them once the masses are read.
    """
    if weights.size == 0:
        raise DomainError("empty distribution")
    full = indices is None

    def lex_min(mask: np.ndarray) -> int:
        return lex_min_of_mask(mask) if full else lex_min_index(indices[mask], n)

    low = np.min(energies)
    best_profit = float(-int(low))
    best_idx = lex_min(energies == low)
    top_w = np.max(weights)
    likely_idx = lex_min(weights == top_w)
    # a key of the indices' dtype: a Python int would widen a uint32 index
    likely_profit = float(-int(energies[likely_idx if full else np.searchsorted(
        indices, indices.dtype.type(likely_idx))]))

    alpha = mass_opt = mass_90 = mass_80 = None
    if opt_profit is not None:
        mass_opt = float(np.sum(weights[energies == -opt_profit]))
        if opt_profit > 0:
            alpha = best_profit / opt_profit
            # profits and the optimum are integers, so a profit -E has
            # 10(-E) >= 9 opt exactly when E <= floor(-9 opt / 10), and
            # 5(-E) >= 4 opt when E <= floor(-4 opt / 5): no inexact 0.9
            # or 0.8, no scaled copy
            mass_90 = float(np.sum(weights[energies <= -9 * opt_profit // 10]))
            mass_80 = float(np.sum(weights[energies <= -4 * opt_profit // 5]))
    # the sum of weight * energy is minus the sum of weight * profit in
    # bits, term by term and node by node; 0.0 - x keeps a zero mean +0.0.
    # A support is rarely a power of two long, so only the full vectors
    # take the chunked sum; both give the bits of np.sum(weights * energies)
    mean_profit = 0.0 - (weighted_sum(weights, energies) if full
                         else float(np.sum(np.multiply(weights, energies, out=weights))))
    return DistributionSummary(
        kind=kind,
        shots=shots,
        n_distinct=int(weights.size),
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
    """Summary of a sampled (finite-shot) distribution.

    The energies are gathered a ``CHUNK`` of indices at a time, so the
    indices are never widened to intp whole; the largest index is checked
    first, since the gather clips an index instead of raising."""
    vector, indices = ising.energies_vector(), dist.indices
    if indices.size and indices[-1] >= vector.size:
        raise DomainError(f"basis index {indices[-1]} out of range for {ising.n} qubits")
    energies = np.empty(indices.size, dtype=vector.dtype)
    for s in range(0, indices.size, CHUNK):
        vector.take(indices[s:s + CHUNK], out=energies[s:s + CHUNK], mode="clip")
    weights = dist.counts / dist.shots
    return _summarize("sampled", dist.shots, indices, weights,
                      energies, ising.n, ising.graph.m, opt_profit)


def summarize_exact(probs: np.ndarray, ising: IsingModel,
                    opt_profit: int | None = None) -> DistributionSummary:
    """Summary of the exact distribution ``probs = probabilities(state)``
    of a statevector (support = prob > 0).

    A trained or uniform state usually has no zero amplitude. Then the
    support is every basis state, and the summary reads ``probs`` and the
    energy vector directly. It builds no index: ties resolve by
    narrowing boolean masks (``lex_min_of_mask``), the mean is the
    chunked ``weighted_sum`` and the masses compact only the weights at
    or below their energy cut-off. So it allocates one boolean mask (an
    eighth of a probability vector) at a time and the selected weights.
    Either way the arrays summed are the same, so the summary has the
    same bits.
    """
    check_probabilities(probs)
    energies = ising.energies_vector()
    if probs.size and probs.min() > 0.0:
        return _summarize("exact", None, None, probs, energies, ising.n,
                          ising.graph.m, opt_profit)
    support = np.flatnonzero(probs > 0.0)
    return _summarize("exact", None, support, probs[support], energies[support],
                      ising.n, ising.graph.m, opt_profit)


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

    Training hands each trained layer's probability vector to a callback
    that summarizes the requested depths, so the circuit is evolved once;
    a depth's angles and expectation are the log's record of its layer.
    Depth 0 is the uniform superposition baseline.
    """
    p_list = list(p_list)
    if any(isinstance(p, bool) or not isinstance(p, Integral) for p in p_list):
        raise DomainError(f"depths must be integers, got {p_list}")
    depths = sorted(set(int(p) for p in p_list))
    if not depths or depths[0] < 0:
        raise DomainError("depth list must contain non-negative depths")
    summaries = {}

    def each_layer(layer: int, probs: np.ndarray) -> None:
        if layer in depths:
            summaries[layer] = summarize_exact(probs, ising, opt_profit)

    schedule, log = train_layerwise(ising, depths[-1], max_qubits=max_qubits,
                                    each_layer=each_layer)[:2]
    points = [DepthPoint(rec.layer, rec.gamma, rec.beta, rec.expectation, summaries[rec.layer])
              for rec in log.layers if rec.layer in summaries]
    if depths[0] == 0:  # the untrained uniform distribution, built with no state
        uniform = train_layerwise(ising, 0, max_qubits=max_qubits)[2]
        points.insert(0, DepthPoint(0, None, None,
                                    weighted_sum(uniform, ising.energies_vector()),
                                    summarize_exact(uniform, ising, opt_profit)))
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
