"""Spans recorded from outside the program, by wrapping its public functions.

Each target is patched in the namespace its caller looks it up in (the
pipeline imports ``reduce`` by name, so ``pipeline.reduce`` is what is
wrapped). A target that a later version of the program no longer has is
reported as absent instead of failing the run. ``Tracer.installed``
restores every original on exit.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager


def _nbytes(result) -> int:
    return int(result.nbytes)


def _mixer_bytes(result) -> int:
    # computed, not measured: one read and one write of the whole state
    # per qubit, as the butterfly mixer does; n comes from the state length
    n = int(result.size).bit_length() - 1
    return 2 * n * int(result.nbytes)


# (module under profitcover, attribute path, span name, bytes of the result)
TARGETS = (
    ("pipeline", "reduce", "kernel.reduce", None),
    ("pipeline", "reconstruct", "kernel.reconstruct", None),
    ("postprocess", "reduce", "kernel.reduce", None),
    ("postprocess", "reconstruct", "kernel.reconstruct", None),
    ("pipeline", "build_ising", "model.build_ising", None),
    ("model", "IsingModel.energies_vector", "model.energies_vector", _nbytes),
    ("pipeline", "train_layerwise", "qaoa.train_layerwise", None),
    ("pipeline", "evolve_energies", "qaoa.evolve_energies", _nbytes),
    ("pipeline", "sample_state", "qaoa.sample_state", None),
    ("qaoa", "apply_phase", "qaoa.apply_phase", None),
    ("qaoa", "apply_mixer", "qaoa.apply_mixer", _mixer_bytes),
    ("qaoa", "expectation", "qaoa.expectation", None),
    ("pipeline", "summarize", "metrics.summarize", None),
    ("pipeline", "summarize_exact", "metrics.summarize_exact", None),
    ("pipeline", "refine", "postprocess.refine", None),
    ("pipeline", "finalize", "postprocess.finalize", None),
    ("pipeline", "check_refined", "postprocess.check_refined", None),
    ("pipeline", "min_vertex_cover_exact", "oracle.min_vertex_cover_exact", None),
)
# input generation during set-up, called by the benchmark's workloads module
SETUP_TARGETS = (
    ("instances", "gen_regular", "instances.gen_regular", None),
    ("instances", "gen_erdos_renyi_connected", "instances.gen_erdos_renyi_connected", None),
)
ROOT_SPAN = "pipeline.run_pipeline"


def _resolve(module: str, path: str):
    """(owner object, attribute name) for a dotted path, or None if absent."""
    owner = importlib.import_module(f"profitcover.{module}")
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    """In-memory span recorder; spans are written out once, after the run."""

    def __init__(self):
        # (span id, parent id, job id, name, start, end, bytes)
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.job = ""
        self._stack: list[int] = []
        self._next = 0

    def wrap(self, fn, name: str, measure=None):
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            nbytes = measure(result) if measure else None
            self.spans.append((sid, parent, self.job, name, start, end, nbytes))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets=TARGETS):
        """Patch every present target for the duration of the block."""
        saved = []
        try:
            for module, path, name, measure in targets:
                found = _resolve(module, path)
                if found is None:
                    self.absent.append(f"{module}.{path}")
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, measure))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self, jobs=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, summed and largest bytes.

        Self time is a span's duration minus that of its direct children.
        ``jobs`` restricts the sums to spans of those job ids.
        """
        child = defaultdict(float)
        for sid, parent, job, name, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0, "max_bytes": 0})
        for sid, parent, job, name, start, end, nbytes in self.spans:
            if jobs is not None and job not in jobs:
                continue
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[sid]
            row["bytes"] += nbytes or 0
            row["max_bytes"] = max(row["max_bytes"], nbytes or 0)
        return dict(out)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, job, name, start, end, nbytes in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job, "name": name,
                                     "start": start, "end": end, "bytes": nbytes}) + "\n")
