"""A frozen copy of ``kernel._project_v_safe`` as it was when it kept its
own replay of the fold trace, with three states per label: safe,
undecided and neither.

The package now takes v_safe as the intersection of two runs of the
kernel's ``_replay_folds``. Tests compare it with this copy, which
imports nothing from the package, so that a change in the shared replay
cannot move the vertices a kernel reports as forced unnoticed.
"""


def frozen_v_safe(committed, folds, reduced_vertices) -> frozenset[int]:
    """Walk the folds in reverse: a merged label that is safe expands to
    its pair, one that is undecided makes its whole fold undecided, and
    otherwise the folded degree-2 vertex is safe."""
    safe = set(committed)
    undecided = set(reduced_vertices)
    for rec in reversed(folds):
        if rec.merged_into in safe:
            safe.discard(rec.merged_into)
            safe.update(rec.merged_pair)
        elif rec.merged_into in undecided:
            undecided.discard(rec.merged_into)
            undecided.update((rec.folded_vertex, *rec.merged_pair))
        else:
            safe.add(rec.folded_vertex)
    return frozenset(safe)
