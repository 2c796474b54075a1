"""A frozen copy of ``qaoa.count_runs`` as it counted runs before it
went through the sorted picks block by block into uint32 arrays.

It compares every pick with the one before it in one whole-array pass,
through a one-byte mask a shot, takes the int64 run starts from that
mask and writes the counts over them, so tests can check that the
blocked count gives the same indices and counts on any sorted picks.
"""

import numpy as np

from profitcover.qaoa import SampleDistribution


def count_runs(picks, vertex_order, seed):
    """The distribution of the sorted int64 ``picks``: each distinct index
    is one run of equal picks, with int64 indices and counts."""
    shots = picks.size
    first = np.empty(shots, dtype=bool)
    first[0] = True
    np.not_equal(picks[1:], picks[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    del first
    indices = picks[starts]
    counts = starts
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = shots - starts[-1]
    return SampleDistribution(vertex_order, shots, seed, indices, counts)
