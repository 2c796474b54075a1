"""A frozen copy of the kernel's LP partition as it was when it found its
maximum matching with scipy's ``maximum_bipartite_matching``.

The package now finds that matching with its own Hopcroft-Karp. Tests
compare the package's (P, Q, R) with this copy, whose matching comes
from scipy's code and whose König search is unchanged, so a fault in the
new matching cannot pass unnoticed.
"""

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching


def frozen_lp_partition(g) -> tuple[set[int], set[int], set[int]]:
    """Half-integral LP optimum via König on the bipartite double cover.

    Returns (P, Q, R): x>1/2 (commit), x=1/2 (keep), x<1/2 (drop).
    """
    n = g.n
    if g.m == 0:
        return set(), set(), set(g.vertices)
    pos = {v: i for i, v in enumerate(g.vertices)}
    rows, cols = [], []
    for u, v in g.edges:
        rows.extend((pos[u], pos[v]))
        cols.extend((pos[v], pos[u]))
    bi = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    match_of_row = maximum_bipartite_matching(bi, perm_type="column")
    row_of_col = np.full(n, -1, dtype=np.int64)
    for r, c in enumerate(match_of_row):
        if c >= 0:
            row_of_col[c] = r
    # König: alternate from unmatched left vertices
    z_left = {i for i in range(n) if match_of_row[i] < 0}
    z_right: set[int] = set()
    stack = list(z_left)
    adj_right = {i: set() for i in range(n)}
    for r, c in zip(rows, cols):
        adj_right[r].add(c)
    while stack:
        left = stack.pop()
        for right in adj_right[left]:
            if right in z_right or match_of_row[left] == right:
                continue
            z_right.add(right)
            back = row_of_col[right]
            if back >= 0 and back not in z_left:
                z_left.add(back)
                stack.append(back)
    in_cover_left = set(range(n)) - z_left
    in_cover_right = z_right
    p_set, q_set, r_set = set(), set(), set()
    for v in g.vertices:
        i = pos[v]
        x2 = (i in in_cover_left) + (i in in_cover_right)
        (r_set, q_set, p_set)[x2].add(v)
    return p_set, q_set, r_set
