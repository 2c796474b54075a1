"""A frozen copy of ``instances.gen_regular``'s pairing loop as it was when
it checked each pair in Python.

The package now checks a whole pairing with numpy and, once the restarts
are spent, falls back to pairing stub by stub. Tests compare its graphs
with this copy, which imports nothing from the package, so that a change
in the check cannot move the graphs every regular spec builds unnoticed.
"""

import numpy as np

PAIRING_ATTEMPTS = 2000


def frozen_pairing(n: int, d: int, seed: int) -> set[tuple[int, int]] | None:
    """The edges (u < v) of the first of ``PAIRING_ATTEMPTS`` permutations
    of the stubs whose consecutive pairs make a simple graph, or None when
    none does. Expects 0 < d < n and n*d even."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    stubs = np.repeat(np.arange(n), d)
    for _ in range(PAIRING_ATTEMPTS):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        edges = set()
        ok = True
        for u, v in pairs:
            u, v = int(u), int(v)
            if u == v:
                ok = False
                break
            e = (u, v) if u < v else (v, u)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if ok:
            return edges
    return None
