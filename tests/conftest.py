"""Shared fixtures and independent reference implementations.

The helpers here deliberately avoid the package's own oracle and numpy
vectorization: expected values in the tests come from slow, obviously
correct enumeration so that a bug in the package cannot hide in a bug
shared with the test oracle.
"""

import itertools
import random

import pytest

from profitcover.graph import Graph


# ---------------------------------------------------------------------------
# named small graphs


def complete_graph(n):
    return Graph(range(n), itertools.combinations(range(n), 2))


def path_graph(n):
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph(range(n), edges)


def star_graph(leaves):
    """Star with center 0 and the given number of leaves."""
    return Graph(range(leaves + 1), [(0, i) for i in range(1, leaves + 1)])


def random_gnp(n, p, seed):
    """Seeded G(n,p) using the stdlib RNG (independent of the package)."""
    rng = random.Random(seed)
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2)
             if rng.random() < p]
    return Graph(range(n), edges)


def tree_plus_chords(n, chords, seed):
    """Edges of a seeded random tree on range(n) plus ``chords`` random
    non-loop pairs, which may repeat a tree edge or each other."""
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    while len(edges) < n - 1 + chords:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return edges


# ---------------------------------------------------------------------------
# brute-force reference oracles (pure python, exponential, n <= ~14)


def brute_profit(g, subset):
    subset = set(subset)
    covered = sum(1 for u, v in g.edges if u in subset or v in subset)
    return covered - len(subset)


def brute_min_cover(g):
    """Smallest vertex cover by enumeration, lexicographically smallest wins."""
    vs = list(g.vertices)
    best = None
    for size in range(g.n + 1):
        for combo in itertools.combinations(vs, size):
            s = set(combo)
            if all(u in s or v in s for u, v in g.edges):
                return frozenset(combo)
        if best is not None:
            break
    return frozenset(vs)


def brute_min_cover_size(g):
    return len(brute_min_cover(g))


def brute_max_profit(g):
    """Maximum profit over all 2^n subsets by enumeration."""
    vs = list(g.vertices)
    best = 0  # empty set has profit 0
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(vs, size):
            best = max(best, brute_profit(g, combo))
    return best


@pytest.fixture
def k2():
    return complete_graph(2)


@pytest.fixture
def k3():
    return complete_graph(3)


@pytest.fixture
def c4():
    return cycle_graph(4)
