"""Instance ingestion and synthetic graph generation.

File formats: whitespace edge lists (# comments), DIMACS (p/e lines,
1-based) and Matrix Market symmetric patterns (1-based). Loaded graphs are
relabelled to dense 0..n-1 indices; the original labels are returned
alongside so reports can translate back. The two 1-based formats share
one count check and one entry reader: a DIMACS or MatrixMarket header
may declare at most ``MAX_DECLARED_VERTICES`` vertices, so a tiny file
cannot ask for a graph that fills memory, and an entry ``u v`` must have
both ends in 1..n.

Generators cover the two synthetic families used throughout: connected
Erdős–Rényi graphs (rejection sampling until connected) and d-regular
graphs (pairing model with restart). The pairing model succeeds on about
exp(-(d^2-1)/4) of its restarts. Only when all ``_PAIRING_ATTEMPTS`` fail
are stubs paired one edge at a time on the same stream (Steger and
Wormald), at most ``_STUB_ATTEMPTS`` times; so every spec the pairing
model builds keeps its graph, and one of moderate degree, such as n=100,
d=10, is built too. A dense spec, 2d > n-1, on which both fail is built
as the complement of an (n-1-d)-regular graph, whose degree is lower.
A spec whose one attempt would draw over more than
``MAX_GEN_DRAWS`` vertex pairs (er) or stubs (regular) is refused before
anything is allocated, and so is an er spec too sparse to be connected,
one that expects ``MAX_ISOLATED_EXPECTED`` or more isolated vertices a
draw. Each call derives its own counter-based RNG
stream from the seed, so results are reproducible and independent of
call order. ``parse_gen`` is the one reader of the text specs
(``er:n=10,p=0.3,seed=4``, ``regular:n=8,d=3``) that the command line,
batch manifests and scripts accept.
"""

from __future__ import annotations

import itertools
import warnings
from pathlib import Path

import numpy as np

from .errors import DomainError, ParseError
from .graph import Graph, complement, is_connected

_CONNECT_ATTEMPTS = 1000
_PAIRING_ATTEMPTS = 2000
_STUB_ATTEMPTS = 100
# largest vertex count a DIMACS or MatrixMarket header may declare: a graph
# costs about 0.9 KiB per vertex, so this caps a loaded file near 90 MiB
MAX_DECLARED_VERTICES = 100_000
# most random draws one generator attempt may take: the vertex pairs of an
# er spec or the stubs of a regular one; a graph on this many edges takes
# a few hundred MiB, and a spec above it is refused before anything is built
MAX_GEN_DRAWS = 2_000_000
# most isolated vertices an er spec may expect in one draw, n(1-p)^(n-1).
# A connected draw has none, and at 35 or more expected, inclusion-exclusion
# over the isolated vertices puts the chance that any of the 1000 attempts
# has none below 1e-11 on a grid of n up to the pair cap's 2000 (worst near
# n=240; at 30 it is 6e-10), so such a spec is refused before any draw
MAX_ISOLATED_EXPECTED = 35


def check_seed(seed: int) -> None:
    """A seed must be a Philox key, an integer in [0, 2**128)."""
    if not 0 <= seed < 1 << 128:
        raise DomainError(f"seed must be in [0, 2**128), got {seed}")


def _rng(seed: int) -> np.random.Generator:
    check_seed(seed)
    return np.random.Generator(np.random.Philox(key=seed))


def detect_format(path: str | Path) -> str:
    suffix = Path(path).suffix.lower()
    if suffix in (".mtx", ".mm"):
        return "matrix_market"
    if suffix in (".dimacs", ".col", ".clq"):
        return "dimacs"
    return "edge_list"


def _parse_edge_list(text: str, path) -> tuple[list[int], list[tuple[int, int]]]:
    labels: dict[str, None] = {}
    raw: list[tuple[str, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].split("%", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) < 2:
            raise ParseError("expected two vertex tokens", path, lineno)
        u, v = parts[0], parts[1]
        labels[u] = None
        labels[v] = None
        raw.append((u, v))
    keys = list(labels)
    # sort numerically when every label parses as an integer, else lexically
    try:
        order = sorted(keys, key=int)
    except ValueError:
        order = sorted(keys)
    index = {lab: i for i, lab in enumerate(order)}
    return order, [(index[u], index[v]) for u, v in raw]


def _declared_count(token: str, path, lineno: int) -> int:
    """A vertex count a header declares: an integer in 0..MAX_DECLARED_VERTICES."""
    try:
        n = int(token)
    except ValueError:
        raise ParseError(f"bad vertex count {token!r}", path, lineno) from None
    if n < 0:
        raise ParseError(f"negative vertex count {n}", path, lineno)
    if n > MAX_DECLARED_VERTICES:
        raise ParseError(f"vertex count {n} is above the limit of {MAX_DECLARED_VERTICES}",
                         path, lineno)
    return n


def _one_based_entry(parts: list[str], n: int, path, lineno: int) -> tuple[int, int]:
    """The 0-based edge of an entry ``u v`` with both ends in 1..n."""
    try:
        u, v = int(parts[0]), int(parts[1])
    except (IndexError, ValueError):
        raise ParseError("malformed entry", path, lineno) from None
    if not (1 <= u <= n and 1 <= v <= n):
        raise ParseError(f"entry ({u},{v}) out of range 1..{n}", path, lineno)
    return u - 1, v - 1


def _parse_dimacs(text: str, path) -> tuple[int, list[tuple[int, int]]]:
    n = None
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] == "p":
            if len(parts) < 4:
                raise ParseError("malformed problem line", path, lineno)
            n = _declared_count(parts[2], path, lineno)
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge line before problem line", path, lineno)
            edges.append(_one_based_entry(parts[1:], n, path, lineno))
    if n is None:
        raise ParseError("missing problem line", path)
    return n, edges


def _parse_matrix_market(text: str, path) -> tuple[int, list[tuple[int, int]]]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ParseError("missing %%MatrixMarket header", path, 1)
    n = None
    edges = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts or parts[0].startswith("%"):
            continue
        if n is not None:
            edges.append(_one_based_entry(parts, n, path, lineno))
        elif len(parts) < 3:
            raise ParseError("malformed size line", path, lineno)
        else:
            n = max(_declared_count(parts[0], path, lineno),
                    _declared_count(parts[1], path, lineno))
    if n is None:
        raise ParseError("missing size line", path)
    return n, edges


_ONE_BASED_PARSERS = {"dimacs": _parse_dimacs, "matrix_market": _parse_matrix_market}


def load_graph_named(path: str | Path, fmt: str | None = None) -> tuple[Graph, tuple[str, ...]]:
    """Load a graph plus the original-label table (index -> source label)."""
    fmt = fmt or detect_format(path)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ParseError(f"cannot read file: {err}", str(path)) from err
    except UnicodeDecodeError as err:
        raise ParseError(f"not UTF-8 text: {err}", str(path)) from None
    if fmt == "edge_list":
        labels, raw = _parse_edge_list(text, str(path))
    elif fmt in _ONE_BASED_PARSERS:
        n, raw = _ONE_BASED_PARSERS[fmt](text, str(path))
        labels = [str(i) for i in range(1, n + 1)]
    else:
        raise DomainError(f"unknown format {fmt!r}")
    if not labels:
        raise DomainError(f"{path}: empty vertex set")
    # Graph keeps one copy of a repeated edge; self-loops it refuses
    graph = Graph(range(len(labels)), [(u, v) for u, v in raw if u != v])
    dropped = len(raw) - graph.m
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} duplicate/self-loop entries", stacklevel=2)
    return graph, tuple(labels)


def load_graph(path: str | Path, fmt: str | None = None) -> Graph:
    graph, _ = load_graph_named(path, fmt)
    return graph


def gen_erdos_renyi_connected(n: int, p: float, seed: int) -> Graph:
    """Connected G(n,p) by whole-graph rejection sampling."""
    if n < 2:
        raise DomainError("need n >= 2")
    if not 0.0 < p <= 1.0:
        raise DomainError("need 0 < p <= 1")
    pairs = n * (n - 1) // 2
    if pairs > MAX_GEN_DRAWS:
        raise DomainError(f"er with n={n} draws over {pairs} vertex pairs, above the limit"
                          f" of {MAX_GEN_DRAWS}")
    isolated = n * (1.0 - p) ** (n - 1)
    if isolated >= MAX_ISOLATED_EXPECTED:
        raise DomainError(f"er with n={n}, p={p} expects {isolated:.1f} isolated vertices a"
                          f" draw, at or above the limit of {MAX_ISOLATED_EXPECTED}: no draw"
                          f" would be connected")
    rng = _rng(seed)
    # the pairs (i, j), i < j, in row-major order, one draw each
    rows, cols = np.triu_indices(n, 1)
    for _ in range(_CONNECT_ATTEMPTS):
        keep = np.flatnonzero(rng.random(pairs) < p)
        g = Graph(range(n), zip(rows[keep].tolist(), cols[keep].tolist()))
        if is_connected(g):
            return g
    raise DomainError(
        f"no connected sample in {_CONNECT_ATTEMPTS} attempts for n={n}, p={p}"
    )


def gen_regular(n: int, d: int, seed: int) -> Graph:
    """d-regular simple graph via the pairing model, restarting on collisions,
    and stub by stub once the restarts are spent; a dense one on which both
    fail is the complement of an (n-1-d)-regular graph."""
    if d < 0 or d >= n or (n * d) % 2 != 0:
        raise DomainError(f"no {d}-regular graph on {n} vertices")
    if n * d > MAX_GEN_DRAWS:
        raise DomainError(f"regular with n={n}, d={d} pairs {n * d} stubs, above the limit"
                          f" of {MAX_GEN_DRAWS}")
    if d == 0:
        return Graph(range(n), [])
    rng = _rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(_PAIRING_ATTEMPTS):
        u, v = np.sort(rng.permutation(stubs).reshape(-1, 2), axis=1).T
        # kept with no loop and no edge twice; np.unique is not used, as its
        # first call imports numpy.ma, about 10 ms of a fresh process's set-up
        if (u != v).all() and np.diff(np.sort(u * n + v)).all():
            return Graph(range(n), zip(u.tolist(), v.tolist()))
    for _ in range(_STUB_ATTEMPTS):
        edges = _pair_stub_by_stub(stubs.tolist(), rng)
        if edges is not None:
            return Graph(range(n), edges)
    if 2 * d > n - 1:
        return complement(gen_regular(n, n - 1 - d, seed))
    raise DomainError(f"pairing model failed after {_PAIRING_ATTEMPTS} restarts and stub-by-stub"
                      f" pairing after {_STUB_ATTEMPTS}")


def _pair_stub_by_stub(free: list[int], rng: np.random.Generator) -> set[tuple[int, int]] | None:
    """Pair two random free stubs at a time (Steger and Wormald, 1999),
    redrawing a pair that would be a loop or a repeated edge; None once no
    free pair is left that could be kept."""
    # uniforms in [0, 1), drawn from rng in blocks
    uniforms = itertools.chain.from_iterable(iter(lambda: rng.random(4096).tolist(), None))
    edges: set[tuple[int, int]] = set()
    misses = 0
    while free:
        # two distinct positions in free, each pair of them equally likely
        i = int(next(uniforms) * len(free))
        j = int(next(uniforms) * (len(free) - 1))
        j += j >= i
        u, v = sorted((free[i], free[j]))
        if u != v and (u, v) not in edges:
            edges.add((u, v))
            for k in (max(i, j), min(i, j)):
                free[k] = free[-1]
                free.pop()
            misses = 0
            continue
        misses += 1
        # after each run of 64 redraws, look for a pair that could be kept
        if misses % 64 == 0 and all(
                pair in edges for pair in itertools.combinations(sorted(set(free)), 2)):
            return None
    return edges


# generator kind -> the parameters its spec accepts
GEN_KINDS = {"er": ("n", "p", "seed"), "regular": ("n", "d", "seed")}


def parse_gen(text: str) -> tuple[str, Graph]:
    """Default name and graph for a generator spec.

    ``er:n=10,p=0.3,seed=4`` is named ``er_n10_p0.3_s4`` and
    ``regular:n=8,d=3`` is named ``reg_n8_d3_s0``; the seed defaults to 0.
    """
    kind, _, rest = text.partition(":")
    if kind not in GEN_KINDS:
        raise ParseError(f"generator must be one of {tuple(GEN_KINDS)}, got {kind!r}")
    params: dict = {}
    for item in filter(None, rest.split(",")):
        key, sep, value = item.partition("=")
        if not sep:
            raise ParseError(f"generator parameter {item!r} is not key=value")
        if key in params:
            raise ParseError(f"generator spec {text!r} repeats parameter {key!r}")
        params[key] = value
    unknown = sorted(set(params) - set(GEN_KINDS[kind]))
    if unknown:
        raise ParseError(f"generator spec {text!r}: unknown parameters {unknown}; "
                         f"{kind} takes {list(GEN_KINDS[kind])}")
    try:
        n, seed = int(params["n"]), int(params.get("seed", 0))
        p_or_d = float(params["p"]) if kind == "er" else int(params["d"])
    except KeyError as err:
        raise ParseError(f"generator spec {text!r} is missing {err}") from None
    except ValueError as err:
        raise ParseError(f"generator spec {text!r}: {err}") from None
    if kind == "er":
        return f"er_n{n}_p{p_or_d}_s{seed}", gen_erdos_renyi_connected(n, p_or_d, seed)
    return f"reg_n{n}_d{p_or_d}_s{seed}", gen_regular(n, p_or_d, seed)
