"""Instance ingestion and synthetic graph generation.

File formats: whitespace edge lists (# comments), DIMACS (p/e lines,
1-based) and Matrix Market symmetric patterns (1-based). Loaded graphs are
relabelled to dense 0..n-1 indices; the original labels are returned
alongside so reports can translate back. A DIMACS or MatrixMarket header
may declare at most ``MAX_DECLARED_VERTICES`` vertices, so a tiny file
cannot ask for a graph that fills memory.

Generators cover the two synthetic families used throughout: connected
Erdős–Rényi graphs (rejection sampling until connected) and d-regular
graphs (pairing model with restart). Each call derives its own
counter-based RNG stream from the seed, so results are reproducible and
independent of call order. ``parse_gen`` is the one reader of the text
specs (``er:n=10,p=0.3,seed=4``, ``regular:n=8,d=3``) that the command
line, batch manifests and scripts accept.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .errors import DomainError, ParseError
from .graph import Graph, is_connected

_CONNECT_ATTEMPTS = 1000
_PAIRING_ATTEMPTS = 2000
# largest vertex count a DIMACS or MatrixMarket header may declare: a graph
# costs about 0.9 KiB per vertex, so this caps a loaded file near 90 MiB
MAX_DECLARED_VERTICES = 100_000


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


def _parse_dimacs(text: str, path) -> tuple[int, list[tuple[int, int]]]:
    n = None
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) < 4:
                raise ParseError("malformed problem line", path, lineno)
            try:
                n = int(parts[2])
            except ValueError:
                raise ParseError("bad vertex count in problem line", path, lineno)
            if n < 0:
                raise ParseError(f"negative vertex count {n} in problem line", path, lineno)
            if n > MAX_DECLARED_VERTICES:
                raise ParseError(f"vertex count {n} in problem line is above the limit"
                                 f" of {MAX_DECLARED_VERTICES}", path, lineno)
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge line before problem line", path, lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except (IndexError, ValueError):
                raise ParseError("malformed edge line", path, lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"edge ({u},{v}) out of range 1..{n}", path, lineno)
            edges.append((u - 1, v - 1))
    if n is None:
        raise ParseError("missing problem line", path)
    return n, edges


def _parse_matrix_market(text: str, path) -> tuple[int, list[tuple[int, int]]]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ParseError("missing %%MatrixMarket header", path, 1)
    dims = None
    edges = []
    for lineno, line in enumerate(lines[1:], start=2):
        body = line.strip()
        if not body or body.startswith("%"):
            continue
        parts = body.split()
        if dims is None:
            if len(parts) < 3:
                raise ParseError("malformed size line", path, lineno)
            try:
                rows, cols = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("bad size line", path, lineno)
            if rows < 0 or cols < 0:
                raise ParseError(f"negative size {rows} x {cols} in size line", path, lineno)
            dims = max(rows, cols)
            if dims > MAX_DECLARED_VERTICES:
                raise ParseError(f"size {rows} x {cols} in size line is above the limit"
                                 f" of {MAX_DECLARED_VERTICES} vertices", path, lineno)
        else:
            try:
                u, v = int(parts[0]), int(parts[1])
            except (IndexError, ValueError):
                raise ParseError("malformed entry", path, lineno)
            if not (1 <= u <= dims and 1 <= v <= dims):
                raise ParseError(f"entry ({u},{v}) out of range", path, lineno)
            edges.append((u - 1, v - 1))
    if dims is None:
        raise ParseError("missing size line", path)
    return dims, edges


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
        n = len(labels)
        names = tuple(labels)
    elif fmt == "dimacs":
        n, raw = _parse_dimacs(text, str(path))
        names = tuple(str(i + 1) for i in range(n))
    elif fmt == "matrix_market":
        n, raw = _parse_matrix_market(text, str(path))
        names = tuple(str(i + 1) for i in range(n))
    else:
        raise DomainError(f"unknown format {fmt!r}")
    if n == 0:
        raise DomainError(f"{path}: empty vertex set")
    # Graph keeps one copy of a repeated edge; self-loops it refuses
    graph = Graph(range(n), [(u, v) for u, v in raw if u != v])
    dropped = len(raw) - graph.m
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} duplicate/self-loop entries", stacklevel=2)
    return graph, names


def load_graph(path: str | Path, fmt: str | None = None) -> Graph:
    graph, _ = load_graph_named(path, fmt)
    return graph


def gen_erdos_renyi_connected(n: int, p: float, seed: int) -> Graph:
    """Connected G(n,p) by whole-graph rejection sampling."""
    if n < 2:
        raise DomainError("need n >= 2")
    if not 0.0 < p <= 1.0:
        raise DomainError("need 0 < p <= 1")
    rng = _rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(_CONNECT_ATTEMPTS):
        mask = rng.random(len(pairs)) < p
        g = Graph(range(n), [e for e, keep in zip(pairs, mask) if keep])
        if is_connected(g):
            return g
    raise DomainError(
        f"no connected sample in {_CONNECT_ATTEMPTS} attempts for n={n}, p={p}"
    )


def gen_regular(n: int, d: int, seed: int) -> Graph:
    """d-regular simple graph via the pairing model, restarting on collisions."""
    if d < 0 or d >= n or (n * d) % 2 != 0:
        raise DomainError(f"no {d}-regular graph on {n} vertices")
    if d == 0:
        return Graph(range(n), [])
    rng = _rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(_PAIRING_ATTEMPTS):
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
            return Graph(range(n), edges)
    raise DomainError(f"pairing model failed after {_PAIRING_ATTEMPTS} restarts")


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
