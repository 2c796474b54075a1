"""File parsers and the two synthetic graph families."""

import itertools
import re
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from profitcover.errors import DomainError, ParseError
from profitcover.graph import Graph, is_connected
from profitcover import instances
from profitcover.instances import (
    detect_format,
    gen_erdos_renyi_connected,
    gen_regular,
    load_graph,
    load_graph_named,
)

from conftest import complete_graph
from frozen_pairing import frozen_pairing

ROOT = Path(__file__).resolve().parents[1]

KARATE = "data/instances/karate.edges"


def test_karate_sizes():
    g = load_graph(KARATE)
    assert (g.n, g.m) == (34, 78)


def test_edge_list_basic(tmp_path):
    f = tmp_path / "g.edges"
    f.write_text("# a comment\n1 2\n2 3  # trailing comment\n\n3 1\n")
    g, names = load_graph_named(f)
    assert (g.n, g.m) == (3, 3)
    assert names == ("1", "2", "3")


def test_edge_list_self_loop_dropped(tmp_path):
    f = tmp_path / "g.edges"
    f.write_text("1 1\n1 2\n")
    with pytest.warns(UserWarning, match="dropped 1"):
        g = load_graph(f)
    assert (g.n, g.m) == (2, 1)


def test_edge_list_duplicate_dropped(tmp_path):
    f = tmp_path / "g.edges"
    f.write_text("1 2\n2 1\n")
    with pytest.warns(UserWarning):
        g = load_graph(f)
    assert g.m == 1


def test_edge_list_malformed_line_number(tmp_path):
    f = tmp_path / "g.edges"
    f.write_text("1 2\nonly_one_token\n")
    with pytest.raises(ParseError) as exc:
        load_graph(f)
    assert exc.value.line == 2


def test_edge_list_string_labels(tmp_path):
    f = tmp_path / "g.edges"
    f.write_text("alice bob\nbob carol\n")
    g, names = load_graph_named(f)
    assert names == ("alice", "bob", "carol")
    assert g.edges == ((0, 1), (1, 2))


def test_empty_file_is_domain_error(tmp_path):
    f = tmp_path / "g.edges"
    f.write_text("# nothing\n")
    with pytest.raises(DomainError):
        load_graph(f)


def test_missing_file_is_parse_error():
    with pytest.raises(ParseError):
        load_graph("/no/such/file.edges")


def test_dimacs_one_based_shift(tmp_path):
    f = tmp_path / "g.col"
    f.write_text("c comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
    g = load_graph(f)
    assert g.vertices == (0, 1, 2, 3)
    assert g.edges == ((0, 1), (1, 2), (2, 3))


def test_dimacs_edge_before_header(tmp_path):
    f = tmp_path / "g.col"
    f.write_text("e 1 2\np edge 2 1\n")
    with pytest.raises(ParseError) as exc:
        load_graph(f)
    assert exc.value.line == 1


def test_dimacs_out_of_range(tmp_path):
    f = tmp_path / "g.col"
    f.write_text("p edge 2 1\ne 1 5\n")
    with pytest.raises(ParseError, match=r"entry \(1,5\) out of range 1..2") as exc:
        load_graph(f)
    assert exc.value.line == 2


def test_matrix_market_symmetric_pattern(tmp_path):
    f = tmp_path / "g.mtx"
    f.write_text(
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        "% comment\n"
        "3 3 2\n"
        "2 1\n"
        "3 2\n"
    )
    g = load_graph(f)
    assert g.vertices == (0, 1, 2)
    assert g.edges == ((0, 1), (1, 2))


def test_matrix_market_missing_header(tmp_path):
    f = tmp_path / "g.mtx"
    f.write_text("3 3 1\n1 2\n")
    with pytest.raises(ParseError, match="missing %%MatrixMarket header") as exc:
        load_graph(f)
    assert exc.value.line == 1


def test_detect_format():
    assert detect_format("a/b.mtx") == "matrix_market"
    assert detect_format("x.col") == "dimacs"
    assert detect_format("x.clq") == "dimacs"
    assert detect_format("x.edges") == "edge_list"
    assert detect_format("x.txt") == "edge_list"


def test_format_override(tmp_path):
    f = tmp_path / "weird.txt"
    f.write_text("p edge 2 1\ne 1 2\n")
    g = load_graph(f, fmt="dimacs")
    assert (g.n, g.m) == (2, 1)


def test_non_utf8_file_is_parse_error(tmp_path):
    f = tmp_path / "g.edges"
    f.write_bytes(b"\xff\xfe\x00\x01")
    with pytest.raises(ParseError, match="UTF-8"):
        load_graph_named(f)


@pytest.mark.parametrize("name,text,line", [
    ("g.col", "c negative\np edge -3 0\n", 2),
    ("g.mtx", "%%MatrixMarket matrix coordinate pattern symmetric\n-2 -2 0\n", 2),
    ("g.mtx", "%%MatrixMarket matrix coordinate pattern symmetric\n3 -1 0\n", 2),
])
def test_negative_vertex_count_is_parse_error(tmp_path, name, text, line):
    f = tmp_path / name
    f.write_text(text)
    with pytest.raises(ParseError, match="negative") as exc:
        load_graph(f)
    assert exc.value.line == line


_MM = "%%MatrixMarket matrix coordinate pattern symmetric\n"


@pytest.mark.parametrize("name,text,line,match", [
    ("g.col", "p edge x 1\n", 1, "bad vertex count 'x'"),
    ("g.mtx", _MM + "3 x 1\n", 2, "bad vertex count 'x'"),
    ("g.col", "p edge 3 1\ne 1\n", 2, "malformed entry"),
    ("g.col", "p edge 3 1\ne 1 z\n", 2, "malformed entry"),
    ("g.mtx", _MM + "3 3 1\n1 z\n", 3, "malformed entry"),
    ("g.mtx", _MM + "3 3 1\n0 2\n", 3, r"entry \(0,2\) out of range 1..3"),
    ("g.mtx", _MM + "1 2\n3 3 1\n", 2, "malformed size line"),
    ("g.col", "c no problem line\n", None, "missing problem line"),
    ("g.mtx", _MM + "% no size line\n", None, "missing size line"),
], ids=["dimacs-bad-count", "mtx-bad-count", "dimacs-short-entry", "dimacs-bad-entry",
        "mtx-bad-entry", "mtx-out-of-range", "mtx-entry-before-size-line",
        "dimacs-missing-header", "mtx-missing-size-line"])
def test_one_based_refusal_names_its_line(tmp_path, name, text, line, match):
    """The refusals of the two 1-based readers that no test beside this
    one checks for that format."""
    f = tmp_path / name
    f.write_text(text)
    with pytest.raises(ParseError, match=match) as exc:
        load_graph(f)
    assert exc.value.line == line


@pytest.mark.parametrize("name,text", [
    ("g.col", "p edge 100000000 0\n"),
    ("g.mtx", "%%MatrixMarket matrix coordinate pattern symmetric\n100000000 100000000 0\n"),
    ("g.mtx", "%%MatrixMarket matrix coordinate pattern symmetric\n3 100001 0\n"),
])
def test_declared_vertex_count_above_the_cap_is_parse_error(tmp_path, name, text):
    # the parser alone allocates nothing per vertex, so a missing cap fails
    # here instead of building a graph of 10^8 vertices below
    parse = instances._parse_dimacs if name.endswith(".col") else instances._parse_matrix_market
    with pytest.raises(ParseError, match="above the limit"):
        parse(text, name)
    f = tmp_path / name
    f.write_text(text)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="above the limit") as exc:
            load_graph(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc.value.line == text.count("\n")
    assert peak < 1 << 20  # rejected before a vertex is allocated


@pytest.mark.parametrize("name,header", [
    ("g.col", "p edge {} 1\n"),
    ("g.mtx", "%%MatrixMarket matrix coordinate pattern symmetric\n{} {} 1\n"),
])
def test_declared_vertex_count_at_the_cap_loads(tmp_path, monkeypatch, name, header):
    # a small cap, so the boundary is checked without a 10^5-vertex graph
    monkeypatch.setattr(instances, "MAX_DECLARED_VERTICES", 6)
    edge = "e 1 6\n" if name == "g.col" else "1 6\n"
    f = tmp_path / name
    f.write_text(header.format(6, 6) + edge)
    assert load_graph(f).n == 6
    f.write_text(header.format(7, 7) + edge)
    with pytest.raises(ParseError, match="above the limit of 6"):
        load_graph(f)


def test_matrix_market_one_token_entry(tmp_path):
    f = tmp_path / "g.mtx"
    f.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n2\n")
    with pytest.raises(ParseError) as exc:
        load_graph(f)
    assert exc.value.line == 3


# ---------------------------------------------------------------------------
# loader fuzzing: any input loads or raises ParseError/DomainError

FORMATS = {"edge_list": "g.edges", "dimacs": "g.col", "matrix_market": "g.mtx"}

# a run of 5 or more digits could declare a huge vertex count and allocate
# a huge graph; the inputs stay below 10^4 vertices
_LONG_NUMBER = re.compile(r"\d{5,}")

_TOKENS = st.one_of(
    st.integers(-5, 3000).map(str),
    st.sampled_from(["p", "e", "c", "edge", "col", "%", "#", "%%MatrixMarket",
                     "matrix", "coordinate", "0", "-0", "1.5", "1e3", "nan", "x"]),
    st.text(max_size=3),
)
_LINES = st.lists(st.lists(_TOKENS, max_size=5).map(" ".join), max_size=12)
_TEXTS = st.one_of(_LINES.map("\n".join), st.text(max_size=80))

# headers that get a text past each parser's first checks
_PRELUDES = {
    "edge_list": ("", "# comment"),
    "dimacs": ("", "c comment", "p edge 6 4"),
    "matrix_market": ("", "%%MatrixMarket matrix coordinate pattern symmetric",
                      "%%MatrixMarket matrix coordinate pattern symmetric\n6 6 4"),
}


def _load_or_reject(path, fmt):
    try:
        g, names = load_graph_named(path, fmt)
    except (ParseError, DomainError):
        return
    assert isinstance(g, Graph) and g.n == len(names) >= 1


@pytest.mark.filterwarnings("ignore:.*dropped")
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(FORMATS)), st.integers(0, 2),
       _TEXTS.filter(lambda text: not _LONG_NUMBER.search(text)))
def test_loaders_accept_or_reject_any_text(tmp_path, fmt, prelude, text):
    head = _PRELUDES[fmt][prelude % len(_PRELUDES[fmt])]
    f = tmp_path / FORMATS[fmt]
    f.write_text(f"{head}\n{text}" if head else text, encoding="utf-8")
    _load_or_reject(f, fmt)


@pytest.mark.filterwarnings("ignore:.*dropped")
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(FORMATS)),
       st.binary(max_size=120).filter(
           lambda raw: not _LONG_NUMBER.search(raw.decode("utf-8", "ignore"))))
def test_loaders_accept_or_reject_any_bytes(tmp_path, fmt, raw):
    f = tmp_path / FORMATS[fmt]
    f.write_bytes(raw)
    _load_or_reject(f, fmt)


# ---------------------------------------------------------------------------
# generators


def test_er_p1_is_complete():
    g = gen_erdos_renyi_connected(4, 1.0, seed=7)
    assert g == complete_graph(4)


def test_er_deterministic():
    a = gen_erdos_renyi_connected(10, 0.3, seed=11)
    b = gen_erdos_renyi_connected(10, 0.3, seed=11)
    assert a == b
    c = gen_erdos_renyi_connected(10, 0.3, seed=12)
    assert a != c  # overwhelmingly likely for distinct seeds


def test_er_connected_sparse():
    g = gen_erdos_renyi_connected(50, 0.1, seed=3)
    assert is_connected(g)
    assert 49 <= g.m <= 50 * 49 // 2


def test_er_rejects_bad_args():
    with pytest.raises(DomainError):
        gen_erdos_renyi_connected(1, 0.5, seed=0)
    with pytest.raises(DomainError):
        gen_erdos_renyi_connected(5, 0.0, seed=0)
    with pytest.raises(DomainError, match="seed"):
        gen_erdos_renyi_connected(5, 0.5, seed=-1)
    with pytest.raises(DomainError, match="seed"):
        gen_regular(6, 3, seed=2 ** 128)


def _er_by_pair_list(n, p, seed):
    """The pair-list selection the numpy one replaced: one draw per pair
    (i, j), i < j, in row-major order, on the same stream."""
    rng = instances._rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(instances._CONNECT_ATTEMPTS):
        mask = rng.random(len(pairs)) < p
        g = Graph(range(n), [e for e, keep in zip(pairs, mask) if keep])
        if is_connected(g):
            return g
    raise AssertionError("no connected sample")


@pytest.mark.parametrize("n,p,seed", [(16, 0.3, 2), (60, 0.5, 7), (200, 0.05, 1), (9, 0.2, 3)])
def test_er_draws_match_the_pair_list(n, p, seed):
    assert gen_erdos_renyi_connected(n, p, seed).edges == _er_by_pair_list(n, p, seed).edges


@pytest.mark.parametrize("spec", ["er:n=1000000,p=0.001", "regular:n=1000000,d=3"])
def test_oversized_gen_spec_is_refused_fast(spec):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(DomainError, match="above the limit"):
            instances.parse_gen(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5
    assert peak < 1 << 20  # refused before a pair or stub is allocated


def test_too_sparse_er_spec_is_refused_before_any_draw(monkeypatch):
    """n=2000, p=0.001 expects n(1-p)^(n-1) = 270.7 isolated vertices a
    draw, so none of 1000 attempts would be connected; they took 20 s."""
    def no_draws(seed):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(instances, "_rng", no_draws)
    start = time.perf_counter()
    with pytest.raises(DomainError, match="expects 270.7 isolated vertices a draw, "
                                          "at or above the limit of 35"):
        instances.parse_gen("er:n=2000,p=0.001")
    assert time.perf_counter() - start < 0.5


def test_er_isolated_limit_is_inclusive(monkeypatch):
    # n=4, p=0.5 expects exactly 4 / 2^3 = 0.5 isolated vertices
    monkeypatch.setattr(instances, "MAX_ISOLATED_EXPECTED", 0.5)
    with pytest.raises(DomainError, match="expects 0.5 isolated"):
        gen_erdos_renyi_connected(4, 0.5, seed=1)
    assert gen_erdos_renyi_connected(4, 0.51, seed=1).n == 4


def test_er_pair_cap_is_checked_before_sparsity():
    # both limits apply; the pair count is named
    with pytest.raises(DomainError, match="vertex pairs, above the limit"):
        instances.parse_gen("er:n=1000000,p=0.000000001")


_SPEC_SOURCES = [*sorted(Path(__file__).parent.glob("*.py")),
                 *sorted((ROOT / "scripts").glob("*.py")), ROOT / "perfbench" / "workloads.py"]
_ER_TEXT = re.compile(r"er:n=(\d+),p=([\d.]+)(?:,seed=(\d+))?")
_ER_CALL = re.compile(r"gen_erdos_renyi_connected\((\d+), ([\d.]+), (?:seed=)?(\d+)\)")


def _written_er_specs():
    """(n, p, seed) of every er spec written out in the tests, the scripts
    and the benchmark's workloads, as text or as a call, leaving out those
    written to be refused for n < 2, p outside (0, 1] or the pair cap."""
    found = set()
    for path in _SPEC_SOURCES:
        for regex in (_ER_TEXT, _ER_CALL):
            for n, p, seed in regex.findall(path.read_text()):
                n, p = int(n), float(p)
                if n >= 2 and 0 < p <= 1 and n * (n - 1) // 2 <= instances.MAX_GEN_DRAWS:
                    found.add((n, p, int(seed or 0)))
    return sorted(found)


def test_written_er_specs_still_build():
    """Only the spec written to be refused as too sparse is; every other
    one expects fewer than 2 isolated vertices a draw and builds."""
    specs = _written_er_specs()
    assert len(specs) >= 20 and (16, 0.3, 2) in specs
    sparse = [(n, p) for n, p, _ in specs
              if n * (1 - p) ** (n - 1) >= instances.MAX_ISOLATED_EXPECTED]
    assert sparse == [(2000, 0.001)]
    for n, p, seed in specs:
        if (n, p) not in sparse:
            assert n * (1 - p) ** (n - 1) < 2
            assert gen_erdos_renyi_connected(n, p, seed).n == n


# er parameters that tests and the benchmark's workloads build in loops
_LOOPED_ER = [
    *itertools.product(range(4, 13), (0.2, 0.3, 0.5, 0.7)),
    *itertools.product((10, 12, 14), (0.1, 0.3, 0.5, 0.8)),
    *itertools.product(range(50, 61), (0.5,)),
    *itertools.product((8, 9, 10), (0.3, 0.4, 0.5, 0.6)),
    *itertools.product((6, 12), (0.2, 0.6)),
]


def test_looped_er_parameters_are_far_from_the_isolated_limit():
    worst = max(n * (1 - p) ** (n - 1) for n, p in _LOOPED_ER)
    assert worst < instances.MAX_ISOLATED_EXPECTED / 8  # 3.9, at n=10, p=0.1


def test_gen_draws_at_the_cap_are_built(monkeypatch):
    # a small cap, so the boundary is checked without a 2*10^6-pair graph
    monkeypatch.setattr(instances, "MAX_GEN_DRAWS", 45)
    assert gen_erdos_renyi_connected(10, 0.5, seed=1).n == 10  # 45 pairs
    with pytest.raises(DomainError, match="55 vertex pairs, above the limit of 45"):
        gen_erdos_renyi_connected(11, 0.5, seed=1)
    monkeypatch.setattr(instances, "MAX_GEN_DRAWS", 44)
    assert gen_regular(22, 2, seed=1).m == 22  # 44 stubs
    with pytest.raises(DomainError, match="46 stubs, above the limit of 44"):
        gen_regular(23, 2, seed=1)


def test_regular_k4():
    g = gen_regular(4, 3, seed=0)
    assert g == complete_graph(4)


def test_regular_degrees():
    g = gen_regular(10, 3, seed=5)
    assert all(g.degree(v) == 3 for v in g.vertices)
    assert g.m == 15


def test_regular_deterministic():
    assert gen_regular(12, 3, seed=9) == gen_regular(12, 3, seed=9)


def test_regular_infeasible():
    with pytest.raises(DomainError):
        gen_regular(5, 3, seed=0)  # odd n*d
    with pytest.raises(DomainError):
        gen_regular(4, 4, seed=0)  # d >= n


def test_regular_zero_degree():
    g = gen_regular(6, 0, seed=0)
    assert g.m == 0 and g.n == 6


def _is_simple_regular(g, n, d):
    # Graph refuses self-loops and keeps one copy of a repeated edge
    return g.n == n and g.m == n * d // 2 and all(g.degree(v) == d for v in g.vertices)


def test_regular_graphs_match_the_frozen_pairing():
    """Where the per-pair loop builds, the array check takes the same
    permutation; where it fails, the stub-by-stub fallback builds."""
    specs = [(n, d, seed) for n in range(4, 27) for d in range(1, 6) for seed in (0, 1)
             if d < n and n * d % 2 == 0]
    fallbacks = 0
    for n, d, seed in specs:
        edges = frozen_pairing(n, d, seed)
        g = gen_regular(n, d, seed)
        if edges is None:
            fallbacks += 1
            assert _is_simple_regular(g, n, d), (n, d, seed)
        else:
            assert g.edges == tuple(sorted(edges)), (n, d, seed)
    assert len(specs) == 160 and fallbacks == 3  # (6, 5, 1), (8, 5, 1), (12, 5, 1)


@pytest.mark.parametrize("n,d", [(100, 10), (60, 8), (1000, 12), (30, 27), (40, 37), (40, 38)])
def test_moderate_degree_regular_graphs_are_built(monkeypatch, n, d):
    """The pairing model succeeds about exp(-(d^2-1)/4) of its restarts, so
    these specs spend all of them and are tried stub by stub; the dense
    ones, on which that fails too, are complements of sparse graphs."""
    spent = []
    pair_stub_by_stub = instances._pair_stub_by_stub

    def timed(free, rng):
        start = time.perf_counter()
        edges = pair_stub_by_stub(free, rng)
        spent.append(time.perf_counter() - start)
        return edges

    monkeypatch.setattr(instances, "_pair_stub_by_stub", timed)
    g = gen_regular(n, d, seed=1)
    assert _is_simple_regular(g, n, d)
    assert spent and sum(spent) < 0.5
    assert gen_regular(n, d, seed=1) == g


def test_regular_fallback_gives_up_after_its_attempts(monkeypatch):
    attempts = []
    monkeypatch.setattr(instances, "_PAIRING_ATTEMPTS", 0)
    monkeypatch.setattr(instances, "_pair_stub_by_stub", lambda free, rng: attempts.append(1))
    with pytest.raises(DomainError, match="pairing model failed after 0 restarts and"
                                          " stub-by-stub pairing after 100"):
        gen_regular(6, 2, seed=0)
    assert len(attempts) == instances._STUB_ATTEMPTS


def test_generated_graphs_are_simple():
    for seed in range(8):
        g = gen_regular(14, 3, seed=seed)
        seen = set()
        for u, v in g.edges:
            assert u != v and (u, v) not in seen
            seen.add((u, v))
    for n, p in itertools.product((6, 12), (0.2, 0.6)):
        g = gen_erdos_renyi_connected(n, p, seed=1)
        assert len(set(g.edges)) == g.m
