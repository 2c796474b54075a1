"""File parsers and the two synthetic graph families."""

import itertools
import re
import tracemalloc

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
    with pytest.raises(ParseError):
        load_graph(f)


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
    with pytest.raises(ParseError):
        load_graph(f)


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
