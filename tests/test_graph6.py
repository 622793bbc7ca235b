import networkx as nx
import pytest
from hypothesis import given, settings

from nicecubic.catalog import h44, k4, k33
from nicecubic.errors import FormatUnsupportedError, GraphParseError
from nicecubic.graph6 import parse_graph6, read_graph6_lines, write_graph6
from nicecubic.graphs import Graph

from .strategies import simple_graphs


def test_k4_is_the_known_encoding():
    # Independent oracle: networkx's encoder.
    expected = nx.to_graph6_bytes(nx.complete_graph(4), header=False).decode().strip()
    assert expected == "C~"
    assert write_graph6(k4()) == "C~"
    assert parse_graph6("C~") == k4()


def test_single_vertex_graph():
    g = Graph(1)
    line = write_graph6(g)
    assert parse_graph6(line) == g
    assert line == nx.to_graph6_bytes(nx.empty_graph(1), header=False).decode().strip()


def test_invalid_character_reports_offset():
    with pytest.raises(GraphParseError) as err:
        parse_graph6("C" + chr(62))
    assert err.value.offset == 1


def test_truncated_payload_rejected():
    with pytest.raises(GraphParseError):
        parse_graph6("C~~")
    with pytest.raises(GraphParseError):
        parse_graph6("C")


@pytest.mark.parametrize("line", ["~~", "~?"])
def test_long_form_order_out_of_range_or_truncated_rejected(line):
    # "~~" starts the 8-byte form (orders above 258047), "~?" a cut-off 4-byte one
    with pytest.raises(GraphParseError):
        parse_graph6(line)


def test_header_tolerated():
    assert parse_graph6(">>graph6<<C~") == k4()


def test_multigraph_write_rejected():
    with pytest.raises(FormatUnsupportedError):
        write_graph6(Graph(2, [(0, 1), (0, 1)]))


def test_empty_line_rejected():
    with pytest.raises(GraphParseError):
        parse_graph6("")


def test_read_lines_reports_line_numbers():
    with pytest.raises(GraphParseError) as err:
        read_graph6_lines("C~\n\nC!\n")
    assert "line 3" in str(err.value)


def test_read_lines_names_the_byte_offset_once():
    with pytest.raises(GraphParseError) as err:
        read_graph6_lines("C~\nnot graph6\n")
    assert str(err.value) == "line 2: invalid graph6 byte 32 (byte offset 3)"
    assert err.value.offset == 3


def test_read_lines_skips_blanks():
    graphs = read_graph6_lines("C~\n\n" + write_graph6(k33()) + "\n")
    assert graphs == [k4(), k33()]


@settings(max_examples=120)
@given(simple_graphs(max_n=12))
def test_round_trip_is_edge_identical(g):
    assert parse_graph6(write_graph6(g)) == g


@settings(max_examples=80)
@given(simple_graphs(max_n=10))
def test_encoding_matches_networkx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    expected = nx.to_graph6_bytes(nxg, header=False).decode().strip()
    assert write_graph6(g) == expected


def test_long_form_order():
    g = Graph(63, [(0, 62)])
    assert parse_graph6(write_graph6(g)) == g


def test_known_catalog_encodings_round_trip():
    for g in (k4(), k33(), h44()):
        assert parse_graph6(write_graph6(g)) == g


def test_write_refuses_an_order_beyond_the_long_form():
    with pytest.raises(FormatUnsupportedError, match="graph6 order above 258047 not supported"):
        write_graph6(Graph(258048))
