import json

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nicecubic.analyze import (
    _stable_json,
    analyze_graph,
    analyze_text,
    load_schema,
    render_text,
    to_json,
)
from nicecubic.catalog import k4, k33, k33_triangle
from nicecubic.graph6 import parse_graph6, write_graph6
from nicecubic.graphs import _cut_space_labels, _cuts_of_size

from .test_suites import _record_builds


@pytest.fixture(scope="module")
def schema():
    return load_schema()


def _validate(reports, schema):
    jsonschema.validate(json.loads(to_json(reports)), schema)


def test_k4_dossier(schema):
    report = analyze_graph(k4())
    _validate([report], schema)
    assert report["family"]["family"] == "K4"
    assert report["family"]["witness"]["catalog_map"]
    assert report["nice_vertices"]["upsilon"] == 4
    assert report["classification"]["brick"]
    assert report["nice_pairs"] == {"applicable": False}


def test_k33_triangle_dossier(schema):
    report = analyze_graph(k33_triangle())
    _validate([report], schema)
    assert report["nice_vertices"]["upsilon"] == 6
    assert not report["classification"]["bicritical"]
    assert report["family"]["family"] == "K33_triangle"
    assert report["nontrivial_tight_cuts"]["count"] == 1


def test_bipartite_dossier_sections(schema):
    report = analyze_graph(k33())
    _validate([report], schema)
    assert report["nice_vertices"]["upsilon"] == 0
    assert report["nice_pairs"]["applicable"]
    assert report["nice_pairs"]["pair_count"] == 9


def test_non_cubic_input_marks_sections(schema):
    from nicecubic.graphs import Graph

    square = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    report = analyze_graph(square)
    _validate([report], schema)
    assert report["nice_vertices"] == {"applicable": False}
    assert report["barriers"]["applicable"]  # C4 has perfect matchings


def test_analyze_text_collects_line_errors():
    text = write_graph6(k4()) + "\nnot-a-graph\x01\n" + write_graph6(k33()) + "\n"
    reports, errors = analyze_text(text)
    assert len(reports) == 2
    assert len(errors) == 1
    assert "line 2" in errors[0]


def test_json_output_is_byte_stable():
    reports1, _ = analyze_text(write_graph6(k4()))
    reports2, _ = analyze_text(write_graph6(k4()))
    assert to_json(reports1) == to_json(reports2)


def _json_dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


# every class of character that json escapes or passes: ASCII, quote,
# backslash, the control characters, beyond ASCII in and above the BMP, and
# lone surrogates of both halves (a fixed alphabet, since st.characters()
# makes the test several times slower)
_TEXT = st.text(
    st.sampled_from(
        ["a", " ", "/", '"', "\\", "\x7f", "\u00e9", "\u2028", "\uffff"]
        + ["\U0001f600", "\U0010ffff", "\ud800", "\udbff", "\udc00", "\udfff"]
        + [chr(c) for c in range(0x20)]
    )
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | st.integers(max_value=-(2**64))
    | _TEXT
)
# lists, tuples and str-keyed dicts, each possibly empty, at every depth
_REPORT_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_TEXT, inner),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(_REPORT_VALUES)
@example({"a": [], "b": {}})
# a bool is an int to Python but not to JSON: the all-int join must skip it
@example([True, 1, False, 0])
@example([[1, 2], (3,), [], {"k": [0, -1]}])
def test_stable_json_writes_the_text_of_json_dumps(value):
    assert _stable_json(value) == _json_dumps(value)


def test_stable_json_writes_the_corpus_dossiers_as_json_dumps(corpus12):
    reports = [analyze_graph(entry.graph) for entry in corpus12]
    for report in reports:
        assert _stable_json(report) == _json_dumps(report)
    assert _stable_json({"reports": reports}) == to_json(reports)


@pytest.mark.parametrize("value", [1.5, {1, 2}, {1: "a"}, {"a": [0.0]}, {(0, 1): None}])
def test_stable_json_refuses_floats_sets_and_non_str_keys(value):
    with pytest.raises(TypeError):
        _stable_json(value)


def test_render_text_mentions_key_facts():
    text = render_text(analyze_graph(k33_triangle()))
    assert "nice vertices 6" in text
    assert "K33_triangle" in text
    assert "3-connected" in text


# Two blocks joined by a bridge: a perfect matching, but not matching
# covered, and above the 20-vertex cap of the barrier sweep on such hosts.
BRIDGED_22 = "U?LR?MoqCA??????????B??g?B???W?J??EO?B?_"


def test_capped_barrier_sweep_leaves_section_not_applicable(schema):
    reports, errors = analyze_text(BRIDGED_22 + "\n")
    assert errors == []
    _validate(reports, schema)
    (report,) = reports
    assert report["vertices"] == 22
    assert not report["classification"]["matching_covered"]
    assert report["barriers"] == {"applicable": False}
    assert report["nice_vertices"]["applicable"]


# The 22-cycle: matching covered and not cubic, so its tight cuts come from
# the general sweep over the sides the host matching crosses once.
CYCLE_22 = "UhCGGC@?G?_@?@??_?G?@??C??G??G??C??@_??G"


def test_tight_cut_sweep_covers_non_cubic_hosts_up_to_the_size_cap(schema):
    from nicecubic.graphs import Graph

    cycle_24 = Graph(24, [(i, (i + 1) % 24) for i in range(24)])
    text = CYCLE_22 + "\n" + write_graph6(cycle_24) + "\n" + write_graph6(k4()) + "\n"
    reports, errors = analyze_text(text)
    assert errors == []
    _validate(reports, schema)
    *cycles, complete = reports
    for n, cycle in zip((22, 24), cycles):
        assert cycle["vertices"] == n
        assert cycle["classification"]["matching_covered"]
        # both perfect matchings cross once only the 2-edge cuts around an
        # odd path of 3 to n - 3 vertices: n/2 - 2 lengths at n/2 starts each
        cuts = cycle["nontrivial_tight_cuts"]
        assert cuts["applicable"] and cuts["count"] == (n // 2 - 2) * (n // 2)
        assert all(len(item["edges"]) == 2 for item in cuts["items"])
    assert complete["family"]["family"] == "K4"


@pytest.mark.parametrize("n", [0, 26])
def test_empty_graph_and_graph_above_the_size_cap_get_only_connectivity(schema, n):
    from nicecubic.graphs import Graph

    cycle = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    report = analyze_graph(cycle)
    _validate([report], schema)
    assert report["classification"] is None
    sections = ("barriers", "nontrivial_tight_cuts", "nice_vertices", "nice_pairs", "family")
    assert all(report[key] == {"applicable": False} for key in sections)
    assert report["connectivity"]["connected"] == (n > 0)


def test_analyze_text_skips_blank_lines():
    reports, errors = analyze_text("\n   \n" + write_graph6(k4()) + "\n\n")
    assert [r["graph6"] for r in reports] == ["C~"] and errors == []


def test_render_text_lists_the_nice_pair_count():
    assert "nice pairs    9" in render_text(analyze_graph(k33())).splitlines()


@pytest.mark.parametrize(
    "graph6, two_connected, three_connected",
    [("DxK", False, False), ("D~{", True, True)],
)
def test_dossier_of_a_graph_with_a_vertex_of_degree_four(
    schema, graph6, two_connected, three_connected
):
    # the bowtie and K5: their connectivity comes from the low-link sweep,
    # the path of every graph with a vertex of degree 4 or more
    assert max(parse_graph6(graph6).degrees) == 4
    reports, errors = analyze_text(graph6 + "\n")
    assert errors == []
    _validate(reports, schema)
    (report,) = reports
    connectivity = report["connectivity"]
    assert connectivity["connected"] and not connectivity["cubic"]
    assert (connectivity["two_connected"], connectivity["three_connected"]) == (
        two_connected,
        three_connected,
    )
    assert report["barriers"] == {"applicable": False}  # n = 5: no perfect matching


def test_one_dossier_builds_the_cut_space_labels_once(monkeypatch):
    # GB]DMG is 2-connected with a 2-edge cut: its dossier reads the profile,
    # the 2-cuts (family peels) and the 3-cuts (cubic tight cuts), and all
    # three read one spanning-tree pass
    built = _record_builds(monkeypatch, _cut_space_labels)
    g = parse_graph6("GB]DMG")
    report = analyze_graph(g)
    assert report["connectivity"]["two_connected"]
    assert not report["connectivity"]["three_connected"]
    assert sorted(g.__dict__[_cuts_of_size]) == [2, 3]
    assert built == [g]
