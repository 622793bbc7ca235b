import json

import jsonschema
import pytest

from nicecubic.analyze import analyze_graph, analyze_text, load_schema, render_text, to_json
from nicecubic.catalog import k4, k33, k33_triangle
from nicecubic.graph6 import write_graph6


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


# The 22-cycle: matching covered and not cubic, so its tight-cut sweep is the
# general one, capped at 20 vertices.
CYCLE_22 = "UhCGGC@?G?_@?@??_?G?@??C??G??G??C??@_??G"


def test_capped_tight_cut_sweep_leaves_section_not_applicable(schema):
    reports, errors = analyze_text(CYCLE_22 + "\n" + write_graph6(k4()) + "\n")
    assert errors == []
    _validate(reports, schema)
    cycle, complete = reports
    assert cycle["vertices"] == 22
    assert cycle["classification"]["matching_covered"]
    assert cycle["nontrivial_tight_cuts"] == {"applicable": False}
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
