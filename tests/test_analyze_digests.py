"""Golden dossiers: the analyze JSON of every corpus graph with n <= 12, of
every catalog graph, of a slate of F, G1, G2 and T members with
14 <= n <= 22 and of six random cubic graphs with 18 <= n <= 22, pinned to
sha256 digests. The T members are bipartite hosts with 46, 68 and 114
barriers. The random graphs are the first two connected simple draws of the
pairing model at each order (the benchmark's pool members ``cubic:<n>:0``
and ``cubic:<n>:1``), where the brace test and the tight-cut tests ask the
most two-edge matching questions.

A refactor of the structural layers must leave every dossier byte-identical.
To regenerate the digests after a deliberate change of the dossier content:

    PYTHONPATH=src python -m tests.test_analyze_digests
"""

import hashlib
import json
from pathlib import Path

from nicecubic.analyze import analyze_graph, to_json
from nicecubic.catalog import NAMED
from nicecubic.enumeration import corpus_up_to, enumerate_cubic
from nicecubic.families import build_family
from nicecubic.graph6 import parse_graph6, write_graph6

DIGESTS = Path(__file__).resolve().parent / "data" / "analyze-digests.json"

FAMILY_SPECS = [
    {
        "family": "F",
        "replacements": [{"edge": [0, 1], "host": "G?]uf?", "host_edge": [0, 5], "quads": 2}],
    },
    {
        "family": "F",
        "replacements": [
            {"edge": [0, 1], "host": "EFz_", "host_edge": [0, 3], "quads": 1},
            {"edge": [0, 2], "host": "EFz_", "host_edge": [0, 3], "quads": 2},
        ],
    },
    {"family": "G1", "attachment": 0, "host": "G?]uf?", "host_vertex": 0, "phi": None},
    {"family": "G1", "attachment": 0, "host": "I??ysr_w?", "host_vertex": 0, "phi": None},
    {
        "family": "G2",
        "splices": [
            {"attachment": 0, "host": "EFz_", "host_vertex": 0, "phi": None},
            {"attachment": 1, "host": "I??ysr_w?", "host_vertex": 0, "phi": None},
        ],
    },
    {
        "family": "G2",
        "splices": [
            {"attachment": 0, "host": "G?]uf?", "host_vertex": 0, "phi": None},
            {"attachment": 1, "host": "I??ysr_w?", "host_vertex": 0, "phi": None},
        ],
    },
    {"family": "T", "steps": [{"host_edge": [0, 3], "k33_edge": [0, 3], "quads": 3}]},
    {
        "family": "T",
        "steps": [
            {"host_edge": [0, 3], "k33_edge": [0, 3], "quads": 1},
            {"host_edge": [2, 10], "k33_edge": [0, 3], "quads": 2},
        ],
    },
    {
        "family": "T",
        "steps": [
            {"host_edge": [1, 4], "k33_edge": [0, 3], "quads": 2},
            {"host_edge": [4, 10], "k33_edge": [0, 3], "quads": 2},
        ],
    },
]

PAIRING_MODEL_LINES = [
    "QOx?CH??G@A_?aC_?B@C_??wPC?",
    "QSAAh??G?QGAAG?G?@WIGCK@G@?",
    "S?C@?K?DB?D?OIc?OCGP??PA??OG_QC?G",
    "SAQG???@gACPI?oGAG@_??A??_kAC?C?o",
    "U@P????c@????@P@?d?a__o?_a?CGCS??G_A?Q_?",
    "UOC??AA@OA@C?a?SE?AGAQ?@A?G?W?G@?oA?_??o",
]


def _digest(g) -> str:
    return hashlib.sha256(to_json([analyze_graph(g)]).encode()).hexdigest()


def _catalog_digests() -> dict[str, str]:
    return {name: _digest(build()) for name, build in sorted(NAMED.items())}


def _family_digests() -> dict[str, str]:
    members = [build_family(spec) for spec in FAMILY_SPECS]
    return {write_graph6(g): _digest(g) for g in members}


def _pairing_model_digests() -> dict[str, str]:
    return {line: _digest(parse_graph6(line)) for line in PAIRING_MODEL_LINES}


def test_corpus_dossiers_match_golden_digests(corpus10):
    expected = json.loads(DIGESTS.read_text())["corpus"]
    assert sorted(expected) == sorted(e.graph6 for e in corpus10)
    differing = [e.graph6 for e in corpus10 if _digest(e.graph) != expected[e.graph6]]
    assert not differing, f"dossiers differ for {differing}"


def test_order_12_dossiers_match_golden_digests(corpus12):
    expected = json.loads(DIGESTS.read_text())["corpus12"]
    order12 = [e for e in corpus12 if e.graph.n == 12]
    assert sorted(expected) == sorted(e.graph6 for e in order12)
    differing = [e.graph6 for e in order12 if _digest(e.graph) != expected[e.graph6]]
    assert not differing, f"dossiers differ for {differing}"


def test_catalog_dossiers_match_golden_digests():
    expected = json.loads(DIGESTS.read_text())["catalog"]
    actual = _catalog_digests()
    assert sorted(actual) == sorted(expected)
    differing = [
        f"{name} ({write_graph6(NAMED[name]())})"
        for name in sorted(actual)
        if actual[name] != expected[name]
    ]
    assert not differing, f"dossiers differ for {differing}"


def test_family_member_dossiers_match_golden_digests():
    expected = json.loads(DIGESTS.read_text())["families"]
    actual = _family_digests()
    assert sorted(actual) == sorted(expected)
    differing = [key for key in sorted(actual) if actual[key] != expected[key]]
    assert not differing, f"dossiers differ for {differing}"


def test_pairing_model_dossiers_match_golden_digests():
    expected = json.loads(DIGESTS.read_text())["pairing"]
    actual = _pairing_model_digests()
    assert sorted(actual) == sorted(expected)
    differing = [key for key in sorted(actual) if actual[key] != expected[key]]
    assert not differing, f"dossiers differ for {differing}"


if __name__ == "__main__":
    payload = {
        "corpus": {e.graph6: _digest(e.graph) for e in corpus_up_to(10)},
        "corpus12": {e.graph6: _digest(e.graph) for e in enumerate_cubic(12)},
        "catalog": _catalog_digests(),
        "families": _family_digests(),
        "pairing": _pairing_model_digests(),
    }
    DIGESTS.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
