"""Golden dossiers: the analyze JSON of every corpus graph with n <= 12 and
of every catalog graph, pinned to sha256 digests.

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
from nicecubic.graph6 import write_graph6

DIGESTS = Path(__file__).resolve().parent / "data" / "analyze-digests.json"


def _digest(g) -> str:
    return hashlib.sha256(to_json([analyze_graph(g)]).encode()).hexdigest()


def _catalog_digests() -> dict[str, str]:
    return {name: _digest(build()) for name, build in sorted(NAMED.items())}


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


if __name__ == "__main__":
    payload = {
        "corpus": {e.graph6: _digest(e.graph) for e in corpus_up_to(10)},
        "corpus12": {e.graph6: _digest(e.graph) for e in enumerate_cubic(12)},
        "catalog": _catalog_digests(),
    }
    DIGESTS.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
