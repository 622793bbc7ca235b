"""Output checks that hold across refactors of the program.

Everything here uses the standard library plus ``jsonschema`` (a test
dependency of the project) and decodes graph6 itself, so a defect in the
program's own parser cannot hide a defect in its output. Each check returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# OEIS A002851: connected cubic graphs by order.
A002851 = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509}


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def decode_graph6(line: str) -> tuple[int, list[tuple[int, int]]]:
    """Order and edge list of a short-form (n <= 62) graph6 line."""
    data = [ord(c) - 63 for c in line]
    if not data or not 0 <= data[0] <= 62 or any(not 0 <= d < 64 for d in data):
        raise ValueError(f"not a short graph6 line: {line!r}")
    n = data[0]
    bits = [(d >> shift) & 1 for d in data[1:] for shift in range(5, -1, -1)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if len(data) - 1 != (len(pairs) + 5) // 6:
        raise ValueError(f"graph6 line of wrong length for n={n}: {line!r}")
    return n, [pair for pair, bit in zip(pairs, bits) if bit]


def _adjacency(n: int, edges) -> list[list[int]]:
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return adjacency


def _distance_profile(adjacency, start: int) -> tuple[int, ...]:
    seen = {start}
    layer = [start]
    sizes = []
    while layer:
        sizes.append(len(layer))
        nxt = []
        for u in layer:
            for w in adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        layer = nxt
    return tuple(sizes)


def graph_fingerprint(n: int, edges) -> str:
    """Relabelling-invariant fingerprint: per vertex, its BFS layer sizes and
    its closed-walk counts of lengths 3 to 6, sorted over vertices."""
    adjacency = _adjacency(n, edges)
    walks = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    diagonals = []
    for length in range(1, 7):
        walks = [[sum(walks[i][k] for k in adjacency[j]) for j in range(n)] for i in range(n)]
        if length >= 3:
            diagonals.append([walks[i][i] for i in range(n)])
    per_vertex = sorted(
        (_distance_profile(adjacency, v), tuple(d[v] for d in diagonals)) for v in range(n)
    )
    return f"{n}:{per_vertex}"


def corpus_digest(lines: list[str]) -> str:
    prints = sorted(graph_fingerprint(*decode_graph6(line)) for line in lines)
    return hashlib.sha256("\n".join(prints).encode()).hexdigest()


def check_order(n: int, lines: list[str], reference: dict) -> list[str]:
    """One order of the connected cubic corpus: count against A002851,
    every entry simple, cubic, connected and of order n, ids distinct, and
    the fingerprint digest equal to the reference."""
    problems = []
    if len(lines) != A002851[n]:
        problems.append(f"n={n}: {len(lines)} classes, A002851 says {A002851[n]}")
    if len(set(lines)) != len(lines):
        problems.append(f"n={n}: duplicate ids")
    for line in lines:
        try:
            order, edges = decode_graph6(line)
        except ValueError as exc:
            problems.append(f"n={n}: {exc}")
            continue
        adjacency = _adjacency(order, edges)
        if order != n:
            problems.append(f"n={n}: {line} has order {order}")
        elif any(len(a) != 3 for a in adjacency):
            problems.append(f"n={n}: {line} is not cubic")
        elif sum(_distance_profile(adjacency, 0)) != n:
            problems.append(f"n={n}: {line} is not connected")
    if not problems and corpus_digest(lines) != reference[str(n)]["digest"]:
        problems.append(f"n={n}: fingerprint digest differs from the reference")
    return problems


def check_suite(report: dict, reference: dict) -> tuple[bool, list[str]]:
    """One ``verify_suite`` report, as ``VerificationReport.to_dict()``.

    Returns (operation failed, problems). Violations fail the operation but
    are not output errors: the seed reports two on ``two-cut-nice-transfer``.
    A different ``graphs_checked`` is both.
    """
    name = report["suite"]
    problems = []
    expected = reference.get(name)
    if expected is None:
        problems.append(f"{name}: no reference for this suite")
    elif report["graphs_checked"] != expected["graphs_checked"]:
        problems.append(
            f"{name}: {report['graphs_checked']} graphs checked, "
            f"reference {expected['graphs_checked']}"
        )
    return bool(problems) or bool(report["violations"]), problems


def witness_free(report: dict) -> dict:
    """The dossier fields that do not depend on witness choice."""

    def section(key, *fields):
        value = report[key]
        if value is None or not value.get("applicable", True):
            return None
        return {f: value[f] for f in fields}

    return {
        "vertices": report["vertices"],
        "connectivity": {
            k: v for k, v in report["connectivity"].items() if k != "bipartition"
        },
        "classification": report["classification"],
        "barriers": section("barriers", "count"),
        "nontrivial_tight_cuts": section("nontrivial_tight_cuts", "count"),
        "nice_vertices": section("nice_vertices", "upsilon", "vertices"),
        "nice_pairs": section("nice_pairs", "pair_count"),
        "family": section("family", "family", "index"),
    }


def check_dossier(key: str, line: str, text: str, validator, reference: dict) -> list[str]:
    """One ``to_json(analyze_text(line)[0])`` output."""
    try:
        document = json.loads(text)
    except ValueError as exc:
        return [f"{key}: output is not JSON ({exc})"]
    error = next(validator.iter_errors(document), None)
    if error is not None:
        return [f"{key}: schema: {error.message}"]
    if len(document["reports"]) != 1:
        return [f"{key}: {len(document['reports'])} dossiers for one line"]
    report = document["reports"][0]
    problems = []
    if report["graph6"] != line:
        problems.append(f"{key}: dossier is for {report['graph6']}, input was {line}")
    expected = reference[key]
    if expected["graph6"] != line:
        problems.append(f"{key}: input {line} is not the reference's {expected['graph6']}")
    elif witness_free(report) != expected["fields"]:
        problems.append(f"{key}: witness-free fields differ from the reference")
    return problems


def schema_validator(root: Path):
    import jsonschema

    schema = json.loads(
        (root / "src" / "nicecubic" / "schemas" / "analyze.schema.json").read_text()
    )
    return jsonschema.validators.validator_for(schema)(schema)
