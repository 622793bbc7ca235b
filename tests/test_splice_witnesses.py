"""Pinned G1 and G2 witnesses: the spec that ``recognize_family`` returns
for a slate of splice-family members, compared entry by entry with
``tests/data/splice-witnesses.json``.

The recognizer returns the first candidate spec, in its search order, whose
build is isomorphic to the input, so these witnesses pin that order. It
tries only the candidates that the core's automorphisms leave distinct: the
hosts go to the non-nice vertices 0 and 1 in guest order (swapping 0 and 1
fixes their neighbours 2, 3 and 4), and the first splice takes the sorted
phi (permuting 2, 3 and 4 fixes 0 and 1). So each G1 entry pins the one
candidate G1 builds, and the G2 entries pin the order of the second
splice's six phis. Those phis matter once neither host vertex has the
core's symmetry, as with the 10-vertex host spliced in twice.

To rewrite the file after a deliberate change of the search order:

    PYTHONPATH=src python -m tests.test_splice_witnesses
"""

import json
from itertools import permutations, product
from pathlib import Path

from nicecubic.catalog import k33_triangle_non_nice
from nicecubic.families import (
    FamilyG1Spec,
    FamilyG2Spec,
    build_family,
    family_spec_to_dict,
    recognize_family,
)
from nicecubic.graph6 import parse_graph6

WITNESSES = Path(__file__).resolve().parent / "data" / "splice-witnesses.json"

# K3,3, the cube and a 10-vertex host: 3-connected cubic bipartite graphs
HOSTS = ("EFz_", "G?]uf?", "I??ysr_w?")
# indices into the phi permutations of the two host vertices of a G2 member
G2_PHIS = ((0, 0), (0, 3), (2, 5), (4, 1), (5, 5), (1, 2))


def _phis(host: str, vertex: int) -> list[tuple[int, ...]]:
    return list(permutations(sorted(parse_graph6(host).neighbor_sets[vertex])))


def _slate():
    nn = k33_triangle_non_nice()
    for host, vertex, attachment in product(HOSTS, (0, 1), nn):
        for phi in _phis(host, vertex):
            yield FamilyG1Spec(attachment, host, vertex, phi)
    for first, second in product(HOSTS, repeat=2):
        phis_a, phis_b = _phis(first, 0), _phis(second, 0)
        for i, j in G2_PHIS:
            yield FamilyG2Spec(
                FamilyG1Spec(nn[0], first, 0, phis_a[i]),
                FamilyG1Spec(nn[1], second, 0, phis_b[j]),
            )


def _entries() -> list[dict]:
    entries = []
    for spec in _slate():
        found = recognize_family(build_family(spec))
        entries.append(
            {
                "member": family_spec_to_dict(spec),
                "family": found.family,
                "witness": found.witness,
            }
        )
    return entries


def test_splice_witnesses_match_the_pinned_file():
    expected = json.loads(WITNESSES.read_text())
    actual = _entries()
    assert [e["member"] for e in actual] == [e["member"] for e in expected]
    differing = [a["member"] for a, e in zip(actual, expected) if a != e]
    assert not differing, f"witnesses differ for {differing}"


if __name__ == "__main__":
    lines = (json.dumps(entry, sort_keys=True) for entry in _entries())
    WITNESSES.write_text("[\n" + ",\n".join(lines) + "\n]\n")
