"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible under pytest -s or -v via
the test name). All expected values are exact; the underlying claims are
universally quantified combinatorial statements checked exhaustively, so no
tolerances appear anywhere. Runtime ceilings from the criteria are asserted
outright.
"""

import time
from contextlib import contextmanager
from itertools import permutations

from nicecubic.catalog import (
    h44,
    k4,
    k33,
    k33_triangle,
    r8,
    triangular_prism,
)
from nicecubic.families import recognize_family, verify_membership
from nicecubic.graphs import bipartition
from nicecubic.isomorphism import canonical_graph, is_isomorphic
from nicecubic.nice import (
    nice_pair_matrix,
    nice_pair_sets_bounded,
    nice_vertices,
)
from nicecubic.splicing import splice
from nicecubic.suites import verify_suite

from .test_enumeration import KNOWN_CONNECTED_COUNTS


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(
        f"criterion {number}: PASS - {description} "
        f"({time.perf_counter() - start:.2f}s)"
    )


def test_criterion_1_catalog_exactness():
    with criterion(1, "catalog nice-vertex and nice-pair counts"):
        start = time.perf_counter()
        assert nice_vertices(k4()).upsilon == 4
        assert nice_vertices(triangular_prism()).upsilon == 6
        report = nice_vertices(k33_triangle())
        assert report.upsilon == 6
        assert len(set(range(8)) - report.nice) == 2
        assert nice_pair_matrix(k33()).pair_count == 9
        assert nice_pair_matrix(h44()).pair_count == 16
        assert time.perf_counter() - start < 1.0


def test_criterion_2_splicing_identities():
    with criterion(2, "splicing identities under every bijection"):
        start = time.perf_counter()
        targets = [
            (k4(), triangular_prism()),
            (triangular_prism(), r8()),
            (k33(), k33_triangle()),
        ]
        for host, expected in targets:
            for phi in permutations(sorted(set(k4().adjacency[0]))):
                spliced = splice(host, 0, k4(), 0, phi).graph
                assert is_isomorphic(spliced, expected) is not None
        assert time.perf_counter() - start < 1.0


def test_criterion_3_nice_count_bounds_exhaustive(cache_dir, corpus12):
    with criterion(3, "nice-vertex bounds and extremal families over n <= 12"):
        by_order = {}
        for entry in corpus12:
            by_order[entry.graph.n] = by_order.get(entry.graph.n, 0) + 1
        assert by_order == KNOWN_CONNECTED_COUNTS

        small = verify_suite("nice-count-bounds", max_n=10, cache_dir=cache_dir)
        assert small.passed, small.violations
        assert small.runtime_seconds < 60.0

        full = verify_suite("nice-count-bounds", max_n=12, cache_dir=cache_dir)
        assert full.passed, full.violations
        assert full.runtime_seconds < 900.0


def test_criterion_4_nice_pair_bounds_exhaustive(cache_dir, corpus12):
    with criterion(4, "nice-pair rectangles and the nine-pair bound over n <= 12"):
        rectangle = verify_suite("nice-pair-rectangle", max_n=12, cache_dir=cache_dir)
        assert rectangle.passed, rectangle.violations
        nine = verify_suite("nine-nice-pairs", max_n=12, cache_dir=cache_dir)
        assert nine.passed, nine.violations

        bounded_members = [
            entry
            for entry in corpus12
            if bipartition(entry.graph) is not None
            and nice_pair_sets_bounded(entry.graph, 3)
        ]
        verdicts = {entry.graph6: recognize_family(entry.graph) for entry in bounded_members}
        assert all(v.family == "T" for v in verdicts.values())
        # in range: K33 itself and the unique 12-vertex one-step member
        assert sorted(e.graph.n for e in bounded_members) == [6, 12]


def test_criterion_5_barrier_criterion_equivalence(cache_dir):
    with criterion(5, "definitional vs barrier niceness over n <= 10"):
        report = verify_suite("barrier-criterion-equivalence", max_n=10, cache_dir=cache_dir)
        assert report.passed, report.violations


def test_criterion_6_structure_suites(cache_dir):
    names = [
        "matching-covered-2-connected",
        "bicritical-all-nice",
        "edge-in-perfect-matching",
        "barrier-properties",
        "tight-cuts-are-3-cuts",
        "nontrivial-3-cut-matching",
        "bipartite-tight-criterion",
        "tight-free-brick-brace",
        "brace-four-deletion",
        "bipartite-nonbrace-contraction",
        "cubic-barrier-components",
        "minimal-barrier-all-nice",
    ]
    with criterion(6, "structure suites over n <= 10"):
        start = time.perf_counter()
        for name in names:
            report = verify_suite(name, max_n=10, cache_dir=cache_dir)
            assert report.passed, (name, report.violations)
        assert time.perf_counter() - start < 300.0


def test_criterion_7_lifting_suites(cache_dir):
    names = [
        "nice-lift-tight-cut",
        "two-cut-nice-transfer",
        "pair-lift-tight-cut",
        "two-cut-pair-transfer",
    ]
    with criterion(7, "lifting suites over n <= 10"):
        for name in names:
            report = verify_suite(name, max_n=10, cache_dir=cache_dir)
            assert report.passed, (name, report.violations)


def test_criterion_8_family_round_trip(family_zoo):
    with criterion(8, "50+ family members recognized with valid witnesses"):
        assert len(family_zoo) >= 50
        failures = []
        for expected_family, spec, graph in family_zoo:
            found = recognize_family(graph)
            if found.family != expected_family or not verify_membership(graph, found):
                failures.append((expected_family, spec))
        assert not failures


def test_acceptance_corpus_ids_are_stable(corpus12):
    # The canonical ids double as replay handles in violation reports; they
    # must not depend on enumeration order.
    for entry in corpus12[:10]:
        assert canonical_graph(entry.graph) == entry.graph
