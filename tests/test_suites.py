import pytest

from nicecubic.enumeration import CorpusEntry
from nicecubic.errors import InternalCheckError, UnknownSuiteError
from nicecubic.graph6 import parse_graph6, write_graph6
from nicecubic.suites import SUITES, list_suites, verify_suite

LIGHT_SUITES = [
    "matching-covered-2-connected",
    "bicritical-all-nice",
    "edge-in-perfect-matching",
    "barrier-properties",
    "nine-nice-pairs",
    "brace-all-pairs-nice",
]


def test_every_suite_has_claim_and_modules():
    for suite in list_suites():
        assert suite.claim
        assert suite.modules
        assert SUITES[suite.name] is suite


def test_unknown_suite_rejected():
    with pytest.raises(UnknownSuiteError):
        verify_suite("no-such-suite", max_n=4)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_all_suites_pass_up_to_10(name, cache_dir):
    report = verify_suite(name, max_n=10, cache_dir=cache_dir)
    assert report.passed, report.violations
    assert report.suite == name


# graphs of order 12 that meet each suite's hypothesis, out of 85
CHECKED_AT_12 = {
    "barrier-criterion-equivalence": 81,
    "barrier-properties": 81,
    "bicritical-all-nice": 41,
    "bipartite-nonbrace-contraction": 2,
    "bipartite-tight-criterion": 5,
    "brace-all-pairs-nice": 5,
    "brace-four-deletion": 5,
    "cubic-barrier-components": 16,
    "edge-in-perfect-matching": 81,
    "matching-covered-2-connected": 85,
    "minimal-barrier-all-nice": 12,
    "nice-count-bounds": 76,
    "nice-lift-tight-cut": 81,
    "nice-pair-rectangle": 5,
    "nine-nice-pairs": 5,
    "nontrivial-3-cut-matching": 57,
    "pair-lift-tight-cut": 5,
    "tight-cuts-are-3-cuts": 81,
    "tight-free-brick-brace": 81,
    "tutte-existence": 85,
    "two-cut-nice-transfer": 81,
    "two-cut-pair-transfer": 5,
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_all_suites_pass_at_12(name, corpus12):
    # together with the n <= 10 gate above, every suite passes at n <= 12,
    # each on as many graphs as its hypothesis admits
    entries = [e for e in corpus12 if e.graph.n == 12]
    report = verify_suite(name, max_n=12, entries=entries)
    assert report.passed, report.violations
    assert report.graphs_checked == CHECKED_AT_12[name]


@pytest.mark.parametrize(
    "name",
    ["nice-count-bounds", "nice-pair-rectangle", "brace-four-deletion", "tight-free-brick-brace"],
)
def test_family_suites_pass_on_zoo(name, family_zoo):
    # family members reach n = 22, beyond the corpus: the nice-count and
    # nice-pair characterizations of the families are checked here
    entries = [
        CorpusEntry(graph, write_graph6(graph), "constructed")
        for _, _, graph in family_zoo
        if graph.is_cubic
    ]
    assert len(entries) == 39 and max(e.graph.n for e in entries) == 22
    report = verify_suite(name, max_n=22, entries=entries)
    assert report.graphs_checked
    assert report.passed, report.violations


def test_two_cut_nice_transfer_colors_cut_ends_in_side_labels():
    # both graphs have bipartite 2-cut sides; the cut ends must be colored
    # in the side's own labels, not by their host ids
    lines = ["K???wxceF?[?", "KG?WpLW_D?wA"]
    entries = [CorpusEntry(parse_graph6(line), line, "constructed") for line in lines]
    report = verify_suite("two-cut-nice-transfer", max_n=12, entries=entries)
    assert report.graphs_checked == 2
    assert report.passed, report.violations


def test_reports_are_stable_across_runs(cache_dir):
    first = verify_suite("nine-nice-pairs", max_n=8, cache_dir=cache_dir)
    second = verify_suite("nine-nice-pairs", max_n=8, cache_dir=cache_dir)
    assert first.to_dict()["violations"] == second.to_dict()["violations"]
    assert first.graphs_checked == second.graphs_checked


def test_parallel_jobs_agree_with_serial(cache_dir):
    serial = verify_suite("matching-covered-2-connected", max_n=8, cache_dir=cache_dir)
    parallel = verify_suite(
        "matching-covered-2-connected", max_n=8, jobs=2, cache_dir=cache_dir
    )
    assert serial.graphs_checked == parallel.graphs_checked
    assert serial.violations == parallel.violations


def test_pool_asks_for_at_most_one_worker_per_graph(monkeypatch, cache_dir):
    from nicecubic import suites as suites_module

    requested = []

    class RecordingPool:
        """Stand-in for the process pool: records its size, runs serially."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(suites_module, "ProcessPoolExecutor", RecordingPool)
    report = verify_suite("nine-nice-pairs", max_n=6, jobs=64, cache_dir=cache_dir)
    assert requested == [3]  # K4, K3,3 and the prism
    assert report.passed
    requested.clear()
    verify_suite("nine-nice-pairs", max_n=4, jobs=64, cache_dir=cache_dir)
    assert requested == []  # one graph: no pool


def test_violations_carry_graph6_and_replay(monkeypatch, cache_dir):
    # No corpus graph can violate a theorem, so wire up a failing checker.
    from nicecubic import suites as suites_module

    fake = suites_module.Suite(
        "always-fails",
        "synthetic claim used to exercise violation reporting",
        ("test",),
        lambda g: ["boom"] if g.n == 4 else None,
    )
    monkeypatch.setitem(suites_module.SUITES, "always-fails", fake)
    report = verify_suite("always-fails", max_n=6, cache_dir=cache_dir)
    assert not report.passed
    assert report.graphs_checked == 1
    assert report.violations[0].detail == "boom"
    entry = report.to_dict()["violations"][0]
    assert entry["graph6"]
    assert "verify" in entry["replay"]


def test_internal_check_error_becomes_a_violation(monkeypatch, cache_dir):
    from nicecubic import suites as suites_module

    def checker(g):
        if g.n == 4:
            raise InternalCheckError("characterizations disagree")
        return []

    fake = suites_module.Suite(
        "always-raises",
        "synthetic claim whose checker trips an internal cross-check",
        ("test",),
        checker,
    )
    monkeypatch.setitem(suites_module.SUITES, "always-raises", fake)
    report = verify_suite("always-raises", max_n=6, cache_dir=cache_dir)
    assert report.graphs_checked == 3
    assert [(v.graph6, v.detail) for v in report.violations] == [
        ("C~", "characterizations disagree")
    ]


def test_entries_override(cache_dir):
    from nicecubic.catalog import k33

    entries = [CorpusEntry(k33(), write_graph6(k33()), "constructed")]
    report = verify_suite("nine-nice-pairs", max_n=6, entries=entries)
    assert report.graphs_checked == 1
    assert report.passed


def test_json_payload_is_byte_stable(cache_dir):
    import json

    first = verify_suite("nine-nice-pairs", max_n=8, cache_dir=cache_dir)
    second = verify_suite("nine-nice-pairs", max_n=8, cache_dir=cache_dir)
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        second.to_dict(), sort_keys=True
    )
