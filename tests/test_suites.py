import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from nicecubic import enumeration
from nicecubic import matching as matching_module
from nicecubic import suites as suites_module
from nicecubic.catalog import triangular_prism
from nicecubic.enumeration import CorpusEntry, corpus_up_to
from nicecubic.errors import DomainError, InternalCheckError, UnknownSuiteError
from nicecubic.graph6 import parse_graph6, write_graph6
from nicecubic.graphs import Graph, _cut_masks, _cuts_of_size, connectivity_profile, is_connected
from nicecubic.matching import _deletion_sets, is_matching_covered, pair_deletion_table
from nicecubic.nice import nice_vertices
from nicecubic.suites import SUITES, list_suites, verify_suite, verify_suites

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


def test_unknown_suite_rejected_before_the_corpus_is_read(tmp_path):
    with pytest.raises(UnknownSuiteError, match="no-such-suite"):
        verify_suites(["nine-nice-pairs", "no-such-suite"], 6, cache_dir=tmp_path / "cache")
    assert list(tmp_path.iterdir()) == []  # no cache file, not even its directory


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


def test_tight_cuts_suite_checks_every_trivial_cut(monkeypatch):
    # a "perfect matching" that misses the edge uv, with 0 not in {u, v}:
    # the trivial cuts at u and at v are not tight, and both are reported,
    # though the cut sides the suite sweeps hold vertex 0, not u or v
    g = triangular_prism()
    pm = suites_module._perfect_matching_masks(g)[0]
    i = next(i for i, (u, v) in enumerate(g.edges) if pm >> i & 1 and 0 not in (u, v))
    u, v = g.edges[i]
    monkeypatch.setattr(suites_module, "_perfect_matching_masks", lambda g: (pm ^ 1 << i,))
    problems = suites_module._check_tight_cuts_are_3_cuts(g)
    trivial = [p for p in problems if p.startswith("trivial cut")]
    assert trivial == [f"trivial cut at [{u}] is not tight", f"trivial cut at [{v}] is not tight"]


def test_tight_cuts_suite_walks_every_side_without_a_perfect_matching(monkeypatch):
    # no first matching to filter by: every cut is vacuously tight, so the
    # full walk reports each side whose cut is not a 3-cut
    g = triangular_prism()
    monkeypatch.setattr(suites_module, "_perfect_matching_masks", lambda g: ())
    assert suites_module._check_tight_cuts_are_3_cuts(g) == [
        f"tight cut at side {list(side)} has {cut.bit_count()} edges"
        for side, cut in _cut_masks(g)
        if cut.bit_count() != 3
    ]


def test_reports_are_stable_across_runs(cache_dir):
    first = verify_suite("nine-nice-pairs", max_n=8, cache_dir=cache_dir)
    second = verify_suite("nine-nice-pairs", max_n=8, cache_dir=cache_dir)
    assert first.to_dict()["violations"] == second.to_dict()["violations"]
    assert first.graphs_checked == second.graphs_checked


def test_parallel_jobs_agree_with_serial(cache_dir):
    # every suite in one process, so every call after the first reuses the pool
    one_by_one = []
    for name in sorted(SUITES):
        serial = verify_suite(name, max_n=8, cache_dir=cache_dir)
        parallel = verify_suite(name, max_n=8, jobs=2, cache_dir=cache_dir)
        assert parallel.to_dict() == serial.to_dict()
        one_by_one.append(serial.to_dict())
    # one pass of every suite gives the same reports, serially and in the pool
    for jobs in (1, 2):
        reports = verify_suites(sorted(SUITES), 8, jobs=jobs, cache_dir=cache_dir)
        assert [report.to_dict() for report in reports] == one_by_one


def _record_builds(monkeypatch, fact):
    """The graphs a memoised fact is computed on from now on: the function
    that ``_graph_fact`` wraps is swapped for one that records its graph."""
    (cell,) = fact.__closure__
    compute = cell.cell_contents
    built = []

    def recorded(g):
        built.append(g)
        return compute(g)

    monkeypatch.setattr(cell, "cell_contents", recorded)
    return built


@pytest.fixture
def fresh_corpus(monkeypatch):
    """No corpus kept from earlier tests, so the corpus graphs this test
    loads start without facts: a fact derived from a memoised one, as
    connectivity is from matching coverage, is then computed in the test."""
    monkeypatch.setattr(enumeration, "_corpus_memo", {})


def test_one_pass_builds_each_fact_once_per_graph(monkeypatch, cache_dir, fresh_corpus):
    loads = []
    load = suites_module.corpus_up_to

    def recorded_load(*args, **kwargs):
        loads.append(load(*args, **kwargs))
        return loads[-1]

    monkeypatch.setattr(suites_module, "corpus_up_to", recorded_load)
    tables = _record_builds(monkeypatch, pair_deletion_table)
    profiles = _record_builds(monkeypatch, connectivity_profile)
    sweeps = _record_builds(monkeypatch, _deletion_sets)
    masks = _record_builds(monkeypatch, suites_module._perfect_matching_masks)
    nices = _record_builds(monkeypatch, nice_vertices)
    searches = []
    search = matching_module._deletion_search

    def recorded_search(g, removed):
        searches.append((g, removed))  # holds g, so no id is reused
        return search(g, removed)

    monkeypatch.setattr(matching_module, "_deletion_search", recorded_search)
    enumerations = []
    enumerate_matchings = matching_module.perfect_matchings

    def recorded_enumeration(g):
        enumerations.append(g)
        return enumerate_matchings(g)

    monkeypatch.setattr(suites_module, "perfect_matchings", recorded_enumeration)
    monkeypatch.setattr(matching_module, "perfect_matchings", recorded_enumeration)
    connected = _record_builds(monkeypatch, is_connected)
    covered = _record_builds(monkeypatch, is_matching_covered)
    cut_sweep = _cuts_of_size.__code__
    cut_sweeps = []

    def record_cut_sweeps(frame, event, arg):
        if event == "call" and frame.f_code is cut_sweep:
            cut_sweeps.append((frame.f_locals["g"], frame.f_locals["k"]))

    sys.setprofile(record_cut_sweeps)
    try:
        reports = verify_suites(sorted(SUITES), 10, cache_dir=cache_dir)
    finally:
        sys.setprofile(None)
    assert all(report.passed for report in reports)
    (entries,) = loads
    corpus = {id(e.graph) for e in entries}
    assert len(corpus) == 27
    # contractions and subgraphs build their own facts; each corpus graph
    # builds its table and its profile once, for all 22 suites
    for built in (tables, profiles):
        per_graph = Counter(id(g) for g in built if id(g) in corpus)
        assert set(per_graph) == corpus
        assert set(per_graph.values()) == {1}
    # the Tutte and barrier oracles read one deletion-set sweep, on corpus
    # graphs only
    assert sorted(id(g) for g in sweeps) == sorted(corpus)
    # the suites that read the perfect matchings share one enumeration per
    # 2-connected corpus graph, and no other enumeration runs on the corpus
    two_connected = [id(e.graph) for e in entries if connectivity_profile(e.graph).two_connected]
    assert sorted(id(g) for g in masks if id(g) in corpus) == sorted(two_connected)
    assert sorted(id(g) for g in enumerations if id(g) in corpus) == sorted(two_connected)
    # the nice vertices of each 2-connected corpus graph are found once, for
    # the suites that read them and the host-side tests of the others
    assert sorted(id(g) for g in nices if id(g) in corpus) == sorted(two_connected)
    # every deletion query G - W runs the blossom search once per graph
    deletions = Counter((id(g), removed) for g, removed in searches if removed)
    assert deletions and set(deletions.values()) == {1}
    # connectivity and matching coverage are decided once per corpus graph,
    # and its k-edge cuts are swept at most once per k
    for built in (connected, covered):
        per_graph = Counter(id(g) for g in built if id(g) in corpus)
        assert set(per_graph) == corpus
        assert set(per_graph.values()) == {1}
    per_size = Counter((id(g), k) for g, k in cut_sweeps if id(g) in corpus)
    assert per_size and set(per_size.values()) == {1}


def test_suite_calls_share_each_corpus_graph_facts(monkeypatch, cache_dir, fresh_corpus):
    corpus_up_to(10, cache_dir=cache_dir)  # a cold run writes the cache files
    parsed = []
    parse = enumeration.read_graph6_lines

    def recorded_parse(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(enumeration, "read_graph6_lines", recorded_parse)
    loads = []
    load = suites_module.corpus_up_to

    def recorded_load(*args, **kwargs):
        loads.append(load(*args, **kwargs))
        return loads[-1]

    monkeypatch.setattr(suites_module, "corpus_up_to", recorded_load)
    tables = _record_builds(monkeypatch, pair_deletion_table)
    profiles = _record_builds(monkeypatch, connectivity_profile)
    for name in sorted(SUITES):
        assert verify_suite(name, 10, cache_dir=cache_dir).passed, name
    assert len(loads) == 22
    # every call gets a list of its own, of the same 27 graphs
    assert len({id(entries) for entries in loads}) == 22
    corpus = {id(e.graph) for entries in loads for e in entries}
    assert len(corpus) == 27
    # each cache file (n = 4, 6, 8, 10) is parsed at most once in all 22 calls
    assert len(parsed) == len(set(parsed)) <= 4
    for built in (tables, profiles):
        per_graph = Counter(id(g) for g in built if id(g) in corpus)
        assert set(per_graph) == corpus
        assert set(per_graph.values()) == {1}


def test_runtime_is_each_suite_own_checker_time(monkeypatch, cache_dir):
    def slow(g):
        time.sleep(0.02)
        return []

    fake = suites_module.Suite("slow", "synthetic claim that takes its time", ("test",), slow)
    monkeypatch.setitem(suites_module.SUITES, "slow", fake)
    slow_report, quick_report = verify_suites(["slow", "tutte-existence"], 6, cache_dir=cache_dir)
    assert slow_report.graphs_checked == quick_report.graphs_checked == 3
    assert slow_report.runtime_seconds >= 0.06
    assert quick_report.runtime_seconds < slow_report.runtime_seconds


@pytest.fixture
def fresh_pool():
    """No workers before the test, so they fork with its patches, and none
    after it, so no later test meets them."""
    suites_module._close_pool()
    yield
    suites_module._close_pool()


def _worker_processes():
    return [worker for worker, _ in suites_module._workers]


def test_pool_asks_for_at_most_one_worker_per_graph(fresh_pool, cache_dir):
    report = verify_suite("nine-nice-pairs", max_n=6, jobs=64, cache_dir=cache_dir)
    first = _worker_processes()
    assert len(first) == 3  # K4, K3,3 and the prism
    assert report.passed
    verify_suite("tutte-existence", max_n=6, jobs=3, cache_dir=cache_dir)
    assert _worker_processes() == first  # the same size: the same workers
    verify_suite("nine-nice-pairs", max_n=4, jobs=64, cache_dir=cache_dir)
    assert _worker_processes() == first  # one graph: no pool
    verify_suite("nine-nice-pairs", max_n=8, jobs=64, cache_dir=cache_dir)
    second = _worker_processes()
    assert len(second) == 8  # 1 + 2 + 5 graphs
    # the old workers were joined before the new ones forked
    assert all(worker.exitcode == 0 for worker in first)
    assert all(worker.is_alive() for worker in second)


def test_a_worker_killed_while_idle_does_not_break_the_next_call(fresh_pool, cache_dir):
    serial = verify_suite("nine-nice-pairs", max_n=8, cache_dir=cache_dir)
    verify_suite("nine-nice-pairs", max_n=8, jobs=2, cache_dir=cache_dir)
    broken = _worker_processes()
    assert len(broken) == 2
    os.kill(broken[0].pid, signal.SIGKILL)
    broken[0].join(10)
    assert broken[0].exitcode == -signal.SIGKILL
    parallel = verify_suite("nine-nice-pairs", max_n=8, jobs=2, cache_dir=cache_dir)
    assert parallel.to_dict() == serial.to_dict()
    replaced = _worker_processes()
    assert len(replaced) == 2 and not set(replaced) & set(broken)
    assert broken[1].exitcode is not None


def _probe(monkeypatch, checker):
    """Register a suite named "probe" whose checker is ``checker``."""
    fake = suites_module.Suite("probe", "synthetic claim that probes a worker", ("test",), checker)
    monkeypatch.setitem(suites_module.SUITES, "probe", fake)


def test_a_worker_that_dies_in_a_pass_is_replaced_and_the_pass_reruns(
    fresh_pool, monkeypatch, cache_dir, tmp_path
):
    died = tmp_path / "died"

    def checker(g):
        if g.n == 8 and not died.exists():
            died.touch()
            os._exit(1)
        return []

    _probe(monkeypatch, checker)
    report = verify_suite("probe", max_n=8, jobs=2, cache_dir=cache_dir)
    assert died.exists()
    assert report.passed and report.graphs_checked == 8


def test_a_worker_keeps_a_graph_with_its_facts_from_the_second_pass(
    fresh_pool, monkeypatch, cache_dir
):
    (cell,) = pair_deletion_table.__closure__
    compute = cell.cell_contents

    def checker(g):
        memoised = compute in g.__dict__
        pair_deletion_table(g)
        return ["memoised"] if memoised else []

    _probe(monkeypatch, checker)
    passes = [verify_suite("probe", max_n=8, jobs=2, cache_dir=cache_dir) for _ in range(4)]
    assert [len(report.violations) for report in passes] == [0, 0, 8, 8]


def test_each_entry_is_checked_by_the_same_worker_on_every_pass(
    fresh_pool, monkeypatch, cache_dir
):
    _probe(monkeypatch, lambda g: [str(os.getpid())])
    passes = [verify_suite("probe", max_n=8, jobs=3, cache_dir=cache_dir) for _ in range(3)]
    first = [(v.graph6, v.detail) for v in passes[0].violations]
    assert [graph6 for graph6, _ in first] == [e.graph6 for e in corpus_up_to(8, cache_dir=cache_dir)]
    assert {pid for _, pid in first} <= {str(worker.pid) for worker in _worker_processes()}
    for report in passes[1:]:
        assert [(v.graph6, v.detail) for v in report.violations] == first


def test_graphs_seen_first_go_to_whichever_worker_is_free(fresh_pool, monkeypatch, cache_dir):
    def checker(g):
        if g.n == 4:
            time.sleep(1.0)  # K4, the first entry, holds its worker up
        return [str(os.getpid())]

    _probe(monkeypatch, checker)
    report = verify_suite("probe", max_n=8, jobs=2, cache_dir=cache_dir)
    pids = Counter(v.detail for v in report.violations)
    # the held-up worker checks only its first run of two; fixed halves would give it four
    assert pids[report.violations[0].detail] == 2 and sum(pids.values()) == 8


def test_a_checker_exception_in_a_worker_reaches_the_caller(fresh_pool, monkeypatch, cache_dir):
    def checker(g):
        if g.n == 6:
            raise ValueError("probe refuses n = 6")
        return []

    _probe(monkeypatch, checker)
    with pytest.raises(ValueError, match="probe refuses n = 6") as raised:
        verify_suite("probe", max_n=8, jobs=2, cache_dir=cache_dir)
    # the worker's traceback comes along as the cause
    assert "in checker" in str(raised.value.__cause__)
    workers = _worker_processes()
    # every reply was read, so the same workers serve the next call
    serial = verify_suite("tutte-existence", max_n=8, cache_dir=cache_dir)
    parallel = verify_suite("tutte-existence", max_n=8, jobs=2, cache_dir=cache_dir)
    assert parallel.to_dict() == serial.to_dict()
    assert _worker_processes() == workers


def test_three_workers_over_uneven_slices_agree_with_serial(fresh_pool, cache_dir):
    # n <= 8 has 8 graphs, handed out in runs of 2, 1, 1, 1, 1, 1 and 1
    serial = [r.to_dict() for r in verify_suites(sorted(SUITES), 8, cache_dir=cache_dir)]
    one_pass = verify_suites(sorted(SUITES), 8, jobs=3, cache_dir=cache_dir)
    assert [r.to_dict() for r in one_pass] == serial
    one_by_one = [verify_suite(name, 8, jobs=3, cache_dir=cache_dir) for name in sorted(SUITES)]
    assert [r.to_dict() for r in one_by_one] == serial


def _exists(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_no_worker_outlives_the_interpreter(cache_dir, tmp_path):
    # multiprocessing terminates and joins the daemonic workers at exit. The
    # child also replaces its pool by one of another size, which must not
    # fork while any thread runs: 3.12+ warns then (a warning CPython drops
    # under -W error, so the child records warnings)
    script = tmp_path / "child.py"
    script.write_text(
        "import json, multiprocessing, sys, warnings\n"
        "from nicecubic.suites import verify_suite\n"
        "pids = set()\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    warnings.simplefilter('always')\n"
        "    for jobs in (2, 2, 3):\n"
        "        verify_suite('nine-nice-pairs', max_n=6, jobs=jobs, cache_dir=sys.argv[1])\n"
        "        pids |= {p.pid for p in multiprocessing.active_children()}\n"
        "print(json.dumps([sorted(pids), [str(w.message) for w in caught]]))\n"
    )
    src = str(Path(suites_module.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, str(script), str(cache_dir)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    pids, warned = json.loads(done.stdout)
    assert warned == []
    assert len(pids) == 5  # two workers, then three in the replacement pool
    assert [pid for pid in pids if _exists(pid)] == []


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


def test_verify_checks_each_entry_graph_as_given(monkeypatch, cache_dir):
    # nothing is re-parsed: the checker gets each entry's own Graph, and the
    # entry's graph6, here a label no parser accepts, names its violations
    seen = []

    def checker(g):
        seen.append(g)
        return ["boom"] if g.n == 4 else []

    fake = suites_module.Suite(
        "always-fails",
        "synthetic claim used to exercise violation reporting",
        ("test",),
        checker,
    )
    monkeypatch.setitem(suites_module.SUITES, "always-fails", fake)
    entries = [
        CorpusEntry(e.graph, f"label-{i}", "constructed")
        for i, e in enumerate(corpus_up_to(6, cache_dir=cache_dir))
    ]
    report = verify_suite("always-fails", max_n=6, entries=entries)
    assert len(seen) == len(entries) == 3
    assert all(g is e.graph for g, e in zip(seen, entries))
    assert [(v.graph6, v.detail) for v in report.violations] == [("label-0", "boom")]


def test_entries_outside_the_domain_are_refused_before_any_checker(monkeypatch):
    seen = []
    fake = suites_module.Suite(
        "records", "synthetic claim that records its graphs", ("test",), seen.append
    )
    monkeypatch.setitem(suites_module.SUITES, "records", fake)
    k4 = CorpusEntry(parse_graph6("C~"), "C~", "constructed")
    outside = {
        "two-K4": Graph(8, [(u + o, v + o) for o in (0, 4) for u, v in k4.graph.edges]),
        "C6": Graph(6, [(i, (i + 1) % 6) for i in range(6)]),
        "multigraph": Graph(4, [(0, 1), (0, 1), (2, 3), (2, 3), (0, 2), (1, 3)]),
    }
    for label, graph in outside.items():
        entries = [k4, CorpusEntry(graph, label, "constructed")]
        for jobs in (1, 2):
            with pytest.raises(DomainError, match=label):
                verify_suites(["records", "tutte-existence"], 8, jobs=jobs, entries=entries)
    assert seen == []


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
