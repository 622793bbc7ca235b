import hashlib
import sys
from collections import Counter
from itertools import combinations, permutations
from pathlib import Path

import pytest

from nicecubic import enumeration, isomorphism
from nicecubic.catalog import h44, k4, k33, triangular_prism
from nicecubic.enumeration import (
    CACHE_ENV,
    _canonical_candidates,
    _connected_cubic_classes,
    enumerate_cubic,
)
from nicecubic.errors import DomainError
from nicecubic.graph6 import parse_graph6, write_graph6
from nicecubic.graphs import Graph, bipartition, connectivity_profile, is_connected
from nicecubic.isomorphism import _distance_profile, _distance_profiles, is_isomorphic

# Connected cubic graph counts by order, from the published sequence.
KNOWN_CONNECTED_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85}

# sha256 of each corpus file's content, one canonical graph6 id per line, by
# (n, connected_only): the ids are replay handles, so they must not drift
CORPUS_SHA256 = {
    (4, True): "62073900de6d9451c02333f80b3c4de1105edb4559989fee6cfa91c1365d102b",
    (6, True): "a1b05647b5355feab146269f6686e3fd6b23dd14f31868150cdfc2ea07418764",
    (8, True): "b8fc0a55ba7e3caf1078b0dfa2cb491988d24d974937035ceffce342b39996ee",
    (10, True): "b42cba53a34d278006300a3ef51b489e513c7cbb86c65a873662f39fb469b999",
    (12, True): "856b0d2729ee2fa33cf6296f0c8d96ba58dd6324a933db780bc76b9cbf260e08",
    (4, False): "62073900de6d9451c02333f80b3c4de1105edb4559989fee6cfa91c1365d102b",
    (6, False): "a1b05647b5355feab146269f6686e3fd6b23dd14f31868150cdfc2ea07418764",
    (8, False): "9e7953010de9b1a449aba161d2d3e202241433a75de44cbeec4f6a83d397a67f",
    (10, False): "66199e97987ca16b257588e39bc670baef72e4b689e86ef6f7a86d0d30247618",
    # the first order with a repeated part ({6, 6}) and with three ({4, 4, 4})
    (12, False): "bfd97a5ce6b5fd21d2273172e33c2e42c2dc718d6a39fc99ee6ae23feb755eb0",
}


def test_odd_order_rejected():
    with pytest.raises(DomainError):
        enumerate_cubic(5)


def test_tiny_orders_empty():
    assert enumerate_cubic(0) == []
    assert enumerate_cubic(2) == []


def test_n4_is_k4(cache_dir):
    entries = enumerate_cubic(4, cache_dir=cache_dir)
    assert len(entries) == 1
    assert is_isomorphic(entries[0].graph, k4()) is not None


def test_n6_is_k33_and_prism(cache_dir):
    entries = enumerate_cubic(6, cache_dir=cache_dir)
    assert len(entries) == 2
    found = {
        "k33": any(is_isomorphic(e.graph, k33()) for e in entries),
        "prism": any(is_isomorphic(e.graph, triangular_prism()) for e in entries),
    }
    assert all(found.values())


def test_counts_match_published_sequence(corpus12):
    by_order = {}
    for entry in corpus12:
        by_order[entry.graph.n] = by_order.get(entry.graph.n, 0) + 1
    assert by_order == KNOWN_CONNECTED_COUNTS


@pytest.mark.parametrize("n, connected_only", list(CORPUS_SHA256))
def test_corpus_ids_are_pinned(corpus12, cache_dir, n, connected_only):
    entries = enumerate_cubic(n, connected_only=connected_only, cache_dir=cache_dir)
    text = "".join(e.graph6 + "\n" for e in entries)
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_SHA256[n, connected_only]


def test_corpus_is_duplicate_free(corpus10):
    for i, a in enumerate(corpus10):
        for b in corpus10[i + 1:]:
            if a.graph.n == b.graph.n:
                assert is_isomorphic(a.graph, b.graph) is None


def test_all_entries_connected_cubic(corpus10):
    for entry in corpus10:
        assert entry.graph.is_cubic
        assert entry.graph.simple
        assert is_connected(entry.graph)


def test_ids_are_canonical_and_sorted(corpus10):
    for entry in corpus10:
        assert parse_graph6(entry.graph6) == entry.graph
    for n in (4, 6, 8, 10):
        ids = [e.graph6 for e in corpus10 if e.graph.n == n]
        assert ids == sorted(ids)


def test_unique_3_connected_bipartite_on_8_vertices(cache_dir):
    hits = [
        e.graph
        for e in enumerate_cubic(8, cache_dir=cache_dir)
        if bipartition(e.graph) is not None
        and connectivity_profile(e.graph).three_connected
    ]
    assert len(hits) == 1
    assert is_isomorphic(hits[0], h44()) is not None


def test_bipartite_members_up_to_10_are_3_connected(corpus10):
    for entry in corpus10:
        if bipartition(entry.graph) is not None:
            assert connectivity_profile(entry.graph).three_connected


def test_cache_round_trip(tmp_path):
    fresh = enumerate_cubic(6, cache_dir=tmp_path)
    assert (tmp_path / "cubic-n6-connected.g6").is_file()
    cached = enumerate_cubic(6, cache_dir=tmp_path)
    assert [e.graph6 for e in cached] == [e.graph6 for e in fresh]
    assert all(e.provenance == "file" for e in cached)


def test_corrupt_cache_regenerated(tmp_path):
    path = tmp_path / "cubic-n4-connected.g6"
    path.write_text("not graph6 at all\x01\n")
    with pytest.warns(RuntimeWarning, match=f"{path.name} does not parse"):
        entries = enumerate_cubic(4, cache_dir=tmp_path)
    assert len(entries) == 1
    assert entries[0].provenance == "enumerated"


def test_undecodable_cache_regenerated(tmp_path):
    path = tmp_path / "cubic-n4-connected.g6"
    path.write_bytes(b"\xff\xfe\n")
    with pytest.warns(RuntimeWarning, match=f"{path.name} does not parse"):
        entries = enumerate_cubic(4, cache_dir=tmp_path)
    assert [e.provenance for e in entries] == ["enumerated"]


def test_truncated_cache_regenerated(tmp_path, corpus10):
    ids = [e.graph6 for e in corpus10 if e.graph.n == 10]
    path = tmp_path / "cubic-n10-connected.g6"
    path.write_text("".join(line + "\n" for line in ids[:7]))
    with pytest.warns(RuntimeWarning, match=f"{path.name} holds 7 graphs, expected 19"):
        entries = enumerate_cubic(10, cache_dir=tmp_path)
    assert [e.graph6 for e in entries] == ids
    assert all(e.provenance == "enumerated" for e in entries)
    assert path.read_text().splitlines() == ids
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_cache_with_bad_and_repeated_entries_regenerated(tmp_path, cache_dir):
    ids = [e.graph6 for e in enumerate_cubic(8, cache_dir=cache_dir)]
    path = tmp_path / "cubic-n8-connected.g6"
    # the count still matches: one entry is the empty graph, one repeats
    damaged = ["G?????", ids[1], ids[1]] + ids[3:]
    assert len(damaged) == len(ids) == 5
    path.write_text("".join(line + "\n" for line in damaged))
    with pytest.warns(RuntimeWarning, match=f"{path.name} repeats an entry"):
        entries = enumerate_cubic(8, cache_dir=tmp_path)
    assert [e.graph6 for e in entries] == ids
    assert all(e.provenance == "enumerated" for e in entries)
    text = path.read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_SHA256[8, True]


def test_cache_with_a_second_labelling_of_one_class_regenerated(tmp_path, cache_dir):
    ids = [e.graph6 for e in enumerate_cubic(8, cache_dir=cache_dir)]
    first = parse_graph6(ids[0])
    # a relabelling of the first class in place of the second: the count
    # holds and each entry is a connected cubic graph, but a class is missing
    relabelled = next(
        line
        for p in permutations(range(8))
        if (line := write_graph6(Graph(8, [(p[u], p[v]) for u, v in first.edges]))) not in ids
    )
    path = tmp_path / "cubic-n8-connected.g6"
    path.write_text("".join(line + "\n" for line in [ids[0], relabelled, *ids[2:]]))
    with pytest.warns(RuntimeWarning, match=f"{path.name} is not the pinned corpus"):
        entries = enumerate_cubic(8, cache_dir=tmp_path)
    assert [e.graph6 for e in entries] == ids
    assert all(e.provenance == "enumerated" for e in entries)
    assert path.read_text().splitlines() == ids


def test_pinned_corpus_digests_are_the_tests_and_ci_pins():
    data = Path(__file__).resolve().parent / "data"
    pins = dict(CORPUS_SHA256)
    for n in (14, 16, 18):
        for connected_only, flavor in ((True, "connected"), (False, "all")):
            pins[n, connected_only] = (data / f"cubic-n{n}-{flavor}.sha256").read_text().strip()
    assert enumeration.CORPUS_SHA256 == pins


def test_truncated_all_graphs_cache_regenerated(tmp_path, cache_dir):
    ids = [e.graph6 for e in enumerate_cubic(10, connected_only=False, cache_dir=cache_dir)]
    assert len(ids) == 21  # OEIS A005638
    path = tmp_path / "cubic-n10-all.g6"
    path.write_text("".join(line + "\n" for line in ids[:3]))
    with pytest.warns(RuntimeWarning, match=f"{path.name} holds 3 graphs, expected 21"):
        entries = enumerate_cubic(10, connected_only=False, cache_dir=tmp_path)
    assert [e.graph6 for e in entries] == ids
    assert all(e.provenance == "enumerated" for e in entries)
    assert path.read_text().splitlines() == ids


@pytest.fixture
def corpus_memo(monkeypatch):
    """An empty corpus memo for one test."""
    memo = {}
    monkeypatch.setattr(enumeration, "_corpus_memo", memo)
    return memo


def _record_parses(monkeypatch):
    parsed = []
    parse = enumeration.read_graph6_lines

    def recorded(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(enumeration, "read_graph6_lines", recorded)
    return parsed


def test_unchanged_cache_file_hands_out_the_same_graphs(tmp_path, monkeypatch, corpus_memo):
    fresh = enumerate_cubic(8, cache_dir=tmp_path)
    assert corpus_memo == {}  # a generated corpus is not kept
    parsed = _record_parses(monkeypatch)
    first = enumerate_cubic(8, cache_dir=tmp_path)
    second = enumerate_cubic(8, cache_dir=tmp_path)
    assert len(parsed) == 1 and list(corpus_memo) == [(8, True)]
    assert first is not second
    assert all(a is b for a, b in zip(first, second)) and len(first) == 5
    assert not any(a.graph is b.graph for a, b in zip(fresh, first))
    assert all(e.provenance == "file" for e in second)
    first.clear()  # a caller's list is its own
    assert len(enumerate_cubic(8, cache_dir=tmp_path)) == 5


def test_a_corpus_read_from_a_fresh_cache_builds_no_adjacency(tmp_path, corpus_memo):
    # the load check reads degrees, neighbour masks and the graph6 id only,
    # so a held corpus graph carries no per-vertex neighbour tuples
    enumerate_cubic(10, cache_dir=tmp_path)
    read = enumerate_cubic(10, cache_dir=tmp_path)
    assert len(read) == 19 and all(e.provenance == "file" for e in read)
    assert not any("adjacency" in e.graph.__dict__ for e in read)


def test_rewritten_cache_file_is_read_again(tmp_path, monkeypatch, corpus_memo):
    enumerate_cubic(8, cache_dir=tmp_path)
    path = tmp_path / "cubic-n8-connected.g6"
    text = path.read_text()
    kept = enumerate_cubic(8, cache_dir=tmp_path)
    parsed = _record_parses(monkeypatch)
    # other bytes that hold the same sound corpus: parsed again, new graphs
    path.write_text(text + "\n")
    reread = enumerate_cubic(8, cache_dir=tmp_path)
    assert parsed == [text + "\n"]
    assert [e.graph6 for e in reread] == [e.graph6 for e in kept]
    assert not any(a.graph is b.graph for a, b in zip(kept, reread))
    assert all(e.provenance == "file" for e in reread)
    # truncated bytes: parsed, refused and regenerated
    path.write_text("".join(text.splitlines(keepends=True)[:2]))
    with pytest.warns(RuntimeWarning, match="holds 2 graphs, expected 5"):
        regenerated = enumerate_cubic(8, cache_dir=tmp_path)
    assert len(parsed) == 2
    assert all(e.provenance == "enumerated" for e in regenerated)
    assert not any(a.graph is b.graph for a, b in zip(reread, regenerated))
    assert path.read_text() == text
    # the regenerated file is read, checked and kept once more
    again = enumerate_cubic(8, cache_dir=tmp_path)
    assert len(parsed) == 3
    assert all(a is b for a, b in zip(again, enumerate_cubic(8, cache_dir=tmp_path)))
    assert len(parsed) == 3 and len(corpus_memo) == 1


def test_without_a_cache_every_call_builds_new_graphs(monkeypatch, corpus_memo):
    monkeypatch.setenv(CACHE_ENV, "")
    first = enumerate_cubic(6, cache_dir=None)
    second = enumerate_cubic(6, cache_dir=None)
    assert [e.graph6 for e in first] == [e.graph6 for e in second]
    assert not any(a.graph is b.graph for a, b in zip(first, second))
    assert all(e.provenance == "enumerated" for e in first + second)
    assert corpus_memo == {}


def test_disconnected_enumeration(cache_dir):
    entries = enumerate_cubic(10, connected_only=False, cache_dir=cache_dir)
    connected = enumerate_cubic(10, cache_dir=cache_dir)
    # partitions of 10 into parts >= 4: {4, 6} is the only disconnected shape
    assert len(entries) == len(connected) + 1 * 2
    disconnected = [e for e in entries if not is_connected(e.graph)]
    assert len(disconnected) == 2
    for entry in disconnected:
        assert entry.graph.is_cubic


def test_dedup_builds_each_search_order_once():
    # the dedup compares each candidate with its bucket's representatives,
    # representative first, so only representatives' search orders are built,
    # each once, not one per comparison or per candidate
    order = isomorphism._search_order
    code = getattr(order, "__wrapped__", order).__code__
    builds = Counter()
    graphs = []  # keeps every counted graph alive, so no id is reused

    def count_builds(frame, event, arg):
        if event == "call" and frame.f_code is code:
            graphs.append(frame.f_locals["g"])
            builds[id(graphs[-1])] += 1

    sys.setprofile(count_builds)
    try:
        classes = _connected_cubic_classes(10)
    finally:
        sys.setprofile(None)
    assert len(classes) == 19
    assert builds and max(builds.values()) == 1
    assert set(builds) <= {id(g) for g in classes}


def test_dedup_walks_each_distance_profile_at_most_once():
    # the filter walks a leaf's profiles in label order on the backtracker's
    # masks, stopping at the first violation; a survivor's profiles become
    # its bucket key and its memoised fact, which is_isomorphic's first-image
    # check reads, so no labeled graph is walked twice from one start vertex
    # and the fact is never built
    walk = isomorphism._distance_profile.__code__
    build = isomorphism._distance_profiles.__wrapped__.__code__
    walks = Counter()
    builds = []

    def count_walks(frame, event, arg):
        if event == "call" and frame.f_code is walk:
            walks[tuple(frame.f_locals["masks"]), frame.f_locals["start"]] += 1
        elif event == "call" and frame.f_code is build:
            builds.append(frame.f_locals["g"])

    sys.setprofile(count_walks)
    try:
        classes = _connected_cubic_classes(10)
    finally:
        sys.setprofile(None)
    assert len(classes) == 19
    assert walks and max(walks.values()) == 1
    assert not builds
    for g in classes:
        assert _distance_profiles(g) == tuple(_distance_profile(g.neighbor_masks, v) for v in range(10))


# The reference the pruned walk is checked against: the plain discovery-order
# backtracker, which yields every candidate, and the breadth-first-canonical
# filter on a built graph.
def _labeled_connected_cubic(n: int):
    """Yield edge tuples of connected cubic graphs on n labeled vertices,
    labels in discovery order (each isomorphism class appears, many times)."""
    deg = [0] * n
    edges: list[tuple[int, int]] = []

    def extend(v: int, next_unused: int):
        if v == n:
            yield tuple(edges)
            return
        if v == next_unused:
            return  # component exhausted with vertices left over
        need = 3 - deg[v]
        existing = [w for w in range(v + 1, next_unused) if deg[w] < 3]
        for num_new in range(min(need, n - next_unused) + 1):
            take = need - num_new
            if take > len(existing):
                continue
            new_vertices = range(next_unused, next_unused + num_new)
            for combo in combinations(existing, take):
                targets = list(combo) + list(new_vertices)
                for w in targets:
                    deg[v] += 1
                    deg[w] += 1
                    edges.append((v, w))
                yield from extend(v + 1, next_unused + num_new)
                for w in targets:
                    deg[v] -= 1
                    deg[w] -= 1
                    edges.pop()

    yield from extend(0, 1)


def _is_bfs_canonical(g: Graph) -> bool:
    """Vertex 0 has a largest distance profile and the children of each
    vertex (the vertices whose least neighbour it is, consecutively labeled)
    have non-increasing profiles."""
    profiles = _distance_profiles(g)
    for v in range(1, g.n):
        sibling = min(g.adjacency[v]) == min(g.adjacency[v - 1])
        if profiles[v] > profiles[0] or (sibling and profiles[v] > profiles[v - 1]):
            return False
    return True


@pytest.mark.parametrize("n, leaves", [(4, 1), (6, 5), (8, 26), (10, 95), (12, 857)])
def test_pruned_walk_keeps_the_filter_survivors(monkeypatch, n, leaves):
    # the walk cuts a subtree only when a final radius-2 ball shows that
    # every leaf below fails the filter, so the leaves it keeps are the plain
    # backtracker's survivors, the same edge tuples in the same order, with
    # their profiles; of the 639 candidates at n = 10 and 9,609 at n = 12,
    # only 95 and 857 reach the filter
    reached = []
    profiles_of = enumeration._bfs_canonical_profiles

    def counted(masks):
        reached.append(tuple(masks))
        return profiles_of(masks)

    monkeypatch.setattr(enumeration, "_bfs_canonical_profiles", counted)
    kept = list(_canonical_candidates(n))
    survivors = [e for e in _labeled_connected_cubic(n) if _is_bfs_canonical(Graph(n, e))]
    assert [edges for edges, _ in kept] == survivors
    for edges, profiles in kept:
        assert profiles == _distance_profiles(Graph(n, edges))
    assert len(reached) == len(set(reached)) == leaves


def _bfs_relabelings(g, root):
    """Every breadth-first order of g's vertices from root (new label -> old
    vertex), over every order of each vertex's newly reached neighbours."""
    def grow(order, i):
        if i == len(order):
            yield order
            return
        fresh = sorted(set(g.adjacency[order[i]]) - set(order))
        for tail in permutations(fresh):
            yield from grow(order + list(tail), i + 1)

    yield from grow([root], 0)


def test_every_bfs_relabeling_is_a_candidate(corpus10):
    # the filter keeps only candidates rooted at a largest distance profile
    # whose siblings come in non-increasing profile order; it is sound
    # because the plain backtracker, which the pruned walk only cuts,
    # yields every class's breadth-first relabeling from every root, in
    # every tie order
    for n in (4, 6, 8, 10):
        candidates = {Graph(n, edges) for edges in _labeled_connected_cubic(n)}
        for entry in corpus10:
            g = entry.graph
            if g.n != n:
                continue
            for root in range(n):
                for order in _bfs_relabelings(g, root):
                    assert len(order) == n
                    new = {v: i for i, v in enumerate(order)}
                    assert Graph(n, [(new[u], new[v]) for u, v in g.edges]) in candidates


def test_dedup_compares_only_candidates_rooted_at_a_largest_profile():
    # the candidates that pass the filter: each is compared with its
    # bucket's representatives or founds a bucket of its own
    code = isomorphism.is_isomorphic.__code__
    compared = []

    def record(frame, event, arg):
        if event == "call" and frame.f_code is code:
            compared.extend((frame.f_locals["g1"], frame.f_locals["g2"]))

    sys.setprofile(record)
    try:
        classes = _connected_cubic_classes(10)
    finally:
        sys.setprofile(None)
    assert len(classes) == 19
    assert compared
    kept = {id(g): g for g in compared + classes}
    assert len(kept) == 95  # of 639 candidates
    for g in kept.values():
        profiles = _distance_profiles(g)
        assert profiles[0] == max(profiles)
        # a vertex's children, the vertices whose least neighbour it is, are
        # consecutively labeled, in non-increasing profile order
        children = [[w for w in range(1, g.n) if min(g.adjacency[w]) == v] for v in range(g.n)]
        for kids in filter(None, children):
            assert kids == list(range(kids[0], kids[0] + len(kids)))
            ordered = [profiles[w] for w in kids]
            assert ordered == sorted(ordered, reverse=True)
