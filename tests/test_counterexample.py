from nicecubic.counterexample import constructed_candidates, search_barrier_counterexample
from nicecubic.graph6 import parse_graph6
from nicecubic.nice import is_nice_vertex
from nicecubic.structure import barriers


def test_constructed_candidates_are_sane():
    for g in constructed_candidates(14):
        assert g.is_cubic and g.simple


def test_search_runs_and_hits_verify(cache_dir):
    hits = search_barrier_counterexample(10, include_constructed=True, cache_dir=cache_dir)
    # An empty result is legitimate at this order; whatever comes back must
    # re-verify definitionally, and the all-nice minimal-barrier fact must
    # still hold on every hit.
    for hit in hits:
        g = parse_graph6(hit.graph6)
        assert not any(is_nice_vertex(g, v) for v in hit.non_nice)
        minimal = [b for b in barriers(g) if b.minimal_nontrivial]
        assert any(
            all(is_nice_vertex(g, v) for v in b.vertices) for b in minimal
        )


def test_search_reports_each_hit_once(cache_dir):
    # different attachments can build the same constructed candidate
    hits = search_barrier_counterexample(10, include_constructed=True, cache_dir=cache_dir)
    keys = [(hit.graph6, hit.barrier) for hit in hits]
    assert keys and len(set(keys)) == len(keys)


def test_k33_triangle_is_not_a_counterexample(cache_dir):
    hits = search_barrier_counterexample(8, cache_dir=cache_dir)
    from nicecubic.catalog import k33_triangle
    from nicecubic.graph6 import write_graph6
    from nicecubic.isomorphism import canonical_graph

    bad_id = write_graph6(canonical_graph(k33_triangle()))
    assert all(hit.graph6 != bad_id for hit in hits)


def test_search_hits_are_pinned(cache_dir):
    hits = search_barrier_counterexample(10, include_constructed=True, cache_dir=cache_dir)
    assert [(hit.graph6, hit.barrier, hit.non_nice) for hit in hits] == [
        ("KsOgw??OXBAK", (9, 10, 11), (9, 10, 11)),
        ("OCSw?ABOpE????_@g?p?K", (8, 9, 10), (8, 9, 10)),
        ("OCSw?ABOpE????_@g?p?K", (13, 14, 15), (13, 14, 15)),
        ("QCSw?ABOpE????????{?EO@O_E?", (8, 9, 10), (8, 9, 10)),
        ("QCSw????{BGSGo????C?BO?W_@_", (15, 16, 17), (15, 16, 17)),
    ]
