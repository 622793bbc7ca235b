import pytest

from nicecubic.catalog import h44, k4, k33, k33_triangle, k33_triangle_non_nice, triangular_prism
from nicecubic.errors import DomainError
from nicecubic.families import FamilyTSpec, TStep, build_t
from nicecubic.graphs import Graph, enumerate_cuts
from nicecubic.nice import (
    all_pairs_nice,
    find_nice_pair_set,
    is_nice_pair,
    is_nice_vertex,
    nice_pair_matrix,
    nice_pair_sets_bounded,
    nice_vertices,
)
from nicecubic.suites import nice_by_barriers


def test_upsilon_catalog_values():
    assert nice_vertices(k4()).upsilon == 4
    assert nice_vertices(triangular_prism()).upsilon == 6
    assert nice_vertices(k33()).upsilon == 0
    report = nice_vertices(k33_triangle())
    assert report.upsilon == 6
    assert len(set(range(8)) - report.nice) == 2


def test_non_nice_pair_located_computationally():
    bad = k33_triangle_non_nice()
    report = nice_vertices(k33_triangle())
    assert set(bad) == set(range(8)) - report.nice


def test_nice_vertices_rejects_non_cubic():
    with pytest.raises(DomainError):
        nice_vertices(Graph(2, [(0, 1)]))


def test_barrier_method_agrees_on_catalog():
    for g in (k4(), k33(), k33_triangle(), triangular_prism()):
        assert nice_by_barriers(g) == nice_vertices(g).nice


def _bridged_cubic():
    """Two K4-with-a-subdivided-edge blocks joined by a bridge."""
    block_a = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)]
    block_b = [(5, 7), (5, 8), (5, 9), (6, 7), (6, 8), (6, 9), (7, 8)]
    return Graph(10, block_a + block_b + [(4, 9)])


def test_barrier_method_requires_two_connected():
    bridged = _bridged_cubic()
    assert bridged.is_cubic
    with pytest.raises(DomainError):
        nice_by_barriers(bridged)


def test_nice_pair_matrix_k33_full():
    rel = nice_pair_matrix(k33())
    assert rel.pair_count == 9
    assert all(all(row) for row in rel.matrix)


def test_nice_pair_matrix_h44_full():
    rel = nice_pair_matrix(h44())
    assert rel.pair_count == 16


def test_nice_pair_matrix_rejects_non_bipartite():
    with pytest.raises(DomainError):
        nice_pair_matrix(k4())


def test_adjacent_pairs_need_no_special_casing():
    assert is_nice_pair(k33(), 0, 3)


@pytest.mark.parametrize("u", [-1, 4])
def test_vertices_outside_the_graph_are_rejected(u):
    # a negative id would wrap to the last vertex
    with pytest.raises(ValueError, match="vertex set not contained in graph"):
        is_nice_vertex(k4(), u)
    with pytest.raises(ValueError, match="vertex set not contained in graph"):
        is_nice_pair(k4(), 0, u)


def test_find_nice_pair_set_k33_full_sides():
    found = find_nice_pair_set(k33(), 3)
    assert found is not None
    assert found.a_side == frozenset({0, 1, 2})
    assert found.b_side == frozenset({3, 4, 5})


def test_find_nice_pair_set_h44_full():
    found = find_nice_pair_set(h44(), 4)
    assert found is not None
    assert found.a_side | found.b_side == frozenset(range(8))


def _t12():
    return build_t(FamilyTSpec(steps=(TStep(1, (0, 3)),)))


def test_t_member_has_no_4x4_but_has_3x3():
    t12 = _t12()
    assert find_nice_pair_set(t12, 4) is None
    assert find_nice_pair_set(t12, 3) is not None
    assert nice_pair_sets_bounded(t12, 3)


def test_t_member_pairs_do_not_cross_2_cuts():
    t12 = _t12()
    rel = nice_pair_matrix(t12)
    pairs = [
        (rel.a_order[i], rel.b_order[j])
        for i, row in enumerate(rel.matrix)
        for j, hit in enumerate(row)
        if hit
    ]
    for cut in enumerate_cuts(t12, 2):
        for a, b in pairs:
            assert (a in cut.side) == (b in cut.side)


def test_all_pairs_nice_matches_brace_status():
    from nicecubic.structure import classify

    for g in (k33(), h44(), _t12()):
        assert all_pairs_nice(g) == classify(g).brace


def test_bounded_notions_differ():
    # All 16 pairs of the 8-vertex brace are nice: rows of weight 4 break the
    # 3x3 bound even though the largest square rectangle test alone would
    # need a 4x4, which also exists here.
    assert not nice_pair_sets_bounded(h44(), 3)
    assert find_nice_pair_set(h44(), 4) is not None


def _two_k33():
    return Graph(12, k33().edges + tuple((u + 6, v + 6) for u, v in k33().edges))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: nice_pair_matrix(Graph(3, [(0, 1), (1, 2)])),
            DomainError,
            "nice pairs are defined for cubic bipartite graphs",
        ),
        (lambda: nice_pair_matrix(_two_k33()), DomainError, "nice-pair analysis expects a connected host"),
        (lambda: find_nice_pair_set(k33(), 0), ValueError, "rectangle size must be positive"),
    ],
)
def test_nice_pairs_refuse_hosts_and_sizes_outside_their_domain(call, error, message):
    with pytest.raises(error, match=message):
        call()
