from itertools import permutations

import pytest

from nicecubic.catalog import h44, k4, k33, k33_triangle, r8, triangular_prism
from nicecubic.errors import DomainError, SpliceError
from nicecubic.graphs import Graph
from nicecubic.isomorphism import is_isomorphic
from nicecubic.splicing import (
    chain_end_edges,
    edge_splice,
    linear_chain,
    splice,
    twotwo_edges,
)


def test_splice_identity_k4_k4_prism_all_bijections():
    for phi in permutations(sorted(set(k4().adjacency[0]))):
        result = splice(k4(), 0, k4(), 0, phi)
        assert is_isomorphic(result.graph, triangular_prism()) is not None


def test_splice_identity_prism_k4_all_bijections():
    for phi in permutations(sorted(set(k4().adjacency[0]))):
        result = splice(triangular_prism(), 0, k4(), 0, phi)
        assert is_isomorphic(result.graph, r8()) is not None


def test_splice_identity_k33_k4_all_bijections():
    for phi in permutations(sorted(set(k4().adjacency[0]))):
        result = splice(k33(), 0, k4(), 0, phi)
        assert is_isomorphic(result.graph, k33_triangle()) is not None


def test_splice_vertex_count_and_cubic_preservation():
    result = splice(k33(), 0, k4(), 0)
    assert result.graph.n == k33().n + k4().n - 2
    assert result.graph.is_cubic


def test_splice_degree_mismatch():
    path = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(SpliceError):
        splice(k4(), 0, path, 0)


def test_splice_rejects_bad_bijection():
    with pytest.raises(SpliceError):
        splice(k4(), 0, k4(), 0, {1: 1, 2: 1, 3: 2})


def test_splice_rejects_a_phi_sequence_longer_than_the_degree():
    # at a cubic vertex a fourth entry would be dropped without a word
    with pytest.raises(SpliceError, match="phi lists 4 neighbors"):
        splice(k33(), 0, k4(), 0, (1, 2, 3, 0))
    with pytest.raises(SpliceError, match="phi lists 2 neighbors"):
        splice(k33(), 0, k4(), 0, (1, 2))


def test_splice_rejects_out_of_range_vertices_and_parallel_edges():
    with pytest.raises(SpliceError, match="out of range"):
        splice(k4(), 4, k4(), 0)
    with pytest.raises(SpliceError, match="out of range"):
        splice(k4(), 0, k4(), -1)
    theta = Graph(2, [(0, 1), (0, 1), (0, 1)])
    with pytest.raises(SpliceError, match="parallel"):
        splice(theta, 0, k4(), 0)


def test_splice_maps_point_back():
    result = splice(k33(), 0, k4(), 0)
    # every original edge not at the spliced vertices survives under the maps
    for u, v in k33().edges:
        if 0 in (u, v):
            continue
        assert result.graph.multiplicity(result.first_map[u], result.first_map[v]) == 1


def test_edge_splice_vertex_count():
    eight = linear_chain(3)
    result = edge_splice(eight, (0, 1), k33(), (0, 3))
    assert result.graph.n == eight.n + k33().n - 2


def test_edge_splice_merged_degrees():
    chain = linear_chain(1)
    result = edge_splice(chain, (0, 1), k33(), (0, 3))
    z1 = result.first_map[0]
    assert result.second_map[0] == z1
    assert result.graph.degrees[z1] == 2 + 3 - 2


def test_edge_splice_requires_edges():
    with pytest.raises(SpliceError):
        edge_splice(k4(), (0, 1), k33(), (0, 1))  # (0,1) not an edge of K33
    with pytest.raises(SpliceError, match="first graph"):
        edge_splice(k33(), (0, 1), k4(), (0, 1))


def test_linear_chain_one_is_a_quadrilateral():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert is_isomorphic(linear_chain(1), c4) is not None


def test_linear_chain_counts():
    assert linear_chain(3).n == 8
    for n in (1, 2, 3, 4):
        chain = linear_chain(n)
        assert chain.n == 2 * n + 2
        first, last = chain_end_edges(n)
        assert chain.multiplicity(*first) == 1
        assert chain.multiplicity(*last) == 1
        assert set(first).isdisjoint(last)


def test_linear_chain_22_edges():
    # One quadrangle: every edge joins two degree-2 vertices.
    assert len(twotwo_edges(linear_chain(1))) == 4
    # Longer chains: exactly the two designated ends.
    for n in (2, 3, 4):
        ends = set(map(frozenset, twotwo_edges(linear_chain(n))))
        expected = set(map(frozenset, chain_end_edges(n)))
        assert ends == expected


def test_linear_chain_rejects_zero():
    with pytest.raises(DomainError):
        linear_chain(0)


def test_hdiamond_shape_after_splicing_k4():
    # Splicing a chain block into K4 at its 22-edge restores cubicity.
    from nicecubic.families import HdiamondSpec, build_hdiamond
    from nicecubic.graph6 import write_graph6

    block, tt = build_hdiamond(
        HdiamondSpec(quads=2, host_graph6=write_graph6(h44()), host_edge=(0, 5))
    )
    assert sorted(block.degrees)[:2] == [2, 2]
    joined = edge_splice(k4(), (0, 1), block, tt)
    assert joined.graph.is_cubic


def test_chain_end_edges_refuses_an_empty_chain():
    with pytest.raises(DomainError, match="a quadrangular chain needs at least one quadrangle"):
        chain_end_edges(0)
