from collections import Counter

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from nicecubic.catalog import h44, k4, k33, k33_triangle, r8, triangular_prism
from nicecubic.graphs import Graph
from nicecubic.isomorphism import (
    canonical_graph,
    invariant_key,
    is_isomorphic,
    is_isomorphism,
    refined_colors,
)

from .strategies import multigraphs, simple_graphs


def _relabel(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_identity_witness():
    mapping = is_isomorphic(k4(), k4())
    assert mapping is not None
    assert is_isomorphism(k4(), k4(), mapping)


def test_bipartite_vs_nonbipartite_rejected():
    assert is_isomorphic(k33(), triangular_prism()) is None


def test_distinct_8_vertex_catalog_graphs():
    assert is_isomorphic(k33_triangle(), r8()) is None
    assert is_isomorphic(k33_triangle(), h44()) is None


@settings(max_examples=80)
@given(multigraphs(max_n=7), st.randoms(use_true_random=False))
def test_relabeled_graphs_are_isomorphic_with_valid_witness(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = _relabel(g, perm)
    mapping = is_isomorphic(g, h)
    assert mapping is not None
    assert is_isomorphism(g, h, mapping)


@settings(max_examples=60, deadline=None)
@given(simple_graphs(max_n=7), simple_graphs(max_n=7))
def test_agrees_with_networkx(g1, g2):
    def to_nx(g):
        out = nx.Graph()
        out.add_nodes_from(range(g.n))
        out.add_edges_from(g.edges)
        return out

    ours = is_isomorphic(g1, g2) is not None
    assert ours == nx.is_isomorphic(to_nx(g1), to_nx(g2))


def test_multiplicity_respected():
    double = Graph(4, [(0, 1), (0, 1), (2, 3)])
    spread = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert is_isomorphic(double, spread) is None


@settings(max_examples=60)
@given(multigraphs(max_n=7), st.randoms(use_true_random=False))
def test_canonical_graph_is_relabeling_invariant(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_graph(g) == canonical_graph(_relabel(g, perm))


@settings(max_examples=60)
@given(simple_graphs(max_n=7), st.randoms(use_true_random=False))
def test_invariant_key_is_relabeling_invariant(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert invariant_key(g) == invariant_key(_relabel(g, perm))


@settings(max_examples=80)
@given(multigraphs(max_n=7), st.randoms(use_true_random=False))
def test_refined_colors_are_equitable_and_follow_relabeling(g, rnd):
    colors = refined_colors(g)

    def counts(v):
        return Counter(colors[u] for u in g.adjacency[v])

    for v in range(g.n):
        for w in range(v + 1, g.n):
            if colors[v] == colors[w]:
                assert counts(v) == counts(w)
    perm = list(range(g.n))
    rnd.shuffle(perm)
    relabeled = refined_colors(_relabel(g, perm))
    assert all(relabeled[perm[v]] == colors[v] for v in range(g.n))


def test_canonical_graph_is_isomorphic_to_input():
    for g in (k4(), k33(), k33_triangle(), r8(), h44()):
        canon = canonical_graph(g)
        assert is_isomorphic(canon, g) is not None
