import pickle
from functools import reduce
from itertools import combinations
from operator import xor

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nicecubic.graphs as graphs_module
from nicecubic.catalog import k4, k33, k33_triangle, triangular_prism
from nicecubic.enumeration import enumerate_cubic
from nicecubic.errors import DomainError
from nicecubic.graph6 import parse_graph6
from nicecubic.graphs import (
    Graph,
    _cut_masks,
    _cut_space_labels,
    _low_link,
    _odd_component_count,
    _sides_crossed_once,
    bipartition,
    connected_components,
    connectivity_profile,
    contract,
    edge_cut,
    enumerate_cuts,
    induced_subgraph,
    is_connected,
    patched_side,
)
from nicecubic.isomorphism import is_isomorphic
from nicecubic.matching import pair_deletion_table
from nicecubic.nice import nice_pair_matrix
from nicecubic.structure import _barriers, _nontrivial_tight_cuts, classify
from nicecubic.suites import _perfect_matching_masks, tight_by_enumeration

from .strategies import connected_multigraphs, multigraphs, simple_graphs, subcubic_graphs


def test_graph_normalizes_and_sorts_edges():
    g = Graph(4, [(3, 1), (2, 0), (1, 3)])
    assert g.edges == ((0, 2), (1, 3), (1, 3))
    assert not g.simple
    assert g.multiplicity(3, 1) == 2


def test_graph_rejects_loops_and_range_violations():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


# The facts memoised on the graph they describe.
GRAPH_FACTS = (
    pair_deletion_table,
    connectivity_profile,
    bipartition,
    nice_pair_matrix,
    _barriers,
    classify,
    _nontrivial_tight_cuts,
    _perfect_matching_masks,
    _cut_space_labels,
)


def _fact_or_error(fact, g):
    try:
        return fact(g)
    except DomainError as exc:
        return type(exc)


def test_graph_facts_are_memoised(corpus10):
    for entry in corpus10:
        g = parse_graph6(entry.graph6)
        first = [_fact_or_error(fact, g) for fact in GRAPH_FACTS]
        for fact, value in zip(GRAPH_FACTS, first):
            again = _fact_or_error(fact, g)
            assert again is value, (fact.__name__, entry.graph6)
            # a fresh graph computes only this fact, so a key shared by two
            # facts would hand back the other fact's value above
            fresh = _fact_or_error(fact, parse_graph6(entry.graph6))
            assert fresh == value, (fact.__name__, entry.graph6)


def test_memoised_graph_pickles_as_its_value():
    g = k33()
    facts = [fact(g) for fact in GRAPH_FACTS]
    clone = pickle.loads(pickle.dumps(g))
    assert clone == g
    assert [fact(clone) for fact in GRAPH_FACTS] == facts


def test_degrees_and_cubic_flag():
    assert k4().degrees == (3, 3, 3, 3)
    assert k4().is_cubic
    assert not Graph(2, [(0, 1)]).is_cubic
    triple = Graph(2, [(0, 1)] * 3)
    assert triple.is_cubic  # parallel edges count toward degree


def test_connectivity_profile_k4():
    p = connectivity_profile(k4())
    assert (p.connected, p.two_connected, p.three_connected) == (True, True, True)
    assert p.cubic and p.bipartition is None


def test_connectivity_profile_k33_bipartition():
    p = connectivity_profile(k33())
    assert p.three_connected
    assert {frozenset(p.bipartition.a), frozenset(p.bipartition.b)} == {
        frozenset({0, 1, 2}),
        frozenset({3, 4, 5}),
    }


def test_connectivity_profile_empty_and_small():
    assert not connectivity_profile(Graph(0)).connected
    assert connectivity_profile(Graph(1)).connected
    p2 = connectivity_profile(Graph(2, [(0, 1)]))
    assert p2.connected and not p2.two_connected


def test_cut_vertex_detected():
    bowtie = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    p = connectivity_profile(bowtie)
    assert p.connected and not p.two_connected


def _classes(g):
    p = connectivity_profile(g)
    return p.connected, p.two_connected, p.three_connected


def test_cut_vertex_at_the_dfs_root():
    # vertex 0 is the only cut vertex, and the root of the search
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    path = Graph(3, [(0, 1), (0, 2)])
    assert _classes(star) == (True, False, False)
    assert _classes(path) == (True, False, False)


def test_separating_pair_through_the_root():
    # K2,3 with parts {0, 1} and {2, 3, 4}: {0, 1} is its only separating
    # pair, so each of 0 and 1 is a cut vertex only as the root of G - other
    g = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert _classes(g) == (True, True, False)


def test_doubled_edge_keeps_k4_three_connected():
    g = Graph(4, k4().edges + ((0, 1),))
    assert not g.simple
    assert _classes(g) == (True, True, True)


def _networkx_classes(g):
    """(2-connected, 3-connected) from networkx's vertex connectivity, with
    the convention that a k-connected graph has more than k vertices."""
    if g.n < 2:
        return False, False
    kappa = nx.node_connectivity(_to_networkx(g))
    return g.n >= 3 and kappa >= 2, g.n >= 4 and kappa >= 3


def _to_networkx(g):
    # parallel edges do not change vertex connectivity
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


@settings(max_examples=80, deadline=None)
@given(st.one_of(simple_graphs(max_n=8), multigraphs(max_n=7)))
def test_connectivity_profile_matches_networkx(g):
    p = connectivity_profile(g)
    assert (p.two_connected, p.three_connected) == _networkx_classes(g)


def test_vertex_and_edge_connectivity_agree_on_cubic(corpus10):
    # kappa = lambda on cubic graphs: the profile reads its vertex classes
    # off the edge classes there (bridges and 2-edge cuts in the cut-space
    # labels), so networkx's vertex classes must match them
    for entry in corpus10:
        h = _to_networkx(entry.graph)
        assert nx.edge_connectivity(h) == nx.node_connectivity(h), entry.graph6
        p = connectivity_profile(entry.graph)
        assert (p.two_connected, p.three_connected) == _networkx_classes(entry.graph)


def test_connectivity_profile_matches_networkx_on_corpus(corpus12):
    for entry in corpus12:
        p = connectivity_profile(entry.graph)
        assert p.connected, entry.graph6
        assert (p.two_connected, p.three_connected) == _networkx_classes(entry.graph), entry.graph6


def _low_link_classes(g):
    """(2-connected, 3-connected) by the low-link sweep over G and every
    G - v, the profile's path for a graph with a vertex of degree >= 4."""
    two = is_connected(g) and g.n >= 3 and not _low_link(g)
    three = two and g.n >= 4 and not any(_low_link(g, removed=v) for v in range(g.n))
    return two, three


# K4 with its edge 23 subdivided by vertex 4: the ends of 4 separate it
_K4_SUBDIVIDED = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)])
# two doubled edges joined by the 2-edge cut {02, 13}: {0, 3} separates it
_DOUBLED_LADDER = Graph(4, [(0, 1), (0, 1), (2, 3), (2, 3), (0, 2), (1, 3)])


@settings(max_examples=200, deadline=None)
@given(subcubic_graphs())
# three parallel edges: lambda = 3, but n < 4
@example(Graph(2, [(0, 1)] * 3))
@example(_DOUBLED_LADDER)
@example(_K4_SUBDIVIDED)
def test_cut_space_labels_classify_connectivity_up_to_degree_three(g):
    assert max(g.degrees, default=0) <= 3
    p = connectivity_profile(g)
    assert (p.two_connected, p.three_connected) == _low_link_classes(g)


@pytest.mark.parametrize(
    "g, classes",
    [
        (Graph(2, [(0, 1)] * 3), (True, False, False)),
        (_DOUBLED_LADDER, (True, True, False)),
        (_K4_SUBDIVIDED, (True, True, False)),
    ],
)
def test_connectivity_classes_of_the_label_path_examples(g, classes):
    assert _classes(g) == classes


def test_cut_space_labels_classify_connectivity_on_corpora(corpus12, cache_dir):
    # the connected corpus and the all-graphs corpus, disconnected graphs
    # included, up to n = 12
    every = [
        entry
        for n in range(4, 13, 2)
        for entry in enumerate_cubic(n, connected_only=False, cache_dir=cache_dir)
    ]
    for entry in corpus12 + every:
        p = connectivity_profile(entry.graph)
        assert p.connected == is_connected(entry.graph), entry.graph6
        assert (p.two_connected, p.three_connected) == _low_link_classes(entry.graph), entry.graph6


def test_low_link_sweep_runs_only_on_a_vertex_of_degree_four(monkeypatch):
    searched = []

    def recorded(g, removed=-1):
        searched.append(g)
        return _low_link(g, removed)

    monkeypatch.setattr(graphs_module, "_low_link", recorded)
    for g in (k4(), k33_triangle(), _K4_SUBDIVIDED, _DOUBLED_LADDER):
        connectivity_profile(Graph(g.n, g.edges))  # a copy with no facts
    assert searched == []
    # K5 and the bowtie: G and every G - v for K5, G alone for the bowtie,
    # which has a cut vertex
    assert _classes(Graph(5, combinations(range(5), 2))) == (True, True, True)
    assert len(searched) == 6
    bowtie = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert _classes(bowtie) == (True, False, False)
    assert len(searched) == 7


def _networkx_components(g, removed=()):
    """networkx's components of g minus the removed vertices, as frozensets
    in least-member order."""
    h = _to_networkx(g)
    h.remove_nodes_from(removed)
    return sorted((frozenset(c) for c in nx.connected_components(h)), key=min)


@settings(max_examples=200, deadline=None)
@given(multigraphs(), st.data())
def test_mask_odd_component_count_agrees_with_bfs_components(g, data):
    # the barrier sweeps of the library and of the suites share the mask
    # count, so it is checked here against networkx's components, which
    # share no code with the library's mask fills
    removed = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
    mask = sum(1 << v for v in removed)
    expected = sum(len(comp) % 2 for comp in _networkx_components(g, removed))
    assert _odd_component_count(g, mask) == expected


@settings(max_examples=200, deadline=None)
@given(multigraphs(), st.data())
def test_connected_components_match_networkx(g, data):
    removed = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
    assert connected_components(g, removed) == _networkx_components(g, removed)


@settings(max_examples=200, deadline=None)
@given(multigraphs())
def test_bipartition_matches_networkx(g):
    parts = bipartition(g)
    assert (parts is None) == (not nx.is_bipartite(_to_networkx(g)))
    if parts is not None:
        assert all(min(comp) in parts.a for comp in _networkx_components(g))


def test_induced_subgraph_triangle_from_k4():
    sub = induced_subgraph(k4(), {1, 2, 3})
    assert sub.new_to_old == (1, 2, 3)
    assert sub.old_to_new == {1: 0, 2: 1, 3: 2}
    assert sub.graph == Graph(3, [(0, 1), (0, 2), (1, 2)])


def test_induced_subgraph_identity():
    sub = induced_subgraph(k4(), range(4))
    assert sub.graph == k4()
    assert sub.new_to_old == (0, 1, 2, 3)
    assert sub.old_to_new == {0: 0, 1: 1, 2: 2, 3: 3}


def test_induced_subgraph_triangle_side_of_k33_triangle():
    sub = induced_subgraph(k33_triangle(), {5, 6, 7})
    assert sub.graph == Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert sub.new_to_old == (5, 6, 7)
    assert sub.old_to_new == {5: 0, 6: 1, 7: 2}


@settings(max_examples=60)
@given(simple_graphs(max_n=8), st.data())
def test_induced_subgraph_record_maps_are_inverse(g, data):
    mask = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    side = {v for v, keep in enumerate(mask) if keep}
    sub = induced_subgraph(g, side)
    assert sub.new_to_old == tuple(sorted(side))
    assert sub.old_to_new == {old: new for new, old in enumerate(sub.new_to_old)}
    assert sub.graph.n == len(side)
    expected = sorted(
        tuple(sorted((sub.old_to_new[u], sub.old_to_new[v])))
        for u, v in g.edges
        if u in side and v in side
    )
    assert list(sub.graph.edges) == expected


def test_patched_side_restores_the_cut_edge():
    # two copies of K4 minus an edge, joined by the 2-cut {(0, 4), (1, 5)}
    k4_minus = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    g = Graph(8, k4_minus + [(u + 4, v + 4) for u, v in k4_minus] + [(0, 4), (1, 5)])
    patched = patched_side(g, {4, 5, 6, 7}, 4, 5)
    assert patched.graph == k4()
    assert patched.new_to_old == (4, 5, 6, 7)
    assert patched.old_to_new == {4: 0, 5: 1, 6: 2, 7: 3}


def test_contract_single_vertex_is_identity_up_to_relabel():
    g = k33_triangle()
    res = contract(g, {3})
    assert res.graph.n == g.n
    mapping = dict(res.old_to_new)
    mapping[3] = res.merged
    relabeled = Graph(g.n, [(mapping[u], mapping[v]) for u, v in g.edges])
    assert relabeled == res.graph


def test_contract_k33_triangle_complement_of_triangle_gives_k4():
    res = contract(k33_triangle(), {0, 1, 2, 3, 4})
    assert is_isomorphic(res.graph, k4()) is not None


def test_contract_prism_triangle_gives_k4():
    res = contract(triangular_prism(), {0, 1, 2})
    assert is_isomorphic(res.graph, k4()) is not None


def test_contract_creates_parallel_edges():
    res = contract(k33_triangle(), {0, 1})
    assert not res.graph.simple
    assert res.graph.degrees[res.merged] == 6


def test_contract_rejects_degenerate_sets():
    with pytest.raises(ValueError):
        contract(k4(), set())
    with pytest.raises(ValueError):
        contract(k4(), {0, 1, 2, 3})


def test_edge_cut_basics():
    cut = edge_cut(k4(), {0})
    assert len(cut.edge_indices) == 3
    assert not cut.nontrivial
    cut = edge_cut(k33_triangle(), {5, 6, 7})
    assert len(cut.edge_indices) == 3
    assert cut.nontrivial


@pytest.mark.parametrize("side", [{0, 9}, {-1, 0}])
def test_edge_cut_rejects_vertices_outside_the_graph(side):
    # a phantom vertex made {0, 9} a "nontrivial" cut of K4
    with pytest.raises(ValueError, match="vertex set not contained in graph"):
        edge_cut(k4(), side)


def test_enumerate_cuts_k4_has_no_2_cuts():
    assert enumerate_cuts(k4(), 2) == []


def test_enumerate_cuts_requires_connected():
    with pytest.raises(DomainError):
        enumerate_cuts(Graph(4, [(0, 1), (2, 3)]), 2)


def test_enumerate_cuts_finds_triangle_separation():
    cuts = enumerate_cuts(k33_triangle(), 3)
    assert [sorted(c.side) for c in cuts] == [[0, 1, 2, 3, 4]]


def test_enumerate_cuts_hands_each_caller_a_list_of_its_own():
    # memoised per graph and k: a caller that changes its list changes no
    # later answer, and another k has its own answer
    g = k33_triangle()
    first = enumerate_cuts(g, 3)
    first.clear()
    assert [sorted(c.side) for c in enumerate_cuts(g, 3)] == [[0, 1, 2, 3, 4]]
    assert enumerate_cuts(g, 2) == []


def _every_cut(g):
    """The cut of every side containing vertex 0."""
    return [
        edge_cut(g, (0,) + extra)
        for size in range(1, g.n)
        for extra in combinations(range(1, g.n), size - 1)
    ]


def _cuts_by_brute_force(g, k, every=None):
    found = [
        cut
        for cut in (_every_cut(g) if every is None else every)
        if len(cut.edge_indices) == k and cut.nontrivial
    ]
    found.sort(key=lambda c: (c.edge_indices, sorted(c.side)))
    return found


_TIGHT_CUT_CONTRACTION = Graph(
    6, [(0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3), (4, 5), (4, 5)]
)


@settings(max_examples=60, deadline=None)
@given(multigraphs(min_n=2, max_n=7), st.integers(min_value=1, max_value=4))
# sides that join two of the three components of G - F
@example(Graph(3, [(0, 1), (1, 2)]), 2)
@example(Graph(4, [(0, 1), (1, 2), (2, 3)]), 2)
# a path: every edge is a bridge
@example(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 1)
# parallel edges are never bridges
@example(Graph(2, [(0, 1)] * 3), 2)
@example(Graph(2, [(0, 1)] * 3), 3)
# two triangles joined by two edges: G - F' is disconnected before b goes
@example(
    Graph(6, [(0, 1), (0, 2), (1, 2), (0, 4), (2, 3), (3, 4), (3, 5), (4, 5)]), 3
)
# a 4-cycle with two doubled edges: one copy of each is a spanning-tree edge
@example(Graph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (0, 3)]), 2)
@example(Graph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (0, 3)]), 4)
# the contraction of the tight cut of GB]DMG with side {0, 5, 7}: a cubic
# multigraph with the doubled edge 45
@example(_TIGHT_CUT_CONTRACTION, 3)
@example(_TIGHT_CUT_CONTRACTION, 4)
def test_enumerate_cuts_matches_brute_force(g, k):
    # the full ordered lists: edge indices, side and nontrivial flag
    if not is_connected(g):
        return
    assert enumerate_cuts(g, k) == _cuts_by_brute_force(g, k)


@settings(max_examples=100, deadline=None)
@given(multigraphs())
def test_cut_masks_agree_with_edge_cut(g):
    # the XOR of incident-edge masks against edge_cut's per-edge side test:
    # same sides, same order, same edge indices
    walked = [
        (side, tuple(i for i in range(len(g.edges)) if cut >> i & 1)) for side, cut in _cut_masks(g)
    ]
    assert walked == [(tuple(sorted(cut.side)), cut.edge_indices) for cut in _every_cut(g)]


def _label_xor(labels, edge_indices):
    return reduce(xor, (labels[i] for i in edge_indices), 0)


@settings(max_examples=100, deadline=None)
@given(connected_multigraphs())
def test_cut_space_labels_match_the_cut_oracle(g):
    # labels XOR to 0 exactly over cuts, and the subtree masks of a cut's
    # edges XOR to the side without vertex 0: the oracle's side of that cut
    labels, subtrees = _cut_space_labels(g)
    sides = {cut: side for side, cut in _cut_masks(g)}
    for cut in sides:
        assert _label_xor(labels, [i for i in range(len(g.edges)) if cut >> i & 1]) == 0
    for size in range(1, 5):
        for subset in combinations(range(len(g.edges)), size):
            if _label_xor(labels, subset) == 0:
                cut = sum(1 << i for i in subset)
                assert cut in sides, subset
                far = _label_xor(subtrees, subset)
                side = tuple(v for v in range(g.n) if not far >> v & 1)
                assert side == sides[cut], subset


def test_sides_crossed_once_filter_the_cut_walk_on_corpus(corpus12):
    # the tight-cut oracle's walk is the full walk filtered by one crossing,
    # pairs and order both: for a perfect matching M, for M less the edge at
    # vertex 0 (0 uncovered) and for M less its last edge (0 covered)
    for entry in corpus12:
        g = entry.graph
        every = list(_cut_masks(g))
        pms = _perfect_matching_masks(g)
        m = pms[0]
        for matching in (m, m & m - 1, m ^ 1 << m.bit_length() - 1):
            expected = [(side, cut) for side, cut in every if (cut & matching).bit_count() == 1]
            assert list(_sides_crossed_once(g, matching)) == expected, (entry.graph6, matching)
        tight = [side for side, cut in every if tight_by_enumeration(cut, pms)]
        assert [
            side for side, cut in _sides_crossed_once(g, m) if tight_by_enumeration(cut, pms)
        ] == tight, entry.graph6


def test_enumerate_cuts_matches_brute_force_on_corpus(corpus12):
    for entry in corpus12:
        every = _every_cut(entry.graph)
        for k in (1, 2, 3):
            assert enumerate_cuts(entry.graph, k) == _cuts_by_brute_force(
                entry.graph, k, every
            ), (entry.graph6, k)


@settings(max_examples=40)
@given(simple_graphs(max_n=8))
def test_bipartition_is_proper_when_present(g):
    parts = bipartition(g)
    if parts is None:
        return
    assert parts.a | parts.b == frozenset(range(g.n))
    assert not parts.a & parts.b
    for u, v in g.edges:
        assert (u in parts.a) != (v in parts.a)


def test_contraction_order_commutes_with_both_sides():
    # contracting X then the image of its complement equals the two-vertex
    # multigraph carrying the cut, no matter the order
    g = k33_triangle()
    side = {5, 6, 7}
    complement = set(range(g.n)) - side
    first = contract(g, side)
    second = contract(first.graph, {first.old_to_new[v] for v in complement})
    other_first = contract(g, complement)
    other_second = contract(
        other_first.graph, {other_first.old_to_new[v] for v in side}
    )
    k = len(edge_cut(g, side).edge_indices)
    expected = Graph(2, [(0, 1)] * k)
    assert second.graph == expected
    assert other_second.graph == expected


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Graph(-1), "vertex count must be non-negative"),
        (lambda: induced_subgraph(k4(), [0, 4]), "vertex set not contained in graph"),
        (lambda: contract(k4(), {0, 9}), "vertex set not contained in graph"),
        (lambda: edge_cut(k4(), {5}), "vertex set not contained in graph"),
        (lambda: enumerate_cuts(k4(), 0), "cut size must be positive"),
        (lambda: connected_components(k4(), [7, -1]), "vertex set not contained in graph"),
    ],
)
def test_graph_operations_refuse_vertices_and_sizes_out_of_range(call, message):
    with pytest.raises(ValueError, match=message):
        call()
