import pickle
from itertools import combinations
from math import comb

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nicecubic import matching as matching_module
from nicecubic.catalog import h44, k4, k33, k33_triangle, triangular_prism
from nicecubic.errors import DomainError
from nicecubic.graphs import (
    Graph,
    _odd_component_count,
    _vertex_mask,
    connected_components,
    induced_subgraph,
    is_connected,
)
from nicecubic.matching import (
    _deletion_sets,
    _in_common_perfect_matching,
    _matchable_without,
    count_perfect_matchings,
    has_perfect_matching,
    is_matching_covered,
    make_matching,
    maximum_matching,
    nice_check,
    pair_deletion_table,
    perfect_matchings,
    tutte_condition_holds,
)
from nicecubic.nice import nice_pair_matrix, nice_vertices
from nicecubic.structure import classify, nontrivial_tight_cuts

from .strategies import cubic_multigraphs, multigraphs, simple_graphs


def _brute_force_maximum(g):
    best = 0
    m = len(g.edges)
    for size in range(m, -1, -1):
        if size <= best:
            break
        for subset in combinations(range(m), size):
            seen = set()
            ok = True
            for i in subset:
                u, v = g.edges[i]
                if u in seen or v in seen:
                    ok = False
                    break
                seen.add(u)
                seen.add(v)
            if ok:
                best = max(best, size)
                break
    return best


def test_k2_matches_its_edge():
    m = maximum_matching(Graph(2, [(0, 1)]))
    assert m.edge_indices == (0,)


def test_k4_maximum_is_perfect():
    m = maximum_matching(k4())
    assert m.is_perfect(k4())


def test_odd_cycle_maximum():
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert len(maximum_matching(c5).edge_indices) == 2


def test_maximum_matching_is_deterministic():
    g = triangular_prism()
    assert maximum_matching(g) == maximum_matching(g)


@settings(max_examples=150, deadline=None)
@given(multigraphs(max_n=7))
def test_maximum_matching_optimal_by_brute_force(g):
    found = maximum_matching(g)
    assert len(found.edge_indices) == _brute_force_maximum(g)


@settings(max_examples=100, deadline=None)
@given(simple_graphs(max_n=9))
def test_maximum_matching_agrees_with_networkx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    expected = len(nx.max_weight_matching(nxg, maxcardinality=True))
    assert len(maximum_matching(g).edge_indices) == expected


@settings(max_examples=100, deadline=None)
@given(simple_graphs(max_n=9))
def test_existence_agrees_with_exhaustive_deletion_test(g):
    assert has_perfect_matching(g) == tutte_condition_holds(g)


def _tutte_full_sweep(g):
    return all(
        sum(len(comp) % 2 for comp in connected_components(g, s)) <= size
        for size in range(g.n + 1)
        for s in combinations(range(g.n), size)
    )


@settings(max_examples=200, deadline=None)
@given(st.one_of(multigraphs(), simple_graphs(min_n=1, max_n=9)))
def test_tutte_half_sweep_agrees_with_the_full_sweep(g):
    # the oracle sweeps only |S| <= n/2: past that, odd(G - S) <= n - |S| < |S|
    assert tutte_condition_holds(g) == _tutte_full_sweep(g)


def test_perfect_matching_counts_with_independent_oracle():
    # Oracle: sweep all edge subsets of the right size.
    def oracle(g):
        count = 0
        for subset in combinations(range(len(g.edges)), g.n // 2):
            seen = set()
            for i in subset:
                u, v = g.edges[i]
                if u in seen or v in seen:
                    break
                seen.add(u)
                seen.add(v)
            else:
                count += 1
        return count

    assert count_perfect_matchings(k4()) == oracle(k4()) == 3
    assert count_perfect_matchings(k33()) == oracle(k33()) == 6
    assert count_perfect_matchings(triangular_prism()) == oracle(triangular_prism())


def test_perfect_matchings_odd_order_empty():
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert perfect_matchings(c5) == []


def test_perfect_matchings_distinguish_parallel_edges():
    triple = Graph(2, [(0, 1)] * 3)
    assert len(perfect_matchings(triple)) == 3


def test_perfect_matchings_order():
    # K3,3's edges (0,3) (0,4) (0,5) (1,3) ... (2,5) have indices 0..8; the
    # matchings come out branching on the lowest vertex, then edge index
    found = [m.edge_indices for m in perfect_matchings(k33())]
    assert found == [(0, 4, 8), (0, 5, 7), (1, 3, 8), (1, 5, 6), (2, 3, 7), (2, 4, 6)]


def test_empty_graph_has_the_empty_perfect_matching():
    assert perfect_matchings(Graph(0)) == [make_matching(Graph(0), ())]
    assert has_perfect_matching(Graph(0))


def test_matching_covered_examples():
    assert is_matching_covered(k4())
    c6 = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    assert is_matching_covered(c6)
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert not is_matching_covered(star)
    # every edge lies in a perfect matching, but the graph is disconnected
    assert not is_matching_covered(Graph(4, [(0, 1), (2, 3)]))


def test_matching_covered_requires_two_vertices():
    g = Graph(1)
    for _ in range(2):  # memoised, and still raising on every call
        with pytest.raises(DomainError):
            is_matching_covered(g)


def test_nice_check_trivial_sets():
    assert nice_check(k4(), set())
    assert nice_check(k4(), range(4))
    assert nice_check(k4(), {0, *k4().adjacency[0]})


def _matchable_after_deleting(g, w):
    # oracle: enumerate the perfect matchings of the induced subgraph, which
    # shares no code with the blossom search
    rest = induced_subgraph(g, set(range(g.n)) - set(w)).graph
    return bool(perfect_matchings(rest))


@settings(max_examples=300, deadline=None)
@given(multigraphs(max_n=8, max_edges=16), st.data())
def test_nice_check_agrees_with_subgraph_enumeration(g, data):
    w = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
    assert nice_check(g, w) == _matchable_after_deleting(g, w)


def test_nice_check_rejects_vertices_outside_the_graph():
    for w in ({4}, {-1}, {0, 7}):
        with pytest.raises(ValueError, match="vertex set not contained in graph"):
            nice_check(k4(), w)


def test_matching_queries_build_no_graph(monkeypatch):
    # every deletion-set query runs on the host with the deleted vertices
    # masked out; the hosts are built before counting starts
    prism, triangle, brace = triangular_prism(), k33_triangle(), h44()
    built = []
    init = Graph.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counted)
    nice_vertices(prism)
    nice_vertices(triangle)
    nice_pair_matrix(brace)
    for g in (prism, triangle, brace):
        classify(g)
        nontrivial_tight_cuts(g)
    assert built == []


def test_make_matching_rejects_shared_vertices():
    with pytest.raises(ValueError):
        make_matching(k4(), (0, 1))  # edges (0,1) and (0,2) share vertex 0


@pytest.mark.parametrize("index", [-1, 6])
def test_make_matching_rejects_edge_indices_out_of_range(index):
    # k4 has edges 0..5; a negative index would wrap to the last edge
    with pytest.raises(ValueError, match="out of range"):
        make_matching(k4(), [index])


def test_maximum_matching_exhaustive_up_to_5_vertices():
    for n in range(0, 6):
        pool = list(combinations(range(n), 2))
        for bits in range(1 << len(pool)):
            edges = [pool[i] for i in range(len(pool)) if bits >> i & 1]
            g = Graph(n, edges)
            assert len(maximum_matching(g).edge_indices) == _brute_force_maximum(g)


def test_returned_matchings_are_vertex_disjoint():
    for g in (k4(), k33(), triangular_prism()):
        make_matching(g, maximum_matching(g).edge_indices)
        for pm in perfect_matchings(g):
            make_matching(g, pm.edge_indices)  # raises on overlap


def test_pair_deletion_table_small_cases():
    assert pair_deletion_table(Graph(0)) == ()
    assert pair_deletion_table(Graph(3, [(0, 1), (1, 2)])) is None
    assert pair_deletion_table(Graph(4, [(0, 1), (0, 2), (0, 3)])) is None
    assert pair_deletion_table(k4()) == tuple(
        frozenset(range(4)) - {u} for u in range(4)
    )
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert pair_deletion_table(path) == (
        frozenset({1, 3}), frozenset({0}), frozenset({3}), frozenset({0, 2})
    )


@settings(max_examples=200, deadline=None)
@given(multigraphs(max_n=8, max_edges=16))
def test_pair_deletion_table_agrees_with_nice_check(g):
    if g.n >= 2:
        # definitional: connected, and every edge index lies in some
        # enumerated perfect matching
        in_some = {i for m in perfect_matchings(g) for i in m.edge_indices}
        covered = is_connected(g) and bool(g.edges) and len(in_some) == len(g.edges)
        assert is_matching_covered(g) == covered
    table = pair_deletion_table(g)
    if not has_perfect_matching(g):
        assert table is None
        return
    assert len(table) == g.n
    assert all(u not in table[u] for u in range(g.n))
    for u, v in combinations(range(g.n), 2):
        expected = nice_check(g, (u, v))
        assert expected == _matchable_after_deleting(g, (u, v))
        assert (v in table[u]) == expected
        assert (u in table[v]) == expected


def _plain_deletion_sets(g):
    """The reference for ``_deletion_sets``: every vertex set S with
    |S| <= n/2, by size and then lexicographically, one odd-component count
    each, with no pruning."""
    bits = [1 << v for v in range(g.n)]
    tutte = True
    barrier_masks = []
    for size in range(g.n // 2 + 1):
        for subset in combinations(bits, size):
            mask = sum(subset)
            odd = _odd_component_count(g, mask)
            if odd > size:
                tutte = False
            elif odd == size and size:
                barrier_masks.append(mask)
    return tutte, tuple(barrier_masks)


def test_pruned_deletion_sweep_is_the_plain_sweep_on_corpus(corpus12):
    for entry in corpus12:
        g = Graph(entry.graph.n, entry.graph.edges)  # no memoised sweep
        assert _deletion_sets(g) == _plain_deletion_sets(g), entry.graph6


# The examples defeat two unsound bounds: in the multigraph a vertex with a
# doubled edge into S loses one neighbour, not two, so a lift that counts
# edges with multiplicity skips barriers; K33's colour classes lie below sets
# with d = -2, which a bound without the parity halving skips. K6 (lift 2),
# the wheel whose hub has seven spokes (lift 3) and two stars of five leaves
# (lift 2 at each centre) put lifts above 1 into the counts the bound is read
# from, which no cubic graph does; a bound that reads each positive lift as 1
# skips barriers of the stars.
@settings(max_examples=300, deadline=None)
@given(st.one_of(simple_graphs(max_n=10), multigraphs(max_n=9, max_edges=18)))
@example(Graph(6, [(0, 2), (0, 4), (1, 5), (2, 3), (2, 3), (4, 5), (4, 5)]))
@example(k33())
@example(Graph(6, list(combinations(range(6), 2))))
@example(Graph(8, [(0, v) for v in range(1, 8)] + [(v, v % 7 + 1) for v in range(1, 8)]))
@example(Graph(12, [(0, v) for v in range(1, 6)] + [(6, v) for v in range(7, 12)]))
def test_pruned_deletion_sweep_is_the_plain_sweep(g):
    # simple and multigraphs, disconnected ones and odd orders included
    assert _deletion_sets(g) == _plain_deletion_sets(g)


def test_pruned_deletion_sweep_counts_under_a_third_of_the_sets(monkeypatch, corpus12):
    counted = []
    count = matching_module._odd_component_count

    def recorded(g, removed):
        counted.append(removed)
        return count(g, removed)

    monkeypatch.setattr(matching_module, "_odd_component_count", recorded)
    visits = {}
    for order, graphs in ((10, 19), (12, 85)):
        hosts = [Graph(e.graph.n, e.graph.edges) for e in corpus12 if e.graph.n == order]
        assert len(hosts) == graphs
        before = len(counted)
        for g in hosts:
            _deletion_sets(g)
        visits[order] = len(counted) - before
    # one count per visited set: a bound that is loosened or tightened moves these
    assert visits == {10: 3821, 12: 48342}
    every_set = sum(comb(12, size) for size in range(7))
    assert every_set == 2510
    assert 3 * visits[12] < 85 * every_set


def test_deletion_queries_run_one_blossom_search_per_graph_and_mask(monkeypatch):
    searched = []
    search = matching_module._deletion_search

    def recorded(g, removed):
        searched.append(removed)
        return search(g, removed)

    monkeypatch.setattr(matching_module, "_deletion_search", recorded)
    g = h44()
    deleted = [(), (0, 1), (0, 1, 2, 3), (6, 7), (0, 1, 2)]
    masks = [sum(1 << v for v in w) for w in deleted]
    expected = [_matchable_after_deleting(g, w) for w in deleted]
    assert [_matchable_without(g, mask) for mask in masks] == expected
    assert [_matchable_without(g, mask) for mask in masks] == expected
    # one search per mask, and none for the odd remainder
    assert searched == masks[:4]


# Examples: an odd order; a disconnected graph whose components are odd; a
# spider with no perfect matching, which deleting two of vertex 0's leaves
# makes matchable; the prism, where every G - N[u] is perfectly matchable.
@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        simple_graphs(max_n=9),
        multigraphs(max_n=8, max_edges=16),
        cubic_multigraphs(max_n=10),
    ),
    st.lists(st.integers(min_value=0, max_value=(1 << 10) - 1), max_size=10),
)
@example(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]), [0b10110])
@example(Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), [0b1, 0b1001])
@example(Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)]), [0b110, 0b10010])
@example(triangular_prism(), [0b110000, 0b1111])
def test_warm_started_deletion_queries_agree_with_subgraph_enumeration(g, drawn):
    masks = {_vertex_mask(g, {u, *g.adjacency[u]}) for u in range(g.n)}
    ends = [1 << u | 1 << v for u, v in g.edges]
    masks |= {x | y for x, y in combinations(ends, 2) if not x & y}
    masks |= {mask & (1 << g.n) - 1 for mask in drawn}
    for mask in sorted(masks):
        w = [v for v in range(g.n) if mask >> v & 1]
        assert _matchable_without(g, mask) == _matchable_after_deleting(g, w), w


def _pairs_in_some_perfect_matching(g):
    return {pair for m in perfect_matchings(g) for pair in combinations(m.edge_indices, 2)}


def test_common_perfect_matching_agrees_with_enumeration_on_corpus(corpus12):
    for entry in corpus12:
        g = Graph(entry.graph.n, entry.graph.edges)  # nothing found yet
        expected = _pairs_in_some_perfect_matching(g)
        for i, j in combinations(range(len(g.edges)), 2):
            if not set(g.edges[i]) & set(g.edges[j]):
                assert _in_common_perfect_matching(g, i, j) == ((i, j) in expected), (
                    entry.graph6, i, j,
                )


@settings(max_examples=200, deadline=None)
@given(st.one_of(multigraphs(max_n=8, max_edges=16), cubic_multigraphs(max_n=10)))
def test_common_perfect_matching_agrees_with_enumeration_on_multigraphs(g):
    # a matching found through one parallel copy answers for the others too
    expected = _pairs_in_some_perfect_matching(g)
    for i, j in combinations(range(len(g.edges)), 2):
        assert _in_common_perfect_matching(g, i, j) == ((i, j) in expected)


def _heawood():
    # LCF notation [5, -5]^7: the 14-cycle with the chord from each even
    # vertex to the vertex five steps on
    cycle = [(v, (v + 1) % 14) for v in range(14)]
    return Graph(14, cycle + [(v, (v + 5) % 14) for v in range(0, 14, 2)])


def test_brace_test_on_the_heawood_graph_takes_a_quarter_of_the_searches(monkeypatch):
    searched = []
    search = matching_module._deletion_search

    def recorded(g, removed):
        searched.append(removed)
        return search(g, removed)

    monkeypatch.setattr(matching_module, "_deletion_search", recorded)
    g = _heawood()
    ends = [1 << u | 1 << v for u, v in g.edges]
    disjoint = sum(1 for x, y in combinations(ends, 2) if not x & y)
    assert (len(g.edges), disjoint) == (21, 168)
    flags = classify(g)
    assert flags.two_extendable and flags.brace
    # each question not answered by a stored matching costs one search
    assert 4 * len(searched) <= disjoint


def test_pickled_graph_carries_no_deletion_memo():
    g = h44()
    edge = g.edges[0]  # h44 is matching covered
    assert nice_check(g, edge)
    assert _matchable_without in g.__dict__
    clone = pickle.loads(pickle.dumps(g))
    assert clone == g and clone.__dict__ == {"n": g.n, "edges": g.edges}
    assert nice_check(clone, edge)
