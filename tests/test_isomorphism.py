import hashlib
import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nicecubic.catalog import h44, k4, k33, k33_triangle, r8, triangular_prism
from nicecubic.enumeration import enumerate_cubic
from nicecubic.graph6 import parse_graph6
from nicecubic.graphs import Graph
from nicecubic.isomorphism import (
    _distance_profiles,
    _refine,
    _search_order,
    _unit_partition,
    canonical_graph,
    canonical_labeling,
    is_isomorphic,
    is_isomorphism,
    refined_colors,
)

from .strategies import multigraphs, simple_graphs
from .test_enumeration import _labeled_connected_cubic


def _relabel(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_identity_witness():
    mapping = is_isomorphic(k4(), k4())
    assert mapping is not None
    assert is_isomorphism(k4(), k4(), mapping)


@pytest.mark.parametrize(
    "mapping",
    [
        {0: 0, 1: 1, 2: 2, 7: 3},
        {0: 0, 1: 1, 2: 2, 3: "x"},
        {0: 0, 1: 1, 2: 2, 3: None},
        {0: 0, 1: 1, 2: 2, 3: [3]},
        {0: 0, 1: 1, 2: 2, 3: 2},
        {0: 0, 1: 1, 2: 2},
    ],
)
def test_malformed_mapping_is_no_isomorphism(mapping):
    assert not is_isomorphism(k4(), k4(), mapping)


def test_bipartite_vs_nonbipartite_rejected():
    assert is_isomorphic(k33(), triangular_prism()) is None
    # a triangle plus an edge against the five-vertex path: same order, size
    # and degrees, told apart by the refined colours
    assert is_isomorphic(parse_graph6("DwC"), parse_graph6("DqG")) is None


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
def test_sorted_distance_profiles_are_relabeling_invariant(g, rnd):
    # the enumeration dedup's bucket key
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert sorted(_distance_profiles(g)) == sorted(_distance_profiles(_relabel(g, perm)))


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


def _colors_by_full_refinement(g):
    """refined_colors without its shortcut: refine the unit partition."""
    if g.n == 0:
        return ()
    lab, cell_at, size = _unit_partition(g.n)
    _refine(g, lab, cell_at, size, [0])
    index = {start: i for i, start in enumerate(sorted(set(cell_at)))}
    return tuple(index[cell_at[v]] for v in range(g.n))


@pytest.mark.parametrize(
    "g",
    [
        Graph(2, [(0, 1)] * 3),  # the theta graph
        Graph(4, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (2, 3), (0, 3), (0, 3)]),
        Graph(0),
        Graph(1),
        Graph(3),
        k4(),
        r8(),
    ],
)
def test_regular_graphs_keep_the_unit_partition(g):
    assert len(set(g.degrees)) <= 1
    assert refined_colors(g) == _colors_by_full_refinement(g) == (0,) * g.n


def test_irregular_graph_still_splits():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    colors = refined_colors(g)
    assert colors == _colors_by_full_refinement(g)
    assert len(set(colors)) == 3


@settings(max_examples=80)
@given(multigraphs(max_n=7))
def test_refined_colors_match_full_refinement(g):
    assert refined_colors(g) == _colors_by_full_refinement(g)


def _greedy_search_order(g):
    """The search order by its definition: each step takes, among the
    unplaced vertices, the least (-distinct placed neighbours, class size,
    vertex)."""
    colors = refined_colors(g)
    remaining, placed, order = set(range(g.n)), set(), []
    while remaining:
        v = min(
            remaining,
            key=lambda v: (-len(g.neighbor_sets[v] & placed), colors.count(colors[v]), v),
        )
        order.append((v, tuple(u for u in g.adjacency[v] if u in placed)))
        placed.add(v)
        remaining.remove(v)
    return tuple(order)


def test_search_order_matches_the_greedy_definition_on_corpus(corpus12):
    for entry in corpus12:
        assert _search_order(entry.graph) == _greedy_search_order(entry.graph), entry.graph6


@settings(max_examples=150)
@given(multigraphs(max_n=9, max_edges=20))
def test_search_order_matches_the_greedy_definition(g):
    # irregular graphs, whose refinement splits the vertices into classes
    assume(len(set(g.degrees)) > 1)
    assert _search_order(g) == _greedy_search_order(g)


def test_canonical_graph_is_isomorphic_to_input():
    for g in (Graph(0), k4(), k33(), k33_triangle(), r8(), h44()):
        canon = canonical_graph(g)
        assert is_isomorphic(canon, g) is not None


# Identity pins. The labeller's permutations are the corpus ids and
# is_isomorphic's mappings are the catalog_map witnesses, so a faster search
# must return exactly what the plain search returned: these sha256s were
# computed before either search was pruned.
LABELING_SHA256 = "1f950fcd9d62dcda76edb0695214742c7bb2ef96b8fdd826e726a22c068b2804"
MAPPING_SHA256 = "2181085745dad47d45965d68343a450a0bd0f7d30e325e80b7e827ea67f933bb"


def _labeled_candidates():
    return [
        Graph(n, edges) for n in (4, 6, 8, 10) for edges in _labeled_connected_cubic(n)
    ]


def _random_multigraph(rnd, max_n=10):
    n = rnd.randrange(1, max_n + 1)
    if n < 2:
        return Graph(n, [])
    edges = []
    for _ in range(rnd.randrange(2 * n + 1)):
        u = rnd.randrange(n)
        v = rnd.randrange(n - 1)
        edges.append((u, v + (v >= u)))
    return Graph(n, edges)


def _digest(lines):
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def test_canonical_labelings_are_pinned():
    rnd = random.Random(20261018)
    graphs = _labeled_candidates() + [_random_multigraph(rnd) for _ in range(2000)]
    assert _digest(" ".join(map(str, canonical_labeling(g))) for g in graphs) == LABELING_SHA256


def test_isomorphism_mappings_are_pinned():
    rnd = random.Random(20261019)
    pairs = []
    candidates = _labeled_candidates()
    for a, b in zip(candidates, candidates[1:]):
        pairs += [(a, b), (b, a)]
    for g in candidates + [_random_multigraph(rnd) for _ in range(2000)]:
        perm = list(range(g.n))
        rnd.shuffle(perm)
        pairs.append((g, _relabel(g, perm)))
    for _ in range(1000):
        pairs.append((_random_multigraph(rnd, 6), _random_multigraph(rnd, 6)))

    def line(mapping):
        return "None" if mapping is None else " ".join(str(mapping[v]) for v in sorted(mapping))

    assert _digest(line(is_isomorphic(a, b)) for a, b in pairs) == MAPPING_SHA256


def _plain_canonical_labeling(g):
    """The reference search: canonical_labeling without any pruning, every
    child of every node searched and the first least leaf kept."""
    n = g.n
    if n == 0:
        return ()
    best = None

    def search(lab, cell_at, size):
        nonlocal best
        target = 0
        while target < n and size[target] == 1:
            target += 1
        if target == n:
            perm = [0] * n
            for new, v in enumerate(lab):
                perm[v] = new
            key = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges)
            if best is None or key < best[0]:
                best = (key, tuple(perm))
            return
        end = target + size[target]
        for v in sorted(lab[target:end]):
            child_lab, child_cell_at, child_size = lab[:], cell_at[:], size[:]
            child_lab[target:end] = [v] + [u for u in lab[target:end] if u != v]
            child_size[target], child_size[target + 1] = 1, size[target] - 1
            for u in child_lab[target + 1:end]:
                child_cell_at[u] = target + 1
            _refine(g, child_lab, child_cell_at, child_size, {child_cell_at[u] for u in g.adjacency[v]})
            search(child_lab, child_cell_at, child_size)

    lab, cell_at, size = _unit_partition(n)
    _refine(g, lab, cell_at, size, [0])
    search(lab, cell_at, size)
    return best[1]


THETA = Graph(2, [(0, 1)] * 3)
K4_DOUBLED_EDGE = Graph(4, k4().edges + ((0, 1),))


@pytest.fixture(scope="module")
def cubic_graphs10(cache_dir):
    """Every connected and every cubic graph with n <= 10, one per class."""
    graphs = {
        e.graph
        for n in (4, 6, 8, 10)
        for connected_only in (True, False)
        for e in enumerate_cubic(n, connected_only=connected_only, cache_dir=cache_dir)
    }
    return sorted(graphs, key=lambda g: (g.n, g.edges))


def test_orbit_pruning_keeps_the_plain_labeling_on_the_corpus(cubic_graphs10):
    assert len(cubic_graphs10) == 30  # 27 connected, 3 disconnected
    for g in cubic_graphs10:
        assert canonical_labeling(g) == _plain_canonical_labeling(g)


@pytest.mark.parametrize("g", [THETA, k33(), K4_DOUBLED_EDGE])
def test_orbit_pruning_keeps_the_plain_labeling_under_relabeling(g):
    rnd = random.Random(g.n)
    for _ in range(40):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        h = _relabel(g, perm)
        assert canonical_labeling(h) == _plain_canonical_labeling(h)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_orbit_pruning_keeps_the_plain_labeling(cubic_graphs10, data):
    specials = st.sampled_from([THETA, k33(), K4_DOUBLED_EDGE])
    g = data.draw(st.one_of(specials, st.sampled_from(cubic_graphs10), multigraphs(max_n=7)))
    h = _relabel(g, data.draw(st.permutations(range(g.n))))
    assert canonical_labeling(h) == _plain_canonical_labeling(h)
