import hashlib
import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicecubic.catalog import h44, k4, k33, k33_triangle, r8, triangular_prism
from nicecubic.enumeration import _labeled_connected_cubic
from nicecubic.graphs import Graph
from nicecubic.isomorphism import (
    _distance_profiles,
    _refine,
    _unit_partition,
    canonical_graph,
    canonical_labeling,
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


def test_canonical_graph_is_isomorphic_to_input():
    for g in (k4(), k33(), k33_triangle(), r8(), h44()):
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
