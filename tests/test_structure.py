import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nicecubic import graphs, structure
from nicecubic.analyze import analyze_graph
from nicecubic.catalog import k4, k33, k33_triangle, triangular_prism
from nicecubic.errors import DomainError, NotTightCutError
from nicecubic.families import HdiamondSpec, build_hdiamond
from nicecubic.graph6 import parse_graph6, write_graph6
from nicecubic.graphs import (
    Graph,
    _cut_masks,
    _vertex_mask,
    bipartition,
    connected_components,
    connectivity_profile,
    edge_cut,
    induced_subgraph,
)
from nicecubic.isomorphism import is_isomorphic
from nicecubic.matching import (
    has_perfect_matching,
    is_matching_covered,
    pair_deletion_table,
    perfect_matchings,
)
from nicecubic.structure import (
    barriers,
    classify,
    is_barrier,
    is_tight_cut,
    nontrivial_tight_cuts,
    odd_component_count,
    tight_cut_contractions,
)
from nicecubic.suites import (
    _perfect_matching_masks,
    bipartite_split,
    exhaustive_barrier_sets,
    is_minimal_nontrivial_barrier,
    tight_by_bipartite_split,
    tight_by_enumeration,
)

from .strategies import cubic_multigraphs, multigraphs, simple_graphs
from .test_nice import _bridged_cubic


def test_odd_component_count_basics():
    assert odd_component_count(k4(), set()) == 0
    assert odd_component_count(Graph(2, [(0, 1)]), {0}) == 1
    # deleting the independent barrier leaves the triangle plus two singletons
    assert odd_component_count(k33_triangle(), {2, 3, 4}) == 3


@pytest.mark.parametrize(
    "g, s", [(Graph(1), {5}), (Graph(3, [(0, 1), (1, 2)]), {-4}), (k4(), [0, 4])]
)
def test_vertex_sets_outside_the_graph_are_rejected(g, s):
    # a phantom vertex counted in |S| but absent from G - S made these barriers
    with pytest.raises(ValueError, match="vertex set not contained in graph"):
        is_barrier(g, s)
    with pytest.raises(ValueError, match="vertex set not contained in graph"):
        odd_component_count(g, s)


def test_barriers_k4_only_singletons():
    found = barriers(k4())
    assert [sorted(b.vertices) for b in found] == [[0], [1], [2], [3]]
    assert not any(b.nontrivial for b in found)


def test_barriers_k33_color_classes():
    nontrivial = [b for b in barriers(k33()) if b.nontrivial]
    assert [sorted(b.vertices) for b in nontrivial] == [[0, 1, 2], [3, 4, 5]]
    assert all(b.minimal_nontrivial for b in nontrivial)


def test_barriers_k33_triangle_minimal():
    minimal = [b for b in barriers(k33_triangle()) if b.minimal_nontrivial]
    assert [sorted(b.vertices) for b in minimal] == [[2, 3, 4]]


def test_minimal_flags_match_subset_sweep_on_bridged_cubic():
    g = _bridged_cubic()
    assert not is_matching_covered(g)
    items = barriers(g)
    assert {b.minimal_nontrivial for b in items if b.nontrivial} == {True, False}
    for b in items:
        assert b.minimal_nontrivial == is_minimal_nontrivial_barrier(g, b.vertices)


def test_barriers_require_perfect_matching():
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    with pytest.raises(DomainError):
        barriers(c5)


def _count_calls(monkeypatch, module, name):
    calls = []
    wrapped = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return wrapped(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_barrier_sweep_runs_once_per_graph(monkeypatch):
    # analyze_graph reads the barriers of a 3-connected non-bipartite host
    # itself and again through the G1/G2 recognizer. This host is cubic and
    # matching covered, so they are built once from its tight-cut shores.
    shore_builds = _count_calls(monkeypatch, structure, "_cubic_barrier_masks")
    walks = _count_calls(monkeypatch, structure, "_pairwise_blocked_sets")
    g = parse_graph6("I?DjcQPw?")
    analyze_graph(g)
    assert len(shore_builds) == 1 and not walks
    first, second = barriers(g), barriers(g)
    assert first == second
    assert first is not second
    assert len(shore_builds) == 1 and not walks
    # a host that is not matching covered keeps the walk, once
    bridged = _bridged_cubic()
    assert not is_matching_covered(bridged)
    analyze_graph(bridged)
    assert barriers(bridged) == barriers(bridged)
    assert len(walks) == 1 and len(shore_builds) == 1


def _random_brick(n, seed):
    """The first pairing-model draw of order n, under a seeded generator,
    that is a simple brick."""
    rng = random.Random(seed)
    while True:
        points = list(range(3 * n))
        rng.shuffle(points)
        pairs = {tuple(sorted((points[i] // 3, points[i + 1] // 3))) for i in range(0, 3 * n, 2)}
        if len(pairs) == 3 * n // 2 and all(u != v for u, v in pairs):
            g = Graph(n, pairs)
            if classify(g).brick:
                return g


@pytest.mark.parametrize(
    "build",
    [k4, lambda: parse_graph6("IheA@GUAo"), lambda: _random_brick(20, 1)],
    ids=["K4", "Petersen", "random-n20"],
)
def test_brick_barriers_are_singletons_without_cuts_or_fills(monkeypatch, build):
    g = build()
    assert classify(g).brick
    cut_sweeps = _count_calls(monkeypatch, structure, "nontrivial_tight_cuts")
    fills = _count_calls(monkeypatch, structure, "_odd_component_count")
    found = barriers(g)
    assert [b.vertices for b in found] == [frozenset({v}) for v in range(g.n)]
    assert not any(b.nontrivial or b.minimal_nontrivial for b in found)
    assert not cut_sweeps and not fills


def test_classify_k4_is_brick():
    flags = classify(k4())
    assert flags.matching_covered and flags.bicritical and flags.brick
    assert not flags.brace


def test_classify_k33_is_brace():
    flags = classify(k33())
    assert flags.matching_covered and flags.two_extendable and flags.brace
    assert not flags.bicritical and not flags.brick


def test_classify_k33_triangle():
    flags = classify(k33_triangle())
    assert flags.matching_covered
    assert not flags.bicritical and not flags.brick and not flags.brace


def test_classify_prism_is_brick():
    flags = classify(triangular_prism())
    assert flags.brick


def test_trivial_cuts_are_tight():
    for g in (k4(), k33(), k33_triangle(), triangular_prism()):
        for v in range(g.n):
            assert is_tight_cut(g, edge_cut(g, {v})).tight


def test_prism_rung_cut_is_not_tight():
    # Cut separating the two triangles: one perfect matching uses all rungs.
    witness = is_tight_cut(triangular_prism(), edge_cut(triangular_prism(), {0, 1, 2}))
    assert not witness.tight


def test_k33_triangle_cut_is_tight_with_contractions():
    g = k33_triangle()
    witness = is_tight_cut(g, edge_cut(g, {5, 6, 7}))
    assert witness.tight
    shrink_complement, shrink_side = tight_cut_contractions(g, witness)
    assert is_isomorphic(shrink_complement.graph, k4()) is not None
    assert is_isomorphic(shrink_side.graph, k33()) is not None


def test_bipartite_split_populated():
    g = k33()
    cut = edge_cut(g, {0})
    assert is_tight_cut(g, cut).tight
    color = _vertex_mask(g, bipartition(g).a)
    x_plus, x_minus = bipartite_split(1 << 0, color)
    assert x_plus == 1 << 0
    assert x_minus == 0
    assert tight_by_bipartite_split(g, 1 << 0, color)


def _tight_by_split_on_sets(g, side, parts):
    """The split criterion on frozensets, as first written: the side is
    odd, |X+| = |X-| + 1, and no edge joins X- to the smaller color class
    of the complement."""
    if len(side) % 2 == 0:
        return False
    inside_a, inside_b = side & parts.a, side & parts.b
    x_plus, x_minus = (
        (inside_a, inside_b) if len(inside_a) > len(inside_b) else (inside_b, inside_a)
    )
    complement = frozenset(range(g.n)) - side
    co_a, co_b = complement & parts.a, complement & parts.b
    co_minus = co_a if len(co_a) < len(co_b) else co_b
    return len(x_plus) == len(x_minus) + 1 and not any(
        (u in x_minus and v in co_minus) or (v in x_minus and u in co_minus)
        for u, v in g.edges
    )


def test_mask_split_criterion_is_the_set_definition_on_bipartite_corpus(corpus12):
    # every nonempty proper side, not only those holding vertex 0
    hosts = [e.graph for e in corpus12 if bipartition(e.graph) is not None]
    assert len(hosts) == 9
    tight_sides = 0
    for g in hosts:
        parts = bipartition(g)
        color = _vertex_mask(g, parts.a)
        for side in range(1, (1 << g.n) - 1):
            vertices = frozenset(v for v in range(g.n) if side >> v & 1)
            expected = _tight_by_split_on_sets(g, vertices, parts)
            assert tight_by_bipartite_split(g, side, color) == expected, (g.edges, side)
            tight_sides += expected
    assert tight_sides


def test_tightness_agrees_with_enumeration_on_corpus(corpus10):
    tight_count = 0
    for entry in corpus10:
        g = entry.graph
        pms = _perfect_matching_masks(g)
        if not pms:
            continue
        for side, mask in _cut_masks(g):
            tight = is_tight_cut(g, edge_cut(g, side)).tight
            enumerated = tight_by_enumeration(mask, pms)
            assert tight == enumerated, (entry.graph6, side)
            tight_count += tight
    assert tight_count


@st.composite
def perfectly_matchable_multigraphs(draw, min_n=2, max_n=8):
    """A random multigraph on an even number of vertices laid over a random
    perfect matching: parallel edges and disconnected hosts included."""
    n = draw(st.sampled_from(range(min_n, max_n + 1, 2)))
    order = draw(st.permutations(range(n)))
    edges = [tuple(order[i : i + 2]) for i in range(0, n, 2)]
    edges += draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), max_size=2 * n))
    return Graph(n, edges)


@settings(max_examples=200, deadline=None)
@given(perfectly_matchable_multigraphs())
def test_tightness_agrees_with_enumeration_on_multigraphs(g):
    assert has_perfect_matching(g)
    pms = _perfect_matching_masks(g)
    for side, mask in _cut_masks(g):
        enumerated = tight_by_enumeration(mask, pms)
        assert is_tight_cut(g, edge_cut(g, side)).tight == enumerated, side


def test_nontrivial_tight_cuts_bricks_and_braces_are_free():
    assert nontrivial_tight_cuts(k4()) == []
    assert nontrivial_tight_cuts(k33()) == []
    assert nontrivial_tight_cuts(triangular_prism()) == []


def test_nontrivial_tight_cuts_k33_triangle():
    g = k33_triangle()
    found = nontrivial_tight_cuts(g)
    assert [sorted(w.cut.side) for w in found] == [[0, 1, 2, 3, 4]]
    # the sweep is memoised; each call hands out a list of its own
    again = nontrivial_tight_cuts(g)
    assert again == found and again is not found


def test_trivial_cut_contraction_shapes():
    g = k4()
    witness = is_tight_cut(g, edge_cut(g, {0}))
    shrink_complement, shrink_side = tight_cut_contractions(g, witness)
    assert shrink_complement.graph == Graph(2, [(0, 1)] * 3)
    assert is_isomorphic(shrink_side.graph, k4()) is not None


def test_is_tight_cut_rejects_host_without_perfect_matching():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    cut = edge_cut(star, {1})
    with pytest.raises(DomainError):
        is_tight_cut(star, cut)  # the first call builds the table
    assert pair_deletion_table(star) is None
    with pytest.raises(DomainError):
        is_tight_cut(star, cut)  # later calls read it


def test_untight_contraction_rejected():
    g = triangular_prism()
    witness = is_tight_cut(g, edge_cut(g, {0, 1, 2}))
    with pytest.raises(NotTightCutError):
        tight_cut_contractions(g, witness)


def test_contractions_of_tight_cuts_are_matching_covered():
    g = k33_triangle()
    for witness in nontrivial_tight_cuts(g):
        for side in tight_cut_contractions(g, witness):
            from nicecubic.matching import is_matching_covered

            assert is_matching_covered(side.graph)


def test_nontrivial_tight_cuts_on_non_cubic_host():
    # exercises the general sweep: six-cycles carry nontrivial tight cuts
    c6 = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    found = nontrivial_tight_cuts(c6)
    assert found
    for witness in found:
        assert len(witness.cut.side) % 2 == 1
        assert len(witness.cut.edge_indices) == 2


def test_tight_cut_sweep_on_a_non_cubic_host_is_capped_above_24_vertices():
    # the cap is analyze's size cap; the 26-cycle is matching covered, so
    # only the cap refuses it
    c26 = Graph(26, [(i, (i + 1) % 26) for i in range(26)])
    assert is_matching_covered(c26)
    with pytest.raises(DomainError, match="capped at 24"):
        nontrivial_tight_cuts(c26)


@settings(max_examples=150, deadline=None)
@given(multigraphs(max_n=8, max_edges=16))
def test_bicritical_flag_matches_all_pairs_definition(g):
    def matchable(vertices):
        return bool(perfect_matchings(induced_subgraph(g, vertices).graph))

    everyone = set(range(g.n))
    bicritical = (
        bool(g.edges)
        and g.n % 2 == 0
        and all(matchable(everyone - set(pair)) for pair in combinations(everyone, 2))
    )
    assert classify(g).bicritical == bicritical


@st.composite
def matching_covered_multigraphs(draw, max_n=10):
    """The edges of a random multigraph that lie in some perfect matching,
    restricted to the component of vertex 0: a matching covered graph
    (dropping edges in no perfect matching keeps every perfect matching)."""
    g = draw(perfectly_matchable_multigraphs(min_n=4, max_n=max_n))
    allowed = {i for m in perfect_matchings(g) for i in m.edge_indices}
    g = Graph(g.n, [g.edges[i] for i in sorted(allowed)])
    return induced_subgraph(g, connected_components(g)[0]).graph


def _tight_cuts_by_definition(g):
    """Every nontrivial side of the full walk, in its order, that every
    perfect matching crosses once, with its cut's edge mask."""
    pms = _perfect_matching_masks(g)
    return [
        (side, cut)
        for side, cut in _cut_masks(g)
        if 1 < len(side) < g.n - 1 and tight_by_enumeration(cut, pms)
    ]


def _assert_tight_cuts_match_the_definition(g):
    found = [
        (tuple(sorted(w.cut.side)), sum(1 << i for i in w.cut.edge_indices))
        for w in nontrivial_tight_cuts(g)
    ]
    assert found == _tight_cuts_by_definition(g)


def _cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


@pytest.mark.parametrize("n", range(4, 21, 2))
def test_non_cubic_tight_cuts_are_the_definition_on_even_cycles(n):
    _assert_tight_cuts_match_the_definition(_cycle(n))


@pytest.mark.parametrize("quads", range(1, 8))
def test_non_cubic_tight_cuts_are_the_definition_on_chain_blocks(quads):
    block, _ = build_hdiamond(HdiamondSpec(quads, write_graph6(k33()), (0, 3)))
    assert not block.is_cubic and block.n == 6 + 2 * quads
    _assert_tight_cuts_match_the_definition(block)


@settings(max_examples=100, deadline=None)
@given(matching_covered_multigraphs(max_n=12))
def test_non_cubic_tight_cuts_are_the_definition_on_multigraphs(g):
    assume(not g.is_cubic)
    _assert_tight_cuts_match_the_definition(g)


def test_non_cubic_tight_cuts_skip_the_full_cut_walk(monkeypatch):
    # the general sweep reads only the sides the host matching crosses once
    def refused(g):
        raise AssertionError("the full cut walk is not for the library")

    monkeypatch.setattr(graphs, "_cut_masks", refused)
    assert len(nontrivial_tight_cuts(_cycle(20))) == 80


def _assert_barriers_match_exhaustive_sweep(g):
    found = [b.vertices for b in barriers(g)]
    exhaustive = exhaustive_barrier_sets(g)
    assert sorted(found, key=lambda s: (len(s), sorted(s))) == found
    assert set(found) == set(exhaustive) and len(found) == len(exhaustive)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        matching_covered_multigraphs(),
        perfectly_matchable_multigraphs(max_n=12),
    )
)
def test_barrier_partition_route_matches_exhaustive_sweep(g):
    assume(not g.is_cubic)
    _assert_barriers_match_exhaustive_sweep(g)


@settings(max_examples=250, deadline=None)
@given(cubic_multigraphs(max_n=14))
def test_shore_route_matches_exhaustive_sweep_on_cubic_multigraphs(g):
    # parallel edges included; the corpus test below covers simple hosts
    assume(is_matching_covered(g))
    found = barriers(g)
    assert [b.vertices for b in found] == exhaustive_barrier_sets(g)
    for b in found:
        assert b.minimal_nontrivial == is_minimal_nontrivial_barrier(g, b.vertices)


@settings(max_examples=200, deadline=None)
@given(st.one_of(simple_graphs(max_n=9), multigraphs()))
def test_exhaustive_barrier_sets_are_the_definition(g):
    # counted by connected_components, not by the mask flood fill the sweep uses
    expected = [
        frozenset(s)
        for size in range(1, g.n // 2 + 1)
        for s in combinations(range(g.n), size)
        if sum(len(comp) % 2 for comp in connected_components(g, s)) == size
    ]
    assert exhaustive_barrier_sets(g) == expected


def test_barriers_match_exhaustive_sweep_on_corpus_hosts_not_matching_covered(corpus12):
    checked = 0
    for entry in corpus12:
        if not is_matching_covered(entry.graph):
            _assert_barriers_match_exhaustive_sweep(entry.graph)
            checked += 1
    assert checked


def test_maximal_barrier_classes_on_corpus(corpus12):
    seen_brick = seen_bipartite = False
    for entry in corpus12:
        g = entry.graph
        if not is_matching_covered(g):
            continue
        table = pair_deletion_table(g)
        classes = {
            frozenset({u} | (set(range(g.n)) - {u} - table[u])) for u in range(g.n)
        }
        assert sum(len(c) for c in classes) == g.n, entry.graph6
        assert frozenset().union(*classes) == frozenset(range(g.n))
        found = [b.vertices for b in barriers(g)]
        maximal = {s for s in found if not any(s < t for t in found)}
        assert maximal == classes, entry.graph6
        parts = connectivity_profile(g).bipartition
        if parts is not None:
            seen_bipartite = True
            assert classes == {parts.a, parts.b}, entry.graph6
        if classify(g).brick:
            seen_brick = True
            assert all(len(c) == 1 for c in classes), entry.graph6
    assert seen_brick and seen_bipartite
