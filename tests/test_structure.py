import pytest

from nicecubic.catalog import k4, k33, k33_triangle, triangular_prism
from nicecubic.errors import DomainError, NotTightCutError
from nicecubic.graphs import Graph, edge_cut
from nicecubic.isomorphism import is_isomorphic
from nicecubic.matching import is_matching_covered
from nicecubic.structure import (
    barriers,
    classify,
    is_tight_cut,
    nontrivial_tight_cuts,
    odd_component_count,
    tight_cut_contractions,
)
from nicecubic.suites import is_minimal_nontrivial_barrier

from .test_nice import _bridged_cubic


def test_odd_component_count_basics():
    assert odd_component_count(k4(), set()) == 0
    assert odd_component_count(Graph(2, [(0, 1)]), {0}) == 1
    # deleting the independent barrier leaves the triangle plus two singletons
    assert odd_component_count(k33_triangle(), {2, 3, 4}) == 3


def test_barriers_k4_only_singletons():
    found = barriers(k4())
    assert [sorted(b.vertices) for b in found] == [[0], [1], [2], [3]]
    assert not any(b.nontrivial for b in found)


def test_barriers_k33_color_classes():
    nontrivial = barriers(k33(), mode="nontrivial")
    assert [sorted(b.vertices) for b in nontrivial] == [[0, 1, 2], [3, 4, 5]]
    assert all(b.minimal_nontrivial for b in nontrivial)


def test_barriers_k33_triangle_minimal():
    minimal = barriers(k33_triangle(), mode="minimal_nontrivial")
    assert [sorted(b.vertices) for b in minimal] == [[2, 3, 4]]


def test_minimal_flags_match_subset_sweep_on_bridged_cubic():
    # not matching covered, so barriers() takes the exhaustive branch
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


def test_barriers_mode_validation():
    with pytest.raises(ValueError):
        barriers(k4(), mode="bogus")


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
    witness = is_tight_cut(g, edge_cut(g, {0}))
    assert witness.tight
    assert witness.bipartite_split is not None
    assert len(witness.bipartite_split.x_plus) == 1
    assert len(witness.bipartite_split.x_minus) == 0


def test_nontrivial_tight_cuts_bricks_and_braces_are_free():
    assert nontrivial_tight_cuts(k4()) == []
    assert nontrivial_tight_cuts(k33()) == []
    assert nontrivial_tight_cuts(triangular_prism()) == []


def test_nontrivial_tight_cuts_k33_triangle():
    found = nontrivial_tight_cuts(k33_triangle())
    assert [sorted(w.cut.side) for w in found] == [[0, 1, 2, 3, 4]]


def test_trivial_cut_contraction_shapes():
    g = k4()
    witness = is_tight_cut(g, edge_cut(g, {0}))
    shrink_complement, shrink_side = tight_cut_contractions(g, witness)
    assert shrink_complement.graph == Graph(2, [(0, 1)] * 3)
    assert is_isomorphic(shrink_side.graph, k4()) is not None


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
