"""Nice vertices and nice pairs in cubic graphs.

A vertex is nice when deleting its closed neighborhood leaves a perfectly
matchable graph, and that definition is the one path used here. The barrier
characterization (on 2-connected hosts a vertex fails to be nice exactly when
some barrier swallows its whole neighborhood) is checked against it by the
``barrier-criterion-equivalence`` suite.

In a cubic bipartite graph single vertices are never nice, so the unit of
interest becomes a cross pair (a, b): delete both closed neighborhoods, ask
for a perfect matching of the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import DomainError
from .graphs import Graph, VertexSet, _graph_fact, _vertex_mask, bipartition, is_connected
from .matching import _matchable_without


@dataclass(frozen=True)
class NiceReport:
    nice: VertexSet
    upsilon: int


@dataclass(frozen=True)
class NicePairMatrix:
    """Full cross relation of nice pairs in a cubic bipartite graph.

    ``matrix[i][j]`` tells whether (a_order[i], b_order[j]) is a nice pair.
    """

    a_order: tuple[int, ...]
    b_order: tuple[int, ...]
    matrix: tuple[tuple[bool, ...], ...]
    pair_count: int


@dataclass(frozen=True)
class NicePairSet:
    a_side: VertexSet
    b_side: VertexSet


def _closed_mask(g: Graph, u: int) -> int:
    """N[u] as an int bit mask; raises ValueError when u is not a vertex of g."""
    return _vertex_mask(g, (u,)) | g.neighbor_masks[u]


def is_nice_vertex(g: Graph, u: int) -> bool:
    return _matchable_without(g, _closed_mask(g, u))


@_graph_fact
def nice_vertices(g: Graph) -> NiceReport:
    """All nice vertices and their count: u is nice iff g minus N[u] has a
    perfect matching. Computed once per graph."""
    if not g.is_cubic:
        raise DomainError("nice vertices are defined for cubic graphs")
    nice = frozenset(u for u in range(g.n) if is_nice_vertex(g, u))
    return NiceReport(nice=nice, upsilon=len(nice))


def upsilon(g: Graph) -> int:
    return nice_vertices(g).upsilon


def is_nice_pair(g: Graph, a: int, b: int) -> bool:
    """Nice-pair test; neighborhood overlap (adjacent a, b) needs no special
    casing, the deletion set is a plain union."""
    return _matchable_without(
        g, _closed_mask(g, a) | _closed_mask(g, b)
    )


def _bipartite_sides(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if not g.is_cubic:
        raise DomainError("nice pairs are defined for cubic bipartite graphs")
    if not is_connected(g):
        raise DomainError("nice-pair analysis expects a connected host")
    parts = bipartition(g)
    if parts is None:
        raise DomainError("nice pairs are defined for bipartite graphs")
    return tuple(sorted(parts.a)), tuple(sorted(parts.b))


@_graph_fact
def nice_pair_matrix(g: Graph) -> NicePairMatrix:
    a_order, b_order = _bipartite_sides(g)
    matrix = tuple(
        tuple(is_nice_pair(g, a, b) for b in b_order) for a in a_order
    )
    return NicePairMatrix(
        a_order=a_order,
        b_order=b_order,
        matrix=matrix,
        pair_count=sum(sum(row) for row in matrix),
    )


def find_nice_pair_set(g: Graph, k: int) -> NicePairSet | None:
    """A k-by-k (or wider) all-true rectangle in the nice-pair relation.

    Exhaustive over k-subsets of the A side, intersecting row masks, so a
    None answer is a certificate of absence. The b_side returned is the full
    common intersection, possibly larger than k.
    """
    if k < 1:
        raise ValueError("rectangle size must be positive")
    rel = nice_pair_matrix(g)
    if len(rel.a_order) < k or len(rel.b_order) < k:
        return None
    row_masks = []
    for row in rel.matrix:
        mask = 0
        for j, hit in enumerate(row):
            if hit:
                mask |= 1 << j
        row_masks.append(mask)
    for rows in combinations(range(len(rel.a_order)), k):
        joint = row_masks[rows[0]]
        for r in rows[1:]:
            joint &= row_masks[r]
            if not joint:
                break
        if joint.bit_count() >= k:
            return NicePairSet(
                a_side=frozenset(rel.a_order[r] for r in rows),
                b_side=frozenset(
                    rel.b_order[j]
                    for j in range(len(rel.b_order))
                    if joint >> j & 1
                ),
            )
    return None


def nice_pair_sets_bounded(g: Graph, k: int = 3) -> bool:
    """True iff every nice pair set (A', B') has |A'| <= k and |B'| <= k.

    A side of a nice pair set can exceed k exactly when some row or column of
    the relation carries more than k true cells (pair sets with a singleton
    side are still pair sets), so the bound reduces to row and column sums.
    """
    rel = nice_pair_matrix(g)
    if any(sum(row) > k for row in rel.matrix):
        return False
    return all(
        sum(row[j] for row in rel.matrix) <= k for j in range(len(rel.b_order))
    )


def all_pairs_nice(g: Graph) -> bool:
    rel = nice_pair_matrix(g)
    return rel.pair_count == len(rel.a_order) * len(rel.b_order)
