"""Barriers, bicritical/brick/brace classification, tight cuts and their
contractions.

A barrier is a vertex set whose deletion leaves exactly as many odd
components as the set has vertices. Any two of its vertices u, v are a
blocked pair (G - u - v has no perfect matching), so barriers lie among
the sets of pairwise blocked vertices read off the graph's pair-deletion
table. A cubic matching covered host builds them from its maximal
barriers, the classes of blocked pairs, and the shores of its nontrivial
tight cuts. The table is memoised on the graph, and the
classification and the tight-cut domain check read the same one; the
barriers, the classification and the nontrivial tight cuts are memoised
too. Tightness of a cut means every perfect matching crosses it exactly
once; it is decided, without enumerating perfect matchings, by asking
whether two disjoint cut edges lie in one perfect matching
(``matching._in_common_perfect_matching``, which answers from the perfect
matchings it has found or by one deletion-set matching query), on the
cut's edge mask (``_is_tight``, which ``is_tight_cut`` wraps). The brace
test asks the same question of every two disjoint edges. The second
characterizations of these facts (the deletion-set sweep, perfect-matching
enumeration, the bipartite split criterion, the balanced four-deletion
brace test) live in the suites that check them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .errors import DomainError, NotTightCutError
from .graphs import (
    EdgeCut,
    Graph,
    VertexSet,
    Contraction,
    _graph_fact,
    _odd_component_count,
    _sides_crossed_once,
    _vertex_mask,
    connectivity_profile,
    contract,
    edge_cut,
    enumerate_cuts,
    is_connected,
)
from .matching import (
    PairDeletionTable,
    _in_common_perfect_matching,
    is_matching_covered,
    maximum_matching,
    pair_deletion_table,
)

_SUBSET_ENUMERATION_CAP = 20


@dataclass(frozen=True)
class Barrier:
    vertices: VertexSet
    nontrivial: bool
    minimal_nontrivial: bool


@dataclass(frozen=True)
class CutWitness:
    cut: EdgeCut
    tight: bool


@dataclass(frozen=True)
class Classification:
    matching_covered: bool
    bicritical: bool
    brick: bool
    two_extendable: bool
    brace: bool


def odd_component_count(g: Graph, s: Iterable[int]) -> int:
    """Number of odd components of G - S; raises ValueError when S is not a
    set of vertices of g."""
    return _odd_component_count(g, _vertex_mask(g, s))


def is_barrier(g: Graph, s: Iterable[int]) -> bool:
    """o(G - S) = |S|; raises ValueError when S is not a set of vertices of g."""
    vs = set(s)
    return odd_component_count(g, vs) == len(vs)


def barriers(g: Graph) -> list[Barrier]:
    """Every nonempty vertex set S with o(G - S) = |S|, sorted by size and
    then by vertices.

    The empty set formally qualifies whenever G has a perfect matching but is
    excluded here; callers care about vertices that barriers isolate.

    Call u != v a blocked pair when G - u - v has no perfect matching, that
    is when v is outside row u of the ``pair_deletion_table``. The members of
    a barrier S are pairwise blocked: deleting S - {u, v} from G - u - v
    leaves the |S| odd components of G - S, more than |S| - 2, so by Tutte's
    theorem G - u - v has no perfect matching. On a matching covered host
    blocking is Kotzig's equivalence, whose classes B0 = {u} + (V - u - row
    u) are the maximal barriers (Lovasz & Plummer, Matching Theory, 1986), so
    every barrier lies inside one class.

    A cubic matching covered host takes the shore route
    (``_cubic_barrier_masks``), which does mask work only for the barriers
    that exist. Every vertex is a barrier, because a matching covered graph
    is 2-connected. A barrier S of a matching covered host is independent
    and G - S has only odd components, so each perfect matching joins each
    member of S to its own component and the cut around each component is
    tight. A class B0 with k = |B0| >= 2 leaves k odd components K_j. Call a
    side Y of a nontrivial tight cut (either side) a candidate of B0 when Y
    meets B0, S_Y = B0 - Y is nonempty, o(G - S_Y) = |S_Y| and Y is a
    component of G - S_Y; the other components are then the K_j outside Y,
    so Y holds |Y & B0| + 1 of the K_j. The barriers inside B0 with two or
    more vertices are exactly the sets B0 - (union of F) for the families F
    of pairwise disjoint candidates that leave two or more vertices, F empty
    giving B0 itself:

    - Every such barrier is found. Take a barrier S inside B0 with |S| >= 2
      and a component D of G - S that meets B0. D's cut is tight; D has two
      or more vertices, since the neighbours of a vertex of D & B0 lie
      outside B0 and so in D; and its complement holds S. So D is a
      nontrivial tight-cut shore, on a cubic host a 3-cut in
      ``nontrivial_tight_cuts``. The one perfect matching edge leaving D
      starts in a K_j inside D and each vertex of D & B0 is matched into
      its own K_j inside D, so D holds |D & B0| + 1 of the K_j. Hence
      B0 - D is a barrier whose components are D and the K_j outside D: D
      is a candidate, and S = B0 - (union of the components of G - S that
      meet B0), one family for each S.
    - Every family gives a barrier. The boundary of a candidate Y lies in
      S_Y, inside B0, and B0 is independent, so disjoint candidates are not
      adjacent and a K_j outside Y has no neighbour in Y. The components of
      G - (B0 - union of F) are then the members of F and the K_j that no
      member holds: k - sum(|Y & B0| + 1) + |F| odd components, the size of
      the set.

    So one flood fill per side and class finds the candidates and a
    depth-first walk over them in index order emits one barrier per node.
    A brick has no class of two vertices: it gets its n singletons with no
    tight cut computed and no fill run. Other hosts keep the sweep over the
    sets of pairwise blocked vertices of size at most n/2, one component
    count each (``_pairwise_blocked_sets``): on a non-cubic host the tight
    cuts would cost a sweep over the n * 2^(n/2 - 2) sides that a perfect
    matching crosses once. Hosts that are not matching covered are capped
    at 20 vertices. Both routes list every barrier, so a nontrivial barrier
    is minimal iff no other listed nontrivial barrier is a proper subset of
    it. The barriers are built once per graph; every call returns a fresh
    list of the shared result.
    """
    return list(_barriers(g))


@_graph_fact
def _barriers(g: Graph) -> tuple[Barrier, ...]:
    table = pair_deletion_table(g)
    if table is None:
        raise DomainError("barriers are defined for graphs with a perfect matching")
    if g.is_cubic and g.n >= 2 and is_matching_covered(g):
        masks = _cubic_barrier_masks(g, table)
    else:
        if g.n > _SUBSET_ENUMERATION_CAP and not is_matching_covered(g):
            raise DomainError(
                f"barrier enumeration on a non matching covered host is capped "
                f"at {_SUBSET_ENUMERATION_CAP} vertices (got {g.n})"
            )
        masks = (
            mask
            for mask in _pairwise_blocked_sets(table, g.n // 2)
            if _odd_component_count(g, mask) == mask.bit_count()
        )
    found = sorted(
        (frozenset(v for v in range(g.n) if mask >> v & 1) for mask in masks),
        key=lambda s: (len(s), sorted(s)),
    )
    nontrivial_sets = [s for s in found if len(s) >= 2]
    return tuple(
        Barrier(
            vertices=s,
            nontrivial=len(s) >= 2,
            minimal_nontrivial=len(s) >= 2 and not any(sub < s for sub in nontrivial_sets),
        )
        for s in found
    )


def _cubic_barrier_masks(g: Graph, table: PairDeletionTable) -> list[int]:
    """Every barrier of a cubic matching covered host as a vertex mask, from
    its Kotzig classes and the shores of its nontrivial tight cuts (the
    argument is at ``barriers``)."""
    everything = (1 << g.n) - 1
    masks = [1 << v for v in range(g.n)]
    classes = {everything & ~_vertex_mask(g, row) for row in table}
    classes = [c for c in classes if c & c - 1]
    if not classes:
        return masks
    # each shore with the vertices outside it that have a neighbour in it,
    # the ends of the cut edges beyond it; a shore is connected, else the
    # vertex that the other shore shrinks to would cut the tight cut's
    # contraction, a matching covered graph on four or more vertices
    sides = []
    for w in nontrivial_tight_cuts(g):
        side = _vertex_mask(g, w.cut.side)
        ends = 0
        for i in w.cut.edge_indices:
            u, v = g.edges[i]
            ends |= 1 << u | 1 << v
        sides += [(side, ends & ~side), (everything & ~side, ends & side)]
    for b0 in classes:
        candidates = [
            y
            for y, boundary in sides
            if y & b0
            and b0 & ~y
            and not boundary & ~b0
            and _odd_component_count(g, b0 & ~y) == (b0 & ~y).bit_count()
        ]
        masks.extend(_minus_disjoint_families(b0, candidates))
    return masks


def _minus_disjoint_families(
    rest: int, candidates: list[int], covered: int = 0, start: int = 0
) -> Iterator[int]:
    """rest, then rest minus the union of each family of pairwise disjoint
    candidates from index start on, disjoint from covered too, that leaves
    two or more vertices: a depth-first walk, one mask per node."""
    yield rest
    for j in range(start, len(candidates)):
        y = candidates[j]
        left = rest & ~y
        if not y & covered and left & left - 1:
            yield from _minus_disjoint_families(left, candidates, covered | y, j + 1)


def _pairwise_blocked_sets(table: PairDeletionTable, max_size: int) -> Iterator[int]:
    """Every nonempty set of at most max_size pairwise blocked vertices, once,
    as an int bit mask grown in increasing vertex order."""
    n = len(table)
    later_blocked = [frozenset(range(u + 1, n)) - table[u] for u in range(n)]

    def grow(clique: int, size: int, extensions: VertexSet) -> Iterator[int]:
        yield clique
        if size < max_size:
            for v in extensions:
                yield from grow(clique | 1 << v, size + 1, extensions & later_blocked[v])

    for u in range(n):
        yield from grow(1 << u, 1, later_blocked[u])


@_graph_fact
def classify(g: Graph) -> Classification:
    """Matching covered / bicritical / brick / 2-extendable / brace flags.

    Matching covered and bicritical are read off the graph's
    ``pair_deletion_table``; a brace is a 2-extendable bipartite graph. The
    flags are computed once per graph.
    """
    profile = connectivity_profile(g)
    bicritical = _is_bicritical(g)
    two_extendable = _is_two_extendable(g)
    return Classification(
        matching_covered=g.n >= 2 and is_matching_covered(g),
        bicritical=bicritical,
        brick=bicritical and profile.three_connected,
        two_extendable=two_extendable,
        brace=two_extendable and profile.bipartition is not None,
    )


def _is_bicritical(g: Graph) -> bool:
    """Every pair deletion leaves a perfect matching (a table exists only for
    even order)."""
    table = pair_deletion_table(g)
    return bool(g.edges) and table is not None and all(
        len(row) == g.n - 1 for row in table
    )


def _is_two_extendable(g: Graph) -> bool:
    if g.n < 6 or pair_deletion_table(g) is None or not is_connected(g):
        return False
    ends = [1 << u | 1 << v for u, v in g.edges]
    return all(
        ends[i] & ends[j] or _in_common_perfect_matching(g, i, j)
        for i, j in combinations(range(len(ends)), 2)
    )


def is_tight_cut(g: Graph, cut: EdgeCut) -> CutWitness:
    """Tightness by two-edge perfect-matching questions (see ``_is_tight``)."""
    mask = sum(1 << i for i in cut.edge_indices)
    return CutWitness(cut=cut, tight=_is_tight(g, len(cut.side), mask))


def _is_tight(g: Graph, side_size: int, cut: int) -> bool:
    """Whether a side of ``side_size`` vertices whose cut is the edge mask
    ``cut`` (bit i for edge i) is tight, with no ``EdgeCut`` built.

    A perfect matching crosses a side an odd or even number of times as the
    side is odd or even, so an even side is never tight. An odd side is
    crossed three or more times by some perfect matching exactly when two
    vertex-disjoint cut edges lie in one perfect matching.
    """
    if pair_deletion_table(g) is None:
        raise DomainError("tightness is defined over hosts with perfect matchings")
    if side_size % 2 == 0:
        return False
    earlier = []  # each cut edge taken so far, with its ends as a vertex mask
    while cut:
        low = cut & -cut
        i = low.bit_length() - 1
        u, v = g.edges[i]
        x = 1 << u | 1 << v
        for j, y in earlier:
            if not x & y and _in_common_perfect_matching(g, j, i):
                return False
        earlier.append((i, x))
        cut ^= low
    return True


def nontrivial_tight_cuts(g: Graph) -> list[CutWitness]:
    """All nontrivial tight cuts.

    Cubic hosts only need 3-edge candidates (every tight cut of a cubic
    matching covered graph is a 3-cut). Other hosts, up to 20 vertices, sweep
    the sides that the host matching crosses once: it is perfect, and every
    perfect matching crosses a tight cut once, so no tight side is skipped
    (n * 2^(n/2 - 2) sides against 2^(n - 1), in the same order). The sweep
    runs once per graph; every call returns a fresh list of the shared
    result.
    """
    return list(_nontrivial_tight_cuts(g))


@_graph_fact
def _nontrivial_tight_cuts(g: Graph) -> tuple[CutWitness, ...]:
    if g.n < 2 or not is_matching_covered(g):
        raise DomainError("tight cuts are defined for matching covered hosts")
    if g.is_cubic:
        candidates = enumerate_cuts(g, 3)
    else:
        if g.n > _SUBSET_ENUMERATION_CAP:
            raise DomainError("general tight-cut sweep capped at desk scale")
        host = sum(1 << i for i in maximum_matching(g).edge_indices)
        sides = (edge_cut(g, side) for side, _ in _sides_crossed_once(g, host))
        candidates = [cut for cut in sides if cut.nontrivial]
    witnesses = [is_tight_cut(g, cut) for cut in candidates]
    return tuple(w for w in witnesses if w.tight)


def tight_cut_contractions(g: Graph, witness: CutWitness) -> tuple[Contraction, Contraction]:
    """The two contractions of a tight cut: (shrink the complement, shrink the
    side). Labels map back to the host through each Contraction record."""
    if not witness.tight:
        raise NotTightCutError("refusing to contract across a cut that is not tight")
    side = set(witness.cut.side)
    complement = set(range(g.n)) - side
    return contract(g, complement), contract(g, side)
