"""Barriers, bicritical/brick/brace classification, tight cuts and their
contractions.

A barrier is a vertex set whose deletion leaves exactly as many odd
components as the set has vertices. Tightness of a cut means every perfect
matching crosses it exactly once; it is decided by deletion-set matching
queries, without enumerating perfect matchings. The second characterizations
of these facts (perfect-matching enumeration, the bipartite split criterion,
the balanced four-deletion brace test) live in the suites that check them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Literal

from .errors import DomainError, NotTightCutError
from .graphs import (
    EdgeCut,
    Graph,
    VertexSet,
    Contraction,
    all_cuts,
    connected_components,
    connectivity_profile,
    contract,
    enumerate_cuts,
    is_connected,
)
from .matching import (
    PairDeletionTable,
    covers_every_edge,
    has_perfect_matching,
    is_matching_covered,
    nice_check,
    pair_deletion_table,
)

BarrierMode = Literal["all", "nontrivial", "minimal_nontrivial"]

_SUBSET_ENUMERATION_CAP = 20


@dataclass(frozen=True)
class Barrier:
    vertices: VertexSet
    odd_component_count: int
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
    return sum(1 for comp in connected_components(g, s) if len(comp) % 2)


def is_barrier(g: Graph, s: Iterable[int]) -> bool:
    vs = set(s)
    return odd_component_count(g, vs) == len(vs)


def barriers(g: Graph, mode: BarrierMode = "all") -> list[Barrier]:
    """Every nonempty vertex set S with o(G - S) = |S|, filtered by mode.

    The empty set formally qualifies whenever G has a perfect matching but is
    excluded here; callers care about vertices that barriers isolate.

    One ``pair_deletion_table`` decides the route. When the host is matching
    covered its maximal barriers partition V (Kotzig), the class of u being
    u plus every v with G - u - v not perfectly matchable, and every barrier
    lies inside one class; so only the subsets of each class, of size at most
    n/2, are tested. That costs n blossom searches plus one component count
    per subset: one per vertex on a brick, about 2^(n/2 + 1) on a bipartite
    host. Otherwise every vertex set of size at most n/2 is tested, capped at
    20 vertices. Either sweep lists every barrier, so a nontrivial barrier is
    minimal iff no other listed nontrivial barrier is a proper subset of it.
    """
    table = pair_deletion_table(g)
    if table is None:
        raise DomainError("barriers are defined for graphs with a perfect matching")
    if mode not in ("all", "nontrivial", "minimal_nontrivial"):
        raise ValueError(f"unknown barrier mode {mode!r}")
    candidates = _barrier_sets(g, table)
    nontrivial_sets = [vs for vs in candidates if len(vs) >= 2]
    out = []
    for vs in candidates:
        nontrivial = len(vs) >= 2
        if mode != "all" and not nontrivial:
            continue
        minimal = nontrivial and not any(sub < vs for sub in nontrivial_sets)
        if mode == "minimal_nontrivial" and not minimal:
            continue
        out.append(
            Barrier(
                vertices=vs,
                odd_component_count=len(vs),
                nontrivial=nontrivial,
                minimal_nontrivial=minimal,
            )
        )
    out.sort(key=lambda b: (len(b.vertices), sorted(b.vertices)))
    return out


def _barrier_sets(g: Graph, table: PairDeletionTable) -> list[frozenset[int]]:
    if covers_every_edge(g, table):
        return [
            frozenset(subset)
            for cls in _maximal_barriers(table)
            for size in range(1, min(len(cls), g.n // 2) + 1)
            for subset in combinations(cls, size)
            if is_barrier(g, subset)
        ]
    if g.n > _SUBSET_ENUMERATION_CAP:
        raise DomainError(
            f"barrier enumeration on a non matching covered host is capped "
            f"at {_SUBSET_ENUMERATION_CAP} vertices (got {g.n})"
        )
    return exhaustive_barrier_sets(g)


def _maximal_barriers(table: PairDeletionTable) -> list[tuple[int, ...]]:
    """The classes {u} + (V - u - row u) of a matching covered graph's table,
    each once, in order of their lowest vertex."""
    n = len(table)
    placed = [False] * n
    classes = []
    for u in range(n):
        if placed[u]:
            continue
        cls = tuple(v for v in range(n) if v == u or v not in table[u])
        for v in cls:
            placed[v] = True
        classes.append(cls)
    return classes


def exhaustive_barrier_sets(g: Graph) -> list[frozenset[int]]:
    """Every nonempty barrier, by sweeping all vertex sets of size at most
    n/2 in size-then-lexicographic order. Exponential; small orders only."""
    return [
        frozenset(subset)
        for size in range(1, g.n // 2 + 1)
        for subset in combinations(range(g.n), size)
        if is_barrier(g, subset)
    ]


def classify(g: Graph) -> Classification:
    """Matching covered / bicritical / brick / 2-extendable / brace flags.

    One ``pair_deletion_table`` gives matching covered and bicritical; a
    brace is a 2-extendable bipartite graph.
    """
    table = pair_deletion_table(g)
    profile = connectivity_profile(g)
    bicritical = _is_bicritical(g, table)
    two_extendable = _is_two_extendable(g, table)
    return Classification(
        matching_covered=covers_every_edge(g, table),
        bicritical=bicritical,
        brick=bicritical and profile.three_connected,
        two_extendable=two_extendable,
        brace=two_extendable and profile.bipartition is not None,
    )


def _is_bicritical(g: Graph, table: PairDeletionTable | None) -> bool:
    """Every pair deletion leaves a perfect matching (a table exists only for
    even order)."""
    return bool(g.edges) and table is not None and all(
        len(row) == g.n - 1 for row in table
    )


def _is_two_extendable(g: Graph, table: PairDeletionTable | None) -> bool:
    if g.n < 6 or table is None or not is_connected(g):
        return False
    for e1, e2 in combinations(g.edges, 2):
        ends = set(e1 + e2)
        if len(ends) == 4 and not nice_check(g, ends):
            return False
    return True


def is_tight_cut(g: Graph, cut: EdgeCut) -> CutWitness:
    """Tightness by deletion-set matching queries.

    A perfect matching crosses a side an odd or even number of times as the
    side is odd or even, so an even side is never tight. An odd side is
    crossed three or more times by some perfect matching exactly when two
    vertex-disjoint cut edges lie in one perfect matching, that is when
    deleting their four ends leaves a perfectly matchable graph.
    """
    if not has_perfect_matching(g):
        raise DomainError("tightness is defined over hosts with perfect matchings")
    pair_ends = (
        set(g.edges[e] + g.edges[f]) for e, f in combinations(cut.edge_indices, 2)
    )
    tight = len(cut.side) % 2 == 1 and not any(
        len(ends) == 4 and nice_check(g, ends) for ends in pair_ends
    )
    return CutWitness(cut=cut, tight=tight)


def nontrivial_tight_cuts(g: Graph) -> list[CutWitness]:
    """All nontrivial tight cuts.

    Cubic hosts only need 3-edge candidates (every tight cut of a cubic
    matching covered graph is a 3-cut); otherwise all sides are swept.
    """
    if g.n < 2 or not is_matching_covered(g):
        raise DomainError("tight cuts are defined for matching covered hosts")
    if g.is_cubic:
        candidates = enumerate_cuts(g, 3, nontrivial_only=True)
    else:
        if g.n > _SUBSET_ENUMERATION_CAP:
            raise DomainError("general tight-cut sweep capped at desk scale")
        candidates = [cut for cut in all_cuts(g) if cut.nontrivial]
    witnesses = [is_tight_cut(g, cut) for cut in candidates]
    return [w for w in witnesses if w.tight]


def tight_cut_contractions(g: Graph, witness: CutWitness) -> tuple[Contraction, Contraction]:
    """The two contractions of a tight cut: (shrink the complement, shrink the
    side). Labels map back to the host through each Contraction record."""
    if not witness.tight:
        raise NotTightCutError("refusing to contract across a cut that is not tight")
    side = set(witness.cut.side)
    complement = set(range(g.n)) - side
    return contract(g, complement), contract(g, side)
