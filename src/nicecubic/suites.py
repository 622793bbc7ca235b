"""Verification suites: each suite checks one claim over an enumerated corpus.

A suite's checker takes one corpus graph and returns None when the graph does
not satisfy the claim's hypothesis, otherwise a list of violation details
(empty when the claim holds there). Every graph a checker sees is connected,
simple and cubic: the corpus is built and loaded so, and ``verify_suites``
refuses other entries. So a checker tests only its claim's own hypothesis
(2- or 3-connected, bipartite or not, matching covered, bicritical, brace).
Every suite is deterministic; reports are byte-stable given fixed flags.
``verify_suites`` runs every named suite in one pass: it loads the corpus
once, and each graph goes through every checker in turn, so the facts
memoised on the graph (profile, pair-deletion table, classification,
barriers, tight cuts, perfect matchings, nice vertices, the deletion-set
sweep, each G - W matching query) are built once per graph and shared by
the suites, and, with the corpus kept by
``enumerate_cubic``, by later passes in the process too. Graphs are
independent, so with ``jobs > 1`` they run on one pool of pinned workers per
process: a graph goes to whichever worker is free the first time, and to
that same worker on every later pass, which keeps it, with its facts, once
it is sent again. The pool is started at first use and reused by later
passes; the interpreter joins its workers at exit.

The library computes each fact one way. The second characterizations that
the claims compare it against (the exhaustive barrier sweep, read from the
deletion-set sweep that ``matching``'s Tutte oracle shares and that skips
only sets that provably leave fewer odd components than vertices,
perfect-matching enumeration and the bipartite split criterion for
tightness, the four-deletion brace test, the barrier route of niceness)
live here, next to the suite that checks them. ``bipartite-tight-criterion``
walks every cut side on int masks and compares enumeration, the split
criterion and the library's deletion-query test (``structure._is_tight``,
the mask entry that ``is_tight_cut`` wraps) on each; ``tight-cuts-are-3-cuts``
tests only the sides that the first perfect matching crosses once, since no
other side can be tight.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from dataclasses import dataclass, field
from itertools import combinations
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from typing import Callable, Iterable, Sequence

from .errors import DomainError, InternalCheckError, UnknownSuiteError
from .catalog import k33
from .enumeration import CorpusEntry, _is_corpus_graph, corpus_up_to
from .families import recognize_family
from .graph6 import parse_graph6, write_graph6
from .graphs import (
    Bipartition,
    Graph,
    VertexSet,
    _cut_masks,
    _graph_fact,
    _odd_component_count,
    _sides_crossed_once,
    _vertex_mask,
    bipartition,
    connected_components,
    connectivity_profile,
    edge_cut,
    enumerate_cuts,
    induced_subgraph,
    patched_side,
    two_cut_orientations,
)
from .isomorphism import is_isomorphic
from .matching import (
    _deletion_sets,
    has_perfect_matching,
    is_matching_covered,
    nice_check,
    perfect_matchings,
    tutte_condition_holds,
)
from .nice import (
    all_pairs_nice,
    find_nice_pair_set,
    is_nice_pair,
    is_nice_vertex,
    nice_pair_matrix,
    nice_pair_sets_bounded,
    nice_vertices,
)
from .structure import (
    _is_tight,
    barriers,
    classify,
    is_tight_cut,
    nontrivial_tight_cuts,
    tight_cut_contractions,
)


@dataclass(frozen=True)
class Violation:
    graph6: str
    claim: str
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    claim: str
    max_n: int
    graphs_checked: int
    violations: tuple[Violation, ...]
    runtime_seconds: float

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        # runtime stays off the payload so reports are byte-stable across runs
        return {
            "suite": self.suite,
            "claim": self.claim,
            "max_n": self.max_n,
            "graphs_checked": self.graphs_checked,
            "passed": self.passed,
            "violations": [
                {
                    "graph6": v.graph6,
                    "claim": v.claim,
                    "detail": v.detail,
                    "replay": f"nicecubic verify --suite {self.suite} --max-n {self.max_n}",
                }
                for v in self.violations
            ],
        }


@dataclass(frozen=True)
class Suite:
    name: str
    claim: str
    modules: tuple[str, ...]
    checker: Callable[[Graph], list[str] | None]


def _is_independent(g: Graph, vs) -> bool:
    mask = _vertex_mask(g, vs)
    return not any(g.neighbor_masks[v] & mask for v in vs)


def exhaustive_barrier_sets(g: Graph) -> list[frozenset[int]]:
    """Every nonempty barrier, in size-then-lexicographic order, from the
    deletion-set sweep that the Tutte oracle reads too: it visits every
    vertex set of size at most n/2 that can reach d(S) = odd(G - S) - |S|
    >= 0, and skips only subtrees where a parity bound rules that out (the
    proof is at ``matching._deletion_sets``); a barrier has d = 0.
    Exponential; small orders only."""
    return [
        frozenset(v for v in range(g.n) if mask >> v & 1)
        for mask in _deletion_sets(g)[1]
    ]


def is_minimal_nontrivial_barrier(g: Graph, vs) -> bool:
    """The definition: a barrier of two or more vertices no proper subset of
    which, of two or more vertices, is a barrier. Exponential in |vs|."""
    mask = _vertex_mask(g, vs)
    bits = [1 << v for v in range(g.n) if mask >> v & 1]
    return len(bits) >= 2 and not any(
        _odd_component_count(g, sum(sub)) == size
        for size in range(2, len(bits))
        for sub in combinations(bits, size)
    )


# --- second characterizations, checked against the library's one path -----


@_graph_fact
def _perfect_matching_masks(g: Graph) -> tuple[int, ...]:
    """Every perfect matching as an edge mask (bit i for edge i)."""
    return tuple(sum(1 << i for i in m.edge_indices) for m in perfect_matchings(g))


def tight_by_enumeration(cut: int, pms: Sequence[int]) -> bool:
    """The definition: every perfect matching of the host crosses the cut
    exactly once. The cut and the matchings are edge masks (bit i for edge
    i), so a matching crosses the cut popcount(cut & pm) times."""
    return all((cut & pm).bit_count() == 1 for pm in pms)


def bipartite_split(side: int, color: int) -> tuple[int, int]:
    """(X+, X-): the larger and the smaller color-class intersection of an
    odd cut side, as vertex masks; ``color`` is the mask of one color class
    and every vertex outside it is in the other."""
    inside_a, inside_b = side & color, side & ~color
    if inside_a.bit_count() > inside_b.bit_count():
        return inside_a, inside_b
    return inside_b, inside_a


def tight_by_bipartite_split(g: Graph, side: int, color: int) -> bool:
    """The bipartite split criterion on vertex masks: the side is odd,
    |X+| = |X-| + 1, and no edge joins X- to the smaller color class of the
    complement. ``color`` is the mask of one color class."""
    if side.bit_count() % 2 == 0:
        return False
    x_plus, x_minus = bipartite_split(side, color)
    if x_plus.bit_count() != x_minus.bit_count() + 1:
        return False
    complement = ((1 << g.n) - 1) & ~side
    co_a, co_b = complement & color, complement & ~color
    co_minus = co_a if co_a.bit_count() < co_b.bit_count() else co_b
    neighbor_masks = g.neighbor_masks
    while x_minus:
        low = x_minus & -x_minus
        if neighbor_masks[low.bit_length() - 1] & co_minus:
            return False
        x_minus ^= low
    return True


def brace_by_four_deletion(g: Graph, parts: Bipartition) -> bool:
    """True iff deleting any two vertices from each color class leaves a
    perfectly matchable graph: the balanced four-deletion sweep."""
    side_a, side_b = sorted(parts.a), sorted(parts.b)
    return all(
        nice_check(g, pair_a + pair_b)
        for pair_a in combinations(side_a, 2)
        for pair_b in combinations(side_b, 2)
    )


def nice_by_barriers(g: Graph) -> VertexSet:
    """The barrier characterization: u is not nice iff some barrier contains
    all of N(u) but not u. Equivalent to the definition on 2-connected simple
    cubic hosts, and refused elsewhere."""
    if not (g.is_cubic and g.simple and connectivity_profile(g).two_connected):
        raise DomainError(
            "the barrier characterization needs a 2-connected simple cubic host"
        )
    not_nice: set[int] = set()
    for barrier in barriers(g):
        s = barrier.vertices
        for u in range(g.n):
            if u not in s and g.neighbor_sets[u] <= s:
                not_nice.add(u)
    return frozenset(range(g.n)) - not_nice


# --- checkers ---------------------------------------------------------------


def _check_matching_covered_2_connected(g: Graph) -> list[str] | None:
    two = connectivity_profile(g).two_connected
    covered = is_matching_covered(g)
    if two != covered:
        return [f"2-connected={two} but matching covered={covered}"]
    return []


def _check_bicritical_all_nice(g: Graph) -> list[str] | None:
    if not classify(g).bicritical:
        return None
    report = nice_vertices(g)
    if report.upsilon != g.n:
        return [f"bicritical but only {report.upsilon} of {g.n} vertices nice"]
    return []


def _check_edge_in_perfect_matching(g: Graph) -> list[str] | None:
    if not connectivity_profile(g).two_connected:
        return None
    problems = []
    if not is_matching_covered(g):
        problems.append("2-connected cubic graph is not matching covered")
    pm_count = len(_perfect_matching_masks(g))
    if pm_count < 3:
        problems.append(f"only {pm_count} perfect matchings, expected at least 3")
    return problems


def _check_tutte_existence(g: Graph) -> list[str] | None:
    fast = has_perfect_matching(g)
    oracle = tutte_condition_holds(g)
    if fast != oracle:
        return [f"matching search says {fast}, deletion-set sweep says {oracle}"]
    return []


def _check_barrier_properties(g: Graph) -> list[str] | None:
    if not is_matching_covered(g):
        return None
    problems = []
    exhaustive = exhaustive_barrier_sets(g)
    bicritical = classify(g).bicritical
    has_nontrivial = any(len(s) >= 2 for s in exhaustive)
    if bicritical != (not has_nontrivial):
        problems.append(
            f"bicritical={bicritical} but nontrivial barrier exists={has_nontrivial}"
        )
    for s in exhaustive:
        comps = connected_components(g, s)
        if any(len(c) % 2 == 0 for c in comps):
            problems.append(f"barrier {sorted(s)} leaves an even component")
        if not _is_independent(g, s):
            problems.append(f"barrier {sorted(s)} is not independent")
    reported = barriers(g)
    if {b.vertices for b in reported} != set(exhaustive):
        problems.append("pruned barrier enumeration disagrees with exhaustive sweep")
    for b in reported:
        if b.minimal_nontrivial != is_minimal_nontrivial_barrier(g, b.vertices):
            problems.append(
                f"barrier {sorted(b.vertices)} has minimal_nontrivial="
                f"{b.minimal_nontrivial}, the subset sweep disagrees"
            )
    return problems


def _check_tight_cuts_are_3_cuts(g: Graph) -> list[str] | None:
    """Every tight cut has 3 edges, and every trivial cut is tight.

    A side is tight when every perfect matching crosses its cut once, the
    first one too, so the walk visits only the sides that ``pms[0]`` crosses
    once. Each side it skips fails ``tight_by_enumeration``, which tests it
    against ``pms[0]`` among the others: the filter is a step of the
    definition and rests on no claim that a suite checks."""
    if not connectivity_profile(g).two_connected:
        return None
    pms = _perfect_matching_masks(g)
    problems = []
    for side, cut in _sides_crossed_once(g, pms[0]) if pms else _cut_masks(g):
        tight = tight_by_enumeration(cut, pms)
        size = cut.bit_count()
        if tight and size != 3:
            problems.append(f"tight cut at side {list(side)} has {size} edges")
    # the sides above all hold vertex 0, so the trivial cut at any other
    # vertex comes as its complement: check all n here, one per vertex
    for v in range(g.n):
        if not tight_by_enumeration(sum(1 << i for i, _ in g.incidence[v]), pms):
            problems.append(f"trivial cut at [{v}] is not tight")
    return problems


def _check_nontrivial_3_cut_matching(g: Graph) -> list[str] | None:
    if not connectivity_profile(g).three_connected:
        return None
    problems = []
    for cut in enumerate_cuts(g, 3):
        ends = [v for i in cut.edge_indices for v in g.edges[i]]
        if len(set(ends)) != 6:
            problems.append(f"nontrivial 3-cut {cut.edge_indices} is not a matching")
    return problems


def _check_bipartite_tight_criterion(g: Graph) -> list[str] | None:
    """Enumeration, the split criterion and the library's deletion-query
    test (``structure._is_tight``) agree on every cut side, walked on int
    masks."""
    parts = bipartition(g)
    if parts is None or not is_matching_covered(g):
        return None
    pms = _perfect_matching_masks(g)
    color = _vertex_mask(g, parts.a)
    bits = [1 << v for v in range(g.n)]
    problems = []
    for side, cut in _cut_masks(g):
        mask = sum(map(bits.__getitem__, side))
        enumerated = tight_by_enumeration(cut, pms)
        criterion = tight_by_bipartite_split(g, mask, color)
        fast = _is_tight(g, len(side), cut)
        if not enumerated == criterion == fast:
            problems.append(
                f"side {list(side)}: enumeration={enumerated}, "
                f"split criterion={criterion}, is_tight_cut={fast}"
            )
        if enumerated and len(side) % 2 == 1:
            plus, minus = bipartite_split(mask, color)
            if plus.bit_count() != minus.bit_count() + 1:
                problems.append(f"tight cut side {list(side)} has bad split sizes")
    return problems


def _check_tight_free_brick_brace(g: Graph) -> list[str] | None:
    if not is_matching_covered(g):
        return None
    free = not nontrivial_tight_cuts(g)
    flags = classify(g)
    if free != (flags.brick or flags.brace):
        return [
            f"nontrivial-tight-cut-free={free} but brick={flags.brick} brace={flags.brace}"
        ]
    return []


def _check_brace_four_deletion(g: Graph) -> list[str] | None:
    parts = bipartition(g)
    if parts is None:
        return None
    deletion_ok = brace_by_four_deletion(g, parts)
    brace = classify(g).brace
    if deletion_ok != brace:
        return [f"four-deletion test={deletion_ok} but brace={brace}"]
    return []


def _check_bipartite_nonbrace_contraction(g: Graph) -> list[str] | None:
    if bipartition(g) is None or not is_matching_covered(g):
        return None
    if classify(g).brace:
        return None
    cuts = nontrivial_tight_cuts(g)
    if not cuts:
        return ["bipartite matching covered non-brace without a nontrivial tight cut"]
    for witness in cuts:
        first, second = tight_cut_contractions(g, witness)
        if classify(first.graph).brace or classify(second.graph).brace:
            return []
    return ["no nontrivial tight cut has a brace contraction"]


def _check_cubic_barrier_components(g: Graph) -> list[str] | None:
    if not connectivity_profile(g).three_connected:
        return None
    nontrivial_barriers = [b for b in barriers(g) if b.nontrivial]
    if not nontrivial_barriers:
        return None
    problems = []
    non_bip = bipartition(g) is None
    for barrier in nontrivial_barriers:
        comps = connected_components(g, barrier.vertices)
        nontrivial_comps = [c for c in comps if len(c) > 1]
        for comp in nontrivial_comps:
            cut = edge_cut(g, comp)
            witness = is_tight_cut(g, cut)
            if not witness.tight or len(cut.edge_indices) != 3:
                problems.append(
                    f"component cut of {sorted(comp)} not a tight 3-cut"
                )
                continue
            ends = [v for i in cut.edge_indices for v in g.edges[i]]
            if len(set(ends)) != 6:
                problems.append(f"component cut of {sorted(comp)} not a matching")
            for side in tight_cut_contractions(g, witness):
                profile = connectivity_profile(side.graph)
                if not (side.graph.simple and profile.three_connected and profile.cubic):
                    problems.append(
                        f"contraction at {sorted(comp)} not 3-connected simple cubic"
                    )
        if non_bip and not any(
            bipartition(induced_subgraph(g, c).graph) is None for c in nontrivial_comps
        ):
            problems.append(
                f"barrier {sorted(barrier.vertices)}: no nontrivial non-bipartite component"
            )
    return problems


def _check_minimal_barrier_all_nice(g: Graph) -> list[str] | None:
    profile = connectivity_profile(g)
    if not profile.three_connected or profile.bipartition is not None:
        return None
    if classify(g).bicritical:
        return None
    minimal = [b for b in barriers(g) if b.minimal_nontrivial]
    if not minimal:
        return ["non-bicritical 3-connected graph without a minimal nontrivial barrier"]
    nice = nice_vertices(g).nice
    for barrier in minimal:
        if barrier.vertices <= nice:
            return []
    return ["no minimal nontrivial barrier consists of nice vertices only"]


def _check_nice_lift_tight_cut(g: Graph) -> list[str] | None:
    if not connectivity_profile(g).two_connected:
        return None
    problems = []
    for witness in nontrivial_tight_cuts(g):
        shrink_complement, shrink_side = tight_cut_contractions(g, witness)
        for contraction, side in (
            (shrink_complement, witness.cut.side),
            (shrink_side, frozenset(range(g.n)) - witness.cut.side),
        ):
            if not contraction.graph.simple:
                continue
            for u in sorted(side):
                if is_nice_vertex(contraction.graph, contraction.old_to_new[u]):
                    if u not in nice_vertices(g).nice:
                        problems.append(
                            f"{u} nice in the contraction at {sorted(side)} but not in the host"
                        )
    return problems


def _check_two_cut_nice_transfer(g: Graph) -> list[str] | None:
    if not connectivity_profile(g).two_connected:
        return None
    problems = []
    full = frozenset(range(g.n))
    for side, a, c, b, d in two_cut_orientations(g):
        cut_without_a = edge_cut(g, side - {a})
        if not is_tight_cut(g, cut_without_a).tight:
            problems.append(f"side {sorted(side)} minus {a} is not a tight cut")
        if not nice_check(g, (full - side) | {a, c}) or not nice_check(g, side | {b, d}):
            problems.append(f"2-cut at {sorted(side)}: trimmed sides not matchable")
        inner = induced_subgraph(g, side)
        parts = bipartition(inner.graph)
        if parts is not None:
            if (inner.old_to_new[a] in parts.a) == (inner.old_to_new[c] in parts.a):
                problems.append(
                    f"2-cut at {sorted(side)}: endpoints {a},{c} share a color class"
                )
        # a and c differ (were they one vertex, its third edge would be a
        # bridge), so without an edge ac the patched side is simple and cubic
        if g.multiplicity(a, c):
            continue
        patched = patched_side(g, side, a, c)
        for u in sorted(side):
            patched_nice = is_nice_vertex(patched.graph, patched.old_to_new[u])
            if patched_nice and u not in nice_vertices(g).nice:
                problems.append(
                    f"{u} nice in the patched side {sorted(side)} but not in the host"
                )
    return problems


def _check_barrier_criterion_equivalence(g: Graph) -> list[str] | None:
    if not connectivity_profile(g).two_connected:
        return None
    by_definition = nice_vertices(g).nice
    by_barrier = nice_by_barriers(g)
    if by_definition != by_barrier:
        return [
            f"definition says {sorted(by_definition)}, barriers say {sorted(by_barrier)}"
        ]
    return []


def _check_nice_count_bounds(g: Graph) -> list[str] | None:
    profile = connectivity_profile(g)
    if not profile.two_connected or profile.bipartition is not None:
        return None
    problems = []
    count = nice_vertices(g).upsilon
    family = recognize_family(g)
    if count < 4:
        problems.append(f"only {count} nice vertices")
    low = family.family in ("K4", "F")
    if (count == 4) != low:
        problems.append(f"count {count} vs family {family.family}")
    if profile.three_connected and family.family != "K4":
        if count < 6:
            problems.append(f"3-connected with only {count} nice vertices")
        mid = family.family in ("prism", "K33_triangle", "G1", "G2")
        if (count == 6) != mid:
            problems.append(f"count {count} vs family {family.family}")
    return problems


def _check_nice_pair_rectangle(g: Graph) -> list[str] | None:
    if bipartition(g) is None:
        return None
    problems = []
    if find_nice_pair_set(g, 3) is None:
        problems.append("no 3x3 nice pair set")
    bounded = nice_pair_sets_bounded(g, 3)
    if bounded and find_nice_pair_set(g, 4) is not None:
        problems.append("bounded pair sets yet a 4x4 rectangle exists")
    family = recognize_family(g)
    if bounded != (family.family == "T"):
        problems.append(f"bounded={bounded} vs family {family.family}")
    return problems


def _check_nine_nice_pairs(g: Graph) -> list[str] | None:
    if bipartition(g) is None:
        return None
    problems = []
    count = nice_pair_matrix(g).pair_count
    if count < 9:
        problems.append(f"only {count} nice pairs")
    if (count == 9) != (is_isomorphic(g, k33()) is not None):
        problems.append(f"pair count {count} does not match the equality case")
    return problems


def _check_brace_all_pairs_nice(g: Graph) -> list[str] | None:
    if bipartition(g) is None:
        return None
    every = all_pairs_nice(g)
    brace = classify(g).brace
    if every != brace:
        return [f"all-pairs-nice={every} but brace={brace}"]
    return []


def _check_pair_lift_tight_cut(g: Graph) -> list[str] | None:
    parts = bipartition(g)
    profile = connectivity_profile(g)
    if parts is None or not profile.two_connected:
        return None
    problems = []
    full = frozenset(range(g.n))
    for witness in nontrivial_tight_cuts(g):
        # g1 shrinks the complement of side, g2 shrinks side
        shrink_complement, shrink_side = tight_cut_contractions(g, witness)
        for side, g1, g2 in (
            (witness.cut.side, shrink_complement, shrink_side),
            (full - witness.cut.side, shrink_side, shrink_complement),
        ):
            side_a, side_b = side & parts.a, side & parts.b
            if len(side_a) != len(side_b) + 1 and len(side_b) != len(side_a) + 1:
                continue
            plus_is_a = len(side_a) == len(side_b) + 1
            if not g1.graph.simple:
                continue
            inside_pairs = [
                (a, b)
                for a in sorted(side_a if plus_is_a else side_b)
                for b in sorted(side_b if plus_is_a else side_a)
            ]
            for a, b in inside_pairs:
                small = is_nice_pair(g1.graph, g1.old_to_new[a], g1.old_to_new[b])
                host = is_nice_pair(g, a, b)
                if small != host:
                    problems.append(
                        f"pair ({a},{b}) nice in contraction={small} host={host}"
                    )
            if profile.three_connected and g2.graph.simple:
                out_side = full - side
                for a in sorted(side_a if plus_is_a else side_b):
                    if not is_nice_pair(g1.graph, g1.old_to_new[a], g1.merged):
                        continue
                    for b in sorted(
                        (out_side & parts.b) if plus_is_a else (out_side & parts.a)
                    ):
                        if is_nice_pair(g2.graph, g2.merged, g2.old_to_new[b]):
                            if not is_nice_pair(g, a, b):
                                problems.append(
                                    f"lifted pair ({a},{b}) not nice in the host"
                                )
    return problems


def _check_two_cut_pair_transfer(g: Graph) -> list[str] | None:
    parts = bipartition(g)
    if parts is None or not connectivity_profile(g).two_connected:
        return None
    problems = []
    rel = nice_pair_matrix(g)
    nice_pairs = {
        (rel.a_order[i], rel.b_order[j])
        for i, row in enumerate(rel.matrix)
        for j, hit in enumerate(row)
        if hit
    }
    for side, u, w, v, z in two_cut_orientations(g):
        if g.multiplicity(u, w):
            continue
        for a, b in nice_pairs:
            if (a in side) != (b in side):
                problems.append(
                    f"nice pair ({a},{b}) crosses the 2-cut at {sorted(side)}"
                )
        patched = patched_side(g, side, u, w)
        for a in sorted(side & parts.a):
            for b in sorted(side & parts.b):
                host = (a, b) in nice_pairs
                small = is_nice_pair(
                    patched.graph, patched.old_to_new[a], patched.old_to_new[b]
                )
                if host != small:
                    problems.append(
                        f"pair ({a},{b}): host={host} patched side={small}"
                    )
    return problems


SUITES: dict[str, Suite] = {
    suite.name: suite
    for suite in (
        Suite(
            "matching-covered-2-connected",
            "a cubic graph is 2-connected exactly when it is matching covered",
            ("graph-core", "matching-engine"),
            _check_matching_covered_2_connected,
        ),
        Suite(
            "bicritical-all-nice",
            "every vertex of a cubic bicritical graph is nice",
            ("structure-analysis", "nice-analysis"),
            _check_bicritical_all_nice,
        ),
        Suite(
            "edge-in-perfect-matching",
            "every edge of a 2-connected cubic graph lies in a perfect matching, "
            "and such graphs have at least three perfect matchings",
            ("matching-engine",),
            _check_edge_in_perfect_matching,
        ),
        Suite(
            "tutte-existence",
            "augmenting-path matching existence agrees with the exhaustive "
            "odd-component deletion-set test",
            ("matching-engine",),
            _check_tutte_existence,
        ),
        Suite(
            "barrier-properties",
            "in matching covered graphs: bicritical equals nontrivial-barrier-free; "
            "barriers leave no even components and are independent sets",
            ("structure-analysis",),
            _check_barrier_properties,
        ),
        Suite(
            "tight-cuts-are-3-cuts",
            "every tight cut of a 2-connected cubic graph has exactly 3 edges, "
            "and trivial cuts are tight",
            ("structure-analysis",),
            _check_tight_cuts_are_3_cuts,
        ),
        Suite(
            "nontrivial-3-cut-matching",
            "in a 3-connected graph every nontrivial 3-cut is a matching",
            ("graph-core",),
            _check_nontrivial_3_cut_matching,
        ),
        Suite(
            "bipartite-tight-criterion",
            "bipartite tightness: enumeration agrees with the split criterion, "
            "and tight odd sides split sizes k+1 / k",
            ("structure-analysis",),
            _check_bipartite_tight_criterion,
        ),
        Suite(
            "tight-free-brick-brace",
            "a matching covered graph has no nontrivial tight cuts exactly when "
            "it is a brick or a brace",
            ("structure-analysis",),
            _check_tight_free_brick_brace,
        ),
        Suite(
            "brace-four-deletion",
            "a connected bipartite graph on >= 6 vertices is a brace exactly when "
            "every balanced four-vertex deletion leaves a matchable graph",
            ("structure-analysis",),
            _check_brace_four_deletion,
        ),
        Suite(
            "bipartite-nonbrace-contraction",
            "a bipartite matching covered non-brace has a nontrivial tight cut "
            "with a brace contraction",
            ("structure-analysis",),
            _check_bipartite_nonbrace_contraction,
        ),
        Suite(
            "cubic-barrier-components",
            "nontrivial barrier components of 3-connected cubic graphs sit behind "
            "tight 3-cut matchings with 3-connected simple cubic contractions; "
            "non-bipartite hosts keep a non-bipartite component",
            ("structure-analysis",),
            _check_cubic_barrier_components,
        ),
        Suite(
            "minimal-barrier-all-nice",
            "every 3-connected non-bicritical non-bipartite cubic graph has a "
            "minimal nontrivial barrier whose vertices are all nice",
            ("structure-analysis", "nice-analysis"),
            _check_minimal_barrier_all_nice,
        ),
        Suite(
            "nice-lift-tight-cut",
            "niceness lifts from a simple tight-cut contraction to the host",
            ("nice-analysis", "structure-analysis"),
            _check_nice_lift_tight_cut,
        ),
        Suite(
            "two-cut-nice-transfer",
            "across a 2-cut: the shifted cut is tight, trimmed sides are matchable, "
            "bipartite sides color the cut ends apart, and niceness transfers from "
            "the patched side to the host",
            ("nice-analysis", "structure-analysis"),
            _check_two_cut_nice_transfer,
        ),
        Suite(
            "barrier-criterion-equivalence",
            "definitional and barrier-based nice-vertex answers agree on "
            "2-connected cubic graphs",
            ("nice-analysis",),
            _check_barrier_criterion_equivalence,
        ),
        Suite(
            "nice-count-bounds",
            "2-connected non-bipartite cubic graphs have >= 4 nice vertices "
            "(>= 6 when 3-connected and not K4), with equality exactly on the "
            "recognized extremal families",
            ("nice-analysis", "constructors-families"),
            _check_nice_count_bounds,
        ),
        Suite(
            "nice-pair-rectangle",
            "cubic bipartite graphs have a 3x3 nice pair set, and the 3x3-bounded "
            "graphs are exactly the recognized chain-of-K33 family",
            ("nice-analysis", "constructors-families"),
            _check_nice_pair_rectangle,
        ),
        Suite(
            "nine-nice-pairs",
            "cubic bipartite graphs have >= 9 nice pairs with equality only for K33",
            ("nice-analysis",),
            _check_nine_nice_pairs,
        ),
        Suite(
            "brace-all-pairs-nice",
            "a connected cubic bipartite graph is a brace exactly when every "
            "cross pair is nice",
            ("nice-analysis", "structure-analysis"),
            _check_brace_all_pairs_nice,
        ),
        Suite(
            "pair-lift-tight-cut",
            "nice pairs transfer across simple tight-cut contractions in cubic "
            "bipartite hosts, inside the cut side and, when 3-connected, across it",
            ("nice-analysis", "structure-analysis"),
            _check_pair_lift_tight_cut,
        ),
        Suite(
            "two-cut-pair-transfer",
            "nice pairs of a cubic bipartite graph never cross a 2-cut, and "
            "within a side agree with the patched side graph",
            ("nice-analysis",),
            _check_two_cut_pair_transfer,
        ),
    )
}


def list_suites() -> list[Suite]:
    return [SUITES[name] for name in sorted(SUITES)]


@dataclass
class _Tally:
    """One suite over a run of graphs: how many met its hypothesis, its
    checker's seconds, and each violating graph's index with the details."""

    checked: int = 0
    seconds: float = 0.0
    failures: list[tuple[int, list[str]]] = field(default_factory=list)


def _check_all(names: tuple[str, ...], graphs: Iterable[Graph]) -> list[_Tally]:
    """Every named checker on each graph in turn: one tally per name."""
    tallies = [_Tally() for _ in names]
    for index, g in enumerate(graphs):
        for name, tally in zip(names, tallies):
            start = time.perf_counter()
            try:
                outcome = SUITES[name].checker(g)
            except InternalCheckError as exc:
                # a recognizer's witness did not rebuild this graph: a violation, not an abort
                outcome = [str(exc)]
            tally.seconds += time.perf_counter() - start
            if outcome is not None:
                tally.checked += 1
                if outcome:
                    tally.failures.append((index, outcome))
    return tallies


def _serve(conn: Connection, inherited: list[Connection]) -> None:
    """A pinned worker: check each run of graph6 lines the parent sends,
    one reply per run, until the parent closes its end of the pipe.

    A graph sent a second time is kept, with the facts memoised on it, and
    every later pass checks that same ``Graph``; any other graph is dropped
    once checked, so a pass over new graphs holds one graph's facts at a
    time.
    """
    for other in inherited:
        # the parent's ends of the pipes, this worker's own among them: a
        # copy held here would keep a pipe open after the parent closes it
        other.close()
    kept: dict[str, Graph] = {}
    sent_once: set[str] = set()

    def graphs(lines):
        for line in lines:
            g = kept.get(line)
            if g is None:
                g = parse_graph6(line)
                if line in sent_once:
                    kept[line] = g
                else:
                    sent_once.add(line)
            yield g

    while True:
        try:
            names, lines = conn.recv()
        except EOFError:
            return
        try:
            reply = _check_all(names, graphs(lines)), None
        except Exception as exc:
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            reply = None, (exc, traceback.format_exc())
        try:
            conn.send(reply)
        except OSError:
            return  # the parent has gone


class _WorkerTraceback(Exception):
    """The cause attached to an exception re-raised from a worker: the
    traceback it had there."""


# the process's pinned workers, each with the parent's end of its pipe, kept
# across verify passes while their number holds
_workers: list[tuple[BaseProcess, Connection]] = []
# the worker each graph6 line was first sent to, for as long as that pool lives
_homes: dict[str, int] = {}


def _pool(size: int) -> list[tuple[BaseProcess, Connection]]:
    """The process's workers, this many: started at first use and reused
    while the size holds."""
    if len(_workers) != size:
        _close_pool()
        fork = multiprocessing.get_context("fork")
        for _ in range(size):
            ours, theirs = fork.Pipe()
            inherited = [conn for _, conn in _workers] + [ours]
            # daemonic: multiprocessing terminates and joins it at exit
            worker = fork.Process(target=_serve, args=(theirs, inherited), daemon=True)
            worker.start()
            theirs.close()
            _workers.append((worker, ours))
    return _workers


def _close_pool(kill: bool = False) -> None:
    """Join every worker: an idle one returns when its pipe closes, and
    ``kill`` stops one that is busy with a run."""
    global _workers
    for worker, conn in _workers:
        conn.close()
        if kill:
            worker.terminate()
    for worker, _ in _workers:
        worker.join()
    _workers = []
    _homes.clear()


def _pool_pass(
    names: tuple[str, ...], lines: list[str], workers: list[tuple[BaseProcess, Connection]]
) -> tuple[list[_Tally], tuple[BaseException, str] | None]:
    """One pass over the pool: the merged tallies, failures in entry order,
    or the first checker exception a worker sent back with its traceback.

    A graph goes to its home worker, all of a worker's homed graphs as one
    message. The others are handed out to whichever worker is free, which
    becomes their home, in runs of a 2K-th of what is left for K workers:
    the runs shrink to one graph, so the workers finish close together.
    """
    homed: list[list[int]] = [[] for _ in workers]
    free: list[int] = []
    for index, line in enumerate(lines):
        home = _homes.get(line)
        (free if home is None else homed[home]).append(index)
    pending: dict[Connection, tuple[int, list[int]]] = {}

    def send(w: int, indices: list[int]) -> None:
        conn = workers[w][1]
        conn.send((names, [lines[i] for i in indices]))
        pending[conn] = (w, indices)

    def hand_out(w: int) -> None:
        if free:
            run = free[: -(-len(free) // (2 * len(workers)))]
            del free[: len(run)]
            for i in run:
                _homes.setdefault(lines[i], w)
            send(w, run)

    for w, indices in enumerate(homed):
        if indices:
            send(w, indices)
        else:
            hand_out(w)
    merged = [_Tally() for _ in names]
    error = None
    while pending:
        for conn in wait(list(pending)):
            w, indices = pending.pop(conn)
            tallies, failure = conn.recv()
            if error is None and failure is not None:
                error = failure
            if error is not None:
                continue  # drain the other replies, so the pool stays in step
            for total, tally in zip(merged, tallies):
                total.checked += tally.checked
                total.seconds += tally.seconds
                total.failures += [(indices[i], details) for i, details in tally.failures]
            hand_out(w)
    for total in merged:
        total.failures.sort(key=lambda failure: failure[0])
    return merged, error


def _run_in_pool(names: tuple[str, ...], graphs: list[Graph], size: int) -> list[_Tally]:
    """``_check_all`` over the graphs on the pool's workers (``_pool_pass``),
    with one rerun on fresh workers if one dies."""
    lines = [write_graph6(g) for g in graphs]
    for attempt in range(2):
        workers = _pool(size)
        try:
            tallies, error = _pool_pass(names, lines, workers)
            break
        except (EOFError, OSError) as exc:
            # a worker died, maybe while the pool sat idle: replace the
            # pool; the checkers are pure, so one rerun is safe
            _close_pool(kill=True)
            if attempt:
                raise ChildProcessError("a verify worker died twice in one pass") from exc
        except BaseException:
            # replies may still be on their way: never hand these workers out again
            _close_pool(kill=True)
            raise
    if error is not None:
        exc, text = error
        raise exc from _WorkerTraceback(text)
    return tallies


def verify_suites(
    names: Sequence[str],
    max_n: int,
    jobs: int = 1,
    cache_dir=None,
    entries: list[CorpusEntry] | None = None,
) -> list[VerificationReport]:
    """Run the named suites over the connected cubic corpus up to max_n in
    one pass, and return their reports in the order of ``names``.

    Every name is checked before the corpus is read. The corpus is loaded
    once, and each graph is handed to every named checker in turn, so the
    facts memoised on it are computed once and shared. A cached corpus is
    kept by ``enumerate_cubic`` while its file is unchanged, so a later call
    in the same process checks the same graphs and finds their facts built.
    A pool worker receives each graph's value alone, and keeps a graph with
    its facts from the second time it is sent it: a repeat means the graph
    is being verified again, as by one ``verify_suite`` call per suite. A
    single pass, as the CLI makes, repeats no graph and so keeps none. A
    report's ``runtime_seconds`` is the time spent in its own checker,
    summed over the graphs (and over the workers); a shared fact is charged
    to the first suite that reads it, and one an earlier call built to none.

    ``entries`` overrides the corpus (used to point suites at constructed
    graphs). Each entry's graph is checked as given, and its ``graph6``
    labels the violations, which carry a replay command too. An entry whose
    graph is not connected, simple and cubic raises ``DomainError``, naming
    its ``graph6``, before any checker runs.

    With ``jobs > 1`` the graphs go to the process's one pool of
    ``K = min(jobs, graphs)`` forked workers, each on its own pipe. A graph
    the pool has not seen goes, in a run of shrinking length, to whichever
    worker is free; one it has seen goes back to the worker that first got
    it, so it meets its kept facts, and each worker gets all such graphs,
    with all the suites, as one message. The outcomes are put back in
    entry order. The pool is started at first use, reused by every later
    pass that asks for the same size, replaced when the size changes or a
    worker dies (the pass then reruns once), and joined when the
    interpreter exits. A checker's exception is raised here with its type.
    The workers start with the pool and keep the module state of that
    moment: a ``SUITES`` entry patched in later does not reach them.
    """
    for name in names:
        if name not in SUITES:
            raise UnknownSuiteError(
                f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
            )
    names = tuple(names)
    if entries is None:
        # the generator or the load check has admitted every corpus graph
        entries = corpus_up_to(max_n, cache_dir=cache_dir)
    else:
        for entry in entries:
            if not _is_corpus_graph(entry.graph):
                raise DomainError(
                    f"entry {entry.graph6} is not a connected simple cubic graph"
                )
    graphs = [e.graph for e in entries]
    # the pool forks every worker up front, so never ask for more than graphs
    workers = min(jobs, len(graphs))
    if workers > 1:
        tallies = _run_in_pool(names, graphs, workers)
    else:
        tallies = _check_all(names, graphs)
    return [
        VerificationReport(
            suite=name,
            claim=SUITES[name].claim,
            max_n=max_n,
            graphs_checked=tally.checked,
            violations=tuple(
                Violation(graph6=entries[index].graph6, claim=SUITES[name].claim, detail=detail)
                for index, details in tally.failures
                for detail in details
            ),
            runtime_seconds=tally.seconds,
        )
        for name, tally in zip(names, tallies)
    ]


def verify_suite(
    suite: str,
    max_n: int,
    jobs: int = 1,
    cache_dir=None,
    entries: list[CorpusEntry] | None = None,
) -> VerificationReport:
    """Run one suite over the connected cubic corpus up to max_n: the
    one-suite case of ``verify_suites``, which documents the parameters."""
    return verify_suites([suite], max_n, jobs=jobs, cache_dir=cache_dir, entries=entries)[0]
