"""Maximum matching, perfect-matching enumeration, the pair-deletion table
and the nice-subgraph test.

Matchings are edge-index sets so that parallel edges stay distinguishable;
a perfect matching through one of three parallel edges is a different
matching than through another, which matters when counting how often a cut
is crossed. Search order is deterministic (lowest index first) so outputs
are reproducible across runs.

There is one blossom search (Edmonds, "Paths, trees, and flowers", 1965).
It reads the host's ``g.adjacency`` and skips a mask of deleted vertices,
so no subgraph is ever built. Each graph keeps one maximum matching found
with it, the host matching, which ``maximum_matching`` and
``has_perfect_matching`` read. Every question "is G - W perfectly
matchable" (``nice_check`` and the readers in ``nice`` and ``structure``)
starts from the host matching with W's vertices and their mates unmatched,
and stops at the first exposed vertex with no augmenting path. The answers
are memoised on the host by mask, so each G - W is searched once. The
question "do edges e and f lie in one perfect matching", which tightness
and 2-extendability ask, is answered from the perfect matchings found so
far when one holds both, and otherwise by the deletion query on their four
ends. ``pair_deletion_table`` reuses the blossom search once per vertex u,
on a copy of the host matching with u masked out, to read, from one perfect
matching, which vertex pairs leave a perfectly matchable graph when
deleted. The table is a fact of the graph, memoised on it, so every reader
shares one computation. Matching covered and bicritical are read off it,
and so are the blocked pairs u, v (v outside row u) among which
``structure.barriers`` looks for barriers; in a matching covered graph, u
with the vertices blocked with it form one maximal barrier (Kotzig; Lovász
& Plummer, *Matching Theory*, §5.2).

Apart from that path, ``_deletion_sets`` sweeps the vertex sets of at most
half the vertices once per graph, memoised, for the two exponential oracles:
``tutte_condition_holds`` here and the exhaustive barrier sweep in
``suites``. It visits every set that can leave at least as many odd
components as it has vertices, and skips a subtree only by a parity bound
that needs no matching (see ``_deletion_sets``). Neither fast path reads it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError
from .graphs import (
    Graph,
    VertexSet,
    _graph_fact,
    _odd_component_count,
    _vertex_mask,
    is_connected,
)

# Row u of a pair-deletion table: every v != u with g - u - v perfectly matchable.
PairDeletionTable = tuple[VertexSet, ...]


@dataclass(frozen=True)
class Matching:
    """Pairwise vertex-disjoint edge set, stored as indices into g.edges."""

    edge_indices: tuple[int, ...]

    def is_perfect(self, g: Graph) -> bool:
        return 2 * len(self.edge_indices) == g.n


def make_matching(g: Graph, edge_indices: Iterable[int]) -> Matching:
    """Construct a Matching, verifying vertex-disjointness."""
    indices = tuple(sorted(edge_indices))
    seen: set[int] = set()
    for i in indices:
        if not 0 <= i < len(g.edges):
            raise ValueError(f"edge index {i} out of range for {len(g.edges)} edges")
        u, v = g.edges[i]
        if u in seen or v in seen:
            raise ValueError(f"edges are not vertex-disjoint at index {i}")
        seen.add(u)
        seen.add(v)
    return Matching(indices)


def maximum_matching(g: Graph) -> Matching:
    """A maximum-cardinality matching via augmenting search with blossom
    contraction (general graphs): the host matching, memoised on g.
    Deterministic lowest-index tie-breaking."""
    match = _host_mates(g)
    lowest_index: dict[tuple[int, int], int] = {}
    for i, e in enumerate(g.edges):
        lowest_index.setdefault(e, i)
    indices = [
        lowest_index[(v, match[v])]
        for v in range(g.n)
        if match[v] > v
    ]
    return make_matching(g, indices)


@_graph_fact
def _host_mates(g: Graph) -> tuple[int, ...]:
    """Mate of each vertex in one maximum matching of g (-1 if exposed): a
    greedy start, then one augmenting search from each exposed vertex. Every
    matching question on g starts from it, so g computes it once."""
    adj = g.adjacency
    match = [-1] * g.n
    for v in range(g.n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break

    for v in range(g.n):
        if match[v] == -1:
            end, parent, _ = _find_augmenting(g, 0, match, v)
            _augment(match, parent, end)
    return tuple(match)


def _augment(match: list[int], parent: list[int], end: int) -> None:
    """Flip the augmenting path that ``parent`` traces back from its exposed
    end ``end`` (nothing when end is -1)."""
    while end != -1:
        prev = parent[end]
        nxt = match[prev]
        match[end] = prev
        match[prev] = end
        end = nxt


def _find_augmenting(
    g: Graph, removed: int, match: list[int], root: int
) -> tuple[int, list[int], list[bool]]:
    """Edmonds' blossom search in g minus the vertices of the mask
    ``removed``, from the exposed vertex ``root``; no removed vertex is ever
    reached. A neighbor repeated by a parallel edge comes right after its
    first copy in ``g.adjacency``, and its second visit changes nothing.

    Returns the exposed end of an augmenting path (-1 if there is none), the
    tree's parent links that trace the path back, and the outer flags. When
    root is the only exposed vertex and no path exists, the outer vertices
    are exactly those some maximum matching leaves exposed (Gallai–Edmonds).
    ``match`` is read, never written.
    """
    adj = g.adjacency
    n = g.n
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        x = a
        while True:
            x = base[x]
            seen[x] = True
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base[y]
            if seen[y]:
                return y
            y = parent[match[y]]

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]):
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    used[root] = True
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to or removed >> to & 1:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                # Odd cycle through the tree: contract the blossom.
                cur_base = lca(v, to)
                in_blossom = [False] * n
                mark_path(v, cur_base, to, in_blossom)
                mark_path(to, cur_base, v, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = cur_base
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    return to, parent, used
                used[match[to]] = True
                queue.append(match[to])
    return -1, parent, used


def has_perfect_matching(g: Graph) -> bool:
    return -1 not in _host_mates(g)


def _matchable_without(g: Graph, removed: int) -> bool:
    """True iff g minus the vertices of the mask ``removed`` has a perfect
    matching.

    Memoised per graph and mask, in ``g.__dict__`` as ``_graph_fact`` does,
    so each deletion query runs ``_deletion_search`` at most once per graph,
    whichever reader (nice vertices and pairs, tightness, 2-extendability,
    the four-deletion brace test) asks first. Odd remainders need no search."""
    if (g.n - removed.bit_count()) % 2:
        return False
    known = g.__dict__.get(_matchable_without)
    if known is None:
        known = g.__dict__[_matchable_without] = {}
    matchable = known.get(removed)
    if matchable is None:
        matchable = known[removed] = _deletion_search(g, removed) is not None
    return matchable


def _deletion_search(g: Graph, removed: int) -> list[int] | None:
    """Mates of a perfect matching of g minus the vertices of the mask
    ``removed`` (-1 on the removed vertices), or None when there is none.

    The search starts from the host matching M with the removed vertices and
    their mates unmatched, and augments from each exposed vertex in index
    order. It answers None at the first exposed vertex v with no augmenting
    path: if g - removed had a perfect matching M*, the component of the
    current matching xor M* at v would be a path from v, alternating, that
    ends at another exposed vertex, an augmenting path.
    """
    match = list(_host_mates(g))
    rest = removed
    while rest:
        v = (rest & -rest).bit_length() - 1
        if match[v] != -1:
            match[match[v]] = -1
            match[v] = -1
        rest &= rest - 1
    for v in range(g.n):
        if match[v] == -1 and not removed >> v & 1:
            end, parent, _ = _find_augmenting(g, removed, match, v)
            if end == -1:
                return None
            _augment(match, parent, end)
    return match


class _FoundMatchings:
    """Perfect matchings of one graph found so far, as one bitset per vertex
    pair: bit k is set when the k-th matching joins the pair, whichever of
    the pair's parallel edges it uses. A plain class, not a dataclass: with
    a dataclass here, short benchmark processes that import the package
    peaked 0.2 to 0.4 MB higher."""

    def __init__(self) -> None:
        self.count = 0
        self.by_pair: dict[tuple[int, int], int] = {}

    def add(self, match: Iterable[int]) -> None:
        bit = 1 << self.count
        self.count += 1
        for v, w in enumerate(match):
            if v < w:
                self.by_pair[v, w] = self.by_pair.get((v, w), 0) | bit


def _in_common_perfect_matching(g: Graph, i: int, j: int) -> bool:
    """True iff edges i and j of g lie in one perfect matching of g.

    For vertex-disjoint edges this is the deletion query on their four ends,
    and it shares ``_matchable_without``'s memo. A pair that the memo does
    not hold is answered True without a search when a perfect matching found
    so far holds both edges: g keeps the host matching, if perfect, and each
    matching that this question's searches find, with the two edges put
    back. A stored matching only ever answers True for a pair it holds, so
    every answer is the definitional one.
    """
    (a, b), (c, d) = g.edges[i], g.edges[j]
    removed = 1 << a | 1 << b | 1 << c | 1 << d
    if removed.bit_count() < 4 or g.n % 2:
        return False
    known = g.__dict__.get(_matchable_without)
    if known is None:
        known = g.__dict__[_matchable_without] = {}
    matchable = known.get(removed)
    if matchable is None:
        found = g.__dict__.get(_in_common_perfect_matching)
        if found is None:
            found = g.__dict__[_in_common_perfect_matching] = _FoundMatchings()
            if has_perfect_matching(g):
                found.add(_host_mates(g))
        if found.by_pair.get((a, b), 0) & found.by_pair.get((c, d), 0):
            matchable = True
        else:
            match = _deletion_search(g, removed)
            matchable = match is not None
            if matchable:
                match[a], match[b], match[c], match[d] = b, a, d, c
                found.add(match)
        known[removed] = matchable
    return matchable


def tutte_condition_holds(g: Graph) -> bool:
    """Exhaustive deletion-set test for perfect-matching existence: no
    vertex set S leaves more than |S| odd components (Tutte 1947).

    Independent of the augmenting-path machinery; exponential, so only
    suitable as a small-order oracle. Only |S| < n/2 needs testing: every
    odd component of G - S holds at least one of its n - |S| vertices, so
    odd(G - S) <= n - |S| <= |S| once |S| >= n/2, and no such S can break
    the condition. The sweep itself, ``_deletion_sets``, is shared with the
    exhaustive barrier oracle and goes one size further, to |S| = n/2 for
    even n, where by the same bound no S breaks the condition either. It
    skips only subtrees of sets that provably leave fewer than |S| odd
    components, none of which can break the condition.
    """
    return _deletion_sets(g)[0]


@_graph_fact
def _deletion_sets(g: Graph) -> tuple[bool, tuple[int, ...]]:
    """Whether no vertex set S with |S| <= n/2 leaves more than |S| odd
    components (Tutte's condition), and the masks of the nonempty S that
    leave exactly |S| (the barriers), by size and then lexicographically.
    Exponential; the Tutte and barrier oracles read it, no fast path does.

    Both questions ask for the sets with d(S) = odd(G - S) - |S| >= 0, and
    the sweep visits every set that can reach d >= 0: a depth-first walk
    over S that adds vertices in increasing order, one odd-component count
    per visited set. Pre-order restricted to one size is lexicographic, so
    collecting the barriers by size keeps the order of a plain sweep.

    The pruning bound uses neither a matching nor any claim a suite checks:
    - d(S) = n (mod 2), since the component sizes of G - S sum to n - |S|,
      so every change of d is even.
    - Adding v to S removes v from its component C of G - S, which splits
      into at most p = |N(v) - S| pieces (distinct neighbours, since each
      piece holds one). If C is even, at most p pieces are odd and d rises
      by at most p - 1; if C is odd, at most p - 1 are, and d rises by at
      most p - 2. Being even, the rise is at most 2 * lift(v), where
      lift(v) = floor((p - 1) / 2), which is -1 when p = 0.
    - p only shrinks as S grows, so lift(v) taken at S also bounds the rise
      when v joins any larger set.
    So every set below S + v, that is S + v + U with U after v and |U| <=
    n/2 - |S| - 1, has d <= d(S) + 2 * (lift(v) + the n/2 - |S| - 1 largest
    positive lifts of the vertices after v). When that is negative, the
    walk skips S + v and everything under it; d(S) + 2x < 0 exactly when
    x < -floor(d(S) / 2), the pairs of odd components that S lacks.

    Each visit reads the bound without building a list. One scan of v from
    n - 1 down to ``start`` keeps the positive lifts after v counted by
    value, reads the n/2 - |S| - 1 largest of them off those counts,
    largest value first, and marks v in a mask of the children that pass;
    the walk then visits them in increasing order.
    """
    n = g.n
    limit = n // 2
    neighbors = [[w for w in range(n) if mask >> w & 1] for mask in g.neighbor_masks]
    free = [mask.bit_count() for mask in g.neighbor_masks]  # |N(w) - S|
    top = max(((p - 1) // 2 for p in free), default=0)  # no lift exceeds it
    tutte = True
    barriers_by_size: list[list[int]] = [[] for _ in range(limit + 1)]

    def visit(s: int, size: int, start: int) -> None:
        nonlocal tutte
        d = _odd_component_count(g, s) - size
        if d > 0:
            tutte = False
        elif d == 0 and size:
            barriers_by_size[size].append(s)
        if size == limit:
            return
        lacking = -(d // 2)
        room = limit - size - 1  # vertices that may still follow the next one
        counts = [0] * (top + 1)  # counts[k]: vertices after v with lift k > 0
        children = 0
        for v in range(n - 1, start - 1, -1):
            lift = (free[v] - 1) // 2
            need = lacking - lift  # for the room largest positive lifts after v
            value, left = top, room
            while need > 0 and left and value > 0:
                taken = min(left, counts[value])
                need -= taken * value
                left -= taken
                value -= 1
            if need <= 0:
                children |= 1 << v
            if lift > 0:
                counts[lift] += 1
        while children:
            low = children & -children
            children ^= low
            v = low.bit_length() - 1
            for w in neighbors[v]:
                free[w] -= 1
            visit(s | low, size + 1, v + 1)
            for w in neighbors[v]:
                free[w] += 1

    visit(0, 0, 0)
    return tutte, tuple(mask for masks in barriers_by_size for mask in masks)


def perfect_matchings(g: Graph) -> list[Matching]:
    """All perfect matchings, ordered by branching on the lowest uncovered
    vertex and lowest edge index."""
    if g.n % 2:
        return []
    out: list[Matching] = []
    covered = [False] * g.n
    chosen: list[int] = []

    def recurse() -> None:
        v = next((x for x in range(g.n) if not covered[x]), None)
        if v is None:
            out.append(Matching(tuple(chosen)))
            return
        covered[v] = True
        for i, u in g.incidence[v]:
            if not covered[u]:
                covered[u] = True
                chosen.append(i)
                recurse()
                chosen.pop()
                covered[u] = False
        covered[v] = False

    recurse()
    return out


def count_perfect_matchings(g: Graph) -> int:
    return len(perfect_matchings(g))


@_graph_fact
def pair_deletion_table(g: Graph) -> PairDeletionTable | None:
    """Row u is ``frozenset({v != u : g - u - v has a perfect matching})``;
    None when g has no perfect matching.

    The host matching M, then one blossom search per vertex: in g - u,
    M minus u's edge is maximum and leaves only u's partner exposed, so the
    outer vertices of the search from the partner are the vertices that some
    maximum matching of g - u misses, i.e. the v with g - u - v perfectly
    matchable. That is n searches where pair-by-pair deletion would need
    n(n - 1)/2 fresh matchings.
    """
    if g.n % 2 or not has_perfect_matching(g):
        return None
    match = list(_host_mates(g))
    rows = []
    for u in range(g.n):
        partner = match[u]
        match[u] = match[partner] = -1
        _, _, outer = _find_augmenting(g, 1 << u, match, partner)
        match[u], match[partner] = partner, u
        rows.append(frozenset(v for v in range(g.n) if outer[v]))
    return tuple(rows)


@_graph_fact
def is_matching_covered(g: Graph) -> bool:
    """True iff g is connected, has >= 2 vertices, and every edge lies in some
    perfect matching: read off g's ``pair_deletion_table``, g has edges and a
    perfect matching, and every edge uv has v in row u (g - u - v is
    perfectly matchable, so uv lies in a perfect matching)."""
    if g.n < 2:
        raise DomainError("matching covered is defined for graphs on >= 2 vertices")
    table = pair_deletion_table(g)
    return (
        table is not None
        and bool(g.edges)
        and is_connected(g)
        and all(v in table[u] for u, v in g.edges)
    )


def nice_check(g: Graph, w: Iterable[int]) -> bool:
    """True iff deleting the vertex set w leaves a perfectly matchable graph:
    the one blossom search runs on g with w masked out, so no subgraph is
    built. Raises ValueError when w is not a set of vertices of g."""
    return _matchable_without(g, _vertex_mask(g, w))
