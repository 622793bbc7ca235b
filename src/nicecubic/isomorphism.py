"""Isomorphism testing and canonical labeling for small (multi)graphs.

Both rest on one equitable refinement, ``_refine`` (McKay 1981), which
counts neighbours with multiplicity; on a regular graph the unit partition
is already equitable, so ``refined_colors`` returns it unrefined.
``is_isomorphic`` refines each graph once (the refinement, the search order
and the distance profiles are facts memoised on the graph) and backtracks
within equal cells to an explicit bijection. When there is a choice of first
image it reads the distance profiles and, at every depth, tries as image only
vertices whose profile matches; on simple graphs a candidate image is checked
against the mapped vertices with one mask comparison; this pruning only
drops subtrees without an isomorphism, so it does not change the mapping
that the plain search returns. ``canonical_labeling`` refines at every node
of an individualization search and keeps the least relabeled edge list, for
stable corpus identifiers. Two leaves with equal edge lists give an
automorphism, and a child in the orbit of an earlier child under the
automorphisms found that fix the node's path is skipped (orbit pruning,
McKay & Piperno 2014); the first least leaf, and so the permutation, is the
plain search's.
"""

from __future__ import annotations

from collections import Counter
from heapq import heappop, heappush
from typing import Iterable, Sequence

from .graphs import Graph, _graph_fact


def _refine(
    g: Graph, lab: list[int], cell_at: list[int], size: list[int], stale: Iterable[int]
) -> None:
    """Refine an ordered partition, in place, to its coarsest equitable
    refinement.

    ``lab`` lists the vertices cell by cell; the cell starting at position s
    is ``lab[s:s + size[s]]``, and ``cell_at[v]`` is the start of v's cell.
    Only the cells starting in ``stale`` may be inequitable.

    Splits the first cell whose vertices differ in their neighbour counts
    (with multiplicity) into each cell, pieces in sorted count order, until
    no cell splits. A split can make inequitable only the cells next to its
    pieces other than the largest, so only those are checked again. Every
    step reads only the structure and the given cell order, so relabeling g
    relabels the cells and keeps their order.
    """
    n = len(lab)
    adj = g.adjacency
    # a vertex's neighbour counts into the cells are the digits of the sum of
    # its neighbours' weights, first cell most significant, so the sums sort
    # as the count vectors do (a count never exceeds the largest degree)
    bits = max(g.degrees, default=0).bit_length()
    weight = [1 << bits * (n - 1 - c) for c in cell_at]
    dirty = [False] * n
    for s in stale:
        dirty[s] = True
    s = 0
    while s < n:
        end = s + size[s]
        if not dirty[s]:
            s = end
            continue
        dirty[s] = False
        if end - s == 1:
            s = end
            continue
        pieces: dict[int, list[int]] = {}
        for v in lab[s:end]:
            counts = 0
            for u in adj[v]:
                counts += weight[u]
            piece = pieces.get(counts)
            if piece is None:
                pieces[counts] = [v]
            else:
                piece.append(v)
        if len(pieces) == 1:
            s = end
            continue
        ordered = [pieces[counts] for counts in sorted(pieces)]
        largest = max(ordered, key=len)
        pos = s
        for piece in ordered:
            size[pos] = len(piece)
            lab[pos:pos + len(piece)] = piece
            if pos != s:
                w = 1 << bits * (n - 1 - pos)
                for v in piece:
                    cell_at[v] = pos
                    weight[v] = w
            pos += len(piece)
        resume = end
        for piece in ordered:
            if piece is largest:
                continue
            for v in piece:
                for u in adj[v]:
                    c = cell_at[u]
                    dirty[c] = True
                    if c < resume:
                        resume = c
        s = resume


def _unit_partition(n: int) -> tuple[list[int], list[int], list[int]]:
    """One cell holding every vertex (n > 0), as ``_refine`` reads a
    partition."""
    return list(range(n)), [0] * n, [n] + [0] * (n - 1)


@_graph_fact
def refined_colors(g: Graph) -> tuple[int, ...]:
    """Each vertex's cell index in the refinement of the unit partition;
    equal structures in different graphs receive equal indices."""
    if len(set(g.degrees)) <= 1:
        # every vertex counts its degree into the one cell: already equitable
        return (0,) * g.n
    lab, cell_at, size = _unit_partition(g.n)
    _refine(g, lab, cell_at, size, [0])
    index = {start: i for i, start in enumerate(sorted(set(cell_at)))}
    return tuple(index[cell_at[v]] for v in range(g.n))


def _distance_profile(masks: Sequence[int], start: int) -> tuple[int, ...]:
    """How many vertices lie at each distance from start (ignoring
    multiplicity), then how many it cannot reach; breadth-first on the
    neighbour masks of a graph (``Graph.neighbor_masks``)."""
    seen = frontier = 1 << start
    counts = [1]
    while True:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        if not frontier:
            break
        seen |= frontier
        counts.append(frontier.bit_count())
    counts.append(len(masks) - seen.bit_count())  # vertices in other components
    return tuple(counts)


@_graph_fact
def _distance_profiles(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Every vertex's distance profile, by vertex; relabeling g permutes
    them, so their sorted tuple is an invariant that refinement, blind on
    regular graphs, is not."""
    masks = g.neighbor_masks
    return tuple(_distance_profile(masks, v) for v in range(g.n))


def is_isomorphic(g1: Graph, g2: Graph) -> dict[int, int] | None:
    """An adjacency- and multiplicity-preserving bijection, or None.

    g1's refinement and search order are memoised on it, so a graph compared
    with many others should come first.
    """
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return None
    if sorted(g1.degrees) != sorted(g2.degrees):
        return None
    c1, c2 = refined_colors(g1), refined_colors(g2)
    if sorted(c1) != sorted(c2):
        return None

    n = g1.n
    if n == 0:
        return {}
    candidates_by_color: dict[int, list[int]] = {}
    for v in range(n):
        candidates_by_color.setdefault(c2[v], []).append(v)

    both_simple = g1.simple and g2.simple
    masks2 = g2.neighbor_masks
    # g2's neighbours of a vertex, sorted, each once
    pools2 = g2.adjacency if g2.simple else [sorted(s) for s in g2.neighbor_sets]
    image = [-1] * n  # g1 vertex -> g2 vertex

    order = _search_order(g1)
    # an isomorphism keeps distance profiles, so an image with another profile
    # roots a subtree without one; profiles are read only when there is a
    # choice of first image
    if len(candidates_by_color[c1[order[0][0]]]) > 1:
        prof1, prof2 = _distance_profiles(g1), _distance_profiles(g2)
    else:
        prof1 = prof2 = None

    def multiplicities_match(v: int, w: int) -> bool:
        for u in range(n):
            if image[u] != -1 and g1.multiplicity(v, u) != g2.multiplicity(w, image[u]):
                return False
        return True

    def backtrack(pos: int, used: int) -> bool:
        if pos == n:
            return True
        v, earlier = order[pos]
        need = 0  # the images of v's mapped neighbours
        for u in earlier:
            need |= 1 << image[u]
        pool = pools2[image[earlier[0]]] if earlier else candidates_by_color[c1[v]]
        for w in pool:
            if used >> w & 1 or c2[w] != c1[v]:
                continue
            if prof1 is not None and prof2[w] != prof1[v]:
                continue
            if both_simple:
                # on simple graphs, w's mapped neighbours must be exactly those
                if masks2[w] & used != need:
                    continue
            elif not multiplicities_match(v, w):
                continue
            image[v] = w
            if backtrack(pos + 1, used | 1 << w):
                return True
            image[v] = -1
        return False

    if backtrack(0, 0):
        return {v: image[v] for v in range(n)}
    return None


@_graph_fact
def _search_order(g: Graph) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Static target order: most-constrained color classes first, then
    connect outward so partial assignments prune early. Each vertex comes
    with its neighbours placed before it (with multiplicity, sorted), which
    are the mapped ones when the search reaches it.

    The next vertex has the most distinct placed neighbours, then the
    smallest color class, then the least id. Vertices wait in one heap per
    count of placed neighbours, keyed by (class size, vertex); placing a
    vertex moves each unplaced neighbour one heap up and leaves its old
    entry behind, dropped when it reaches the top of its heap.
    """
    colors = refined_colors(g)
    class_size = Counter(colors)
    key = [(class_size[colors[v]], v) for v in range(g.n)]
    attached = [0] * g.n
    placed = [False] * g.n
    heaps = [sorted(key)]
    order: list[tuple[int, tuple[int, ...]]] = []
    for _ in range(g.n):
        count = len(heaps) - 1
        while True:
            heap = heaps[count]
            while heap and attached[heap[0][1]] != count:
                heappop(heap)
            if heap:
                break
            count -= 1
        v = heappop(heap)[1]
        order.append((v, tuple(u for u in g.adjacency[v] if placed[u])))
        placed[v] = True
        for u in g.neighbor_sets[v]:
            if not placed[u]:
                attached[u] += 1
                if attached[u] == len(heaps):
                    heaps.append([])
                heappush(heaps[attached[u]], key[u])
    return tuple(order)


def is_isomorphism(g1: Graph, g2: Graph, mapping: dict[int, int]) -> bool:
    """Validate that mapping is a multiplicity-preserving bijection g1 -> g2.
    A mapping whose keys are not exactly g1's vertices, or whose values are
    not exactly g2's, is not one."""
    if g1.n != g2.n or set(mapping) != set(range(g1.n)):
        return False
    try:
        if set(mapping.values()) != set(range(g2.n)):
            return False
    except TypeError:  # an unhashable value is no vertex
        return False
    for u in range(g1.n):
        for v in range(u + 1, g1.n):
            if g1.multiplicity(u, v) != g2.multiplicity(mapping[u], mapping[v]):
                return False
    return True


def canonical_labeling(g: Graph) -> tuple[int, ...]:
    """A permutation old->new minimizing the relabeled edge multiset.

    Individualization-refinement search: refine, then individualize each
    vertex of the first non-singleton cell in turn, down to discrete
    partitions whose cell order is a relabeling. The tree depends only on
    the graph's structure, so isomorphic graphs reach the same set of
    relabeled edge lists, and the least one is canonical. A leaf whose edge
    list equals the best one so far gives an automorphism: the leaf's
    relabeling followed by the inverse of the best one. A child in the orbit
    of an earlier child under the automorphisms found that fix the node's
    individualized vertices is skipped (McKay & Piperno 2014). Such an
    automorphism maps the node to itself, refinement being equivariant, and
    the earlier child's subtree onto the skipped one, so the first least
    leaf, the one returned, is never skipped.
    """
    n = g.n
    if n == 0:
        return ()
    adj = g.adjacency
    best: list | None = None  # [edge list, permutation, its inverse]
    automorphisms: list[tuple[int, ...]] = []

    def search(lab: list[int], cell_at: list[int], size: list[int], path: list[int]) -> None:
        nonlocal best
        target = 0
        while target < n and size[target] == 1:
            target += 1
        if target == n:
            perm = [0] * n
            for new, v in enumerate(lab):
                perm[v] = new
            key = sorted(
                (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges
            )
            if best is None or key < best[0]:
                best = [key, tuple(perm), lab]
            elif key == best[0]:
                inverse = best[2]
                automorphisms.append(tuple(inverse[perm[v]] for v in range(n)))
            return
        end = target + size[target]
        cell = sorted(lab[target:end])
        # the cell's orbits under the automorphisms fixing the path, as a
        # union-find forest; automorphisms found since the last child merge in
        orbit = {v: v for v in cell}
        merged = 0

        def root(v: int) -> int:
            while orbit[v] != v:
                v = orbit[v]
            return v

        tried: list[int] = []
        for v in cell:
            for gamma in automorphisms[merged:]:
                if all(gamma[p] == p for p in path):
                    for u in cell:
                        orbit[root(u)] = root(gamma[u])
            merged = len(automorphisms)
            if any(root(v) == root(t) for t in tried):
                continue
            tried.append(v)
            child_lab, child_cell_at, child_size = lab[:], cell_at[:], size[:]
            child_lab[target:end] = [v] + [u for u in lab[target:end] if u != v]
            child_size[target], child_size[target + 1] = 1, size[target] - 1
            for u in child_lab[target + 1:end]:
                child_cell_at[u] = target + 1
            _refine(g, child_lab, child_cell_at, child_size, {child_cell_at[u] for u in adj[v]})
            search(child_lab, child_cell_at, child_size, path + [v])

    lab, cell_at, size = _unit_partition(n)
    _refine(g, lab, cell_at, size, [0])
    search(lab, cell_at, size, [])
    assert best is not None
    return best[1]


def canonical_graph(g: Graph) -> Graph:
    perm = canonical_labeling(g)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
