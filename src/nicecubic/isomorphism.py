"""Isomorphism testing and canonical labeling for small (multi)graphs.

Both rest on one equitable refinement, ``_refine`` (McKay 1981), which
counts neighbours with multiplicity. ``is_isomorphic`` refines each graph
once (the refinement, the search order and the distance profiles are facts
memoised on the graph) and backtracks within equal cells to an explicit
bijection, trying as first image only vertices whose distance profile
matches. ``canonical_labeling`` refines at every node of an
individualization search, skips branches that only swap twin vertices, and
keeps the least relabeled edge list, for stable corpus identifiers. The root
pruning does not change the mapping that the plain search returns.
"""

from __future__ import annotations

from typing import Iterable

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
    if g.n == 0:
        return ()
    lab, cell_at, size = _unit_partition(g.n)
    _refine(g, lab, cell_at, size, [0])
    index = {start: i for i, start in enumerate(sorted(set(cell_at)))}
    return tuple(index[cell_at[v]] for v in range(g.n))


def _distance_profile(g: Graph, start: int) -> tuple[int, ...]:
    """How many vertices lie at each distance from start (ignoring
    multiplicity), then how many it cannot reach; breadth-first on masks."""
    masks = g.neighbor_masks
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
    counts.append(g.n - seen.bit_count())  # vertices in other components
    return tuple(counts)


@_graph_fact
def _distance_profiles(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Every vertex's distance profile, by vertex; relabeling g permutes
    them, so their sorted tuple is an invariant that refinement, blind on
    regular graphs, is not."""
    return tuple(_distance_profile(g, v) for v in range(g.n))


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
    nbrs1, nbrs2 = g1.neighbor_sets, g2.neighbor_sets
    adj1 = g1.adjacency
    image = [-1] * n  # g1 vertex -> g2 vertex
    inverse = [-1] * n

    order = _search_order(g1)
    # an isomorphism keeps distance profiles, so a first image with another
    # profile roots a subtree without one; profiles are read only when there
    # is a choice of first image
    root_choices = len(candidates_by_color[c1[order[0]]])
    root_profile = _distance_profiles(g1)[order[0]] if root_choices > 1 else None

    def consistent(v: int, w: int) -> bool:
        mapped_nbrs = 0
        if both_simple:
            for u in adj1[v]:
                mu = image[u]
                if mu != -1:
                    mapped_nbrs += 1
                    if mu not in nbrs2[w]:
                        return False
            mapped_hits = sum(1 for x in nbrs2[w] if inverse[x] != -1)
            return mapped_hits == mapped_nbrs
        for u in range(n):
            if image[u] != -1 and g1.multiplicity(v, u) != g2.multiplicity(w, image[u]):
                return False
        return True

    def backtrack(pos: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        anchor = next((u for u in nbrs1[v] if image[u] != -1), None)
        if anchor is not None:
            pool = sorted(nbrs2[image[anchor]])
        else:
            pool = candidates_by_color[c1[v]]
        for w in pool:
            if inverse[w] != -1 or c2[w] != c1[v]:
                continue
            if pos == 0 and root_profile is not None and _distance_profiles(g2)[w] != root_profile:
                continue
            if consistent(v, w):
                image[v] = w
                inverse[w] = v
                if backtrack(pos + 1):
                    return True
                image[v] = -1
                inverse[w] = -1
        return False

    if backtrack(0):
        return {v: image[v] for v in range(n)}
    return None


@_graph_fact
def _search_order(g: Graph) -> tuple[int, ...]:
    """Static target order: most-constrained color classes first, then
    connect outward so partial assignments prune early."""
    colors = refined_colors(g)
    class_size = {c: colors.count(c) for c in set(colors)}
    remaining = set(range(g.n))
    order: list[int] = []
    placed: set[int] = set()
    while remaining:
        def score(v: int) -> tuple:
            attached = sum(1 for u in g.neighbor_sets[v] if u in placed)
            return (-attached, class_size[colors[v]], v)
        v = min(remaining, key=score)
        order.append(v)
        placed.add(v)
        remaining.remove(v)
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
    relabeled edge lists, and the least one is canonical. A branch that only
    swaps twin vertices is skipped; otherwise the leaf count is on the order
    of the automorphism group, fine at desk scale.
    """
    n = g.n
    if n == 0:
        return ()
    adj = g.adjacency
    twin_class = _twin_classes(g)
    best: list | None = None

    def search(lab: list[int], cell_at: list[int], size: list[int]) -> None:
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
                best = [key, tuple(perm)]
            return
        end = target + size[target]
        tried: set[int] = set()
        for v in sorted(lab[target:end]):
            # swapping twins is an automorphism fixing the partition, so its
            # subtree repeats an earlier one's leaves; the first minimum stays
            if twin_class[v] in tried:
                continue
            tried.add(twin_class[v])
            child_lab, child_cell_at, child_size = lab[:], cell_at[:], size[:]
            child_lab[target:end] = [v] + [u for u in lab[target:end] if u != v]
            child_size[target], child_size[target + 1] = 1, size[target] - 1
            for u in child_lab[target + 1:end]:
                child_cell_at[u] = target + 1
            _refine(g, child_lab, child_cell_at, child_size, {child_cell_at[u] for u in adj[v]})
            search(child_lab, child_cell_at, child_size)

    lab, cell_at, size = _unit_partition(n)
    _refine(g, lab, cell_at, size, [0])
    search(lab, cell_at, size)
    assert best is not None
    return best[1]


def _twin_classes(g: Graph) -> list[int]:
    """Each vertex's least twin: v and w are twins iff they meet every other
    vertex with equal multiplicity (an equivalence relation)."""
    def twins(v: int, w: int) -> bool:
        return all(
            g.multiplicity(v, x) == g.multiplicity(w, x)
            for x in g.neighbor_sets[v] | g.neighbor_sets[w]
            if x != v and x != w
        )

    return [next(w for w in range(v + 1) if w == v or twins(v, w)) for v in range(g.n)]


def canonical_graph(g: Graph) -> Graph:
    perm = canonical_labeling(g)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
