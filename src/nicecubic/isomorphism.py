"""Isomorphism testing and canonical labeling for small (multi)graphs.

Both rest on one equitable refinement, ``_refine`` (McKay 1981), which
counts neighbours with multiplicity. ``is_isomorphic`` refines each graph
once and backtracks within equal cells to an explicit bijection;
``canonical_labeling`` refines at every node of an individualization search
and keeps the least relabeled edge list, for stable corpus identifiers.
"""

from __future__ import annotations

from .graphs import Graph


def _refine(g: Graph, cells: list[list[int]]) -> list[list[int]]:
    """The coarsest equitable refinement of an ordered partition.

    Splits the first cell whose vertices differ in their neighbour counts
    (with multiplicity) into each cell, pieces in sorted count order, until
    no cell splits. Every step reads only the structure and the given cell
    order, so relabeling g relabels the cells and keeps their order.
    """
    cells = list(cells)
    cell_of = [0] * g.n
    while True:
        for idx, cell in enumerate(cells):
            for v in cell:
                cell_of[v] = idx
        for idx, cell in enumerate(cells):
            if len(cell) <= 1:
                continue
            pieces: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                counts = [0] * len(cells)
                for u in g.adjacency[v]:
                    counts[cell_of[u]] += 1
                pieces.setdefault(tuple(counts), []).append(v)
            if len(pieces) > 1:
                cells[idx:idx + 1] = [pieces[sig] for sig in sorted(pieces)]
                break
        else:
            return cells


def refined_colors(g: Graph) -> tuple[int, ...]:
    """Each vertex's cell index in the refinement of the unit partition;
    equal structures in different graphs receive equal indices."""
    cell_of = {v: i for i, cell in enumerate(_refine(g, [list(range(g.n))])) for v in cell}
    return tuple(cell_of[v] for v in range(g.n))


def invariant_key(g: Graph) -> tuple:
    """Cheap graph invariant used to bucket candidates before full testing.

    Combines the refined cell sizes with per-vertex distance profiles;
    refinement alone is blind on regular graphs.
    """
    sizes = tuple(len(cell) for cell in _refine(g, [list(range(g.n))]))
    profiles = sorted(_distance_profile(g, v) for v in range(g.n))
    return (g.n, len(g.edges), sizes, tuple(profiles))


def _distance_profile(g: Graph, start: int) -> tuple[int, ...]:
    dist = [-1] * g.n
    dist[start] = 0
    frontier = [start]
    counts = [1]
    while frontier:
        nxt = []
        for x in frontier:
            for y in g.neighbor_sets[x]:
                if dist[y] == -1:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        if nxt:
            counts.append(len(nxt))
        frontier = nxt
    counts.append(g.n - sum(counts))  # vertices in other components
    return tuple(counts)


def is_isomorphic(g1: Graph, g2: Graph) -> dict[int, int] | None:
    """An adjacency- and multiplicity-preserving bijection, or None."""
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return None
    if sorted(g1.degrees) != sorted(g2.degrees):
        return None
    c1, c2 = refined_colors(g1), refined_colors(g2)
    if sorted(c1) != sorted(c2):
        return None

    n = g1.n
    candidates_by_color: dict[int, list[int]] = {}
    for v in range(n):
        candidates_by_color.setdefault(c2[v], []).append(v)

    both_simple = g1.simple and g2.simple
    nbrs1, nbrs2 = g1.neighbor_sets, g2.neighbor_sets
    adj1 = g1.adjacency
    image = [-1] * n  # g1 vertex -> g2 vertex
    inverse = [-1] * n

    # Static target order: most-constrained color classes first, then connect
    # outward so partial assignments prune early.
    order = _search_order(g1, c1)

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


def _search_order(g: Graph, colors: tuple[int, ...]) -> list[int]:
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
    return order


def is_isomorphism(g1: Graph, g2: Graph, mapping: dict[int, int]) -> bool:
    """Validate that mapping is a multiplicity-preserving bijection g1 -> g2."""
    if g1.n != g2.n or len(mapping) != g1.n:
        return False
    if sorted(mapping.values()) != list(range(g2.n)):
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
    best: list | None = None

    def search(cells: list[list[int]]):
        nonlocal best
        cells = _refine(g, cells)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            perm = [0] * g.n
            for new, cell in enumerate(cells):
                perm[cell[0]] = new
            key = sorted(
                (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges
            )
            if best is None or key < best[0]:
                best = [key, tuple(perm)]
            return
        cell = cells[target]
        tried: set[int] = set()
        for v in sorted(cell):
            # swapping twins is an automorphism fixing the partition, so its
            # subtree repeats an earlier one's leaves; the first minimum stays
            if twin_class[v] in tried:
                continue
            tried.add(twin_class[v])
            rest = [u for u in cell if u != v]
            search(cells[:target] + [[v], rest] + cells[target + 1:])

    if g.n == 0:
        return ()
    twin_class = _twin_classes(g)
    search([list(range(g.n))])
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
