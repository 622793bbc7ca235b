"""Immutable multigraph container and structural primitives.

Graphs live on vertex ids 0..n-1. Parallel edges are first class (vertex-set
contractions create them); loops are rejected everywhere. All operations are
pure functions over immutable values, so evaluating them in parallel across
distinct graphs is safe.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property, reduce, wraps
from itertools import combinations
from operator import xor
from typing import Iterable, Iterator

from .errors import DomainError

VertexSet = frozenset[int]


class Graph:
    """Undirected multigraph on vertices 0..n-1, immutable after construction.

    Edges are normalized to (min, max) pairs and stored sorted, so an edge is
    identified by its index into ``edges``. Equality and hashing compare the
    vertex count and the edge multiset.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        normalized = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not supported")
            normalized.append((u, v) if u < v else (v, u))
        normalized.sort()
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(normalized)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex neighbor lists, sorted, with multiplicity."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def neighbor_sets(self) -> tuple[VertexSet, ...]:
        return tuple(frozenset(a) for a in self.adjacency)

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbor set as an int bit mask (bit w for neighbor w)."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex list of (edge index, other endpoint), sorted by index."""
        inc: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            inc[u].append((i, v))
            inc[v].append((i, u))
        return tuple(tuple(entry) for entry in inc)

    @cached_property
    def simple(self) -> bool:
        return len(set(self.edges)) == len(self.edges)

    @cached_property
    def is_cubic(self) -> bool:
        return self.n > 0 and all(d == 3 for d in self.degrees)

    def multiplicity(self, u: int, v: int) -> int:
        return self._multiplicity.get((u, v) if u < v else (v, u), 0)

    @cached_property
    def _multiplicity(self) -> dict[tuple[int, int], int]:
        return dict(Counter(self.edges))

    def closed_neighborhood(self, u: int) -> VertexSet:
        return self.neighbor_sets[u] | {u}

    def __reduce__(self):
        # Pickle the value alone; cached facts are rebuilt on demand.
        return Graph, (self.n, self.edges)


def _graph_fact(fn):
    """Memoise ``fn(g)`` on the immutable graph g, as ``cached_property``
    does: the value is stored in ``g.__dict__``, keyed by the function object
    itself. Every caller then shares one value, so only facts whose values
    are immutable qualify. ``fact.remember(g, value)`` stores a value that a
    caller computed on the way, so ``fn`` does not compute it again."""

    @wraps(fn)
    def fact(g):
        memo = g.__dict__
        if fn not in memo:
            memo[fn] = fn(g)
        return memo[fn]

    def remember(g, value):
        g.__dict__[fn] = value

    fact.remember = remember
    return fact


@dataclass(frozen=True)
class Bipartition:
    a: VertexSet
    b: VertexSet


@dataclass(frozen=True)
class EdgeCut:
    """Edge cut of a graph: the edges with exactly one end in ``side``.

    ``edge_indices`` index into the owning graph's edge tuple. ``nontrivial``
    means both sides have at least two vertices.
    """

    side: VertexSet
    edge_indices: tuple[int, ...]
    nontrivial: bool


@dataclass(frozen=True)
class ConnectivityProfile:
    connected: bool
    two_connected: bool
    three_connected: bool
    cubic: bool
    bipartition: Bipartition | None


@dataclass(frozen=True)
class InducedSubgraph:
    """Subgraph induced by a vertex set, relabeled to 0..k-1.

    Kept vertices keep their relative order. ``old_to_new`` maps each kept
    host vertex to its new id and ``new_to_old[new]`` is the host vertex the
    new vertex came from, so witnesses pass between the two labelings.
    """

    graph: Graph
    old_to_new: dict[int, int]
    new_to_old: tuple[int, ...]


@dataclass(frozen=True)
class Contraction:
    """Result of contracting a vertex set into the single vertex ``merged``.

    ``old_to_new`` maps every vertex outside the contracted set to its id in
    the new graph, so witnesses computed on the contraction can be pulled
    back to the host.
    """

    graph: Graph
    old_to_new: dict[int, int]
    merged: int


def connected_components(g: Graph, removed: Iterable[int] = ()) -> list[frozenset[int]]:
    """Components of g minus the given vertices, ordered by smallest member."""
    removed_set = set(removed)
    seen = set(removed_set)
    comps = []
    for start in range(g.n):
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in g.neighbor_sets[x]:
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    queue.append(y)
        comps.append(frozenset(comp))
    return comps


def _vertex_mask(g: Graph, vertices: Iterable[int]) -> int:
    """The int bit mask of a vertex set (bit v for vertex v)."""
    mask = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError("vertex set not contained in graph")
        mask |= 1 << v
    return mask


def _odd_component_count(g: Graph, removed: int) -> int:
    """Number of odd components of g minus the vertices of the mask
    ``removed``, by a flood fill on int masks: ``rest`` holds the unvisited
    vertices and ``todo`` the reached but unvisited ones of the current
    component, so each vertex is visited once."""
    neighbor_masks = g.neighbor_masks
    rest = ((1 << g.n) - 1) & ~removed
    odd = 0
    while rest:
        todo = rest & -rest
        size = 0
        while todo:
            low = todo & -todo
            rest ^= low
            size += 1
            todo = (todo | neighbor_masks[low.bit_length() - 1]) & rest
        odd += size & 1
    return odd


@_graph_fact
def is_connected(g: Graph) -> bool:
    return g.n >= 1 and len(connected_components(g)) == 1


@_graph_fact
def bipartition(g: Graph) -> Bipartition | None:
    """Two-coloring of g, or None if an odd cycle exists.

    Deterministic: within each component the lowest vertex goes to side a.
    """
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in g.neighbor_sets[x]:
                if color[y] == -1:
                    color[y] = 1 - color[x]
                    queue.append(y)
                elif color[y] == color[x]:
                    return None
    return Bipartition(
        a=frozenset(v for v in range(g.n) if color[v] == 0),
        b=frozenset(v for v in range(g.n) if color[v] == 1),
    )


@_graph_fact
def connectivity_profile(g: Graph) -> ConnectivityProfile:
    """Vertex-connectivity classes up to 3, cubic flag and bipartition.

    A graph is k-connected when it is connected, has more than k vertices and
    no deletion of fewer than k vertices disconnects it. One low-link DFS
    finds the cut vertices (Hopcroft & Tarjan), so the graph is 2-connected
    when it is connected, has n >= 3 and no cut vertex. A vertex pair {u, v}
    disconnects a 2-connected graph exactly when u is a cut vertex of G - v,
    so it is 3-connected when n >= 4 and no G - v has a cut vertex: one DFS
    per vertex. Parallel edges change neither class. On cubic graphs vertex
    and edge connectivity agree (kappa = lambda), so there the flags are also
    the 2- and 3-edge-connectivity classes.
    """
    forest = _low_link(g)
    connected = forest.components == 1
    two = connected and g.n >= 3 and not forest.has_cut_vertex
    three = two and g.n >= 4 and all(
        not _low_link(g, removed=v).has_cut_vertex for v in range(g.n)
    )
    return ConnectivityProfile(
        connected=connected,
        two_connected=two,
        three_connected=three,
        cubic=g.is_cubic,
        bipartition=bipartition(g),
    )


def induced_subgraph(g: Graph, s: Iterable[int]) -> InducedSubgraph:
    """Subgraph induced by s, relabeled to 0..|s|-1 in increasing host order."""
    vs = sorted(set(s))
    if vs and not (0 <= vs[0] and vs[-1] < g.n):
        raise ValueError("vertex set not contained in graph")
    old_to_new = {old: new for new, old in enumerate(vs)}
    edges = [
        (old_to_new[u], old_to_new[v])
        for u, v in g.edges
        if u in old_to_new and v in old_to_new
    ]
    return InducedSubgraph(Graph(len(vs), edges), old_to_new, tuple(vs))


def patched_side(g: Graph, side: Iterable[int], a: int, c: int) -> InducedSubgraph:
    """The subgraph induced by a cut side plus the edge ac between two of its
    vertices (the edge that restores degree 3 at the ends of a 2-cut)."""
    sub = induced_subgraph(g, side)
    patch = (sub.old_to_new[a], sub.old_to_new[c])
    return InducedSubgraph(
        Graph(sub.graph.n, sub.graph.edges + (patch,)), sub.old_to_new, sub.new_to_old
    )


def contract(g: Graph, x: Iterable[int]) -> Contraction:
    """Contract the vertex set x into a single vertex.

    Edges inside x vanish, edges crossing the cut survive (parallel edges
    allowed). Vertices outside x keep their relative order at ids 0..k-1; the
    merged vertex gets id k.
    """
    xs = set(x)
    if not xs:
        raise ValueError("cannot contract an empty vertex set")
    if not all(0 <= v < g.n for v in xs):
        raise ValueError("vertex set not contained in graph")
    if len(xs) == g.n:
        raise ValueError("cannot contract the whole vertex set")
    outside = sorted(v for v in range(g.n) if v not in xs)
    old_to_new = {old: new for new, old in enumerate(outside)}
    merged = len(outside)
    edges = []
    for u, v in g.edges:
        u_in, v_in = u in xs, v in xs
        if u_in and v_in:
            continue
        edges.append((old_to_new.get(u, merged), old_to_new.get(v, merged)))
    return Contraction(Graph(merged + 1, edges), old_to_new, merged)


def edge_cut(g: Graph, side: Iterable[int]) -> EdgeCut:
    """The cut determined by a side, with its edge indices."""
    xs = frozenset(side)
    if not all(0 <= v < g.n for v in xs):
        raise ValueError("vertex set not contained in graph")
    if not xs or len(xs) == g.n:
        raise ValueError("cut side must be a nonempty proper vertex subset")
    indices = tuple(
        i for i, (u, v) in enumerate(g.edges) if (u in xs) != (v in xs)
    )
    nontrivial = len(xs) >= 2 and g.n - len(xs) >= 2
    return EdgeCut(side=xs, edge_indices=indices, nontrivial=nontrivial)


def enumerate_cuts(g: Graph, k: int) -> list[EdgeCut]:
    """All nontrivial edge cuts with exactly k edges (each side has at least
    two vertices), one representative per {X, X-bar}.

    The representative side is the one containing vertex 0. The cut test is
    carried by the ``_cut_space_labels`` of the edges: an edge set F is the
    cut of some side exactly when its labels XOR to 0. So the sweep runs over
    the (k-1)-subsets F' of edges, carrying their label XOR, and looks up, in
    a table from label to edges, every edge b > max F' whose label is that
    XOR. Such an F = F' + b is the cut of exactly one side holding vertex 0:
    a side with cut exactly F is a colour class of a proper 2-colouring of
    the graph whose vertices are the components of G - F and whose edges are
    F's, that graph is connected because g is, and a connected graph has at
    most one proper 2-colouring up to swapping the colours. A vertex lies
    off that side exactly when its spanning-tree path from vertex 0 crosses
    F an odd number of times, so the side is the complement of the XOR of
    the subtree masks of F's tree edges, which the sweep carries too. The
    F's come in lexicographic order, so the cuts are sorted by edge indices.
    Memoised per graph and k, in ``g.__dict__`` as ``_graph_fact`` does;
    each call returns a new list.
    """
    if not is_connected(g):
        raise DomainError("cut enumeration requires a connected graph")
    if k < 1:
        raise ValueError("cut size must be positive")
    known = g.__dict__.setdefault(_cuts_of_size, {})
    cuts = known.get(k)
    if cuts is None:
        cuts = known[k] = _cuts_of_size(g, k)
    return list(cuts)


def _cuts_of_size(g: Graph, k: int) -> tuple[EdgeCut, ...]:
    """``enumerate_cuts`` of a connected g, computed."""
    labels, subtrees = _cut_space_labels(g)
    edges_by_label: dict[int, list[int]] = {}
    for i, label in enumerate(labels):
        edges_by_label.setdefault(label, []).append(i)
    m, n = len(g.edges), g.n
    # every (k-1)-subset F' in lexicographic order, with the XOR of its
    # labels and of its subtree masks
    walk: list[tuple[tuple[int, ...], int, int]] = [((), 0, 0)]
    for _ in range(k - 1):
        walk = [
            (rest + (i,), label ^ labels[i], outside ^ subtrees[i])
            for rest, label, outside in walk
            for i in range(rest[-1] + 1 if rest else 0, m)
        ]
    found: list[EdgeCut] = []
    for rest, closing, outside in walk:
        floor = rest[-1] if rest else -1
        for b in edges_by_label.get(closing, ()):
            if b <= floor:
                continue
            far = outside ^ subtrees[b]  # the vertices off vertex 0's side
            if 2 <= far.bit_count() <= n - 2:
                side = frozenset(v for v in range(n) if not far >> v & 1)
                found.append(EdgeCut(side=side, edge_indices=rest + (b,), nontrivial=True))
    return tuple(found)


def _cut_space_labels(g: Graph) -> tuple[list[int], list[int]]:
    """Per-edge labels (Pritchard & Thurimella) whose XOR over an edge set F
    is 0 exactly when F is the cut of some side, and per-edge subtree masks;
    g must be connected.

    Take a spanning tree, grown breadth first from vertex 0. The j-th
    non-tree edge gets the label 1 << j, and the tree edge from p down to w
    the XOR of the labels of the non-tree edges with exactly one end in w's
    subtree, so bit j of a label marks the edges on the fundamental cycle of
    the j-th non-tree edge. These cycles span the cycle space, and an edge
    set is a cut exactly when it meets every cycle evenly. A subtree's XOR of
    its vertices' incident non-tree labels cancels every non-tree edge with
    both ends inside, so one bottom-up pass gives the tree labels. The same
    pass gives the tree edge to w the vertex mask of w's subtree (bit v for
    vertex v), and a non-tree edge the mask 0: the XOR of these masks over a
    cut F is the set of vertices whose tree path from vertex 0 crosses F an
    odd number of times, the side of F that does not hold vertex 0.
    """
    parent_edge = {0: -1}
    order = [0]
    for v in order:
        for i, w in g.incidence[v]:
            if w not in parent_edge:
                parent_edge[w] = i
                order.append(w)
    tree = set(parent_edge.values())
    labels = [0] * len(g.edges)
    subtrees = [0] * len(g.edges)
    below = [0] * g.n
    inside = [1 << v for v in range(g.n)]
    bit = 1
    for i, (u, v) in enumerate(g.edges):
        if i not in tree:
            labels[i] = bit
            below[u] ^= bit
            below[v] ^= bit
            bit <<= 1
    for w in reversed(order[1:]):
        i = parent_edge[w]
        labels[i] = below[w]
        subtrees[i] = inside[w]
        u, v = g.edges[i]
        below[u + v - w] ^= below[w]
        inside[u + v - w] |= inside[w]
    return labels, subtrees


def _cut_masks(g: Graph) -> Iterator[tuple[tuple[int, ...], int]]:
    """(side, cut) for every cut side containing vertex 0, by size and then
    lexicographically. The side is a tuple of its vertices in increasing
    order; the cut is an edge mask (bit i for edge i), the XOR of the side's
    incident-edge masks, in which every edge with both ends in the side
    cancels. The bipartite tightness oracle walks all 2^(n-1) sides; the
    tight-cut oracle and the general branch of
    ``structure.nontrivial_tight_cuts`` walk only ``_sides_crossed_once``.
    Exponential; small orders only."""
    incident = [sum(1 << i for i, _ in g.incidence[v]) for v in range(g.n)]
    for size in range(g.n - 1):
        for extra in combinations(range(1, g.n), size):
            yield (0,) + extra, reduce(xor, map(incident.__getitem__, extra), incident[0])


def _sides_crossed_once(g: Graph, m: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The pairs of ``_cut_masks`` whose cut the matching m (an edge mask)
    crosses exactly once, in the same order. Such a side is a union of
    units, each edge of m whole and each vertex that m leaves uncovered
    alone, plus exactly one end of one further edge of m: n * 2^(n/2 - 2)
    sides when m is perfect, against 2^(n-1). Exponential; small orders
    only."""
    incident = [sum(1 << i for i, _ in g.incidence[v]) for v in range(g.n)]
    pairs = [g.edges[i] for i in range(len(g.edges)) if m >> i & 1]
    covered = {v for pair in pairs for v in pair}
    # (vertices, cut mask) per unit; the edges of m come first, in order
    units = [((u, v), incident[u] ^ incident[v]) for u, v in pairs]
    units += [((v,), incident[v]) for v in range(g.n) if v not in covered]
    zero = next((k for k, (vs, _) in enumerate(units) if 0 in vs), None)
    found = []
    for j, pair in enumerate(pairs):
        for end in pair:
            rest = [k for k in range(len(units)) if k != j]
            if end == 0:
                sides = [((end,), incident[end])]
            elif zero == j:
                continue  # vertex 0 would be the far end, outside the side
            else:
                sides = [((end,) + units[zero][0], incident[end] ^ units[zero][1])]
                rest.remove(zero)
            for k in rest:
                vs, cut = units[k]
                sides += [(side + vs, mask ^ cut) for side, mask in sides]
            found += sides
    walked = [(tuple(sorted(side)), cut) for side, cut in found]
    walked.sort(key=lambda pair: (len(pair[0]), pair[0]))
    yield from walked


def two_cut_orientations(g: Graph) -> Iterator[tuple[VertexSet, int, int, int, int]]:
    """(side, a, c, b, d) for both sides of every nontrivial 2-cut, in cut
    order: the cut edges are ab and cd, with a and c inside the side."""
    for cut in enumerate_cuts(g, 2):
        (e1u, e1v), (e2u, e2v) = (g.edges[i] for i in cut.edge_indices)
        for side in (cut.side, frozenset(range(g.n)) - cut.side):
            a, b = (e1u, e1v) if e1u in side else (e1v, e1u)
            c, d = (e2u, e2v) if e2u in side else (e2v, e2u)
            yield side, a, c, b, d


@dataclass(frozen=True)
class _DfsForest:
    """One low-link DFS over G minus at most one vertex: the number of
    components and whether some vertex disconnects its component."""

    components: int
    has_cut_vertex: bool


def _low_link(g: Graph, removed: int = -1) -> _DfsForest:
    """Iterative low-link DFS of G - removed vertex (Hopcroft & Tarjan).

    A non-root p is a cut vertex when some child w has low(w) >= pre(p), and
    a root when it has two or more children. The DFS skips only the tree
    edge's own index back to the parent, so a parallel edge is a back edge.
    """
    pre = [-1] * g.n
    low = [0] * g.n
    visited = 0
    has_cut_vertex = False
    components = 0
    incidence = g.incidence
    for root in range(g.n):
        if pre[root] != -1 or root == removed:
            continue
        pre[root] = low[root] = visited
        visited += 1
        root_children = 0
        stack = [(root, -1, iter(incidence[root]))]
        while stack:
            v, via, edges = stack[-1]
            for i, w in edges:
                if i == via or w == removed:
                    continue
                if pre[w] == -1:
                    pre[w] = low[w] = visited
                    visited += 1
                    stack.append((w, i, iter(incidence[w])))
                    break
                if pre[w] < low[v]:
                    low[v] = pre[w]
            else:
                stack.pop()
                if not stack:
                    continue
                p = stack[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if p == root:
                    root_children += 1
                elif low[v] >= pre[p]:
                    has_cut_vertex = True
        if root_children > 1:
            has_cut_vertex = True
        components += 1
    return _DfsForest(components, has_cut_vertex)
