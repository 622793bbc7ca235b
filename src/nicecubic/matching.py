"""Maximum matching, perfect-matching enumeration and the nice-subgraph test.

Matchings are edge-index sets so that parallel edges stay distinguishable;
a perfect matching through one of three parallel edges is a different
matching than through another, which matters when counting how often a cut
is crossed. Search order is deterministic (lowest index first) so outputs
are reproducible across runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .errors import DomainError
from .graphs import Graph, connected_components, induced_subgraph, is_connected


@dataclass(frozen=True)
class Matching:
    """Pairwise vertex-disjoint edge set, stored as indices into g.edges."""

    edge_indices: tuple[int, ...]

    def pairs(self, g: Graph) -> tuple[tuple[int, int], ...]:
        return tuple(g.edges[i] for i in self.edge_indices)

    def covered(self, g: Graph) -> frozenset[int]:
        out = set()
        for i in self.edge_indices:
            u, v = g.edges[i]
            out.add(u)
            out.add(v)
        return frozenset(out)

    def is_perfect(self, g: Graph) -> bool:
        return 2 * len(self.edge_indices) == g.n


def make_matching(g: Graph, edge_indices: Iterable[int]) -> Matching:
    """Construct a Matching, verifying vertex-disjointness."""
    indices = tuple(sorted(edge_indices))
    seen: set[int] = set()
    for i in indices:
        u, v = g.edges[i]
        if u in seen or v in seen:
            raise ValueError(f"edges are not vertex-disjoint at index {i}")
        seen.add(u)
        seen.add(v)
    return Matching(indices)


def maximum_matching(g: Graph) -> Matching:
    """A maximum-cardinality matching via augmenting search with blossom
    contraction (general graphs). Deterministic lowest-index tie-breaking."""
    n = g.n
    adj = [sorted(g.neighbor_sets[v]) for v in range(n)]
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break

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

    def find_augmenting(root: int) -> int:
        for i in range(n):
            used[i] = False
            parent[i] = -1
            base[i] = i
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
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
                        return to
                    used[match[to]] = True
                    queue.append(match[to])
        return -1

    for v in range(n):
        if match[v] == -1:
            end = find_augmenting(v)
            while end != -1:
                prev = parent[end]
                nxt = match[prev]
                match[end] = prev
                match[prev] = end
                end = nxt

    lowest_index: dict[tuple[int, int], int] = {}
    for i, e in enumerate(g.edges):
        lowest_index.setdefault(e, i)
    indices = [
        lowest_index[(v, match[v])]
        for v in range(n)
        if match[v] > v
    ]
    return make_matching(g, indices)


def has_perfect_matching(g: Graph) -> bool:
    if g.n % 2:
        return False
    if g.n == 0:
        return True
    return 2 * len(maximum_matching(g).edge_indices) == g.n


def tutte_condition_holds(g: Graph) -> bool:
    """Exhaustive deletion-set test for perfect-matching existence.

    Independent of the augmenting-path machinery; exponential, so only
    suitable as a small-order oracle.
    """
    for size in range(g.n + 1):
        for subset in combinations(range(g.n), size):
            odd = sum(
                1 for comp in connected_components(g, subset) if len(comp) % 2
            )
            if odd > size:
                return False
    return True


def perfect_matchings(g: Graph, limit: int | None = None) -> list[Matching]:
    """All perfect matchings, ordered by branching on the lowest uncovered
    vertex and lowest edge index. ``limit`` caps the output."""
    if g.n % 2:
        return []
    if g.n == 0:
        return [Matching(())]
    out: list[Matching] = []
    covered = [False] * g.n
    chosen: list[int] = []

    def recurse() -> bool:
        if limit is not None and len(out) >= limit:
            return True
        v = next((x for x in range(g.n) if not covered[x]), None)
        if v is None:
            out.append(Matching(tuple(chosen)))
            return limit is not None and len(out) >= limit
        covered[v] = True
        for i, u in g.incidence[v]:
            if not covered[u]:
                covered[u] = True
                chosen.append(i)
                stop = recurse()
                chosen.pop()
                covered[u] = False
                if stop:
                    covered[v] = False
                    return True
        covered[v] = False
        return False

    recurse()
    return out


def count_perfect_matchings(g: Graph) -> int:
    return len(perfect_matchings(g))


def is_matching_covered(g: Graph) -> bool:
    """True iff g is connected, has >= 2 vertices, and every edge lies in some
    perfect matching (force the edge, match the rest)."""
    if g.n < 2:
        raise DomainError("matching covered is defined for graphs on >= 2 vertices")
    if not is_connected(g):
        return False
    if g.n % 2 or not g.edges:
        return False
    # parallel edges share their endpoints, so each is forced once
    return all(nice_check(g, edge) for edge in dict.fromkeys(g.edges))


def nice_check(g: Graph, w: Iterable[int]) -> bool:
    """True iff deleting the vertex set w leaves a perfectly matchable graph."""
    ws = set(w)
    if not all(0 <= v < g.n for v in ws):
        raise ValueError("vertex set not contained in graph")
    return has_perfect_matching(induced_subgraph(g, set(range(g.n)) - ws).graph)
