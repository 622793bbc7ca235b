"""Vertex splicing, edge splicing and quadrangular chains.

Vertex splicing deletes one vertex from each graph and joins the dangling
edge ends through a bijection phi. Edge splicing deletes one edge from each
graph and identifies the endpoint pairs. Both are the assembly operations
behind every extremal family here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import DomainError, SpliceError
from .graphs import Graph


@dataclass(frozen=True)
class SpliceResult:
    """Spliced graph plus label maps back into the two operands.

    For edge splicing the merged vertices appear in both maps (the image of
    x_i in the first operand equals the image of y_i in the second).
    """

    graph: Graph
    first_map: dict[int, int]
    second_map: dict[int, int]


def splice(
    g1: Graph,
    u: int,
    g2: Graph,
    v: int,
    phi: Mapping[int, int] | Sequence[int] | None = None,
) -> SpliceResult:
    """Splice g1 at u with g2 at v.

    phi maps each neighbor of u to a distinct neighbor of v; as a sequence it
    pairs sorted(N(u)) with the given neighbors of v in order, one for each
    neighbor. None means the sorted-order bijection. For K4 or K3,3 guests
    the result is independent of phi up to isomorphism, otherwise phi matters
    and should be chosen deliberately.
    """
    if not (0 <= u < g1.n and 0 <= v < g2.n):
        raise SpliceError("splice vertices out of range")
    n1, n2 = g1.adjacency[u], g2.adjacency[v]
    if len(set(n1)) != len(n1) or len(set(n2)) != len(n2):
        raise SpliceError("splicing at a vertex with parallel incident edges")
    if len(n1) != len(n2):
        raise SpliceError(
            f"degree mismatch: deg(u)={g1.degrees[u]} vs deg(v)={g2.degrees[v]}"
        )
    if phi is None:
        pairing = dict(zip(sorted(n1), sorted(n2)))
    elif isinstance(phi, Mapping):
        pairing = dict(phi)
    elif len(phi) != len(n1):
        raise SpliceError(f"phi lists {len(phi)} neighbors for a vertex of degree {len(n1)}")
    else:
        pairing = dict(zip(sorted(n1), phi))
    if sorted(pairing) != sorted(n1) or sorted(pairing.values()) != sorted(n2):
        raise SpliceError("phi is not a bijection between the two neighborhoods")

    first_map = {old: new for new, old in enumerate(x for x in range(g1.n) if x != u)}
    offset = g1.n - 1
    second_map = {
        old: offset + new
        for new, old in enumerate(x for x in range(g2.n) if x != v)
    }
    edges = [
        (first_map[a], first_map[b]) for a, b in g1.edges if u not in (a, b)
    ]
    edges += [
        (second_map[a], second_map[b]) for a, b in g2.edges if v not in (a, b)
    ]
    edges += [(first_map[a], second_map[pairing[a]]) for a in sorted(n1)]
    return SpliceResult(Graph(g1.n + g2.n - 2, edges), first_map, second_map)


def edge_splice(
    g1: Graph,
    e1: tuple[int, int],
    g2: Graph,
    e2: tuple[int, int],
) -> SpliceResult:
    """Edge splice g1 at e1 = (x1, x2) with g2 at e2 = (y1, y2).

    One instance of each edge is removed and x_i is identified with y_i; the
    caller fixes the orientation by the order of the endpoint pairs.
    """
    x1, x2 = e1
    y1, y2 = e2
    if g1.multiplicity(x1, x2) == 0:
        raise SpliceError(f"{e1} is not an edge of the first graph")
    if g2.multiplicity(y1, y2) == 0:
        raise SpliceError(f"{e2} is not an edge of the second graph")

    keep1 = [x for x in range(g1.n) if x not in (x1, x2)]
    keep2 = [y for y in range(g2.n) if y not in (y1, y2)]
    z1 = len(keep1) + len(keep2)
    z2 = z1 + 1
    first_map = {old: new for new, old in enumerate(keep1)}
    first_map[x1], first_map[x2] = z1, z2
    second_map = {old: len(keep1) + new for new, old in enumerate(keep2)}
    second_map[y1], second_map[y2] = z1, z2

    edges = []
    skipped = False
    for a, b in g1.edges:
        if not skipped and {a, b} == {x1, x2}:
            skipped = True
            continue
        edges.append((first_map[a], first_map[b]))
    skipped = False
    for a, b in g2.edges:
        if not skipped and {a, b} == {y1, y2}:
            skipped = True
            continue
        edges.append((second_map[a], second_map[b]))
    return SpliceResult(Graph(z2 + 1, edges), first_map, second_map)


def linear_chain(n: int) -> Graph:
    """Chain of n quadrangles; 2n+2 vertices labeled a_i = 2i, b_i = 2i+1.

    The designated end edges (0, 1) and (2n, 2n+1) have both endpoints of
    degree 2; every other vertex has degree 3 (for n = 1 all four vertices
    have degree 2).
    """
    if n < 1:
        raise DomainError("a quadrangular chain needs at least one quadrangle")
    edges = [(2 * i, 2 * i + 1) for i in range(n + 1)]
    for i in range(n):
        edges.append((2 * i, 2 * i + 2))
        edges.append((2 * i + 1, 2 * i + 3))
    return Graph(2 * n + 2, edges)


def chain_end_edges(n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two designated degree-2 end edges of linear_chain(n), always a
    disjoint pair (for n = 1 the only acceptable choice)."""
    if n < 1:
        raise DomainError("a quadrangular chain needs at least one quadrangle")
    return (0, 1), (2 * n, 2 * n + 1)


def twotwo_edges(g: Graph) -> list[tuple[int, int]]:
    """Edges whose two endpoints both have degree 2."""
    return [
        (u, v) for u, v in dict.fromkeys(g.edges)
        if g.degrees[u] == 2 and g.degrees[v] == 2
    ]
