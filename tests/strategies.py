"""Hypothesis strategies for small graphs."""

from itertools import combinations

from hypothesis import reject, strategies as st

from nicecubic.graphs import Graph


@st.composite
def simple_graphs(draw, min_n=0, max_n=9):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pool = list(combinations(range(n), 2))
    if not pool:
        return Graph(n, [])
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    return Graph(n, edges)


@st.composite
def multigraphs(draw, min_n=1, max_n=7, max_edges=14):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    if n < 2:
        return Graph(n, [])
    pool = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pool), max_size=max_edges))
    return Graph(n, edges)


@st.composite
def connected_multigraphs(draw, min_n=1, max_n=7, max_extra_edges=10):
    """A random spanning tree (vertex v hangs from an earlier vertex) plus
    extra edges, parallel ones included."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    tree = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    pool = list(combinations(range(n), 2))
    extra = draw(st.lists(st.sampled_from(pool), max_size=max_extra_edges)) if pool else []
    return Graph(n, tree + extra)


@st.composite
def permutations_of(draw, n):
    return draw(st.permutations(list(range(n))))


@st.composite
def cubic_multigraphs(draw, max_n=14):
    """A loopless cubic multigraph on an even number n <= max_n of vertices,
    by the pairing model: the 3n points, three per vertex, paired off in a
    drawn order. A pairing with a loop is drawn again, up to 20 times."""
    n = draw(st.sampled_from(range(2, max_n + 1, 2)))
    for _ in range(20):
        points = draw(st.permutations(range(3 * n)))
        edges = [(points[i] // 3, points[i + 1] // 3) for i in range(0, 3 * n, 2)]
        if all(u != v for u, v in edges):
            return Graph(n, edges)
    reject()


@st.composite
def subcubic_graphs(draw, max_n=9):
    """A graph of maximum degree at most 3, simple or with parallel edges,
    possibly disconnected and with vertices of degree 0, 1 or 2: drawn
    vertex pairs, each kept while both its ends have degree below 3."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    simple = draw(st.booleans())
    pool = list(combinations(range(n), 2))
    drawn = draw(st.lists(st.sampled_from(pool), max_size=2 * n)) if pool else []
    degree = [0] * n
    edges = []
    for u, v in drawn:
        if degree[u] < 3 and degree[v] < 3 and not (simple and (u, v) in edges):
            degree[u] += 1
            degree[v] += 1
            edges.append((u, v))
    return Graph(n, edges)
