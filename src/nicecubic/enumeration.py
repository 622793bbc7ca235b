"""Exhaustive enumeration of small cubic graphs up to isomorphism.

Generation is labeled backtracking in discovery order: vertex labels are
assigned the moment a vertex is first attached, which is the
lexicographically-smallest-extension constraint and cuts the duplication per
isomorphism class from n!-sized to a few thousand. The backtracker yields
each class's breadth-first labeling from every root and in every order of
each vertex's children (the vertices whose least neighbour it is), so the
dedup keeps only breadth-first-canonical candidates: vertex 0 has a largest
distance profile and siblings come in non-increasing profile order (95 of
639 at n = 10, 708 of 9,609 at n = 12, 6,873 of 167,234 at n = 14). The
filter walks the profiles in label order and stops at the first violation.
The dedup buckets the kept candidates by their sorted distance profiles
(refinement is blind on regular graphs) and settles ties with explicit
isomorphism tests against the bucket's representatives. A representative
goes first in each test, so its refinement, search order and profiles,
memoised on it, serve every later candidate; a kept candidate's profiles
are walked twice, by the filter and for the memoised fact. The corpus of all
cubic graphs of order n is the connected corpus of order n plus the disjoint
unions of connected corpus graphs of smaller orders. Corpora are cached on
disk as graph6 files keyed by (n, connected), written atomically; a cached
corpus whose size is not the published count, or with an entry that repeats
or is not a cubic graph of its order (connected, for a connected corpus), is
regenerated, with a ``RuntimeWarning`` that names the file and the reason.
A corpus read from a file and found sound is kept with the file's bytes,
one per order and flavour: while the bytes stay the same, later calls in the
process return the same graphs, so the facts memoised on them persist from
call to call. Other bytes are parsed and checked afresh and replace it. A
generated corpus and a run without a cache are not kept. The worker
processes of ``verify --jobs`` receive bare graphs, and each keeps the
graphs it is sent again, with their facts (see ``suites``).
"""

from __future__ import annotations

import os
import tempfile
import warnings
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterator

from .errors import DomainError
from .graph6 import read_graph6_lines, write_graph6
from .graphs import Graph, is_connected
from .isomorphism import _distance_profile, _distance_profiles, canonical_graph, is_isomorphic

CACHE_ENV = "NICECUBIC_CACHE_DIR"

# Cubic graphs per order, connected (OEIS A002851) and all (A005638); a cached
# corpus of a listed order with another count is truncated or stale and
# regenerated.
CONNECTED_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509, 16: 4060, 18: 41301}
ALL_COUNTS = {4: 1, 6: 2, 8: 6, 10: 21, 12: 94, 14: 540, 16: 4207, 18: 42110}


@dataclass(frozen=True)
class CorpusEntry:
    """One corpus graph with its stable identifier.

    ``graph6`` is the encoding of the canonically relabeled graph, so ids do
    not depend on generation order. Corpora are duplicate-free under
    isomorphism.
    """

    graph: Graph
    graph6: str
    provenance: str


def _labeled_connected_cubic(n: int):
    """Yield edge tuples of connected cubic graphs on n labeled vertices,
    labels in discovery order (each isomorphism class appears, many times)."""
    deg = [0] * n
    edges: list[tuple[int, int]] = []

    def extend(v: int, next_unused: int):
        if v == n:
            yield tuple(edges)
            return
        if v == next_unused:
            return  # component exhausted with vertices left over
        need = 3 - deg[v]
        existing = [w for w in range(v + 1, next_unused) if deg[w] < 3]
        for num_new in range(min(need, n - next_unused) + 1):
            take = need - num_new
            if take > len(existing):
                continue
            new_vertices = range(next_unused, next_unused + num_new)
            for combo in combinations(existing, take):
                targets = list(combo) + list(new_vertices)
                for w in targets:
                    deg[v] += 1
                    deg[w] += 1
                    edges.append((v, w))
                yield from extend(v + 1, next_unused + num_new)
                for w in targets:
                    deg[v] -= 1
                    deg[w] -= 1
                    edges.pop()

    yield from extend(0, 1)


def _is_bfs_canonical(g: Graph) -> bool:
    """Vertex 0 has a largest distance profile and the children of each
    vertex (the vertices whose least neighbour it is, consecutively labeled)
    have non-increasing profiles. Walks the profiles in label order and stops
    at the first violation."""
    masks = g.neighbor_masks
    root = previous = _distance_profile(g, 0)
    for v in range(1, g.n):
        profile = _distance_profile(g, v)
        # siblings share their least neighbour, the lowest bit of their masks
        sibling = masks[v] & -masks[v] == masks[v - 1] & -masks[v - 1]
        if profile > root or (sibling and profile > previous):
            return False
        previous = profile
    return True


def _connected_cubic_classes(n: int) -> list[Graph]:
    # n, the edge count and the refined cells (one: the unit partition of a
    # regular graph is equitable) are the same for every candidate, so the
    # profiles alone bucket them
    buckets: dict[tuple, list[Graph]] = {}
    for edge_tuple in _labeled_connected_cubic(n):
        g = Graph(n, edge_tuple)
        # every class is yielded in discovery order from every root and in
        # every order of each vertex's children, so from a root of largest
        # profile with children in non-increasing profile order too: the
        # other candidates are redundant
        if not _is_bfs_canonical(g):
            continue
        bucket = buckets.setdefault(tuple(sorted(_distance_profiles(g))), [])
        if all(is_isomorphic(seen, g) is None for seen in bucket):
            bucket.append(g)
    return [g for bucket in buckets.values() for g in bucket]


def _disjoint_unions(
    parts: list[Graph], n: int, chosen: tuple[Graph, ...] = ()
) -> Iterator[Graph]:
    """The disjoint unions of order n over nondecreasing multisets of
    ``parts`` (connected classes, sorted by order); distinct multisets give
    non-isomorphic unions."""
    if n == 0:
        yield _disjoint_union(chosen)
    for i, g in enumerate(parts):
        if g.n > n:
            break
        yield from _disjoint_unions(parts[i:], n - g.n, chosen + (g,))


def _disjoint_union(graphs: tuple[Graph, ...]) -> Graph:
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return Graph(offset, edges)


def default_cache_dir() -> Path | None:
    env = os.environ.get(CACHE_ENV)
    if env is not None:
        return Path(env) if env else None
    return Path.home() / ".cache" / "nicecubic"


def _cache_file(cache_dir: Path, n: int, connected_only: bool) -> Path:
    flavor = "connected" if connected_only else "all"
    return cache_dir / f"cubic-n{n}-{flavor}.g6"


def _is_corpus_graph(g: Graph) -> bool:
    """The domain of the connected corpus, and of every verify suite: a
    connected simple cubic graph."""
    return g.is_cubic and g.simple and is_connected(g)


def _is_sound_corpus(graphs: list[Graph], n: int, connected_only: bool) -> bool:
    """No entry repeats, and each is a cubic graph on n vertices, connected
    (a corpus graph) when the corpus is."""
    return len(set(graphs)) == len(graphs) and all(
        g.n == n and (_is_corpus_graph(g) if connected_only else g.is_cubic)
        for g in graphs
    )


# The last corpus read and checked per (n, connected_only), with the file bytes
# it came from: a later read of the same bytes hands out the same entries, so
# the facts memoised on their graphs carry over from call to call.
_corpus_memo: dict[tuple[int, bool], tuple[bytes, list[CorpusEntry]]] = {}


def _read_cache(path: Path, n: int, connected_only: bool) -> list[CorpusEntry] | None:
    """The cached corpus in ``path``, or None, with a warning that names the
    file and the reason, when it does not parse, has the wrong count or is
    unsound. Unchanged bytes are not parsed or checked again."""
    data = path.read_bytes()
    key = (n, connected_only)
    memo = _corpus_memo.get(key)
    if memo is not None and memo[0] == data:
        return list(memo[1])
    try:
        graphs = read_graph6_lines(data.decode())
    except ValueError as exc:  # UnicodeDecodeError included
        problem = f"does not parse ({exc})"
    else:
        expected = (CONNECTED_COUNTS if connected_only else ALL_COUNTS).get(n)
        if expected not in (None, len(graphs)):
            problem = f"holds {len(graphs)} graphs, expected {expected}"
        elif not _is_sound_corpus(graphs, n, connected_only):
            flavor = "connected cubic" if connected_only else "cubic"
            problem = (
                f"repeats an entry or holds one that is not a {flavor} graph on {n} vertices"
            )
        else:
            entries = [CorpusEntry(g, write_graph6(g), "file") for g in graphs]
            _corpus_memo[key] = (data, entries)
            return list(entries)
    warnings.warn(f"corpus cache {path} {problem}; regenerating it", RuntimeWarning, stacklevel=3)
    return None


def enumerate_cubic(
    n: int,
    connected_only: bool = True,
    cache_dir: Path | str | None = None,
) -> list[CorpusEntry]:
    """All cubic simple graphs on n vertices up to isomorphism.

    Entries carry canonical graph6 ids and are sorted by them. Odd n is a
    domain error (no cubic graph has odd order); n < 4 yields the empty list.
    """
    if n % 2:
        raise DomainError("cubic graphs have even order")
    if n < 4:
        return []
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    if directory is not None:
        path = _cache_file(directory, n, connected_only)
        if path.is_file():
            entries = _read_cache(path, n, connected_only)
            if entries is not None:
                return entries
    if connected_only:
        canonical = [canonical_graph(g) for g in _connected_cubic_classes(n)]
    else:
        # the connected corpora are canonical already: only unions are labeled
        canonical = [e.graph for e in enumerate_cubic(n, True, cache_dir)]
        parts = [
            e.graph for size in range(4, n - 3, 2) for e in enumerate_cubic(size, True, cache_dir)
        ]
        canonical += [canonical_graph(g) for g in _disjoint_unions(parts, n)]
    entries = sorted(
        (CorpusEntry(g, write_graph6(g), "enumerated") for g in canonical),
        key=lambda e: e.graph6,
    )
    if directory is not None:
        directory.mkdir(parents=True, exist_ok=True)
        path = _cache_file(directory, n, connected_only)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "w") as out:
            out.write("".join(e.graph6 + "\n" for e in entries))
        os.replace(tmp, path)
    return entries


def corpus_up_to(max_n: int, cache_dir: Path | str | None = None) -> list[CorpusEntry]:
    """Connected corpus for every even order from 4 through max_n, concatenated."""
    out: list[CorpusEntry] = []
    for n in range(4, max_n + 1, 2):
        out.extend(enumerate_cubic(n, cache_dir=cache_dir))
    return out
