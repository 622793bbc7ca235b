"""Exhaustive enumeration of small cubic graphs up to isomorphism.

Generation is labeled backtracking in discovery order: vertex labels are
assigned the moment a vertex is first attached, which is the
lexicographically-smallest-extension constraint and cuts the duplication per
isomorphism class from n!-sized to a few thousand. Post-hoc dedup buckets by
a distance-profile invariant and settles ties with explicit isomorphism tests
against the bucket's representatives. A representative goes first in each
test, so its refinement and search order, memoised on it, serve every later
candidate, and each candidate is refined once. Corpora are cached on disk as
graph6 files keyed by (n, connected), written atomically; a cached corpus
whose size is not the published count, or with an entry that repeats or is
not a cubic graph of its order (connected, for a connected corpus), is
regenerated.
"""

from __future__ import annotations

import os
import tempfile
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from pathlib import Path

from .errors import DomainError
from .graph6 import parse_graph6, write_graph6
from .graphs import Graph, is_connected
from .isomorphism import canonical_graph, invariant_key, is_isomorphic

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


def _connected_cubic_classes(n: int) -> list[Graph]:
    buckets: dict[tuple, list[Graph]] = {}
    for edge_tuple in _labeled_connected_cubic(n):
        g = Graph(n, edge_tuple)
        if not g.simple:
            continue
        key = invariant_key(g)
        bucket = buckets.setdefault(key, [])
        if all(is_isomorphic(seen, g) is None for seen in bucket):
            bucket.append(g)
    return [g for bucket in buckets.values() for g in bucket]


def _disconnected_cubic_classes(n: int, connected_by_order: dict[int, list[Graph]]) -> list[Graph]:
    """Disjoint unions over partitions of n into parts >= 4; distinct
    component multisets give non-isomorphic unions."""
    out: list[Graph] = []

    def partitions(total: int, smallest: int):
        if total == 0:
            yield []
            return
        for part in range(smallest, total + 1, 2):
            if total - part in (0,) or total - part >= part:
                for rest in partitions(total - part, part):
                    yield [part] + rest

    for parts in partitions(n, 4):
        if len(parts) < 2:
            continue
        per_size = {size: connected_by_order[size] for size in set(parts)}
        counts = Counter(parts)
        choices_per_size = [
            list(combinations_with_replacement(range(len(per_size[size])), mult))
            for size, mult in sorted(counts.items())
        ]
        sizes = [size for size, _ in sorted(counts.items())]

        def assemble(idx: int, chosen: list[Graph]):
            if idx == len(sizes):
                out.append(_disjoint_union(chosen))
                return
            for combo in choices_per_size[idx]:
                assemble(
                    idx + 1,
                    chosen + [per_size[sizes[idx]][i] for i in combo],
                )

        assemble(0, [])
    return out


def _disjoint_union(graphs: list[Graph]) -> Graph:
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


def _is_sound_corpus(graphs: list[Graph], n: int, connected_only: bool) -> bool:
    """No entry repeats, and each is a cubic graph on n vertices, connected
    when the corpus is."""
    return len(set(graphs)) == len(graphs) and all(
        g.n == n and g.is_cubic and (is_connected(g) or not connected_only)
        for g in graphs
    )


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
            try:
                graphs = [parse_graph6(line) for line in path.read_text().splitlines() if line.strip()]
            except ValueError:
                graphs = None  # corrupt cache, regenerate below
            expected = (CONNECTED_COUNTS if connected_only else ALL_COUNTS).get(n)
            if (
                graphs is not None
                and expected in (None, len(graphs))
                and _is_sound_corpus(graphs, n, connected_only)
            ):
                return [
                    CorpusEntry(g, write_graph6(g), "file")
                    for g in graphs
                ]
    classes = _connected_cubic_classes(n)
    if not connected_only:
        by_order = {
            size: [e.graph for e in enumerate_cubic(size, True, cache_dir)]
            for size in range(4, n - 3, 2)
        }
        classes = classes + _disconnected_cubic_classes(n, by_order)
    entries = sorted(
        (
            CorpusEntry(canon, write_graph6(canon), "enumerated")
            for canon in (canonical_graph(g) for g in classes)
        ),
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
