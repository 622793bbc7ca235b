"""Exhaustive enumeration of small cubic graphs up to isomorphism.

Generation is labeled backtracking in discovery order: vertex labels are
assigned the moment a vertex is first attached, which is the
lexicographically-smallest-extension constraint and cuts the duplication per
isomorphism class from n!-sized to a few thousand. Unpruned, the backtracker
reaches each class's breadth-first labeling from every root and in every
order of each vertex's children (the vertices whose least neighbour it is),
so the dedup needs only the breadth-first-canonical ones: vertex 0 has a
largest distance profile and siblings come in non-increasing profile order
(95 of 639 labelings at n = 10, 708 of 9,609 at n = 12, 6,873 of 167,234 at
n = 14). The backtracker applies that rule while it generates (orderly
generation, McKay 1998): it keeps the neighbour masks, and cuts a subtree as
soon as a vertex's radius-2 ball is final and larger than vertex 0's, or
than that of the sibling before it, since then every leaf below fails the
rule. Only the leaves it reaches go through the exact filter (95 at n = 10,
857 at n = 12, 14,098 at n = 14), which walks the profiles on the masks in
label order and stops at the first violation, and only a survivor becomes a
``Graph``. The dedup buckets the survivors by their sorted distance
profiles (refinement is blind on regular graphs) and settles ties with
explicit isomorphism tests against the bucket's representatives. The
profiles the filter walked are the bucket key and the graph's memoised
profiles, so each is walked once. A representative goes first in each test,
so its refinement and search order, memoised on it, serve every later
candidate. The corpus of all cubic graphs of order n is the connected corpus
of order n plus the disjoint unions of connected corpus graphs of smaller
orders. Corpora are cached on disk as graph6 files keyed by (n, connected),
written atomically; a cached corpus whose size is not the published count,
or with an entry that repeats or is not a cubic graph of its order
(connected, for a connected corpus), or whose ids hash otherwise than the
pinned corpus of its order (n <= 18), is regenerated, with a
``RuntimeWarning`` that names the file and the reason.
A corpus read from a file and found sound is kept with the file's bytes,
one per order and flavour: while the bytes stay the same, later calls in the
process return the same graphs, so the facts memoised on them persist from
call to call. Other bytes are parsed and checked afresh and replace it. A
generated corpus and a run without a cache are not kept. The worker
processes of ``verify --jobs`` receive bare graphs, and each keeps the
graphs it is sent again, with their facts (see ``suites``).
"""

from __future__ import annotations

import hashlib
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

# sha256 of the pinned corpus files, one canonical graph6 id per line, by
# (n, connected_only). A cached corpus of a listed order that passes the count
# and entry checks but hashes otherwise holds another labelling of some class
# in place of another class (the checks do not test each id canonical), and
# is regenerated.
CORPUS_SHA256 = {
    (4, True): "62073900de6d9451c02333f80b3c4de1105edb4559989fee6cfa91c1365d102b",
    (6, True): "a1b05647b5355feab146269f6686e3fd6b23dd14f31868150cdfc2ea07418764",
    (8, True): "b8fc0a55ba7e3caf1078b0dfa2cb491988d24d974937035ceffce342b39996ee",
    (10, True): "b42cba53a34d278006300a3ef51b489e513c7cbb86c65a873662f39fb469b999",
    (12, True): "856b0d2729ee2fa33cf6296f0c8d96ba58dd6324a933db780bc76b9cbf260e08",
    (14, True): "7a1a89982fbf93bccbb5825db56f89c0dbfb613bca1cd84924400d91fee6e304",
    (16, True): "20ee4d85870350a7bac124772ff6fb4310841014245ee3a247768090f12a2956",
    (18, True): "3d78964297d9c862c43683655f9f26e405387818b85b622a4196fc25d1f33d6d",
    (4, False): "62073900de6d9451c02333f80b3c4de1105edb4559989fee6cfa91c1365d102b",
    (6, False): "a1b05647b5355feab146269f6686e3fd6b23dd14f31868150cdfc2ea07418764",
    (8, False): "9e7953010de9b1a449aba161d2d3e202241433a75de44cbeec4f6a83d397a67f",
    (10, False): "66199e97987ca16b257588e39bc670baef72e4b689e86ef6f7a86d0d30247618",
    (12, False): "bfd97a5ce6b5fd21d2273172e33c2e42c2dc718d6a39fc99ee6ae23feb755eb0",
    (14, False): "4e800873938ed60b241fe2913931d6816086cca6895bbc5cab8890af8a66a4b8",
    (16, False): "e8dcbde1f829bd291acd4d92b7b06bbadaf730fcf64775ab9268f1e45355096f",
    (18, False): "439c0842fcdacfa155f1e7fb8b75a4bc0114adcd80daeb75bdd9aec1deb1318c",
}


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


# every vertex's distance profile, by vertex (``isomorphism._distance_profiles``)
Profiles = tuple[tuple[int, ...], ...]


def _canonical_candidates(n: int) -> Iterator[tuple[tuple[tuple[int, int], ...], Profiles]]:
    """The breadth-first-canonical connected cubic graphs on n labeled
    vertices, labels in discovery order, as sorted edge tuples with their
    distance profiles (each isomorphism class appears, a few times).

    A labeled backtracker: ``extend(v)`` gives vertex v its missing edges,
    to higher vertices already attached and to new ones, which take the
    next unused labels. It keeps every vertex's neighbour mask, and prunes
    as it goes. On entering ``extend(v)`` vertices 0..v-1 have degree 3 and
    gain no edge, so the radius-2 ball of a vertex whose closed
    neighbourhood lies below v is final: adding edges only grows balls, and
    B_2(u) changes only through edges at N[u]. Profiles compare
    lexicographically as the ball sizes B_0, B_1, ... do, so a final ball
    larger than vertex 0's (final from v = 4), or larger than that of the
    sibling labeled just before it (a vertex's least neighbour is the one
    that attached it, so siblings are known from the start), means every
    leaf below fails ``_bfs_canonical_profiles``, and the subtree is cut. A
    leaf that survives the cut and the filter is yielded with the profiles
    the filter walked."""
    deg = [0] * n
    masks = [0] * n
    edges: list[tuple[int, int]] = []
    ball = [0] * n  # |B_2(u)|, read only once u's closed neighbourhood is final

    def beaten(v: int) -> bool:
        """Whether a ball that became final on entering ``extend(v)`` breaks
        the root or the sibling order. Only the u in N[v - 1] become final
        now: u < v with no neighbour at v or above."""
        fresh = around = masks[v - 1] | 1 << v - 1
        while around:  # u in increasing order, vertex 0 first when it is here
            low = around & -around
            around ^= low
            u = low.bit_length() - 1
            rest = masks[u]
            if u >= v or rest >> v:
                continue
            least = rest & -rest
            reach = rest | low
            while rest:
                w = rest & -rest
                rest ^= w
                reach |= masks[w.bit_length() - 1]
            size = ball[u] = reach.bit_count()
            # vertex 0's ball is final from v = 4, and final before any other
            if size > ball[0]:
                return True
            # siblings share their least neighbour, the lowest bit of their
            # masks; u - 1, if final, has its ball already (it came before
            # u), and u + 1 has one only if it was final before this call
            a, b = u - 1, u + 1
            if a >= 1 and not masks[a] >> v and masks[a] & -masks[a] == least and size > ball[a]:
                return True
            if (
                b < v
                and not masks[b] >> v
                and not fresh >> b & 1
                and masks[b] & -masks[b] == least
                and ball[b] > size
            ):
                return True
        return False

    def extend(v: int, next_unused: int):
        # a closed neighbourhood has four vertices, so none lies below v < 4
        if v >= 4 and beaten(v):
            return
        if v == n:
            profiles = _bfs_canonical_profiles(masks)
            if profiles is not None:
                yield tuple(edges), profiles
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
                    masks[v] |= 1 << w
                    masks[w] |= 1 << v
                    edges.append((v, w))
                yield from extend(v + 1, next_unused + num_new)
                for w in targets:
                    deg[v] -= 1
                    deg[w] -= 1
                    masks[v] ^= 1 << w
                    masks[w] ^= 1 << v
                    edges.pop()

    yield from extend(0, 1)


def _bfs_canonical_profiles(masks: list[int]) -> Profiles | None:
    """Every vertex's distance profile, or None unless vertex 0 has a
    largest one and the children of each vertex (the vertices whose least
    neighbour it is, consecutively labeled) have non-increasing ones. Walks
    the profiles in label order and stops at the first violation."""
    root = previous = _distance_profile(masks, 0)
    profiles = [root]
    for v in range(1, len(masks)):
        profile = _distance_profile(masks, v)
        # siblings share their least neighbour, the lowest bit of their masks
        sibling = masks[v] & -masks[v] == masks[v - 1] & -masks[v - 1]
        if profile > root or (sibling and profile > previous):
            return None
        profiles.append(profile)
        previous = profile
    return tuple(profiles)


def _connected_cubic_classes(n: int) -> list[Graph]:
    # n, the edge count and the refined cells (one: the unit partition of a
    # regular graph is equitable) are the same for every candidate, so the
    # profiles alone bucket them
    buckets: dict[tuple, list[Graph]] = {}
    for edge_tuple, profiles in _canonical_candidates(n):
        g = Graph(n, edge_tuple)
        _distance_profiles.remember(g, profiles)
        bucket = buckets.setdefault(tuple(sorted(profiles)), [])
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
    file and the reason, when it does not parse, has the wrong count, is
    unsound or is not the pinned corpus of its order. Unchanged bytes are not
    parsed or checked again."""
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
            # the ids, not the file's bytes, so blank lines do not count
            ids = [write_graph6(g) for g in graphs]
            digest = hashlib.sha256("".join(i + "\n" for i in ids).encode()).hexdigest()
            if CORPUS_SHA256.get(key, digest) != digest:
                problem = "is not the pinned corpus of its order"
            else:
                entries = [CorpusEntry(g, i, "file") for g, i in zip(graphs, ids)]
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
