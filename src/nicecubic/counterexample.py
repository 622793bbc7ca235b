"""Search for graphs whose minimum nontrivial barriers contain non-nice
vertices.

For 3-connected non-bipartite cubic graphs, some minimal nontrivial barrier
always consists of nice vertices only; whether a minimum-cardinality
nontrivial barrier can contain non-nice vertices is subtler, and this sweep
hunts for such instances over the enumerated corpus and optionally over
constructed splice-family members. An empty result is a legitimate outcome
at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import h44, k33, k33_triangle_non_nice
from .enumeration import corpus_up_to
from .families import FamilyG1Spec, FamilyG2Spec, build_g1, build_g2
from .graph6 import write_graph6
from .graphs import Graph, connectivity_profile
from .nice import is_nice_vertex
from .structure import barriers


@dataclass(frozen=True)
class CounterexampleHit:
    graph6: str
    barrier: tuple[int, ...]
    non_nice: tuple[int, ...]


def constructed_candidates(max_n: int) -> list[Graph]:
    """A slate of splice-family members to search beyond the corpus, each
    once: different attachments can build the same graph. The hosts are
    3-connected cubic bipartite, so no spec here is refused."""
    out = []
    nn = k33_triangle_non_nice()
    hosts = [write_graph6(k33()), write_graph6(h44())]
    for host in hosts:
        for attachment in nn:
            out.append(build_g1(FamilyG1Spec(attachment, host, 0)))
    for host1 in hosts:
        for host2 in hosts:
            out.append(
                build_g2(
                    FamilyG2Spec(
                        FamilyG1Spec(nn[0], host1, 0),
                        FamilyG1Spec(nn[1], host2, 0),
                    )
                )
            )
    return [g for g in dict.fromkeys(out) if g.n <= max_n + 10]


def search_barrier_counterexample(
    max_n: int,
    include_constructed: bool = False,
    cache_dir=None,
) -> list[CounterexampleHit]:
    """Graphs carrying a minimum-size nontrivial barrier with a non-nice
    vertex, each hit re-verified by the definitional niceness check."""
    graphs = [e.graph for e in corpus_up_to(max_n, cache_dir=cache_dir)]
    if include_constructed:
        graphs.extend(constructed_candidates(max_n))
    hits = []
    for g in graphs:
        # corpus graphs and the G1/G2 members are cubic
        profile = connectivity_profile(g)
        if not profile.three_connected or profile.bipartition is not None:
            continue
        nontrivial = [b for b in barriers(g) if b.nontrivial]
        if not nontrivial:
            continue
        minimum = min(len(b.vertices) for b in nontrivial)
        for barrier in nontrivial:
            if len(barrier.vertices) != minimum:
                continue
            non_nice = tuple(
                sorted(v for v in barrier.vertices if not is_nice_vertex(g, v))
            )
            if non_nice:
                hits.append(
                    CounterexampleHit(
                        graph6=write_graph6(g),
                        barrier=tuple(sorted(barrier.vertices)),
                        non_nice=non_nice,
                    )
                )
    return hits
