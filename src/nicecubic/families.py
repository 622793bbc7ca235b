"""Extremal-family constructors and recognizers.

Families (tags match the CLI):

- ``Hdiamond``: a quadrangular chain edge-spliced into a connected cubic
  bipartite graph, leaving exactly one degree-2/degree-2 edge. Not cubic
  itself; the building block for everything below.
- ``F`` (index i in 1..6): K4 with i of its edges replaced by Hdiamond
  blocks. These are exactly the 2-connected non-bipartite cubic graphs with
  precisely 4 nice vertices, other than K4 itself.
- ``G1`` / ``G2``: the K3,3-with-triangle graph vertex-spliced, at one or
  both of its non-nice vertices, with 3-connected cubic bipartite graphs.
  Together with the prism and the K3,3-with-triangle graph these are exactly
  the 3-connected non-bipartite cubic graphs with precisely 6 nice vertices.
- ``T``: K3,3, closed under edge-splicing a chain-plus-K3,3 block onto any
  edge. Exactly the cubic bipartite graphs whose nice-pair rectangles never
  exceed 3 by 3.

Recognition is structural and self-verifying. Hdiamond, F and T are
peeled: quadrangles off the unique 22-edge, chain blocks off minimal 2-cut
sides. Only what an input can fail is tested (a block's shape, the K4 or
K3,3 a peel ends at); proofs in ``_recognize_hdiamond`` and ``_recognize_t``
rule out the rest. G1 and G2 start from a minimal barrier of size 3 whose
guests contract to the K3,3-with-triangle graph, then build candidate specs
(one for G1, at most six for G2) until one is isomorphic to the input.
``recognize_family`` replays each witness once, by ``verify_membership``,
and raises InternalCheckError when it does not rebuild its input. The
``nice-count-bounds`` and ``nice-pair-rectangle`` suites check that the
families are exactly the graphs with the extremal nice counts and bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations, product
from typing import Any

from .catalog import k33, k33_triangle, k33_triangle_non_nice, k4, triangular_prism
from .errors import (
    DomainError,
    GraphParseError,
    InternalCheckError,
    InvalidFamilySpecError,
    SpliceError,
)
from .graph6 import parse_graph6, write_graph6
from .graphs import (
    Graph,
    bipartition,
    connected_components,
    connectivity_profile,
    contract,
    induced_subgraph,
    is_connected,
    patched_side,
    two_cut_orientations,
)
from .isomorphism import is_isomorphic, is_isomorphism
from .splicing import (
    SpliceResult,
    chain_end_edges,
    edge_splice,
    linear_chain,
    splice,
    twotwo_edges,
)
from .structure import barriers


# ---------------------------------------------------------------------------
# Family specs (JSON-serializable construction recipes)


@dataclass(frozen=True)
class HdiamondSpec:
    """Chain of ``quads`` quadrangles edge-spliced into ``host`` at
    ``host_edge`` (ordered; the chain's first end merges with the first
    endpoint)."""

    quads: int
    host_graph6: str
    host_edge: tuple[int, int]


@dataclass(frozen=True)
class Replacement:
    """Replace the K4 edge ``edge`` (ordered) by ``block``; the first
    endpoint merges with the first end of the block's 22-edge."""

    edge: tuple[int, int]
    block: HdiamondSpec


@dataclass(frozen=True)
class FamilyFSpec:
    replacements: tuple[Replacement, ...]


@dataclass(frozen=True)
class FamilyG1Spec:
    """Splice the K3,3-with-triangle graph at ``attachment`` (which must be
    one of its two non-nice vertices) with ``host`` at ``host_vertex``.

    ``phi`` lists the host neighbors paired with sorted(N(attachment)); None
    means sorted order. Every phi gives the same G1 member up to isomorphism
    (the core's automorphisms fixing the attachment permute its neighbors
    every way), so G1 recognition builds one candidate. The phis of a G2
    member genuinely matter; its recognition sorts the first (those same
    automorphisms fix the other non-nice vertex) and tries six for the second.
    """

    attachment: int
    host_graph6: str
    host_vertex: int
    phi: tuple[int, int, int] | None = None


@dataclass(frozen=True)
class FamilyG2Spec:
    first: FamilyG1Spec
    second: FamilyG1Spec


@dataclass(frozen=True)
class TStep:
    """One growth step: build a chain-plus-K3,3 block and edge-splice it onto
    ``host_edge`` of the current graph (labeling of the graph built so far)."""

    quads: int
    host_edge: tuple[int, int]
    k33_edge: tuple[int, int] = (0, 3)


@dataclass(frozen=True)
class FamilyTSpec:
    steps: tuple[TStep, ...] = field(default_factory=tuple)


FamilySpec = HdiamondSpec | FamilyFSpec | FamilyG1Spec | FamilyG2Spec | FamilyTSpec


# ---------------------------------------------------------------------------
# Constructors


def _host_fault(host: Graph, three_connected_required: bool) -> str | None:
    """Why host cannot carry a chain (a simple, connected, cubic bipartite
    graph) or a vertex splice (one that is also 3-connected), or None when
    it can."""
    if not (
        host.simple
        and host.is_cubic
        and is_connected(host)
        and bipartition(host) is not None
    ):
        return "host must be a connected cubic bipartite graph"
    if three_connected_required and not connectivity_profile(host).three_connected:
        return "host must be 3-connected for this family"
    return None


def _validated_host(graph6: str, three_connected_required: bool) -> Graph:
    host = parse_graph6(graph6)
    fault = _host_fault(host, three_connected_required)
    if fault is not None:
        raise InvalidFamilySpecError(fault)
    return host


def build_hdiamond(spec: HdiamondSpec) -> tuple[Graph, tuple[int, int]]:
    """Build a chain block; returns (graph, its unique 22-edge, ordered with
    the chain's top rail first)."""
    if spec.quads < 1:
        raise InvalidFamilySpecError("chain needs at least one quadrangle")
    host = _validated_host(spec.host_graph6, three_connected_required=False)
    a, b = spec.host_edge
    if host.multiplicity(a, b) == 0:
        raise InvalidFamilySpecError(f"{spec.host_edge} is not an edge of the host")
    chain = linear_chain(spec.quads)
    near, far = chain_end_edges(spec.quads)
    res = edge_splice(chain, near, host, (a, b))
    return res.graph, (res.first_map[far[0]], res.first_map[far[1]])


def build_f(spec: FamilyFSpec) -> Graph:
    if not 1 <= len(spec.replacements) <= 6:
        raise InvalidFamilySpecError("between 1 and 6 edge replacements required")
    seen_edges = set()
    for rep in spec.replacements:
        u, v = rep.edge
        if not (0 <= u < 4 and 0 <= v < 4 and u != v):
            raise InvalidFamilySpecError(f"{rep.edge} is not a K4 edge")
        if frozenset(rep.edge) in seen_edges:
            raise InvalidFamilySpecError("each K4 edge can be replaced at most once")
        seen_edges.add(frozenset(rep.edge))
    current = k4()
    where = {v: v for v in range(4)}
    for rep in spec.replacements:
        block, block_22 = build_hdiamond(rep.block)
        u, v = rep.edge
        res = edge_splice(current, (where[u], where[v]), block, block_22)
        where = {orig: res.first_map[cur] for orig, cur in where.items()}
        current = res.graph
    return current


def _splice_guest(core: Graph, attachment: int, spec: FamilyG1Spec) -> SpliceResult:
    """Splice ``spec``'s host, validated, into core at the vertex attachment."""
    host = _validated_host(spec.host_graph6, three_connected_required=True)
    if not 0 <= spec.host_vertex < host.n:
        raise InvalidFamilySpecError("host vertex out of range")
    return splice(core, attachment, host, spec.host_vertex, spec.phi)


def build_g1(spec: FamilyG1Spec) -> Graph:
    if spec.attachment not in k33_triangle_non_nice():
        raise InvalidFamilySpecError(
            "the attachment vertex must be one of the two non-nice vertices"
        )
    return _splice_guest(k33_triangle(), spec.attachment, spec).graph


def build_g2(spec: FamilyG2Spec) -> Graph:
    first, second = spec.first, spec.second
    non_nice = set(k33_triangle_non_nice())
    if {first.attachment, second.attachment} != non_nice:
        raise InvalidFamilySpecError(
            "the two attachments must be exactly the two non-nice vertices"
        )
    res = _splice_guest(k33_triangle(), first.attachment, first)
    return _splice_guest(res.graph, res.first_map[second.attachment], second).graph


def build_t(spec: FamilyTSpec) -> Graph:
    current = k33()
    base = write_graph6(k33())
    for step in spec.steps:
        if step.quads < 1:
            raise InvalidFamilySpecError("chain needs at least one quadrangle")
        block, block_22 = build_hdiamond(
            HdiamondSpec(quads=step.quads, host_graph6=base, host_edge=step.k33_edge)
        )
        u, v = step.host_edge
        if current.multiplicity(u, v) == 0:
            raise InvalidFamilySpecError(
                f"{step.host_edge} is not an edge of the graph built so far"
            )
        current = edge_splice(current, (u, v), block, block_22).graph
    return current


def build_family(spec: FamilySpec | dict) -> Graph:
    """Build a family member from a spec object or its dict form."""
    if isinstance(spec, dict):
        spec = family_spec_from_dict(spec)
    if isinstance(spec, HdiamondSpec):
        return build_hdiamond(spec)[0]
    if isinstance(spec, FamilyFSpec):
        return build_f(spec)
    if isinstance(spec, FamilyG1Spec):
        return build_g1(spec)
    if isinstance(spec, FamilyG2Spec):
        return build_g2(spec)
    if isinstance(spec, FamilyTSpec):
        return build_t(spec)
    raise InvalidFamilySpecError(f"unrecognized spec {spec!r}")


# ---------------------------------------------------------------------------
# Spec (de)serialization


def family_spec_to_dict(spec: FamilySpec) -> dict:
    if isinstance(spec, HdiamondSpec):
        return {
            "family": "Hdiamond",
            "quads": spec.quads,
            "host": spec.host_graph6,
            "host_edge": list(spec.host_edge),
        }
    if isinstance(spec, FamilyFSpec):
        return {
            "family": "F",
            "replacements": [
                {"edge": list(rep.edge), **_untagged(rep.block)} for rep in spec.replacements
            ],
        }
    if isinstance(spec, FamilyG1Spec):
        return {
            "family": "G1",
            "attachment": spec.attachment,
            "host": spec.host_graph6,
            "host_vertex": spec.host_vertex,
            "phi": list(spec.phi) if spec.phi is not None else None,
        }
    if isinstance(spec, FamilyG2Spec):
        return {
            "family": "G2",
            "splices": [_untagged(spec.first), _untagged(spec.second)],
        }
    if isinstance(spec, FamilyTSpec):
        return {
            "family": "T",
            "steps": [
                {
                    "quads": step.quads,
                    "host_edge": list(step.host_edge),
                    "k33_edge": list(step.k33_edge),
                }
                for step in spec.steps
            ],
        }
    raise InvalidFamilySpecError(f"unrecognized spec {spec!r}")


def _untagged(spec: FamilySpec) -> dict:
    """The dict form of a spec nested in another, without a family tag."""
    return {k: v for k, v in family_spec_to_dict(spec).items() if k != "family"}


def _host(value: Any) -> str:
    if not isinstance(value, str):
        raise InvalidFamilySpecError(f"host must be a graph6 string, not {value!r}")
    return value


def _integer(value: Any, name: str = "vertex id") -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidFamilySpecError(f"{name} must be an integer, not {value!r}")
    return value


def _vertices(value: Any) -> tuple[int, ...]:
    return tuple(_integer(v) for v in value)


def _edge(value: Any) -> tuple[int, int]:
    edge = _vertices(value)
    if len(edge) != 2:
        raise InvalidFamilySpecError(f"an edge needs two vertex ids, not {value!r}")
    return edge


def _hdiamond_from_dict(d: dict) -> HdiamondSpec:
    return HdiamondSpec(
        quads=_integer(d["quads"], "quads"),
        host_graph6=_host(d["host"]),
        host_edge=_edge(d["host_edge"]),
    )


def _g1_from_dict(d: dict) -> FamilyG1Spec:
    if not isinstance(d, dict):
        raise InvalidFamilySpecError(f"a splice must be an object, not {d!r}")
    phi = d.get("phi")
    return FamilyG1Spec(
        attachment=_integer(d["attachment"], "attachment"),
        host_graph6=_host(d["host"]),
        host_vertex=_integer(d["host_vertex"], "host_vertex"),
        phi=_vertices(phi) if phi is not None else None,
    )


def family_spec_from_dict(d: dict) -> FamilySpec:
    try:
        tag = d["family"]
        if tag == "Hdiamond":
            return _hdiamond_from_dict(d)
        if tag == "F":
            return FamilyFSpec(
                replacements=tuple(
                    Replacement(edge=_edge(rep["edge"]), block=_hdiamond_from_dict(rep))
                    for rep in d["replacements"]
                )
            )
        if tag == "G1":
            return _g1_from_dict(d)
        if tag == "G2":
            first, second = d["splices"]
            return FamilyG2Spec(first=_g1_from_dict(first), second=_g1_from_dict(second))
        if tag == "T":
            return FamilyTSpec(
                steps=tuple(
                    TStep(
                        quads=_integer(step["quads"], "quads"),
                        host_edge=_edge(step["host_edge"]),
                        k33_edge=_edge(step.get("k33_edge", (0, 3))),
                    )
                    for step in d["steps"]
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidFamilySpecError(f"malformed family spec: {exc}") from exc
    raise InvalidFamilySpecError(f"unknown family tag {d.get('family')!r}")


# ---------------------------------------------------------------------------
# Recognition


@dataclass(frozen=True)
class FamilyMembership:
    """Verdict plus a replayable decomposition witness.

    ``family`` is one of K4, prism, K33_triangle, F, G1, G2, T, Hdiamond,
    none. ``index`` is the replacement count for F. ``recognize_family``
    returns a witness only after ``verify_membership`` has replayed it
    through the constructors and found it isomorphic to the input.
    """

    family: str
    index: int | None
    witness: dict[str, Any]


def _splice_matches(
    base: Graph,
    attach_edge: tuple[int, int],
    block: Graph,
    block_edge: tuple[int, int],
    target: Graph,
) -> bool:
    """Does edge-splicing block onto base reproduce target (either
    orientation of the attachment edge)?"""
    for oriented in (attach_edge, (attach_edge[1], attach_edge[0])):
        rebuilt = edge_splice(base, oriented, block, block_edge).graph
        if is_isomorphic(rebuilt, target) is not None:
            return True
    return False


def _recognize_hdiamond(g: Graph) -> dict | None:
    """Peel quadrangles from the unique 22-edge; returns a witness dict with
    the chain length and inner host, or None if g has no such shape.

    The entry shape (simple, connected, bipartite, one 22-edge pq, the rest
    cubic) forces n >= 8: p and q differ in colour, so 3|A| - 1 = 3|B| - 1,
    |A| = |B| >= 3, and |A| = 3 would give q degree 3. So p and q have other
    neighbours p2 != q2 (else p, q, p2 form a triangle). If p2q2 is an edge,
    deleting p and q keeps the shape, with 22-edge p2q2. Otherwise p2q2
    closes a simple, connected, cubic, bipartite host: p2 and q2 are three
    steps apart, and every vertex of G - p - q reaches one of them.
    """
    if not g.simple or not is_connected(g) or bipartition(g) is None:
        return None
    ends = twotwo_edges(g)
    if len(ends) != 1 or sorted(g.degrees) != [2, 2] + [3] * (g.n - 2):
        return None
    current = g
    p, q = ends[0]
    quads = 0
    while True:
        (p2,) = set(current.adjacency[p]) - {q}
        (q2,) = set(current.adjacency[q]) - {p}
        quads += 1
        remaining = frozenset(range(current.n)) - {p, q}
        if current.multiplicity(p2, q2):
            sub = induced_subgraph(current, remaining)
            current, p, q = sub.graph, sub.old_to_new[p2], sub.old_to_new[q2]
            continue
        patched = patched_side(current, remaining, p2, q2)
        host, h1, h2 = patched.graph, patched.old_to_new[p2], patched.old_to_new[q2]
        spec = HdiamondSpec(
            quads=quads, host_graph6=write_graph6(host), host_edge=(h1, h2)
        )
        return {"spec": family_spec_to_dict(spec), "host": host}


def _two_cut_candidates(g: Graph) -> list[tuple[frozenset[int], int, int]]:
    """(side, a, c) for every 2-cut side, ordered by side size, then cut
    order (a stable sort). a != c, as cut edges ab and cb would make c's
    third edge a bridge, and F graphs, their patched sides and T hosts are
    bridgeless. A peel patches only the side it takes."""
    out = [
        (side, a, c) for side, a, c, _, _ in two_cut_orientations(g) if not g.multiplicity(a, c)
    ]
    out.sort(key=lambda item: len(item[0]))
    return out


def _recognize_f(g: Graph) -> tuple[int, list[dict]] | None:
    """Peel Hdiamond blocks off the minimal non-bipartite 2-cut side until K4
    remains. Returns (i, steps) or None. g is 2-connected but not
    3-connected, so not K4 itself, and i >= 1."""
    current = g
    steps: list[dict] = []
    while True:
        if is_isomorphic(current, k4()) is not None:
            return len(steps), steps
        if len(steps) >= 6:
            return None
        for side, a, c in _two_cut_candidates(current):
            if bipartition(induced_subgraph(current, side).graph) is None:
                break
        else:
            return None
        block_side = (frozenset(range(current.n)) - side) | {a, c}
        block_witness = _recognize_hdiamond(patched_side(current, block_side, a, c).graph)
        if block_witness is None:
            return None
        residue = patched_side(current, side, a, c)
        steps.append(
            {
                "residue_graph6": write_graph6(residue.graph),
                "attach_edge": [residue.old_to_new[a], residue.old_to_new[c]],
                "block": block_witness["spec"],
            }
        )
        current = residue.graph


def _recognize_t(g: Graph) -> list[dict] | None:
    """Peel leaf K3,3 blocks through minimal 2-cut sides. Returns the step
    list (empty for K3,3 itself) or None.

    Every ``current`` (g, then peeled hosts) is connected, cubic, bipartite,
    and so 2-connected: no side X of a bridge has 3|A∩X| - 3|B∩X| = ±1. So
    both sides of a 2-edge cut are connected, and the cut ends a, c inside a
    side differ in colour, as 3|A∩X| - 3|B∩X| is the difference of the cut
    edges leaving each colour. As ac is no edge (``_two_cut_candidates``),
    the other side plus a, c and ac has ``_recognize_hdiamond``'s entry shape."""
    current = g
    steps: list[dict] = []
    while True:
        if is_isomorphic(current, k33()) is not None:
            return steps
        candidates = _two_cut_candidates(current)
        if not candidates:
            return None
        side, a, c = candidates[0]
        leaf = patched_side(current, side, a, c)
        if is_isomorphic(leaf.graph, k33()) is None:
            return None
        block_side = (frozenset(range(current.n)) - side) | {a, c}
        block_witness = _recognize_hdiamond(patched_side(current, block_side, a, c).graph)
        steps.append(
            {
                "leaf_graph6": write_graph6(leaf.graph),
                "leaf_edge": [leaf.old_to_new[a], leaf.old_to_new[c]],
                "block": block_witness["spec"],
                "rest_graph6": write_graph6(block_witness["host"]),
            }
        )
        current = block_witness["host"]


def _first_splice_build(g: Graph, hosts: list[tuple[Graph, int]]) -> FamilySpec | None:
    """The first candidate spec splicing one (G1) or two (G2) host vertices,
    in the order given, into the non-nice vertices 0 and 1 of the
    K3,3-with-triangle graph whose build is isomorphic to g. Swapping 0 and 1
    fixes 2, 3 and 4, so the other assignment builds the same members; the
    automorphisms permuting 2, 3, 4 (5, 6, 7 with them) turn any first phi
    into the sorted host neighbours. G1 builds one candidate, G2 six."""
    parts = [(write_graph6(h), v, sorted(set(h.adjacency[v]))) for h, v in hosts]
    first_phi = [tuple(parts[0][2])]
    for phis in product(first_phi, *(permutations(nbrs) for _, _, nbrs in parts[1:])):
        specs = [
            FamilyG1Spec(attachment, g6, v, phi)
            for attachment, (g6, v, _), phi in zip(k33_triangle_non_nice(), parts, phis)
        ]
        spec = specs[0] if len(specs) == 1 else FamilyG2Spec(*specs)
        if is_isomorphic(build_family(spec), g) is not None:
            return spec
    return None


def _recognize_g1_g2(g: Graph) -> tuple[str, FamilySpec] | None:
    # g is simple, cubic and 3-connected, so matching covered: every barrier
    # is independent and leaves only odd components (Lovász & Plummer), three
    # for the minimal size-3 ones, which come in sorted order. Every
    # nontrivial one but the core's own is a guest: contracting the guests
    # must leave the core, and each guest's host is g with everything outside
    # that guest contracted. A contracted guest's neighbours form the core's
    # only size-3 barrier {2, 3, 4}, so it lands on the non-nice 0 or 1. The
    # guests are unordered: swapping 0 and 1 maps one order's candidates to
    # the other's.
    everything = frozenset(range(g.n))
    for barrier in barriers(g):
        s = barrier.vertices
        if not barrier.minimal_nontrivial or len(s) != 3:
            continue
        nontrivial = [c for c in connected_components(g, s) if len(c) > 1]
        if len(nontrivial) < 2:
            continue
        for guests in combinations(nontrivial, len(nontrivial) - 1):
            core = g
            label = {v: v for v in range(g.n)}  # g's vertices, in core's labels
            for guest in guests:
                con = contract(core, {label[v] for v in guest})
                label = {v: con.old_to_new[w] for v, w in label.items() if w in con.old_to_new}
                core = con.graph
            if is_isomorphic(core, k33_triangle()) is None:
                continue
            hosts = [contract(g, everything - guest) for guest in guests]
            if any(_host_fault(h.graph, three_connected_required=True) for h in hosts):
                continue
            spec = _first_splice_build(g, [(h.graph, h.merged) for h in hosts])
            if spec is not None:
                return f"G{len(guests)}", spec
    return None


def recognize_family(g: Graph) -> FamilyMembership:
    """Classify g against the extremal families, with a verified witness.

    Accepts cubic graphs, plus the almost-cubic chain blocks (exactly one
    22-edge) for Hdiamond recognition.
    """
    if g.n == 0 or not is_connected(g):
        raise DomainError("family recognition expects a connected graph")
    if g.is_cubic:
        membership = _recognize_cubic(g)
    else:
        witness = _recognize_hdiamond(g)
        if witness is None:
            raise DomainError(
                "family recognition expects a cubic graph or a chain block"
            )
        membership = FamilyMembership(
            family="Hdiamond", index=None, witness={"spec": witness["spec"]}
        )
    if membership.family != "none" and not verify_membership(g, membership):
        raise InternalCheckError(
            f"the {membership.family} witness does not rebuild its input"
        )
    return membership


_CATALOG = {"K4": k4, "prism": triangular_prism, "K33_triangle": k33_triangle}


def _recognize_cubic(g: Graph) -> FamilyMembership:
    if not g.simple:
        return FamilyMembership("none", None, {})
    for name, make in _CATALOG.items():
        base = make()
        mapping = is_isomorphic(base, g)
        if mapping is not None:
            return FamilyMembership(
                name, None, {"catalog_map": [mapping[i] for i in range(base.n)]}
            )
    profile = connectivity_profile(g)
    if not profile.two_connected:
        return FamilyMembership("none", None, {})
    if profile.bipartition is not None:
        steps = _recognize_t(g)
        if steps is None:
            return FamilyMembership("none", None, {})
        return FamilyMembership("T", None, {"steps": steps})
    if profile.three_connected:
        hit = _recognize_g1_g2(g)
        if hit is None:
            return FamilyMembership("none", None, {})
        family, spec = hit
        return FamilyMembership(family, None, {"spec": family_spec_to_dict(spec)})
    result = _recognize_f(g)
    if result is None:
        return FamilyMembership("none", None, {})
    index, steps = result
    return FamilyMembership("F", index, {"steps": steps})


def verify_membership(g: Graph, membership: FamilyMembership) -> bool:
    """Replay a recognition witness and check it reassembles g: the one
    check between a peel and a returned witness. A T step's rest must be its
    block's host, and an F index counts the steps. A witness the constructors
    or the graph6 parser reject does not replay."""
    try:
        return _replays(g, membership)
    except (GraphParseError, InvalidFamilySpecError, SpliceError):
        return False


def _is_graph6(value: Any) -> bool:
    return isinstance(value, str)


def _is_edge(value: Any) -> bool:
    return (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) for v in value)
    )


def _is_block(value: Any) -> bool:
    return isinstance(value, dict) and value.get("family") == "Hdiamond"


# what the replay reads from each F or T step, and the shape it expects
_STEP_FIELDS = {
    "F": {"residue_graph6": _is_graph6, "attach_edge": _is_edge, "block": _is_block},
    "T": {
        "leaf_graph6": _is_graph6,
        "leaf_edge": _is_edge,
        "block": _is_block,
        "rest_graph6": _is_graph6,
    },
}


def _well_shaped(family: str, witness: Any) -> bool:
    """Does the witness hold what its family's replay reads, with the types
    it reads, and a spec its own family's tag? What those values say (graph6
    text, vertex ids, spec fields) is left to the parser and the
    constructors, which reject it."""
    if not isinstance(witness, dict):
        return False
    if family in _CATALOG:
        return isinstance(witness.get("catalog_map"), (list, tuple))
    if family in ("Hdiamond", "G1", "G2"):
        spec = witness.get("spec")
        return isinstance(spec, dict) and spec.get("family") == family
    fields = _STEP_FIELDS.get(family)
    steps = witness.get("steps")
    return (
        fields is not None
        and isinstance(steps, (list, tuple))
        and all(
            isinstance(step, dict) and all(ok(step.get(key)) for key, ok in fields.items())
            for step in steps
        )
    )


def _replays(g: Graph, membership: FamilyMembership) -> bool:
    family = membership.family
    witness = membership.witness
    if not _well_shaped(family, witness):
        return False
    if family in _CATALOG:
        base = _CATALOG[family]()
        mapping = {i: image for i, image in enumerate(witness["catalog_map"])}
        return is_isomorphism(base, g, mapping)
    if family in ("Hdiamond", "G1", "G2"):
        return is_isomorphic(build_family(witness["spec"]), g) is not None
    if family == "F":
        current = g
        for step in witness["steps"]:
            residue = parse_graph6(step["residue_graph6"])
            block, block_22 = build_hdiamond(family_spec_from_dict(step["block"]))
            if not _splice_matches(
                residue, tuple(step["attach_edge"]), block, block_22, current
            ):
                return False
            current = residue
        return (
            membership.index == len(witness["steps"])
            and is_isomorphic(current, k4()) is not None
        )
    if family == "T":
        current = g
        for step in witness["steps"]:
            leaf = parse_graph6(step["leaf_graph6"])
            spec = family_spec_from_dict(step["block"])
            if step["rest_graph6"] != spec.host_graph6:
                return False
            if is_isomorphic(leaf, k33()) is None:
                return False
            block, block_22 = build_hdiamond(spec)
            if not _splice_matches(
                leaf, tuple(step["leaf_edge"]), block, block_22, current
            ):
                return False
            current = parse_graph6(step["rest_graph6"])
        return is_isomorphic(current, k33()) is not None
    return False  # never: _well_shaped refuses every other family
