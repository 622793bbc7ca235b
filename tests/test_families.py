import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nicecubic.catalog import (
    h44,
    k4,
    k33,
    k33_triangle,
    k33_triangle_non_nice,
    r8,
    triangular_prism,
)
from nicecubic import families
from nicecubic.errors import (
    DomainError,
    InternalCheckError,
    InvalidFamilySpecError,
    SpliceError,
)
from nicecubic.families import (
    FamilyFSpec,
    FamilyMembership,
    FamilyG1Spec,
    FamilyG2Spec,
    FamilyTSpec,
    HdiamondSpec,
    Replacement,
    TStep,
    build_family,
    build_g1,
    build_g2,
    build_hdiamond,
    build_t,
    family_spec_from_dict,
    family_spec_to_dict,
    recognize_family,
    verify_membership,
)
from nicecubic.graph6 import write_graph6
from nicecubic.graphs import Graph, bipartition, connectivity_profile
from nicecubic.nice import nice_vertices
from nicecubic.splicing import edge_splice, twotwo_edges

K33_G6 = write_graph6(k33())
H44_G6 = write_graph6(h44())


def _block(quads=1, host=K33_G6, edge=(0, 3)):
    return HdiamondSpec(quads=quads, host_graph6=host, host_edge=edge)


def test_hdiamond_is_bipartite_with_one_22_edge():
    for quads in (1, 2, 3):
        for host, edge in ((K33_G6, (0, 3)), (H44_G6, (0, 5))):
            block, tt = build_hdiamond(_block(quads, host, edge))
            assert bipartition(block) is not None
            found = twotwo_edges(block)
            assert [frozenset(e) for e in found] == [frozenset(tt)]


def test_hdiamond_vertex_count():
    block, _ = build_hdiamond(_block(quads=2))
    assert block.n == 2 * 2 + 6


def test_hdiamond_rejects_non_bipartite_host():
    with pytest.raises(InvalidFamilySpecError):
        build_hdiamond(_block(host=write_graph6(k4())))


def test_f1_member_is_cubic_2_connected_upsilon_4():
    member = build_family(FamilyFSpec(replacements=(Replacement((0, 1), _block()),)))
    assert member.n == 10
    profile = connectivity_profile(member)
    assert profile.cubic and profile.two_connected and not profile.three_connected
    assert bipartition(member) is None
    assert nice_vertices(member).upsilon == 4


def test_f_rejects_duplicate_edges():
    with pytest.raises(InvalidFamilySpecError):
        build_family(
            FamilyFSpec(
                replacements=(
                    Replacement((0, 1), _block()),
                    Replacement((1, 0), _block()),
                )
            )
        )


def test_g1_member_upsilon_6():
    nn = k33_triangle_non_nice()
    member = build_g1(FamilyG1Spec(nn[0], H44_G6, 0))
    profile = connectivity_profile(member)
    assert profile.three_connected and bipartition(member) is None
    assert nice_vertices(member).upsilon == 6


def test_g1_rejects_nice_attachment():
    nice = sorted(set(range(8)) - set(k33_triangle_non_nice()))[0]
    with pytest.raises(InvalidFamilySpecError):
        build_g1(FamilyG1Spec(nice, K33_G6, 0))


def test_g1_rejects_2_connected_host():
    # a cubic bipartite host with a 2-cut is not allowed for these splices
    t_big = build_t(FamilyTSpec(steps=(TStep(1, (0, 3)),)))
    nn = k33_triangle_non_nice()
    with pytest.raises(InvalidFamilySpecError):
        build_g1(FamilyG1Spec(nn[0], write_graph6(t_big), 0))


def test_g2_requires_both_non_nice_attachments():
    nn = k33_triangle_non_nice()
    with pytest.raises(InvalidFamilySpecError):
        build_family(
            FamilyG2Spec(
                FamilyG1Spec(nn[0], K33_G6, 0), FamilyG1Spec(nn[0], K33_G6, 0)
            )
        )


def test_t_growth_arithmetic():
    # one step adds 2*quads + 4 vertices
    sizes = {}
    for quads in (1, 2, 3):
        member = build_t(FamilyTSpec(steps=(TStep(quads, (0, 3)),)))
        sizes[quads] = member.n
        assert member.n == 6 + 2 * quads + 4
        assert bipartition(member) is not None and member.is_cubic
    assert sizes[1] == 12


def test_t_rejects_non_edges():
    with pytest.raises(InvalidFamilySpecError):
        build_t(FamilyTSpec(steps=(TStep(1, (0, 1)),)))  # (0,1) not a K33 edge


def test_spec_json_round_trip():
    specs = [
        _block(2, H44_G6, (0, 5)),
        FamilyFSpec(replacements=(Replacement((0, 1), _block()),)),
        FamilyG1Spec(k33_triangle_non_nice()[0], K33_G6, 0, phi=(3, 5, 4)),
        FamilyG2Spec(
            FamilyG1Spec(k33_triangle_non_nice()[0], K33_G6, 0),
            FamilyG1Spec(k33_triangle_non_nice()[1], H44_G6, 0),
        ),
        FamilyTSpec(steps=(TStep(1, (0, 3)), TStep(2, (0, 4), (1, 4)))),
    ]
    for spec in specs:
        payload = json.dumps(family_spec_to_dict(spec))
        assert family_spec_from_dict(json.loads(payload)) == spec


def test_recognize_base_graphs():
    assert recognize_family(k4()).family == "K4"
    assert recognize_family(triangular_prism()).family == "prism"
    assert recognize_family(k33_triangle()).family == "K33_triangle"
    assert recognize_family(k33()).family == "T"
    assert recognize_family(r8()).family == "none"
    assert recognize_family(h44()).family == "none"


def test_recognize_relabeled_f1():
    member = build_family(FamilyFSpec(replacements=(Replacement((0, 1), _block()),)))
    perm = [(i * 7 + 3) % member.n for i in range(member.n)]
    shuffled = Graph(member.n, [(perm[u], perm[v]) for u, v in member.edges])
    found = recognize_family(shuffled)
    assert (found.family, found.index) == ("F", 1)
    assert verify_membership(shuffled, found)


def test_recognize_rejects_disconnected():
    with pytest.raises(DomainError):
        recognize_family(Graph(8, list(k4().edges) + [(u + 4, v + 4) for u, v in k4().edges]))


def test_recognize_rejects_non_cubic_non_block():
    with pytest.raises(DomainError):
        recognize_family(Graph(2, [(0, 1)]))


def test_recognize_hdiamond_block():
    block, _ = build_hdiamond(_block(quads=2, host=H44_G6, edge=(0, 5)))
    found = recognize_family(block)
    assert found.family == "Hdiamond"
    assert verify_membership(block, found)
    assert found.witness["spec"]["quads"] == 2


def test_family_zoo_round_trip(family_zoo):
    assert len(family_zoo) >= 50
    for expected_family, spec, graph in family_zoo:
        found = recognize_family(graph)
        assert found.family == expected_family, (
            f"{family_spec_to_dict(spec)} recognized as {found.family}"
        )
        assert verify_membership(graph, found)
        if expected_family == "F":
            assert found.index == len(spec.replacements)


def test_zoo_sizes_within_bounds(family_zoo):
    for expected_family, spec, graph in family_zoo:
        if expected_family == "F" and len(spec.replacements) == 3:
            assert graph.n == 22  # smallest possible triple replacement
        else:
            assert graph.n <= 20


def test_f1_member_has_a_2_cut():
    from nicecubic.graphs import enumerate_cuts

    member = build_family(FamilyFSpec(replacements=(Replacement((0, 1), _block()),)))
    cuts = enumerate_cuts(member, 2)
    assert cuts, "edge replacement must leave a 2-cut"


def test_g1_member_contracts_to_k33_triangle():
    from nicecubic.graphs import connected_components, contract
    from nicecubic.isomorphism import is_isomorphic
    from nicecubic.structure import barriers

    nn = k33_triangle_non_nice()
    member = build_g1(FamilyG1Spec(nn[0], H44_G6, 0))
    # the guest block is the unique large bipartite component behind the
    # minimal nontrivial barrier; shrinking it recovers the core
    hits = 0
    for barrier in barriers(member):
        if not barrier.minimal_nontrivial:
            continue
        for comp in connected_components(member, barrier.vertices):
            if len(comp) <= 1:
                continue
            merged = contract(member, comp)
            if is_isomorphic(merged.graph, k33_triangle()) is not None:
                hits += 1
    assert hits >= 1


def test_recognize_bridged_cubic_is_none():
    from .test_nice import _bridged_cubic

    assert recognize_family(_bridged_cubic()).family == "none"


def _with_chain_blocks(core, count):
    """core with its first ``count`` edges each replaced by a one-quad chain
    block on K3,3, spliced in as ``build_f`` does on K4."""
    block, block_22 = build_hdiamond(_block())
    current, where = core, {v: v for v in range(core.n)}
    for u, v in core.edges[:count]:
        res = edge_splice(current, (where[u], where[v]), block, block_22)
        where = {orig: res.first_map[cur] for orig, cur in where.items()}
        current = res.graph
    return current


def test_recognize_f_stops_at_six_peeled_blocks(monkeypatch):
    # F has at most six blocks, one per edge of K4. Six blocks on the prism
    # peel off one by one, and the peel stops at the cap with the prism left,
    # before it looks for a seventh 2-cut
    searches = []
    search = families._two_cut_candidates

    def recorded(g):
        searches.append(g.n)
        return search(g)

    monkeypatch.setattr(families, "_two_cut_candidates", recorded)
    g = _with_chain_blocks(triangular_prism(), 6)
    assert (g.n, bipartition(g), connectivity_profile(g).three_connected) == (42, None, False)
    assert recognize_family(g).family == "none"
    assert searches == [42, 36, 30, 24, 18, 12]


def test_recognize_t_refuses_a_leaf_that_is_not_k33():
    # two cubes joined through a 2-edge cut: bipartite and 2-connected, but
    # the smallest 2-cut side closes into a cube, not a K3,3 leaf
    cube = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]
    cube += [(v, v + 4) for v in range(4)]
    kept = [e for e in cube if e != (0, 1)]
    g = Graph(16, kept + [(u + 8, v + 8) for u, v in kept] + [(0, 9), (1, 8)])
    assert bipartition(g) is not None and connectivity_profile(g).two_connected
    assert recognize_family(g).family == "none"


@pytest.mark.parametrize(
    "g",
    [Graph(2, [(0, 1)] * 3), Graph(4, [(0, 1), (0, 1), (2, 3), (2, 3), (0, 2), (1, 3)])],
    ids=["theta", "doubled-4-cycle"],
)
def test_recognize_cubic_multigraph_is_none(g):
    assert g.is_cubic and not g.simple
    assert recognize_family(g).family == "none"


def test_g2_rejects_out_of_range_first_host_vertex():
    nn = k33_triangle_non_nice()
    with pytest.raises(InvalidFamilySpecError):
        build_g2(FamilyG2Spec(FamilyG1Spec(nn[0], K33_G6, 6), FamilyG1Spec(nn[1], K33_G6, 0)))


CATALOG_MEMBERS = (k4, triangular_prism, k33_triangle, k33)


def test_recognize_family_replays_each_witness_once(family_zoo, monkeypatch):
    calls = []

    def counting(g, membership):
        calls.append(membership.family)
        return verify_membership(g, membership)

    monkeypatch.setattr(families, "verify_membership", counting)
    for graph in [graph for _, _, graph in family_zoo] + [make() for make in CATALOG_MEMBERS]:
        calls.clear()
        found = recognize_family(graph)
        assert calls == [found.family]
    from .test_nice import _bridged_cubic

    for graph in (_bridged_cubic(), r8(), h44()):
        calls.clear()
        assert recognize_family(graph).family == "none"
        assert calls == []


def test_failed_replay_raises_internal_check_error(family_zoo, monkeypatch):
    members = {"K4": k4(), "prism": triangular_prism(), "K33_triangle": k33_triangle()}
    for expected_family, _, graph in family_zoo:
        members.setdefault(expected_family, graph)
    assert sorted(members) == sorted(
        ["K4", "prism", "K33_triangle", "Hdiamond", "F", "G1", "G2", "T"]
    )
    monkeypatch.setattr(families, "verify_membership", lambda g, membership: False)
    for name, graph in members.items():
        with pytest.raises(InternalCheckError, match=name):
            recognize_family(graph)


def _member(family_zoo, family, predicate=lambda spec: True):
    return next(g for fam, spec, g in family_zoo if fam == family and predicate(spec))


def test_verify_membership_rejects_dropped_last_step(family_zoo):
    for family, two_steps in (
        ("F", lambda spec: len(spec.replacements) == 2),
        ("T", lambda spec: len(spec.steps) == 2),
    ):
        graph = _member(family_zoo, family, two_steps)
        found = recognize_family(graph)
        steps = found.witness["steps"]
        assert len(steps) == 2
        index = None if found.index is None else found.index - 1
        dropped = FamilyMembership(family, index, {"steps": steps[:-1]})
        assert not verify_membership(graph, dropped)


def test_verify_membership_rejects_f_index_off_by_one(family_zoo):
    graph = _member(family_zoo, "F")
    found = recognize_family(graph)
    assert not verify_membership(
        graph, FamilyMembership("F", found.index + 1, found.witness)
    )


def test_verify_membership_rejects_t_rest_that_is_not_the_block_host(family_zoo):
    # replaying only the first step, then claiming K3,3 is what is left,
    # passes every splice check; the rest must be the block's own host
    graph = _member(family_zoo, "T", lambda spec: len(spec.steps) == 2)
    found = recognize_family(graph)
    first = dict(found.witness["steps"][0], rest_graph6=K33_G6)
    assert not verify_membership(graph, FamilyMembership("T", None, {"steps": [first]}))


def test_verify_membership_rejects_g1_with_another_host(family_zoo):
    graph = _member(family_zoo, "G1", lambda spec: spec.host_graph6 == K33_G6)
    found = recognize_family(graph)
    spec = dict(found.witness["spec"], host=H44_G6, phi=None)
    assert not verify_membership(graph, FamilyMembership("G1", None, {"spec": spec}))


def test_verify_membership_rejects_a_spec_tagged_with_another_family(family_zoo):
    t_spec = {"spec": {"family": "T", "steps": []}}
    assert not verify_membership(k33(), FamilyMembership("G1", None, t_spec))
    spliced = {"Hdiamond", "G1", "G2"}
    for family in sorted(spliced):
        graph = _member(family_zoo, family)
        found = recognize_family(graph)
        assert found.family == family
        for other in sorted(spliced - {family}):
            assert not verify_membership(graph, FamilyMembership(other, None, found.witness))


def _g1_witness_on_h44(family_zoo, **changes):
    """The recognized G1 witness of K3,3 spliced in at vertex 0, with its host
    swapped for H44 and phi kept: a spec the constructors reject."""
    graph = _member(
        family_zoo, "G1", lambda spec: spec.host_graph6 == K33_G6 and spec.host_vertex == 0
    )
    spec = dict(recognize_family(graph).witness["spec"], host=H44_G6, **changes)
    return graph, spec


@pytest.mark.parametrize(
    "changes, error", [({}, SpliceError), ({"host_vertex": 99}, InvalidFamilySpecError)]
)
def test_verify_membership_says_no_to_a_witness_the_constructors_reject(
    family_zoo, changes, error
):
    graph, spec = _g1_witness_on_h44(family_zoo, **changes)
    with pytest.raises(error):
        build_family(spec)
    assert not verify_membership(graph, FamilyMembership("G1", None, {"spec": spec}))


def test_unbuildable_witness_raises_internal_check_error(family_zoo, monkeypatch):
    graph, spec = _g1_witness_on_h44(family_zoo)
    monkeypatch.setattr(
        families, "_recognize_g1_g2", lambda g: ("G1", family_spec_from_dict(spec))
    )
    with pytest.raises(InternalCheckError, match="G1"):
        recognize_family(graph)


def test_verify_membership_rejects_catalog_map_that_is_not_an_isomorphism():
    base = k33_triangle()
    found = recognize_family(base)
    mapping = found.witness["catalog_map"]
    edges = {frozenset(e) for e in base.edges}
    for j in range(1, base.n):
        swapped = list(mapping)
        swapped[0], swapped[j] = swapped[j], swapped[0]
        if {frozenset((swapped[u], swapped[v])) for u, v in base.edges} != edges:
            break
    else:
        raise AssertionError("every transposition is an automorphism")
    tampered = FamilyMembership("K33_triangle", None, {"catalog_map": swapped})
    assert not verify_membership(base, tampered)


@pytest.mark.parametrize("catalog_map", [[0, 1, 2, "x"], [0, 1, 2, None], [0, 1, 2, 7]])
def test_verify_membership_says_no_to_a_malformed_catalog_map(catalog_map):
    membership = FamilyMembership("K4", None, {"catalog_map": catalog_map})
    assert not verify_membership(k4(), membership)


@pytest.mark.parametrize("family", ["K4", "prism", "K33_triangle", "Hdiamond", "G1", "G2", "F", "T"])
@pytest.mark.parametrize(
    "witness",
    [
        None,
        [],
        {},
        {"catalog_map": None},
        {"catalog_map": 5},
        {"spec": None},
        {"spec": 5},
        {"steps": None},
        {"steps": 5},
        {"steps": [None]},
        {"steps": [{}]},
    ],
)
def test_verify_membership_says_no_to_a_malformed_witness_shape(family, witness):
    assert not verify_membership(k4(), FamilyMembership(family, 1, witness))


@pytest.mark.parametrize("family", ["F", "T"])
def test_verify_membership_says_no_to_a_malformed_step(family_zoo, family):
    graph = _member(family_zoo, family)
    found = recognize_family(graph)
    first, *rest = found.witness["steps"]
    block = first["block"]
    broken = [{k: v for k, v in first.items() if k != key} for key in first]
    broken += [dict(first, **{key: None}) for key in first]
    broken += [dict(first, **{key: [0, 1, 2]}) for key in first if key.endswith("_edge")]
    broken += [
        dict(first, block=dict(block, family="G1")),
        dict(first, block={k: v for k, v in block.items() if k != "host"}),
        dict(first, block=dict(block, host_edge=[0, 3, 4])),
    ]
    # well-shaped steps that rebuild another graph: a block with one more
    # quad, and H44 as the residue, leaf or rest
    broken += [dict(first, block=dict(block, quads=block["quads"] + 1))]
    broken += [dict(first, **{key: H44_G6}) for key in first if key.endswith("_graph6")]
    for step in broken:
        membership = FamilyMembership(family, found.index, {"steps": [step, *rest]})
        assert not verify_membership(graph, membership)


def test_verify_membership_rejects_hdiamond_with_one_more_quad():
    block, _ = build_hdiamond(_block(quads=2, host=H44_G6, edge=(0, 5)))
    found = recognize_family(block)
    spec = dict(found.witness["spec"], quads=found.witness["spec"]["quads"] + 1)
    assert not verify_membership(block, FamilyMembership("Hdiamond", None, {"spec": spec}))


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "Hdiamond", "quads": 1, "host": 5, "host_edge": [0, 3]},
        {"family": "Hdiamond", "quads": 1, "host": [K33_G6], "host_edge": [0, 3]},
        {"family": "Hdiamond", "quads": 1, "host": K33_G6, "host_edge": [0, "3"]},
        {"family": "Hdiamond", "quads": 1, "host": K33_G6, "host_edge": [0, 3, 4]},
        {"family": "F", "replacements": [{"edge": [0, 1.5], "quads": 1, "host": K33_G6, "host_edge": [0, 3]}]},
        {"family": "T", "steps": [{"quads": 1, "host_edge": [0, 3], "k33_edge": [True, 3]}]},
        {"family": "G1", "attachment": 0, "host": K33_G6, "host_vertex": 0, "phi": [1, 2, "x"]},
    ],
)
def test_spec_from_dict_rejects_non_string_host_and_non_integer_vertices(spec):
    with pytest.raises(InvalidFamilySpecError):
        family_spec_from_dict(spec)


def test_a_failed_splice_search_builds_one_g1_and_six_g2_candidates(monkeypatch):
    # K4 is no G1 or G2 member, so the search tries every candidate it has:
    # the core's symmetry leaves one for G1 and the second phi's six for G2
    builds = []
    build = families.build_family

    def counting(spec):
        builds.append(spec)
        return build(spec)

    monkeypatch.setattr(families, "build_family", counting)
    assert families._first_splice_build(k4(), [(k33(), 0)]) is None
    assert builds == [FamilyG1Spec(0, K33_G6, 0, (3, 4, 5))]
    builds.clear()
    assert families._first_splice_build(k4(), [(k33(), 0), (h44(), 0)]) is None
    assert len(builds) == 6
    assert {spec.first for spec in builds} == {FamilyG1Spec(0, K33_G6, 0, (3, 4, 5))}
    assert len({spec.second.phi for spec in builds}) == 6


def test_verify_membership_rejects_g1_phi_longer_than_the_degree():
    spec = {"family": "G1", "attachment": 0, "host": K33_G6, "host_vertex": 0, "phi": [3, 4, 5, 99]}
    graph = build_family(dict(spec, phi=[3, 4, 5]))
    with pytest.raises(SpliceError, match="phi lists 4"):
        build_family(spec)
    assert not verify_membership(graph, FamilyMembership("G1", None, {"spec": spec}))


@pytest.mark.parametrize(
    "build, arg, message",
    [
        (build_hdiamond, _block(quads=0), "chain needs at least one quadrangle"),
        (build_hdiamond, _block(edge=(0, 1)), "(0, 1) is not an edge of the host"),
        (families.build_f, FamilyFSpec(()), "between 1 and 6 edge replacements required"),
        (families.build_f, FamilyFSpec((Replacement((0, 4), _block()),)), "(0, 4) is not a K4 edge"),
        (build_t, FamilyTSpec((TStep(0, (0, 3)),)), "chain needs at least one quadrangle"),
        (build_family, object(), "unrecognized spec <object"),
        (family_spec_to_dict, object(), "unrecognized spec <object"),
        (family_spec_from_dict, {"family": "X"}, "unknown family tag 'X'"),
    ],
)
def test_constructors_and_spec_forms_refuse_what_they_cannot_read(build, arg, message):
    with pytest.raises(InvalidFamilySpecError, match=re.escape(message)):
        build(arg)


_SPEC_KEYS = (
    "family", "quads", "host", "host_edge", "replacements", "edge",
    "attachment", "host_vertex", "phi", "splices", "steps", "k33_edge",
)
_FAMILY_TAGS = ("Hdiamond", "F", "G1", "G2", "T")
# JSON-like values over the spec vocabulary: small numbers, family tags,
# host graph6 strings and short text, nested in lists and spec-keyed objects
_json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-2, max_value=8)
    | st.floats(min_value=-2, max_value=8)
    | st.sampled_from(_FAMILY_TAGS + (K33_G6, H44_G6))
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_SPEC_KEYS), inner, max_size=6),
    max_leaves=24,
)
_tagged_specs = st.builds(
    lambda tag, rest: {**rest, "family": tag},
    st.sampled_from(_FAMILY_TAGS),
    st.dictionaries(st.sampled_from(_SPEC_KEYS), _json_like, max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(_tagged_specs | _json_like)
# a G2 splice that is not an object
@example({"family": "G2", "splices": [0, 3]})
def test_build_family_refuses_malformed_specs_with_value_errors_only(spec):
    # the CLI turns a ValueError into an error line and exit status 2; any
    # other exception would end in a traceback
    try:
        build_family(spec)
    except ValueError:
        pass
