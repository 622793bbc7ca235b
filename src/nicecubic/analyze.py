"""Per-graph analysis dossiers, as JSON documents and aligned text tables.

The JSON layout is frozen by schemas/analyze.schema.json (schema_version
bumps on breaking changes); serialization sorts keys so reports are
byte-stable.
"""

from __future__ import annotations

import json
from importlib import resources

from .errors import DomainError, GraphParseError
from .families import recognize_family
from .graph6 import parse_graph6, write_graph6
from .graphs import Graph, connectivity_profile
from .nice import nice_pair_matrix, nice_vertices
from .structure import barriers, classify, nontrivial_tight_cuts

SCHEMA_VERSION = 1
BARRIER_CAP = 20
_ANALYSIS_SIZE_CAP = 24


def analyze_graph(g: Graph) -> dict:
    """Full dossier for one graph. Sections that require structure the graph
    lacks (a perfect matching, cubicity, bipartiteness) mark themselves not
    applicable instead of failing. So do the sections whose sweep is capped
    at 20 vertices: the barrier section of a host that is not matching
    covered, and the tight-cut section of a matching covered host that is
    not cubic."""
    profile = connectivity_profile(g)
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "graph6": write_graph6(g) if g.simple else None,
        "vertices": g.n,
        "edges": len(g.edges),
        "connectivity": {
            "connected": profile.connected,
            "two_connected": profile.two_connected,
            "three_connected": profile.three_connected,
            "cubic": profile.cubic,
            "bipartite": profile.bipartition is not None,
            "bipartition": (
                [sorted(profile.bipartition.a), sorted(profile.bipartition.b)]
                if profile.bipartition is not None
                else None
            ),
        },
        "classification": None,
        "barriers": {"applicable": False},
        "nontrivial_tight_cuts": {"applicable": False},
        "nice_vertices": {"applicable": False},
        "nice_pairs": {"applicable": False},
        "family": {"applicable": False},
    }
    if g.n == 0 or g.n > _ANALYSIS_SIZE_CAP:
        return report

    flags = classify(g)
    report["classification"] = {
        "matching_covered": flags.matching_covered,
        "bicritical": flags.bicritical,
        "brick": flags.brick,
        "two_extendable": flags.two_extendable,
        "brace": flags.brace,
    }

    try:
        items = barriers(g)
    except DomainError:
        pass  # no perfect matching, or over the sweep's cap
    else:
        report["barriers"] = {
            "applicable": True,
            "count": len(items),
            "capped": len(items) > BARRIER_CAP,
            "items": [
                {
                    "vertices": sorted(b.vertices),
                    "nontrivial": b.nontrivial,
                    "minimal_nontrivial": b.minimal_nontrivial,
                }
                for b in items[:BARRIER_CAP]
            ],
        }

    try:
        witnesses = nontrivial_tight_cuts(g)
    except DomainError:
        pass  # not matching covered, or a non-cubic host over the sweep's cap
    else:
        report["nontrivial_tight_cuts"] = {
            "applicable": True,
            "count": len(witnesses),
            "items": [
                {
                    "side": sorted(w.cut.side),
                    "edges": [list(g.edges[i]) for i in w.cut.edge_indices],
                }
                for w in witnesses
            ],
        }

    if g.is_cubic:
        nice = nice_vertices(g)
        report["nice_vertices"] = {
            "applicable": True,
            "method": "definition",
            "upsilon": nice.upsilon,
            "vertices": sorted(nice.nice),
        }

    if g.is_cubic and report["connectivity"]["bipartite"] and profile.connected:
        rel = nice_pair_matrix(g)
        report["nice_pairs"] = {
            "applicable": True,
            "pair_count": rel.pair_count,
            "a_order": list(rel.a_order),
            "b_order": list(rel.b_order),
            "matrix": [list(row) for row in rel.matrix],
        }

    try:
        membership = recognize_family(g)
        report["family"] = {
            "applicable": True,
            "family": membership.family,
            "index": membership.index,
            "witness": membership.witness,
        }
    except DomainError:
        pass
    return report


def analyze_text(text: str) -> tuple[list[dict], list[str]]:
    """Analyze every non-blank graph6 line; parse failures are reported with
    their line number instead of aborting the batch."""
    reports, errors = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            reports.append(analyze_graph(parse_graph6(stripped)))
        except GraphParseError as exc:
            errors.append(f"line {lineno}: {exc}")
    return reports, errors


def to_json(reports: list[dict]) -> str:
    return json.dumps({"reports": reports}, indent=2, sort_keys=True)


def load_schema() -> dict:
    text = resources.files("nicecubic").joinpath("schemas/analyze.schema.json").read_text()
    return json.loads(text)


def render_text(report: dict) -> str:
    """One aligned key/value block per graph."""
    lines = [f"graph6        {report['graph6']}"]
    conn = report["connectivity"]
    lines.append(f"order/size    {report['vertices']} vertices, {report['edges']} edges")
    degree_of = {1: "connected", 2: "2-connected", 3: "3-connected"}
    level = 0
    for k, key in ((1, "connected"), (2, "two_connected"), (3, "three_connected")):
        if conn[key]:
            level = k
    connectivity = degree_of.get(level, "disconnected")
    kind = "cubic" if conn["cubic"] else "non-cubic"
    parity = "bipartite" if conn["bipartite"] else "non-bipartite"
    lines.append(f"structure     {connectivity}, {kind}, {parity}")
    if report["classification"] is not None:
        flags = [k for k, v in sorted(report["classification"].items()) if v]
        lines.append(f"classes       {', '.join(flags) if flags else 'none'}")
    if report["barriers"].get("applicable"):
        nontrivial = [
            item for item in report["barriers"]["items"] if item["nontrivial"]
        ]
        lines.append(
            f"barriers      {report['barriers']['count']} total, "
            f"{len(nontrivial)} nontrivial listed"
        )
        for item in nontrivial:
            tag = " (minimal)" if item["minimal_nontrivial"] else ""
            lines.append(f"              {item['vertices']}{tag}")
    if report["nontrivial_tight_cuts"].get("applicable"):
        cuts = report["nontrivial_tight_cuts"]
        lines.append(f"tight cuts    {cuts['count']} nontrivial")
        for item in cuts["items"]:
            lines.append(f"              side {item['side']}")
    if report["nice_vertices"].get("applicable"):
        nv = report["nice_vertices"]
        lines.append(f"nice vertices {nv['upsilon']}: {nv['vertices']}")
    if report["nice_pairs"].get("applicable"):
        np_ = report["nice_pairs"]
        lines.append(f"nice pairs    {np_['pair_count']}")
    if report["family"].get("applicable"):
        fam = report["family"]
        suffix = f" (i={fam['index']})" if fam.get("index") else ""
        lines.append(f"family        {fam['family']}{suffix}")
    return "\n".join(lines)
