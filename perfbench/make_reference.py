"""Write the benchmark's input pool and reference outputs from the program.

Usage (from the repository root):

    PYTHONPATH=src python3 perfbench/make_reference.py [--specs]

``--specs`` also rewrites ``data/family_specs.json``, the pool of family
members the analyze stream draws from. The reference files hold what the
program produced when the benchmark was defined; regenerate them only in a
change that redefines the benchmark, never to make a changed output pass.
Takes a few minutes: it enumerates n <= 12 and analyzes the whole pool.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

VERIFY_ORDERS = (8, 10, 12)


def _dump(path: Path, value):
    path.write_text(json.dumps(value, indent=1, sort_keys=True) + "\n")


def family_pool() -> list[dict]:
    """F, G1, G2 and T members with 14 <= n <= 22, one spec per graph."""
    from nicecubic import (
        build_family,
        connectivity_profile,
        corpus_up_to,
        family_spec_to_dict,
        family_spec_from_dict,
        h44,
        k33,
        k33_triangle_non_nice,
        recognize_family,
        write_graph6,
    )

    k33_g6, h44_g6 = write_graph6(k33()), write_graph6(h44())
    bip10 = []
    for entry in corpus_up_to(10):
        profile = connectivity_profile(entry.graph)
        if entry.graph.n == 10 and profile.bipartition is not None and profile.three_connected:
            bip10.append(entry.graph6)
    blocks = [
        {"quads": q, "host": host, "host_edge": list(edge)}
        for q in (1, 2, 3)
        for host, edge in ((k33_g6, (0, 3)), (h44_g6, (0, 5)), (k33_g6, (1, 4)))
    ]
    k4_edges = [list(e) for e in combinations(range(4), 2)]
    candidates = []
    for edge in k4_edges[:2]:
        for block in blocks:
            candidates.append({"family": "F", "replacements": [dict(block, edge=edge)]})
    for first, second in combinations(k4_edges, 2):
        for b1, b2 in ((blocks[0], blocks[0]), (blocks[0], blocks[3]), (blocks[1], blocks[0])):
            candidates.append(
                {"family": "F", "replacements": [dict(b1, edge=first), dict(b2, edge=second)]}
            )
    nn = k33_triangle_non_nice()
    hosts = [(k33_g6, 0), (k33_g6, 3), (h44_g6, 0), (h44_g6, 2)] + [(g6, 0) for g6 in bip10]
    g1_hosts = hosts + [(h44_g6, v) for v in (1, 4, 6)] + [(g6, 5) for g6 in bip10]
    for attachment in nn:
        for host, vertex in g1_hosts:
            candidates.append(
                {"family": "G1", "attachment": attachment, "host": host,
                 "host_vertex": vertex, "phi": None}
            )
    for (h1, v1), (h2, v2) in combinations(hosts[:4] + hosts[4:6], 2):
        candidates.append(
            {"family": "G2", "splices": [
                {"attachment": nn[0], "host": h1, "host_vertex": v1, "phi": None},
                {"attachment": nn[1], "host": h2, "host_vertex": v2, "phi": None},
            ]}
        )
    for quads in (1, 2, 3, 4):
        candidates.append({"family": "T", "steps": [{"quads": quads, "host_edge": [0, 3]}]})
    for first_quads, first_edge in ((1, (0, 3)), (2, (1, 4)), (1, (2, 5))):
        first = {"quads": first_quads, "host_edge": list(first_edge), "k33_edge": [0, 3]}
        partial = build_family(family_spec_from_dict({"family": "T", "steps": [first]}))
        for edge in partial.edges[::3]:
            for quads in (1, 2):
                candidates.append(
                    {"family": "T", "steps": [
                        first, {"quads": quads, "host_edge": list(edge), "k33_edge": [0, 3]},
                    ]}
                )
    pool, seen = [], set()
    for spec in candidates:
        graph = build_family(spec)
        line = write_graph6(graph)
        if not 14 <= graph.n <= 22 or line in seen:
            continue
        if recognize_family(graph).family != spec["family"]:
            continue
        seen.add(line)
        pool.append(family_spec_to_dict(family_spec_from_dict(spec)))
    return pool


def enumerate_reference() -> dict:
    from nicecubic import enumerate_cubic

    out = {}
    for n in range(4, 13, 2):
        lines = [e.graph6 for e in enumerate_cubic(n)]
        out[str(n)] = {"count": len(lines), "digest": checks.corpus_digest(lines)}
    return out


def verify_reference() -> dict:
    from nicecubic import SUITES, verify_suite

    out = {}
    for max_n in VERIFY_ORDERS:
        out[str(max_n)] = {}
        for name in sorted(SUITES):
            report = verify_suite(name, max_n=max_n)
            out[str(max_n)][name] = {
                "graphs_checked": report.graphs_checked,
                "violations": [v.graph6 for v in report.violations],
            }
    return out


def analyze_reference() -> dict:
    from nicecubic import analyze_text, build_family, write_graph6

    out = {}
    members = [
        (f"cubic:{n}:{i}", gen.random_member(f"cubic:{n}:{i}")[0])
        for n in gen.ORDERS
        for i in range(gen.POOL_PER_ORDER)
    ]
    members += [
        (f"family:{i}", write_graph6(build_family(spec)))
        for i, spec in enumerate(gen.family_specs())
    ]
    for key, line in members:
        reports, errors = analyze_text(line)
        if errors or len(reports) != 1:
            raise SystemExit(f"{key}: analyze failed: {errors}")
        out[key] = {"graph6": line, "fields": checks.witness_free(json.loads(json.dumps(reports[0])))}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--specs", action="store_true", help="also rewrite data/family_specs.json")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as cache:
        os.environ["NICECUBIC_CACHE_DIR"] = cache
        if args.specs:
            gen.DATA_DIR.mkdir(exist_ok=True)
            _dump(gen.DATA_DIR / "family_specs.json", family_pool())
        checks.REFERENCE_DIR.mkdir(exist_ok=True)
        _dump(checks.REFERENCE_DIR / "enumerate.json", enumerate_reference())
        _dump(checks.REFERENCE_DIR / "verify.json", verify_reference())
        _dump(checks.REFERENCE_DIR / "analyze.json", analyze_reference())
    return 0


if __name__ == "__main__":
    sys.exit(main())
