"""Command line interface.

Subcommands: analyze, enumerate, verify, build, search-counterexample.
Everything is deterministic (no seeds anywhere); the exit code is nonzero
exactly when a verification suite reports violations (1), or input fails to
parse, an option is out of range (a negative order, --jobs below 1) or a
file cannot be read or written (2). The corpus cache directory
honors NICECUBIC_CACHE_DIR.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .analyze import analyze_text, render_text, stable_json, to_json
from .counterexample import search_barrier_counterexample
from .enumeration import enumerate_cubic
from .errors import DomainError, InvalidFamilySpecError, UnknownSuiteError
from .families import build_family
from .graph6 import write_graph6
from .suites import SUITES, list_suites, verify_suites


def _read_input(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    return Path(source).read_text()


def _write_output(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_analyze(args) -> int:
    text = _read_input(args.input)
    reports, errors = analyze_text(text)
    if args.json:
        print(to_json(reports))
    else:
        print("\n\n".join(render_text(r) for r in reports))
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    return 2 if errors else 0


def _cmd_enumerate(args) -> int:
    if args.n < 0:
        print("error: --n must not be negative", file=sys.stderr)
        return 2
    entries = enumerate_cubic(args.n, connected_only=args.connected)
    _write_output("".join(e.graph6 + "\n" for e in entries), args.out)
    if args.out is not None:
        print(f"wrote {len(entries)} graphs to {args.out}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    if args.list:
        for suite in list_suites():
            print(f"{suite.name}")
            print(f"    claim:   {suite.claim}")
            print(f"    modules: {', '.join(suite.modules)}")
        return 0
    if args.suite is None:
        print("error: --suite or --list required", file=sys.stderr)
        return 2
    if args.max_n < 0:
        print("error: --max-n must not be negative", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 2
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    reports = verify_suites(names, max_n=args.max_n, jobs=args.jobs)
    for report in reports:
        if args.json:
            print(stable_json(report.to_dict()))
        else:
            status = "pass" if report.passed else "FAIL"
            print(
                f"[{status}] {report.suite}: {report.graphs_checked} graphs "
                f"checked up to n={report.max_n} "
                f"({report.runtime_seconds:.2f}s)"
            )
            for violation in report.violations:
                print(f"    {violation.graph6}: {violation.detail}")
    return 0 if all(report.passed for report in reports) else 1


def _cmd_build(args) -> int:
    params = json.loads(args.params)
    if not isinstance(params, dict):
        raise InvalidFamilySpecError("--params must be a JSON object")
    params.setdefault("family", args.family)
    if params["family"] != args.family:
        raise InvalidFamilySpecError(
            f"--family {args.family} conflicts with params family {params['family']}"
        )
    graph = build_family(params)
    _write_output(write_graph6(graph) + "\n", args.out)
    return 0


def _cmd_search(args) -> int:
    if args.max_n < 0:
        print("error: --max-n must not be negative", file=sys.stderr)
        return 2
    hits = search_barrier_counterexample(
        args.max_n, include_constructed=args.include_constructed
    )
    if not hits:
        print("no minimum nontrivial barrier with a non-nice vertex found")
        return 0
    for hit in hits:
        print(
            f"{hit.graph6}  barrier={list(hit.barrier)} "
            f"non-nice={list(hit.non_nice)}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nicecubic",
        description="Nice vertices, nice pairs and extremal families in cubic graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="per-graph dossiers from graph6 input")
    p.add_argument("input", help="graph6 file, or - for stdin")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("enumerate", help="enumerate cubic graphs up to isomorphism")
    p.add_argument("--n", type=int, required=True, help="vertex count (even)")
    p.add_argument(
        "--connected",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="restrict to connected graphs (default)",
    )
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run a verification suite over the corpus")
    p.add_argument("--suite", help="suite name, or 'all'")
    p.add_argument("--max-n", type=int, default=10, help="largest corpus order")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument("--list", action="store_true", help="list registered suites")
    p.add_argument("--json", action="store_true", help="emit JSON reports")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("build", help="construct a family member")
    p.add_argument(
        "--family",
        required=True,
        choices=["F", "G1", "G2", "T", "Hdiamond"],
    )
    p.add_argument("--params", required=True, help="JSON construction parameters")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser(
        "search-counterexample",
        help="hunt for minimum nontrivial barriers containing non-nice vertices",
    )
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--include-constructed", action="store_true")
    p.set_defaults(func=_cmd_search)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except (DomainError, InvalidFamilySpecError, UnknownSuiteError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed early (`| head`); point stdout at /dev/null so the
        # interpreter's shutdown flush cannot raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        # an unreadable input or unwritable --out; caught after BrokenPipeError,
        # which is an OSError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
