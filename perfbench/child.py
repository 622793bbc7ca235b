"""One benchmark step in a fresh interpreter: a set-up or one timed pass.

Usage: python3 perfbench/child.py REQUEST_JSON

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src`` and ``NICECUBIC_CACHE_DIR`` at the run's private cache. The request
names the workload kind and step; the response, written to the request's
``out`` path, carries the raw outputs for ``checks.py``, the time of each
unit of work (one order, suite or graph), calibration times taken before
the first unit, between units and after the last (see ``calibrate``), the
peak RSS and, for a traced pass, the per-function totals. Importing the
package happens before any unit, so a pass measures the library calls
alone.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import contextmanager


def _peak_rss_mb() -> float:
    """Peak RSS of this process and of its largest waited-for child (the
    verify pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def setup_enumerate(request: dict) -> dict:
    return {}


def setup_verify(request: dict) -> dict:
    """Warm the private cache by enumerating every order, then read the
    corpus back through the library so the caller can confirm it is whole."""
    from nicecubic import enumeration

    for n in request["orders"]:
        enumeration.enumerate_cubic(n)
    return {
        "corpus": {
            str(n): [e.graph6 for e in enumeration.enumerate_cubic(n)]
            for n in request["orders"]
        }
    }


def setup_analyze(request: dict) -> dict:
    """Materialize the stream: random members from the stdlib generator,
    family members through the library's constructors."""
    import gen
    from nicecubic import families, graph6

    specs = gen.family_specs()
    lines, redraws = [], 0
    for key in request["stream_keys"]:
        if key.startswith("cubic:"):
            line, count = gen.random_member(key)
            redraws += count
        else:
            spec = specs[int(key.split(":")[1])]
            line = graph6.write_graph6(families.build_family(spec))
        lines.append(line)
    with open(request["stream"], "w") as out:
        out.write("".join(line + "\n" for line in lines))
    return {"lines": lines, "redraws": redraws}


def pass_enumerate(request: dict, clock) -> dict:
    from nicecubic import enumeration

    outputs, errors = {}, {}
    with clock:
        for n in request["orders"]:
            with clock.unit(str(n)):
                try:
                    outputs[str(n)] = [e.graph6 for e in enumeration.enumerate_cubic(n)]
                except Exception as exc:  # counted as a failed operation
                    errors[str(n)] = _error(exc)
    return {"corpus": outputs, "errors": errors}


def pass_verify(request: dict, clock) -> dict:
    from nicecubic import suites

    reports, errors = [], {}
    with clock:
        for name in sorted(suites.SUITES):
            with clock.unit(name):
                try:
                    report = suites.verify_suite(name, max_n=request["max_n"], jobs=request["jobs"])
                    reports.append(report.to_dict())
                except Exception as exc:  # counted as a failed operation
                    errors[name] = _error(exc)
    return {"reports": reports, "errors": errors}


def pass_analyze(request: dict, clock) -> dict:
    from nicecubic import analyze

    with open(request["stream"]) as source:
        lines = source.read().split()
    texts, errors = [], {}
    with clock:
        for index, line in enumerate(lines):
            with clock.unit(str(index)):
                try:
                    reports, parse_errors = analyze.analyze_text(line)
                    texts.append(analyze.to_json(reports))
                    if parse_errors:
                        errors[str(index)] = "; ".join(parse_errors)
                except Exception as exc:  # counted as a failed operation
                    texts.append(None)
                    errors[str(index)] = _error(exc)
    return {"texts": texts, "errors": errors}


class Clock:
    """Times each unit of work of a pass under the unit's name, and takes a
    calibration time before every unit and after the last."""

    def __init__(self):
        self.units: dict[str, float] = {}
        self.calibrations: list[float] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.calibrations.append(calibrate())
        return False

    @contextmanager
    def unit(self, name: str):
        self.calibrations.append(calibrate())
        start = time.perf_counter()
        try:
            yield
        finally:
            self.units[name] = time.perf_counter() - start


# A fixed graph search in plain Python (dict, list and set operations, as in
# the program): 64 vertices, each joined to its ring neighbours and its
# opposite vertex.
_CALIBRATION_GRAPH = {v: [(v + 1) % 64, (v - 1) % 64, (v + 32) % 64] for v in range(64)}


def calibrate() -> float:
    """Seconds one fixed piece of interpreter work takes now (about 2 ms),
    the median of three tries. The shared host runs this process at speeds
    up to 1.6x apart, switching every few seconds; ``run.py`` divides each
    unit's time by the calibration times around it."""
    tries = []
    for _ in range(3):
        start = time.perf_counter()
        for root in list(range(64)) * 2:
            seen = {root}
            todo = [root]
            while todo:
                for w in _CALIBRATION_GRAPH[todo.pop()]:
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
        tries.append(time.perf_counter() - start)
    return sorted(tries)[1]


SETUPS = {"enumerate": setup_enumerate, "verify": setup_verify, "analyze": setup_analyze}
PASSES = {"enumerate": pass_enumerate, "verify": pass_verify, "analyze": pass_analyze}


def main(request_path: str) -> int:
    with open(request_path) as source:
        request = json.load(source)
    import nicecubic  # noqa: F401  (set-up: imports every layer)

    kind = request["kind"]
    if request["step"] == "setup":
        before = calibrate()
        response = SETUPS[kind](request)
        response["calibrations"] = [before, calibrate()]
    else:
        tracer = None
        if request.get("trace"):
            from tracing import Tracer

            tracer = Tracer(request["workload"], request["pass_id"])
            tracer.install()
        clock = Clock()
        response = PASSES[kind](request, clock)
        response["unit_s"] = clock.units
        response["calibrations"] = clock.calibrations
        if tracer is not None:
            tracer.uninstall()
            tracer.write_spans(request["spans_path"])
            response["totals"] = tracer.totals()
            response["spans"] = len(tracer.spans)
    response["peak_rss_mb"] = _peak_rss_mb()
    with open(request["out"], "w") as out:
        json.dump(response, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
