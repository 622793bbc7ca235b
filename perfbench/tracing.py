"""Outside-in layer tracing for the benchmark.

``install`` replaces every public function of every loaded ``nicecubic``
module with a timing wrapper, wherever the function is bound (its defining
module, ``from .x import f`` bindings in other modules, and the package's
re-exports), so no file of the program changes. Private helpers are not
wrapped and count toward their caller's self time. Functions reached only
through data structures (``catalog.NAMED``, suite checkers) are not wrapped.

Every wrapped call is counted, and timed inclusive of its wrapped callees
and exclusive of them (self time). Spans are kept in memory as a calling-
context tree and written out when the pass ends: each outermost call gets a
span of its own, and below it the calls of one function made directly under
one parent span share a span that records their count, first start, last
end and summed duration. A verify pass makes about 1.5 million wrapped
calls; merging keeps its span file to a few thousand lines.
"""

from __future__ import annotations

import json
import sys
import types
from time import perf_counter

PACKAGE = "nicecubic"


# Per-function tallies of the returned value: cuts found, perfect matchings
# listed, tight cuts among those tested, isomorphism hits among tests.
_RESULT_TALLIES = {
    "graphs.enumerate_cuts": len,
    "matching.perfect_matchings": len,
    "structure.is_tight_cut": lambda witness: int(witness.tight),
    "isomorphism.is_isomorphic": lambda mapping: int(mapping is not None),
}

# Also timed per suite, keyed by its first argument.
_PER_SUITE = "suites.verify_suite"


class Stat:
    __slots__ = ("calls", "outer_s", "self_s", "depth", "tally")

    def __init__(self):
        self.calls = 0
        self.outer_s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.tally = 0


class Tracer:
    """Spans and per-function totals for one pass in one process."""

    def __init__(self, workload: str, pass_id: int):
        self.workload = workload
        self.pass_id = pass_id
        self.names: list[str] = []
        self.stats: dict[str, Stat] = {}
        # Span records: [span id, parent span id, name index, first start,
        # last end, calls, summed seconds, {name index: child record}].
        self.spans: list[list] = []
        # Active calls, innermost last: [span record, seconds in wrapped callees].
        self._stack: list[list] = [[[-1, -1, -1, 0.0, 0.0, 0, 0.0, {}], 0.0]]
        self._originals: list[tuple[types.ModuleType, str, object]] = []

    def _stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def _span(self, parent: list, name_index: int, start: float) -> list:
        record = parent[7].get(name_index)
        if record is None or parent[0] < 0:
            record = [len(self.spans), parent[0], name_index, start, start, 0, 0.0, {}]
            self.spans.append(record)
            parent[7][name_index] = record
        return record

    def wrap(self, fn, name: str):
        stat = self._stat(name)
        self.names.append(name)
        name_index = len(self.names) - 1
        tally_fn = _RESULT_TALLIES.get(name)
        keyed = name == _PER_SUITE
        stack = self._stack
        open_span = self._span

        def traced(*args, **kwargs):
            parent = stack[-1]
            start = perf_counter()
            frame = [open_span(parent[0], name_index, start), 0.0]
            stack.append(frame)
            stat.depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                stat.depth -= 1
                duration = end - start
                stat.calls += 1
                stat.self_s += duration - frame[1]
                if stat.depth == 0:
                    stat.outer_s += duration
                parent[1] += duration
                record = frame[0]
                record[4] = end
                record[5] += 1
                record[6] += duration
                if keyed and args:
                    keyed_stat = self._stat(f"{name}.{args[0]}")
                    keyed_stat.calls += 1
                    keyed_stat.outer_s += duration
            if tally_fn is not None:
                stat.tally += tally_fn(result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__module__ = fn.__module__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> int:
        """Wrap every public package function at every binding; returns the
        number of distinct functions wrapped."""
        wrappers: dict[int, object] = {}
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not (
                module_name == PACKAGE or module_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in sorted(vars(module).items()):
                if attr.startswith("_") or not _is_package_function(value):
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    layer = value.__module__.rsplit(".", 1)[-1]
                    wrapper = self.wrap(value, f"{layer}.{value.__name__}")
                    wrappers[id(value)] = wrapper
                self._originals.append((module, attr, value))
                setattr(module, attr, wrapper)
        return len(wrappers)

    def uninstall(self):
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    def totals(self) -> dict[str, dict]:
        return {
            name: {
                "calls": s.calls,
                "s": s.outer_s,
                "self_s": s.self_s,
                "tally": s.tally,
            }
            for name, s in sorted(self.stats.items())
            if s.calls
        }

    def write_spans(self, path):
        """One JSON header line, then one JSON array per span, in the order
        of the header's ``fields``; times are perf_counter seconds."""
        with open(path, "w") as out:
            header = {
                "workload": self.workload,
                "pass_id": self.pass_id,
                "fields": [
                    "span", "parent", "function", "start_s", "end_s", "calls", "busy_s",
                ],
                "spans": len(self.spans),
                "calls": sum(s.calls for s in self.stats.values()),
            }
            out.write(json.dumps(header) + "\n")
            names = self.names
            for span, parent, name_index, start, end, calls, busy, _ in self.spans:
                out.write(
                    f'[{span},{parent},"{names[name_index]}",'
                    f"{start:.9f},{end:.9f},{calls},{busy:.9f}]\n"
                )


def _is_package_function(value) -> bool:
    if isinstance(value, types.FunctionType):
        return value.__module__.startswith(PACKAGE)
    # functools.lru_cache wrappers (catalog constructors)
    wrapped = getattr(value, "__wrapped__", None)
    return (
        callable(value)
        and hasattr(value, "cache_info")
        and isinstance(wrapped, types.FunctionType)
        and wrapped.__module__.startswith(PACKAGE)
    )
