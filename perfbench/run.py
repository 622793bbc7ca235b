"""nicecubic benchmark: cold enumeration, all-suite verify (serial and two
jobs) and per-graph analyze, each pass in a fresh interpreter.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Every step runs ``child.py`` in a new interpreter against a private corpus
cache under ``.perfbench-tmp/``, which is removed when the run ends. A run
sets up several times, then makes closed-loop passes until ``--seconds`` have
gone by, and at least three. A pass times each unit of its work (one order,
suite or graph).

The shared host runs the benchmark at speeds up to 1.6x apart, switching
every few seconds to minutes, so raw times of the same code spread by 10 to
35 % between runs. The gated times are therefore calibrated: the child
times a fixed piece of interpreter work (``child.calibrate``) before every
unit and after the last, and each unit's time is scaled by
``CALIBRATION_REF_S`` over the mean of the two calibrations around it. That
gives seconds at a fixed reference speed of the interpreter. ``pass_s`` is
the sum over units of each unit's median calibrated time over the passes;
``setup_s`` is the median calibrated set-up time. The raw times are printed
beside them.

Every output is checked (``checks.py``). The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
with ``--trace 0`` the end-to-end metrics, each a median over set-ups or
passes; with ``--trace 1`` the per-layer metrics of one traced pass, plus the
tracing overhead against an untraced pass made in the same run. The traced
pass also writes its spans to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

MIN_PASSES = 3
# ``child.calibrate()`` on the reference speed: its time in the fast state of
# the 2-core development box (Intel Xeon, Python 3.11).
CALIBRATION_REF_S = 0.00175
RUN_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    why: str
    setups: int
    params: dict


CORPUS_ORDERS = [4, 6, 8, 10]
# The analyze stream: random members drawn by the seed, the first pool
# members of the largest orders (the same for every seed) and one family
# member per (kind, order) stratum up to n = 22.
PER_ORDER = {14: 3, 16: 3, 18: 3, 20: 3}
ANCHORS = {22: 2, 24: 1}
FAMILY_MAX_N = 22

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "enumerate-n10",
            "enumerate",
            "cold enumerate_cubic for n = 4..10 into an empty cache; isomorphism dedup "
            "dominates, matching/structure/nice are idle",
            setups=5,
            params={"orders": CORPUS_ORDERS},
        ),
        Workload(
            "verify-all-n10",
            "verify",
            "all 22 suites, serial, over the warm n <= 10 corpus (27 graphs); matching, "
            "graphs, structure, nice and suites do the work",
            setups=3,
            params={"orders": CORPUS_ORDERS, "max_n": 10, "jobs": 1},
        ),
        Workload(
            "verify-all-n10-j2",
            "verify",
            "all 22 suites with jobs=2 over the same corpus, so the process-pool path of "
            "verify_suite (a pool per suite, graph6 pickling) is measured",
            setups=3,
            params={"orders": CORPUS_ORDERS, "max_n": 10, "jobs": 2},
        ),
        Workload(
            "analyze-n24",
            "analyze",
            "one analyze_text + to_json per graph over a seeded stream of 29 graphs beyond "
            "the corpus: 15 random cubic with n = 14..24, 14 F/G1/G2/T members with n <= 22",
            setups=5,
            params={"per_order": PER_ORDER, "anchors": ANCHORS, "family_max_n": FAMILY_MAX_N},
        ),
    )
}

# Tiny sizes that take every code path in a few seconds (the benchmark's tests).
SMOKE_PARAMS = {
    "enumerate": {"orders": [4, 6, 8]},
    "verify": {"orders": [4, 6, 8], "max_n": 8},
    "analyze": {"per_order": {14: 1}, "anchors": {16: 1}, "family_max_n": 14},
}

END_TO_END = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
]

# (metric, function, statistic, unit, better). Statistics: calls; s = inclusive
# seconds of outermost calls; self_s = seconds outside wrapped callees;
# per_graph = calls per input graph; tally = summed result tally (cuts,
# matchings); ratio = tally / calls.
PER_LAYER = [
    ("graph6.parse_graph6.calls", "graph6.parse_graph6", "calls", "count", "lower"),
    ("graph6.parse_graph6.per_graph", "graph6.parse_graph6", "per_graph", "calls/graph", "lower"),
    ("graphs.connectivity_profile.calls", "graphs.connectivity_profile", "calls", "count", "lower"),
    ("graphs.connectivity_profile.per_graph", "graphs.connectivity_profile", "per_graph", "calls/graph", "lower"),
    ("graphs.connectivity_profile.s", "graphs.connectivity_profile", "s", "s", "lower"),
    ("graphs.connected_components.calls", "graphs.connected_components", "calls", "count", "lower"),
    ("graphs.connected_components.self_s", "graphs.connected_components", "self_s", "s", "lower"),
    ("graphs.induced_subgraph.calls", "graphs.induced_subgraph", "calls", "count", "lower"),
    ("graphs.induced_subgraph.self_s", "graphs.induced_subgraph", "self_s", "s", "lower"),
    ("graphs.enumerate_cuts.calls", "graphs.enumerate_cuts", "calls", "count", "lower"),
    ("graphs.enumerate_cuts.cuts", "graphs.enumerate_cuts", "tally", "count", "lower"),
    ("graphs.enumerate_cuts.s", "graphs.enumerate_cuts", "s", "s", "lower"),
    ("graphs.edge_cut.calls", "graphs.edge_cut", "calls", "count", "lower"),
    ("matching.has_perfect_matching.calls", "matching.has_perfect_matching", "calls", "count", "lower"),
    ("matching.has_perfect_matching.s", "matching.has_perfect_matching", "s", "s", "lower"),
    ("matching.maximum_matching.calls", "matching.maximum_matching", "calls", "count", "lower"),
    ("matching.maximum_matching.self_s", "matching.maximum_matching", "self_s", "s", "lower"),
    ("matching.perfect_matchings.calls", "matching.perfect_matchings", "calls", "count", "lower"),
    ("matching.perfect_matchings.matchings", "matching.perfect_matchings", "tally", "count", "lower"),
    ("matching.perfect_matchings.self_s", "matching.perfect_matchings", "self_s", "s", "lower"),
    ("matching.is_matching_covered.calls", "matching.is_matching_covered", "calls", "count", "lower"),
    ("matching.is_matching_covered.s", "matching.is_matching_covered", "s", "s", "lower"),
    ("matching.tutte_condition_holds.s", "matching.tutte_condition_holds", "s", "s", "lower"),
    ("structure.is_tight_cut.calls", "structure.is_tight_cut", "calls", "count", "lower"),
    ("structure.is_tight_cut.s", "structure.is_tight_cut", "s", "s", "lower"),
    ("structure.is_tight_cut.tight_ratio", "structure.is_tight_cut", "ratio", "ratio", "higher"),
    ("structure.nontrivial_tight_cuts.s", "structure.nontrivial_tight_cuts", "s", "s", "lower"),
    ("structure.barriers.calls", "structure.barriers", "calls", "count", "lower"),
    ("structure.barriers.s", "structure.barriers", "s", "s", "lower"),
    ("structure.odd_component_count.calls", "structure.odd_component_count", "calls", "count", "lower"),
    ("structure.classify.calls", "structure.classify", "calls", "count", "lower"),
    ("structure.classify.s", "structure.classify", "s", "s", "lower"),
    ("nice.nice_vertices.calls", "nice.nice_vertices", "calls", "count", "lower"),
    ("nice.nice_vertices.s", "nice.nice_vertices", "s", "s", "lower"),
    ("nice.is_nice_pair.calls", "nice.is_nice_pair", "calls", "count", "lower"),
    ("nice.is_nice_pair.s", "nice.is_nice_pair", "s", "s", "lower"),
    ("nice.nice_pair_matrix.s", "nice.nice_pair_matrix", "s", "s", "lower"),
    ("nice.nice_pair_sets_bounded.s", "nice.nice_pair_sets_bounded", "s", "s", "lower"),
    ("isomorphism.is_isomorphic.calls", "isomorphism.is_isomorphic", "calls", "count", "lower"),
    ("isomorphism.is_isomorphic.s", "isomorphism.is_isomorphic", "s", "s", "lower"),
    ("isomorphism.is_isomorphic.hit_ratio", "isomorphism.is_isomorphic", "ratio", "ratio", "higher"),
    ("isomorphism.refined_colors.calls", "isomorphism.refined_colors", "calls", "count", "lower"),
    ("isomorphism.refined_colors.self_s", "isomorphism.refined_colors", "self_s", "s", "lower"),
    ("isomorphism.invariant_key.s", "isomorphism.invariant_key", "s", "s", "lower"),
    ("isomorphism.canonical_labeling.calls", "isomorphism.canonical_labeling", "calls", "count", "lower"),
    ("isomorphism.canonical_labeling.s", "isomorphism.canonical_labeling", "s", "s", "lower"),
    ("enumeration.enumerate_cubic.calls", "enumeration.enumerate_cubic", "calls", "count", "lower"),
    ("enumeration.enumerate_cubic.s", "enumeration.enumerate_cubic", "s", "s", "lower"),
    ("enumeration.enumerate_cubic.self_s", "enumeration.enumerate_cubic", "self_s", "s", "lower"),
    ("families.recognize_family.calls", "families.recognize_family", "calls", "count", "lower"),
    ("families.recognize_family.s", "families.recognize_family", "s", "s", "lower"),
    ("families.verify_membership.s", "families.verify_membership", "s", "s", "lower"),
    ("suites.verify_suite.self_s", "suites.verify_suite", "self_s", "s", "lower"),
    ("analyze.analyze_graph.calls", "analyze.analyze_graph", "calls", "count", "lower"),
    ("analyze.analyze_graph.self_s", "analyze.analyze_graph", "self_s", "s", "lower"),
]
SUITE_NAMES = sorted(checks.load_reference("verify")["10"])
PER_LAYER += [
    (f"suites.verify_suite.{name}.s", f"suites.verify_suite.{name}", "s", "s", "lower")
    for name in SUITE_NAMES
]
TRACE_METRICS = [
    ("trace.overhead_s", "s", "lower"),
    ("trace.calls", "count", "lower"),
    ("trace.spans", "count", "lower"),
]


class BenchError(Exception):
    """The run cannot produce a measurement (missing program, broken set-up)."""


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def add(self, failed: bool, problems: list[str], label: str):
        self.attempted += 1
        self.failed += int(failed)
        self.problems += problems
        if failed:
            self.failures.append(label)


class Run:
    """One workload run: private directories, child processes, checks."""

    def __init__(self, workload: Workload, seed: int, smoke: bool, deadline: float):
        self.workload = workload
        self.seed = seed
        self.params = dict(workload.params, **(SMOKE_PARAMS[workload.kind] if smoke else {}))
        self.deadline = deadline
        tmp_parent = ROOT / ".perfbench-tmp"
        tmp_parent.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=tmp_parent))
        self.cache = self.tmp / "cache"
        self.cache.mkdir()
        self.outcome = Outcome()
        self.stream_keys: list[str] = []
        self.stream_lines: list[str] = []
        self.redraws = 0
        self._steps = 0

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def child(self, step: str, cache: Path, **extra) -> tuple[dict, float]:
        """Run one child step; returns its response and its wall time."""
        self._steps += 1
        out = self.tmp / f"response-{self._steps}.json"
        request = dict(
            self.params,
            kind=self.workload.kind,
            workload=self.workload.name,
            step=step,
            stream=str(self.tmp / "stream.g6"),
            out=str(out),
            **extra,
        )
        request_path = self.tmp / f"request-{self._steps}.json"
        request_path.write_text(json.dumps(request))
        env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            NICECUBIC_CACHE_DIR=str(cache),
            PYTHONHASHSEED="0",
        )
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run time limit reached")
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(request_path)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{step} step exceeded the run time limit") from None
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"{step} step exited with {proc.returncode}:\n{stderr.strip()}")
        return json.loads(out.read_text()), elapsed

    # -- set-up --------------------------------------------------------------

    def setup(self) -> list[tuple[float, float]]:
        """Sets up ``setups`` times; returns the raw and the calibrated
        seconds of each set-up."""
        times = []
        kind = self.workload.kind
        extra = {}
        if kind == "analyze":
            self.stream_keys = gen.plan(
                self.seed,
                self.params["per_order"],
                self.params["anchors"],
                self.params["family_max_n"],
            )
            extra["stream_keys"] = self.stream_keys
        for _ in range(self.workload.setups):
            # Every set-up starts from an empty cache, so each one does the
            # same work; the passes use the cache the last one warmed.
            shutil.rmtree(self.cache)
            self.cache.mkdir()
            response, elapsed = self.child("setup", self.cache, **extra)
            speed = CALIBRATION_REF_S / statistics.mean(response["calibrations"])
            times.append((elapsed, elapsed * speed))
            if kind == "verify":
                self._confirm_corpus(response["corpus"])
            elif kind == "analyze":
                if self.stream_lines and response["lines"] != self.stream_lines:
                    raise BenchError("set-up built a different stream on a repeat")
                self.stream_lines = response["lines"]
                self.redraws = response["redraws"]
        return times

    def _confirm_corpus(self, corpus: dict):
        reference = checks.load_reference("enumerate")
        problems = []
        for n in self.params["orders"]:
            problems += checks.check_order(n, corpus.get(str(n), []), reference)
        if problems:
            raise BenchError("warm cache does not hold the full corpus: " + "; ".join(problems))

    # -- passes --------------------------------------------------------------

    def one_pass(self, pass_id: int, trace_path: Path | None = None) -> dict:
        cache = self.cache
        if self.workload.kind == "enumerate":
            cache = self.tmp / f"cold-{pass_id}"
            cache.mkdir()
        extra = {"pass_id": pass_id, "trace": trace_path is not None}
        if trace_path is not None:
            extra["spans_path"] = str(trace_path)
        response, _ = self.child("pass", cache, **extra)
        self.check(response)
        calibrations = response["calibrations"]
        response["ref_unit_s"] = {
            unit: seconds * 2 * CALIBRATION_REF_S / (calibrations[i] + calibrations[i + 1])
            for i, (unit, seconds) in enumerate(response["unit_s"].items())
        }
        return response

    def check(self, response: dict):
        kind = self.workload.kind
        errors = response["errors"]
        outcome = self.outcome
        if kind == "enumerate":
            reference = checks.load_reference("enumerate")
            for n in self.params["orders"]:
                if str(n) in errors:
                    outcome.add(True, [f"n={n}: {errors[str(n)]}"], f"n={n}")
                    continue
                problems = checks.check_order(n, response["corpus"][str(n)], reference)
                outcome.add(bool(problems), problems, f"n={n}")
        elif kind == "verify":
            reference = checks.load_reference("verify")[str(self.params["max_n"])]
            reports = {r["suite"]: r for r in response["reports"]}
            if sorted(set(reports) | set(errors)) != SUITE_NAMES:
                outcome.problems.append("the suite registry differs from the reference")
            for name in sorted(set(reports) | set(errors)):
                if name in errors:
                    outcome.add(True, [f"{name}: {errors[name]}"], name)
                    continue
                failed, problems = checks.check_suite(reports[name], reference)
                outcome.add(failed, problems, name)
        else:
            reference = checks.load_reference("analyze")
            validator = checks.schema_validator(ROOT)
            for index, (key, line) in enumerate(zip(self.stream_keys, self.stream_lines)):
                text = response["texts"][index]
                if str(index) in errors or text is None:
                    outcome.add(True, [f"{key}: {errors.get(str(index))}"], key)
                    continue
                problems = checks.check_dossier(key, line, text, validator, reference)
                outcome.add(bool(problems), problems, key)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, out_dir: Path):
    """Returns (metrics, outcome, notes) for one workload run."""
    workload = WORKLOADS[name]
    run = Run(workload, seed, smoke, time.monotonic() + RUN_LIMIT_S)
    notes = []
    try:
        setup_times = run.setup()
        if trace:
            untraced = run.one_pass(0)
            out_dir.mkdir(exist_ok=True)
            span_path = out_dir / f"spans-{name}-seed{seed}.jsonl"
            traced = run.one_pass(1, span_path)
            metrics = layer_metrics(run, traced, untraced)
            notes.append(f"spans written to {span_path.relative_to(ROOT)}")
            notes.append(
                f"tracing overhead {metrics['trace.overhead_s']['value']:.3f} s calibrated "
                f"(traced {sum(traced['ref_unit_s'].values()):.3f} s, "
                f"untraced {sum(untraced['ref_unit_s'].values()):.3f} s)"
            )
        else:
            passes = []
            start = time.monotonic()
            while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
                passes.append(run.one_pass(len(passes)))
            metrics = {
                "setup_s": {"value": statistics.median(t for _, t in setup_times), "unit": "s"},
                "pass_s": {"value": sum(unit_medians(passes, "ref_unit_s").values()), "unit": "s"},
                "peak_rss_mb": {"value": statistics.median([p["peak_rss_mb"] for p in passes]), "unit": "MB"},
            }
            notes += _summary(run, setup_times, passes)
        return metrics, run.outcome, notes + _outcome_lines(run)
    finally:
        run.close()


def unit_medians(passes: list[dict], key: str) -> dict[str, float]:
    """Each unit's median time over the passes, raw (``unit_s``) or
    calibrated (``ref_unit_s``)."""
    return {unit: statistics.median(p[key][unit] for p in passes) for unit in passes[0][key]}


def _summary(run: Run, setup_times: list[tuple[float, float]], passes: list[dict]) -> list[str]:
    count = len(passes[0]["unit_s"])
    raw_totals = ", ".join(f"{sum(p['unit_s'].values()):.3f}" for p in passes)
    lines = [
        f"setup_s      {statistics.median(t for _, t in setup_times):.4f} s   calibrated, median of "
        f"{len(setup_times)} set-ups (raw {statistics.median(t for t, _ in setup_times):.4f} s)",
        f"pass_s       {sum(unit_medians(passes, 'ref_unit_s').values()):.4f} s   calibrated, sum of "
        f"the medians of {count} units over {len(passes)} passes",
        f"wall_s       {sum(unit_medians(passes, 'unit_s').values()):.4f} s   raw, the same "
        f"(pass totals {raw_totals})",
        f"peak_rss_mb  {statistics.median([p['peak_rss_mb'] for p in passes]):.2f} MB  median of {len(passes)} passes",
    ]
    if run.workload.kind == "analyze":
        samples = [seconds * 1000 for p in passes for seconds in p["unit_s"].values()]
        deciles = statistics.quantiles(samples, n=10)
        beyond = sum(1 for ms in samples if ms > deciles[8])
        lines.append(f"graph_p50_ms {statistics.median(samples):.3f} ms  over {len(samples)} samples")
        lines.append(
            f"graph_p90_ms {deciles[8]:.3f} ms  over {len(samples)} samples, {beyond} beyond it"
        )
    return lines


def _outcome_lines(run: Run) -> list[str]:
    outcome = run.outcome
    unit = {"enumerate": "enumerate_cubic(n) call", "verify": "verify_suite call",
            "analyze": "graph analyzed"}[run.workload.kind]
    lines = [
        f"failed_frac  {outcome.failed}/{outcome.attempted} = "
        f"{outcome.failed / outcome.attempted:.4f}   base: attempted operations, one per {unit}"
        + (f"; failed: {', '.join(sorted(set(outcome.failures)))}" if outcome.failures else "")
    ]
    if run.workload.kind == "analyze":
        random_count = sum(1 for k in run.stream_keys if k.startswith("cubic:"))
        lines.append(
            f"stream       seed {run.seed}: {len(run.stream_keys)} graphs "
            f"({random_count} random, {len(run.stream_keys) - random_count} family), "
            f"pairing-model redraws {run.redraws}"
        )
    return lines


def layer_metrics(run: Run, traced: dict, untraced: dict) -> dict:
    totals = traced["totals"]
    if run.workload.kind == "analyze":
        graphs = len(run.stream_lines)
    else:
        graphs = sum(checks.A002851[n] for n in run.params["orders"])
    metrics = {}
    for metric, function, statistic, unit, _ in PER_LAYER:
        entry = totals.get(function, {"calls": 0, "s": 0.0, "self_s": 0.0, "tally": 0})
        if statistic == "per_graph":
            value = entry["calls"] / graphs
        elif statistic == "ratio":
            value = entry["tally"] / entry["calls"] if entry["calls"] else 0.0
        else:
            value = entry[statistic]
        metrics[metric] = {"value": value, "unit": unit}
    overhead = sum(traced["ref_unit_s"].values()) - sum(untraced["ref_unit_s"].values())
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.calls"] = {"value": sum(e["calls"] for f, e in totals.items()
                                           if not f.startswith("suites.verify_suite.")),
                              "unit": "count"}
    metrics["trace.spans"] = {"value": traced["spans"], "unit": "count"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nicecubic benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nicecubic" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'nicecubic'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    out_dir = ROOT / ".perfbench-out"
    results = {}
    for name in names:
        try:
            metrics, outcome, notes = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.smoke, out_dir
            )
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        results[name] = (metrics, outcome)
        print(f"== {name} (seed {args.seed}, trace {args.trace})")
        for line in notes:
            print(f"   {line}")
        if outcome.problems:
            print(f"   INCORRECT: {len(outcome.problems)} output problem(s)")
            for problem in outcome.problems[:20]:
                print(f"      {problem}")
        if args.trace:
            for metric, value in sorted(metrics.items()):
                print(f"   {metric:48s} {value['value']:.6g} {value['unit']}")
        sys.stdout.flush()

    if len(names) == 1:
        metrics, outcome = results[names[0]]
    else:
        metrics = {
            f"{name}.{metric}": value
            for name, (m, _) in results.items()
            for metric, value in m.items()
        }
        outcome = Outcome(
            attempted=sum(o.attempted for _, o in results.values()),
            failed=sum(o.failed for _, o in results.values()),
            problems=[p for _, o in results.values() for p in o.problems],
        )
    print(
        json.dumps(
            {
                "correct": not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
