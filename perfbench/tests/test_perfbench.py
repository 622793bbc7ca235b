"""The benchmark's own tests. Run from the repository root:

    python3 -m pytest perfbench/tests -q

The smoke runs use ``--smoke`` sizes and take about a minute in total.
"""

import json
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import gen
import run

ROOT = Path(run.ROOT)
NAME = re.compile(r"[A-Za-z0-9_.-]+")
LAYER_NAMES = [m[0] for m in run.PER_LAYER] + [m[0] for m in run.TRACE_METRICS]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced():
    return result(bench("--workload", "all", "--seed", "1", "--seconds", "0", "--trace", "0", "--smoke"))


@pytest.fixture(scope="module")
def traced_twice():
    args = ("--workload", "all", "--seed", "1", "--seconds", "0", "--trace", "1", "--smoke")
    return result(bench(*args)), result(bench(*args))


def test_smoke_untraced_reports_every_end_to_end_metric(untraced):
    assert untraced["correct"] is True
    assert untraced["failed"] == 0 and untraced["attempted"] > 0
    expected = {f"{w}.{m}" for w in run.WORKLOADS for m, _ in run.END_TO_END}
    assert set(untraced["metrics"]) == expected
    for value in untraced["metrics"].values():
        assert value["value"] > 0


def test_smoke_traced_reports_every_layer_metric(traced_twice):
    first, _ = traced_twice
    assert first["correct"] is True
    expected = {f"{w}.{m}" for w in run.WORKLOADS for m in LAYER_NAMES}
    assert set(first["metrics"]) == expected
    assert first["metrics"]["enumerate-n10.isomorphism.is_isomorphic.calls"]["value"] > 0
    assert first["metrics"]["enumerate-n10.matching.has_perfect_matching.calls"]["value"] == 0
    assert first["metrics"]["verify-all-n10.matching.has_perfect_matching.calls"]["value"] > 0
    assert first["metrics"]["analyze-n24.analyze.analyze_graph.calls"]["value"] > 0
    for name in run.WORKLOADS:
        spans = (ROOT / ".perfbench-out" / f"spans-{name}-seed1.jsonl").read_text().splitlines()
        header = json.loads(spans[0])
        assert header["workload"] == name and header["spans"] == len(spans) - 1 > 0
        assert header["fields"][:3] == ["span", "parent", "function"]


def test_traced_counts_repeat_exactly(traced_twice):
    first, second = traced_twice
    for name, value in first["metrics"].items():
        if value["unit"] in ("count", "calls/graph", "ratio"):
            assert second["metrics"][name]["value"] == value["value"], name


def test_metric_names_are_well_formed():
    names = [m for m, _ in run.END_TO_END] + LAYER_NAMES + list(run.WORKLOADS)
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [m for m, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == LAYER_NAMES
    units = [m[3] for m in run.PER_LAYER] + [m[1] for m in run.TRACE_METRICS]
    assert [m["unit"] for m in spec["per_layer"]] == units
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_failed_operations_are_counted_against_their_base():
    reference = checks.load_reference("verify")["12"]
    report = {
        "suite": "two-cut-nice-transfer",
        "graphs_checked": reference["two-cut-nice-transfer"]["graphs_checked"],
        "passed": False,
        "violations": [{"graph6": "K???wxceF?[?"}],
    }
    failed, problems = checks.check_suite(report, reference)
    assert failed and problems == []
    outcome = run.Outcome()
    outcome.add(failed, problems, report["suite"])
    outcome.add(False, [], "nine-nice-pairs")
    assert (outcome.attempted, outcome.failed, outcome.problems) == (2, 1, [])
    # The seed reports violations on exactly one suite at n <= 12: 1/22.
    failing = [name for name, entry in reference.items() if entry["violations"]]
    assert failing == ["two-cut-nice-transfer"] and len(reference) == 22


def test_truncated_corpus_file_surfaces_as_failed_operations():
    workload = run.Workload(
        "verify-n10", "verify", "test", setups=1,
        params={"orders": [4, 6, 8, 10], "max_n": 10, "jobs": 1},
    )
    bench_run = run.Run(workload, seed=0, smoke=False, deadline=time.monotonic() + 120)
    try:
        bench_run.setup()
        cache_file = bench_run.cache / "cubic-n10-connected.g6"
        lines = cache_file.read_text().splitlines()
        assert len(lines) == 19
        cache_file.write_text("".join(line + "\n" for line in lines[:7]))
        bench_run.one_pass(0)
        outcome = bench_run.outcome
        assert outcome.attempted == 22
        assert outcome.failed > 0 and outcome.problems
        with pytest.raises(run.BenchError, match="full corpus"):
            bench_run._confirm_corpus({"4": [], "6": [], "8": [], "10": lines[:7]})
    finally:
        bench_run.close()


def test_second_seed_gives_another_stream_of_the_same_shape():
    args = (run.PER_ORDER, run.ANCHORS, run.FAMILY_MAX_N)
    first, second = gen.plan(1, *args), gen.plan(2, *args)
    assert first != second and first == gen.plan(1, *args)
    specs, orders = gen.family_specs(), gen.family_orders()

    def shape(keys):
        strata = []
        for key in keys:
            kind, n_or_index = key.split(":")[:2]
            if kind == "family":
                strata.append((specs[int(n_or_index)]["family"], orders[int(n_or_index)]))
            else:
                strata.append((kind, int(n_or_index)))
        return sorted(strata)

    assert shape(first) == shape(second)
    reference = checks.load_reference("analyze")
    assert all(key in reference for key in first + second)


def test_second_seed_passes_all_checks(untraced):
    other = result(bench("--workload", "analyze-n24", "--seed", "2", "--seconds", "0",
                         "--trace", "0", "--smoke"))
    assert other["correct"] is True and other["failed"] == 0
    assert {f"analyze-n24.{m}" for m in other["metrics"]} <= set(untraced["metrics"])


def test_generator_matches_the_program_encoding():
    from nicecubic import Graph, is_connected, write_graph6

    for key in ("cubic:14:0", "cubic:24:29"):
        _, n, index = key.split(":")
        edges, redraws = gen.random_cubic(int(n), int(index))
        g = Graph(int(n), edges)
        assert g.is_cubic and g.simple and is_connected(g) and redraws >= 0
        assert gen.random_member(key)[0] == write_graph6(g)


def test_fingerprint_is_invariant_and_separates_the_corpus(tmp_path, monkeypatch):
    from nicecubic import enumerate_cubic

    monkeypatch.setenv("NICECUBIC_CACHE_DIR", str(tmp_path))
    lines = [e.graph6 for n in (4, 6, 8, 10) for e in enumerate_cubic(n)]
    prints = [checks.graph_fingerprint(*checks.decode_graph6(line)) for line in lines]
    assert len(set(prints)) == len(lines)
    rng = random.Random(0)
    for line in lines:
        n, edges = checks.decode_graph6(line)
        perm = list(range(n))
        rng.shuffle(perm)
        relabelled = [(perm[u], perm[v]) for u, v in edges]
        assert checks.graph_fingerprint(n, relabelled) == checks.graph_fingerprint(n, edges)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "enumerate-n10", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
