import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nicecubic.cli import main
from nicecubic.catalog import k33
from nicecubic.graph6 import parse_graph6, write_graph6
from nicecubic.isomorphism import is_isomorphic


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("NICECUBIC_CACHE_DIR", str(tmp_path / "cache"))


def test_analyze_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("C~\n"))
    assert main(["analyze", "-"]) == 0
    out = capsys.readouterr().out
    assert "family        K4" in out


def test_analyze_json_mode(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text(write_graph6(k33()) + "\n")
    assert main(["analyze", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reports"][0]["nice_pairs"]["pair_count"] == 9


def test_analyze_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "in.g6"
    path.write_text("C~\nbroken\x01\n")
    assert main(["analyze", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_analyze_capped_barrier_host_exits_zero(tmp_path, capsys):
    from .test_analyze import BRIDGED_22

    path = tmp_path / "in.g6"
    path.write_text(BRIDGED_22 + "\n")
    assert main(["analyze", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["graph6"] for r in payload["reports"]] == [BRIDGED_22]


def test_enumerate_to_file(tmp_path):
    out = tmp_path / "n6.g6"
    assert main(["enumerate", "--n", "6", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    graphs = [parse_graph6(line) for line in lines]
    assert any(is_isomorphic(g, k33()) for g in graphs)


def test_enumerate_odd_order_fails(capsys):
    assert main(["enumerate", "--n", "7"]) == 2
    assert "even" in capsys.readouterr().err


def test_verify_pass_and_exit_code(capsys):
    assert main(["verify", "--suite", "nine-nice-pairs", "--max-n", "6"]) == 0
    assert "[pass]" in capsys.readouterr().out


def test_verify_json(capsys):
    assert main(
        ["verify", "--suite", "nine-nice-pairs", "--max-n", "6", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True


def test_verify_list(capsys):
    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    assert "nice-count-bounds" in out
    assert "claim:" in out


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope", "--max-n", "6"]) == 2


def test_build_hdiamond(capsys):
    params = json.dumps({"quads": 1, "host": write_graph6(k33()), "host_edge": [0, 3]})
    assert main(["build", "--family", "Hdiamond", "--params", params]) == 0
    line = capsys.readouterr().out.strip()
    assert parse_graph6(line).n == 8


def test_build_family_mismatch(capsys):
    params = json.dumps({"family": "G1", "quads": 1})
    assert main(["build", "--family", "F", "--params", params]) == 2


def test_build_f_roundtrip(capsys, tmp_path):
    params = json.dumps(
        {
            "replacements": [
                {"edge": [0, 1], "quads": 1, "host": write_graph6(k33()), "host_edge": [0, 3]}
            ]
        }
    )
    out = tmp_path / "f1.g6"
    assert main(["build", "--family", "F", "--params", params, "--out", str(out)]) == 0
    g = parse_graph6(out.read_text().strip())
    assert g.n == 10 and g.is_cubic


@pytest.mark.parametrize(
    "family, params",
    [
        ("Hdiamond", {"quads": 1, "host": 5, "host_edge": [0, 3]}),
        ("Hdiamond", {"quads": 1, "host": ["EFz_"], "host_edge": [0, 3]}),
        ("G1", {"attachment": 1, "host": "EFz_", "host_vertex": 0, "phi": [1, 2, "x"]}),
        ("Hdiamond", {"quads": 2.9, "host": "EFz_", "host_edge": [0, 3]}),
        ("G1", {"attachment": "1", "host": "EFz_", "host_vertex": 0}),
        ("G1", {"attachment": 1, "host": "EFz_", "host_vertex": "0"}),
    ],
)
def test_build_malformed_spec_values_exit_2(family, params, capsys):
    assert main(["build", "--family", family, "--params", json.dumps(params)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{tmp}/missing.g6"],
        ["enumerate", "--n", "4", "--out", "{tmp}/no-such-dir/n4.g6"],
    ],
)
def test_unreadable_input_and_unwritable_out_exit_2(argv, tmp_path, capsys):
    # exit 1 is reserved for suite violations; a file error is a usage error
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "No such file or directory" in err


def test_verify_rejects_jobs_below_one(capsys):
    assert main(["verify", "--suite", "nine-nice-pairs", "--max-n", "4", "--jobs", "0"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--n", "-4"],
        ["enumerate", "--n", "-3", "--no-connected"],
        ["verify", "--suite", "nine-nice-pairs", "--max-n", "-5"],
        ["verify", "--suite", "all", "--max-n", "-1", "--jobs", "2"],
        ["search-counterexample", "--max-n", "-2"],
    ],
)
def test_negative_order_is_refused(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "negative" in captured.err
    assert captured.out == ""


def test_search_counterexample_runs(capsys):
    assert main(["search-counterexample", "--max-n", "8"]) == 0
    out = capsys.readouterr().out
    assert "barrier" in out or "no minimum" in out


def test_closed_stdout_pipe_exits_quietly(tmp_path):
    # the reader's end is closed before any input arrives, so writing the
    # report to stdout fails with EPIPE
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), NICECUBIC_CACHE_DIR=str(tmp_path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "nicecubic.cli", "analyze", "--json", "-"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(b"QdIBOxC???_??A?C_Ao?A?BC?cO\n", timeout=120)
    assert b"Traceback" not in err
    assert err == b""
    assert proc.returncode == 1
