"""Tests of the benchmark itself: schema, request lists and a smoke run."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench.child import ROOT, load_cli, load_expected
from perfbench.spans import TIME_METRICS
from perfbench.workloads import BENCHMARKED, WORKLOADS, warmup_requests

RUN = ROOT / "perfbench" / "run.py"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=120)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert isinstance(out["failed"], int)
    for metric in out["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    return out


def test_benchmark_json_schema():
    doc = benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["perfbench"]
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert [w["name"] for w in doc["workloads"]] == list(BENCHMARKED)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert w["why"] == WORKLOADS[w["name"]].why
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_request_lists_parse_and_match_recorded_outputs():
    parser = load_cli().build_parser()
    for name, workload in WORKLOADS.items():
        expected = load_expected(name)
        for phase, argvs in (("setup", warmup_requests(workload)),
                             ("request", workload.requests)):
            assert [e["argv"] for e in expected[phase]] == [list(a) for a in argvs]
            assert all(e["exit"] == 0 for e in expected[phase])
            for argv in argvs:
                args = parser.parse_args([*argv, "--cache-dir", "unused"])
                assert args.command == argv[0]


def test_smoke_run_traces_every_layer():
    doc = benchmark_json()
    proc = run("--workload", "smoke", "--seed", "3", "--seconds", "1",
               "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    out = result_line(proc)
    assert out["correct"] and out["failed"] == 0
    units = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units
    for metric in TIME_METRICS + ("resolution.top_stage_s",):
        assert out["metrics"][metric]["value"] > 0, metric
    for metric in ("permgroup.subgroups", "modp.block_dim_max",
                   "resolution.stages", "resolution.betti_max"):
        assert out["metrics"][metric]["value"] > 0, metric
    spans = [json.loads(line) for path in
             (ROOT / ".perfbench" / "trace" / "smoke").glob("*.jsonl")
             for line in path.read_text().splitlines()]
    assert {s["metric"] for s in spans} == set(TIME_METRICS)
    assert {s["phase"] for s in spans} == {"request"}


def test_smoke_run_reports_end_to_end_metrics():
    doc = benchmark_json()
    proc = run("--workload", "smoke", "--seed", "4", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    out = result_line(proc)
    assert out["correct"] and out["failed"] == 0
    assert ({k: v["unit"] for k, v in out["metrics"].items()}
            == {m["name"]: m["unit"] for m in doc["end_to_end"]})
    assert all(v["value"] > 0 for v in out["metrics"].values())
    assert "failed_ratio" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "lattice", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
