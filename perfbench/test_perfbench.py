"""The benchmark's own checks: BENCHMARK.json, the report's shape, and refusal without sources.

The smoke runs use a tiny step schedule, so they check names, units and
sample counts, not speed.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = bench_spec.load(ROOT)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(cwd, *args, timeout=170):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_benchmark_json_within_limits():
    doc = SPEC
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(doc)) <= 64 * 1024


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_report_has_every_metric(tmp_path, workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--trace", str(trace),
                "--smoke", "--work", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    spec = [(m["name"], m["unit"]) for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == [name for name, _ in spec]
    report = json.loads((tmp_path / "report.json").read_text())
    measured = report["per_layer" if trace else "end_to_end"]
    for name, unit in spec:
        assert result["metrics"][name] == {"value": measured[name]["value"], "unit": unit}
        assert isinstance(measured[name]["value"], (int, float))
        assert measured[name]["samples"] >= 1, name
    if trace:
        assert report["traced_loss_digest"] == report["loss_digest"]
        assert 0 < measured["trace.accounted_share"]["value"] < 1
    else:
        assert 0 < measured["warm_step_ms_tail"]["percentile"] <= 100
    assert report["wall_s"] > 0
    assert report["provenance"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "melgan_train", "--seed", "0", "--seconds", "1",
                "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
