"""Tiny-sized runs of every workload through the benchmark's own entry point."""

import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def scratch_output(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def test_spec_names_the_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_passes_every_check(workload):
    result = run.run(workload, seed=0, seconds=0, trace=False, tiny=True)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric(tmp_path):
    result = run.run("kinds_compare", seed=0, seconds=0, trace=True, tiny=True)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(units[name] == m["unit"] for name, m in result["metrics"].items())
    assert result["metrics"]["model.forward_calls"]["value"] > 0
    assert result["metrics"]["baselines.hypernet_generate_us.n"]["value"] > 0
    spans = (tmp_path / "spans-kinds_compare-s0.csv").read_text().splitlines()
    assert spans[0] == "span,name,start_ns,end_ns,parent,run"
    assert len(spans) - 1 == result["metrics"]["trace.spans"]["value"]


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "default_run", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
