"""Every config the parser accepts runs end to end: no failure marker anywhere.

A few dozen training and adaptation steps per run on a tiny world, over
every model kind x parameterisation x task kind, both allocation modes of
the skilled model, the frozen skilled allocations ("identity" and a 0/1
matrix) with held-out tasks (which adapt a learnable row over the fixed
inventory), and an expert model over a 0/1 matrix.
"""

import csv
import itertools
import json

import numpy as np
import pytest
from scipy.special import expit

from skillmix.config import MODEL_KINDS, PARAMETERISATIONS, TASK_KINDS, parse_config_dict
from skillmix.experiment import CURVE_METRICS, HISTORY_FIELDS, OUTPUT_ROOT_ENV, emit_plot_data, run_experiment

TINY = {
    "seed": 1,
    "world": {
        "num_tasks": 4,
        "num_true_skills": 2,
        "input_dim": 4,
        "examples_per_task": 16,
        "skills_per_task_max": 2,
        "holdout_tasks": 1,
    },
    "num_skills": 3,
    "hidden_dim": 4,
    "rank": 2,
    "steps": 30,
    "batch_size": 8,
    "eval_every": 10,
    "warmup_mask_steps": 10,
    "k_shot": 4,
    "adaptation_steps": 12,
    "adapt_z_only_steps": 6,
    "adaptation_resamples": 1,
}

# One row per training task; three columns cover the world's two planted skills.
FIXED_MATRIX = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]


def _cases():
    for kind, param, task_kind in itertools.product(MODEL_KINDS, PARAMETERISATIONS, TASK_KINDS):
        modes = ("per_layer", "global") if kind == "skilled" else ("per_layer",)
        for mode in modes:
            changes = {"model_kind": kind, "parameterisation": param, "allocation_mode": mode}
            if kind == "expert":
                changes["expert_table"] = "planted"
            yield f"{kind}-{param}-{task_kind}-{mode}", changes, task_kind
    for frozen, param in itertools.product(("identity", "matrix"), PARAMETERISATIONS):
        value = FIXED_MATRIX if frozen == "matrix" else frozen
        yield f"skilled-{param}-frozen_{frozen}", {"freeze_allocation": value, "parameterisation": param}, "regression"
    yield "expert-dense-regression-matrix", {"model_kind": "expert", "expert_table": FIXED_MATRIX}, "regression"


CASES = {name: (changes, task_kind) for name, changes, task_kind in _cases()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_config_runs_end_to_end(name, tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    changes, task_kind = CASES[name]
    doc = json.loads(json.dumps(TINY))
    doc.update(changes)
    doc["world"]["task_kind"] = task_kind
    record = run_experiment(parse_config_dict(doc))
    assert record.failure is None, record.failure
    summary = json.loads((record.run_dir / "summary.json").read_text())
    assert "failure" not in summary
    assert len(summary["few_shot"]) == TINY["world"]["holdout_tasks"]


STAGES = {
    "generate_world",
    "multitask_train",
    "evaluate_train_tasks",
    "import_scipy_optimize",
    "allocation_analysis",
    "hierarchy_export",
    "few_shot_adaptation",
}


def test_timing_json_has_per_stage_seconds_and_summary_has_none(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    record = run_experiment(parse_config_dict(TINY))
    assert record.failure is None, record.failure
    timing = json.loads((record.run_dir / "timing.json").read_text())
    assert sorted(timing) == ["stage_seconds", "wall_clock_seconds"]
    stages = timing["stage_seconds"]
    assert set(stages) == STAGES
    assert all(seconds >= 0.0 for seconds in stages.values())
    assert sum(stages.values()) <= timing["wall_clock_seconds"] == record.wall_clock
    summary = (record.run_dir / "summary.json").read_text()
    assert "seconds" not in summary and "wall" not in summary


def test_history_csv_logs_each_steps_annealed_tau(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    doc = dict(TINY, tau=1.0, tau_final=0.5)
    record = run_experiment(parse_config_dict(doc))
    assert record.failure is None, record.failure
    with open(record.run_dir / "history.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == HISTORY_FIELDS == ("step", "task_id", "loss", "reg_loss", "tau")
    taus = [float(row[-1]) for row in rows[1:]]
    assert len(taus) == doc["steps"]
    assert taus[0] == 1.0 and taus[-1] == 0.5
    assert all(a > b for a, b in zip(taus, taus[1:]))
    curves, _ = emit_plot_data([record.run_dir], tmp_path / "plots")
    with open(curves, newline="") as fh:
        metrics = {row["metric"] for row in csv.DictReader(fh)}
    assert metrics == set(CURVE_METRICS) == {"loss", "reg_loss", "tau"}


def test_an_underflowed_allocation_runs_and_uses_no_skill(tmp_path, monkeypatch):
    # A strong prior at a fast allocation rate drives every expected cell to exactly 0.0.
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    record = run_experiment(parse_config_dict(dict(TINY, ibp_strength=10.0, lr_z=1000.0)))
    assert record.failure is None, record.failure
    for layer in ("layer_0", "layer_1"):
        logits = json.loads((record.run_dir / f"allocation_{layer}.json").read_text())["logits"]
        assert not np.any(expit(np.array(logits)))  # the expected allocation at tau = 1
        assert record.summary["allocation_metrics"][layer] == {"discreteness": 0.0, "sparsity": 0.0, "usage": 0.0}
    assert len(record.summary["few_shot"]) == TINY["world"]["holdout_tasks"]
