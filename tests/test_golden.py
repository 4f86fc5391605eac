"""Golden runs: the run directories of small configs, pinned.

Each config below runs the whole pipeline (`run_experiment`). Two gates
apply to it:

  * bytes, the default gate: its summary.json must equal the stored file in
    tests/golden/ byte for byte, and every other file of its run directory
    but timing.json (the wall clock) must have the sha256 stored in
    tests/golden/run_dir_sha256.json. A change that is meant to keep
    behaviour proves it here;
  * the float tolerance, for a re-record. A change that moves the goldens
    re-records them, in a commit of its own, with

        PYTHONPATH=src python tests/test_golden.py --record

    and says so in CHANGES.md. The command prints, for each golden, how
    many summary floats changed and their largest relative change,
    measured by `drift.py` against the stored bytes, then every other
    summary difference and the run-directory files that changed. A change
    that only reorders sums keeps the largest change within
    `drift.FLOAT_RTOL` and has no other summary difference.

The summaries are recorded by `run_experiment`, which adapts every held-out
task and resample side by side. The same configs check, bit for bit, that
this stacked adaptation gives each replica exactly what adapting it alone
gives.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import numpy as np

from skillmix.config import parse_config_dict
from skillmix.experiment import OUTPUT_ROOT_ENV, run_experiment
from skillmix.synthetic import generate_synthetic_benchmark
from skillmix.trainer import few_shot_adapt, multitask_train

from drift import summary_drift

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "run_dir_sha256.json"

TINY = {
    "seed": 3,
    "world": {
        "num_tasks": 6,
        "num_true_skills": 3,
        "input_dim": 8,
        "examples_per_task": 32,
        "skills_per_task_max": 2,
        "holdout_tasks": 2,
    },
    "num_skills": 3,
    "hidden_dim": 8,
    "steps": 60,
    "batch_size": 16,
    "eval_every": 20,
    "k_shot": 8,
    "adaptation_steps": 20,
    "adapt_z_only_steps": 10,
    "adaptation_resamples": 2,
}


def _with(**changes) -> dict:
    doc = json.loads(json.dumps(TINY))
    world = changes.pop("world", {})
    doc.update(changes)
    doc["world"].update(world)
    return doc


CONFIGS = {
    "skilled_dense_per_layer": _with(),
    "skilled_global_ibp_anneal": _with(
        allocation_mode="global", ibp_strength=0.1, tau_final=0.5, num_skills=4
    ),
    "skilled_per_layer_ibp": _with(ibp_strength=0.1),
    "skilled_sparse_mask_freeze": _with(parameterisation="sparse", sparsity=0.8, warmup_mask_steps=30),
    "skilled_mixed_tasks": _with(world={"task_kind": "mixed"}),
    "private": _with(model_kind="private"),
    "shared": _with(model_kind="shared"),
    "expert_planted": _with(model_kind="expert", expert_table="planted"),
    "hypernet": _with(model_kind="hypernet"),
    # The hypernet at input_dim 16, the default width; every other golden
    # runs at 8. It pins the hypernet's results at that width, and the
    # stacked-vs-lone adaptation check runs there too.
    "hypernet_input16": _with(model_kind="hypernet", world={"input_dim": 16}),
    "skilled_frozen_identity": _with(freeze_allocation="identity", world={"holdout_tasks": 0}),
    "skilled_lowrank": _with(parameterisation="lowrank"),
    "private_lowrank": _with(model_kind="private", parameterisation="lowrank"),
    # Every cell of a relaxed allocation row underflows: while training at
    # tau 0.02, and in one adaptation replica at tau 0.05. Such a row
    # composes to the layer's base alone.
    "skilled_underflow_train": _with(tau=0.02),
    "skilled_underflow_adapt": _with(tau=0.05),
}


def run_files(doc: dict, output_root: Path) -> tuple[bytes, dict[str, str]]:
    """The run's summary.json bytes and the sha256 of every other file but timing.json."""
    record = run_experiment(parse_config_dict(doc))
    assert record.failure is None, record.failure
    assert record.run_dir.parent == output_root
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(record.run_dir.iterdir())
        if path.name not in ("summary.json", "timing.json")
    }
    return (record.run_dir / "summary.json").read_bytes(), digests


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_summary_matches_golden_bytes(name, tmp_path, monkeypatch):
    # The output root goes through the environment, so that the run
    # directory lands under tmp_path without a config change.
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    summary, digests = run_files(CONFIGS[name], tmp_path)
    assert summary == (GOLDEN / f"{name}.json").read_bytes()
    assert digests == json.loads(DIGESTS.read_text())[name]


def _assert_same_run_but_config(first, second) -> None:
    """Two runs' `run_files` differ only in config.json and in summary.json's `config_hash`."""
    (summary, digests), (other_summary, other_digests) = first, second
    old, new = (json.loads(text)["config_hash"].encode() for text in (summary, other_summary))
    assert old != new and other_summary == summary.replace(old, new)
    digests, other_digests = dict(digests), dict(other_digests)
    assert digests.pop("config.json") != other_digests.pop("config.json")
    assert other_digests == digests


def test_expert_table_matrix_of_the_planted_rows_runs_as_planted(tmp_path, monkeypatch):
    """`expert_table` set to world.json's planted training rows gives the planted run: rows go in task order.

    Its summary.json differs only in `config_hash`, and every other file
    but config.json (and timing.json) is byte-identical.
    """
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    planted = CONFIGS["expert_planted"]
    planted_run = run_files(planted, tmp_path)
    (world_json,) = tmp_path.glob("*/world.json")
    rows = json.loads(world_json.read_text())["true_z"][: planted["world"]["num_tasks"]]
    _assert_same_run_but_config(planted_run, run_files(_with(model_kind="expert", expert_table=rows), tmp_path))


def test_hypernet_runs_alike_dense_and_sparse(tmp_path, monkeypatch):
    """The hypernet has no mask to freeze, so the sparse parameterisation leaves its Adam moments and its run alone."""
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    dense = run_files(_with(model_kind="hypernet", warmup_mask_steps=30), tmp_path)
    sparse = run_files(_with(model_kind="hypernet", parameterisation="sparse", warmup_mask_steps=30), tmp_path)
    _assert_same_run_but_config(dense, sparse)


def _replica(result, trained_model, r) -> dict:
    """Replica r's metrics and parameters; a parameter with the replica axis gives its slice r."""
    base = trained_model.named_parameters()
    params = {
        name: p.data[r] if name not in base or p.ndim > base[name].ndim else p.data
        for name, p in result.model.named_parameters().items()
    }
    return {"before": result.metrics_before[r], "after": result.metrics_after[r]}, params


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_stacked_adaptation_equals_one_adaptation_per_replica(name):
    """All held-out tasks x 2 resamples in one call against one call per replica, bit for bit.

    Each replica's metrics must also equal the golden summary's. That
    summary was recorded from a stacked adaptation too, so this half
    pins the recorded results rather than lone adaptations: it fails when
    stacked and lone calls drift together from what was recorded.
    """
    doc = json.loads(json.dumps(CONFIGS[name]))
    doc["world"]["holdout_tasks"] = max(doc["world"]["holdout_tasks"], 2)
    config = parse_config_dict(doc)
    w = config.world
    world, tasks = generate_synthetic_benchmark(
        config.seed, w.num_tasks, w.num_true_skills, w.input_dim, w.examples_per_task, w.noise_sigma,
        (w.skills_per_task_min, w.skills_per_task_max), holdout_tasks=w.holdout_tasks, task_kind=w.task_kind,
    )
    trained = multitask_train(config, [t for t in tasks if t.split == "train"], world=world)
    holdout = [t for t in tasks if t.split == "eval"]
    golden = json.loads((GOLDEN / f"{name}.json").read_text())["few_shot"]
    resamples = (0, 1)
    checked = 0
    for kind in ("regression", "classification"):
        ordinals = [o for o, t in enumerate(holdout) if t.kind == kind]
        if not ordinals:
            continue
        stacked = few_shot_adapt(trained, [holdout[o] for o in ordinals], ordinals, resamples)
        replicas = [(o, s) for o in ordinals for s in resamples]
        assert len(stacked.task_ids) == len(replicas)
        for r, (ordinal, resample) in enumerate(replicas):
            task = holdout[ordinal]
            alone = few_shot_adapt(trained, [task], [ordinal], (resample,))
            metrics, params = _replica(stacked, trained.model, r)
            metrics_alone, params_alone = _replica(alone, trained.model, 0)
            assert stacked.task_ids[r] == task.id
            assert metrics == metrics_alone
            if golden:
                assert metrics == golden[task.id]["resamples"][resample]
            assert sorted(params) == sorted(params_alone)
            for key in params:
                assert params[key].shape == params_alone[key].shape, key
                assert np.array_equal(params[key], params_alone[key]), key
            checked += 1
    assert checked == 2 * len(holdout)


def _record(out_root: Path) -> None:
    """Re-record every golden, printing per golden the summary floats, other summary values and files that changed."""
    import os

    os.environ[OUTPUT_ROOT_ENV] = str(out_root)
    GOLDEN.mkdir(exist_ok=True)
    old_digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    digests = {}
    for name, doc in CONFIGS.items():
        path = GOLDEN / f"{name}.json"
        old_summary = json.loads(path.read_text()) if path.exists() else {}
        summary, digests[name] = run_files(doc, out_root)
        path.write_bytes(summary)
        new_summary, old_files = json.loads(summary), old_digests.get(name, {})
        count, largest, other = summary_drift(old_summary, new_summary)
        files = sorted(f for f in old_files.keys() | digests[name].keys() if old_files.get(f) != digests[name].get(f))
        print(
            f"{name}: {count} summary floats changed, largest relative change {largest:.2g}; "
            f"other summary changes: {', '.join(other) or '-'}; files changed: {', '.join(files) or '-'}"
        )
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _record(Path(tmp))
