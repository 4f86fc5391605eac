"""Golden runs: summary.json bytes of small configs, pinned.

Each config below runs the whole pipeline (`run_experiment`) and its
summary.json must equal the stored file in tests/golden/ byte for byte. The
files were recorded before the model/skills/allocation refactor, so a change
that is meant to keep behaviour can prove it did. A change that is meant to
move results re-records them with

    PYTHONPATH=src python tests/test_golden.py --record

and says so in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from skillmix.config import parse_config_dict
from skillmix.experiment import OUTPUT_ROOT_ENV, run_experiment

GOLDEN = Path(__file__).resolve().parent / "golden"

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
    "skilled_sparse_mask_freeze": _with(parameterisation="sparse", sparsity=0.8, warmup_mask_steps=30),
    "skilled_mixed_tasks": _with(world={"task_kind": "mixed"}),
    "private": _with(model_kind="private"),
    "shared": _with(model_kind="shared"),
    "expert_planted": _with(model_kind="expert", expert_table="planted"),
    "hypernet": _with(model_kind="hypernet"),
    "skilled_frozen_identity": _with(freeze_allocation="identity", world={"holdout_tasks": 0}),
    "skilled_lowrank": _with(parameterisation="lowrank"),
    "private_lowrank": _with(model_kind="private", parameterisation="lowrank"),
}


def run_summary(doc: dict, output_root: Path) -> bytes:
    record = run_experiment(parse_config_dict(doc))
    assert record.failure is None, record.failure
    assert record.run_dir.parent == output_root
    return (record.run_dir / "summary.json").read_bytes()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_summary_matches_golden_bytes(name, tmp_path, monkeypatch):
    # The output root goes through the environment: output_dir enters the
    # config hash and so the summary.
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    expected = (GOLDEN / f"{name}.json").read_bytes()
    assert run_summary(CONFIGS[name], tmp_path) == expected


def _record(out_root: Path) -> None:
    import os

    os.environ[OUTPUT_ROOT_ENV] = str(out_root)
    GOLDEN.mkdir(exist_ok=True)
    for name, doc in CONFIGS.items():
        (GOLDEN / f"{name}.json").write_bytes(run_summary(doc, out_root))
        print(name)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _record(Path(tmp))
