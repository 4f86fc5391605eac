"""The benchmark's workloads: one experiment config each, run through the public pipeline.

A workload operation is one call of the pipeline a user would make from a
config file: `parse_config`, then `run_experiment` (or `run_compare` for
`kinds_compare`). The seed given to the benchmark becomes the config seed,
so it alone decides the planted world, the training batches and the
Gumbel draws.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

COMPARE_KINDS = ("skilled", "private", "shared", "expert", "hypernet")

# Overrides on top of `ExperimentConfig()`; the seed is added per run.
WORKLOADS: dict[str, dict] = {
    # The run ROADMAP quotes: every field at its default. About 80% of its
    # time is few-shot adaptation (4 held-out tasks x 5 resamples x 1000 steps).
    "default_run": {},
    # Training-bound: IBP prior on, tau annealed, a larger world and
    # inventory; adaptation is kept just above zero. 6 true skills under 8
    # learned ones keeps exhaustive recovery at 20,160 permutations.
    "ibp_train": {
        "world": {"num_tasks": 24, "num_true_skills": 6, "holdout_tasks": 2},
        "num_skills": 8,
        "ibp_strength": 0.1,
        "tau": 1.0,
        "tau_final": 0.5,
        "adaptation_steps": 40,
        "adapt_z_only_steps": 20,
        "adaptation_resamples": 1,
    },
    # Every model kind on one mixed regression/classification world with the
    # sparse parameterisation and 32 skills (exhaustive recovery over
    # 863,040 permutations per layer).
    "kinds_compare": {
        "world": {"task_kind": "mixed", "holdout_tasks": 2},
        "num_skills": 32,
        "parameterisation": "sparse",
        "expert_table": "planted",
        "steps": 1000,
        "adaptation_steps": 100,
        "adapt_z_only_steps": 50,
        "adaptation_resamples": 2,
    },
}

# Shrinks any workload to a second or two; used by the benchmark's own tests.
TINY = {
    "steps": 200,
    "eval_every": 50,
    "warmup_mask_steps": 50,
    "adaptation_steps": 20,
    "adapt_z_only_steps": 10,
    "adaptation_resamples": 1,
}
TINY_WORLD = {"num_tasks": 8, "examples_per_task": 64, "holdout_tasks": 2}


def config_doc(name: str, seed: int, tiny: bool = False) -> dict:
    """The JSON config document of a workload for one seed."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload '{name}'; expected one of {sorted(WORKLOADS)}")
    doc = json.loads(json.dumps(WORKLOADS[name]))
    doc["seed"] = int(seed)
    if tiny:
        doc.update(TINY)
        world = doc.setdefault("world", {})
        world.update(TINY_WORLD)
        world["num_true_skills"] = min(world.get("num_true_skills", 4), 4)
        doc["num_skills"] = min(doc.get("num_skills", 4), 6)
    return doc


@dataclass
class OpResult:
    """Records of one operation, in the order the pipeline ran them."""

    records: list
    wall_s: float


def run_op(name: str, config_path: Path, output_root: Path) -> OpResult:
    """Run one workload operation with its run directories under `output_root`.

    The root goes through SKILLMIX_OUTPUT_ROOT, never `output_dir`, because
    `output_dir` enters the config hash and so the summary.
    """
    from skillmix import config as sk_config
    from skillmix import experiment

    os.environ[experiment.OUTPUT_ROOT_ENV] = str(output_root)
    started = time.perf_counter()
    config = sk_config.parse_config(config_path)
    if name == "kinds_compare":
        records = experiment.run_compare(config, list(COMPARE_KINDS))
    else:
        records = [experiment.run_experiment(config)]
    return OpResult(records, time.perf_counter() - started)
