"""Experiment orchestration: run, persist, sweep, compare, export.

A run directory is content-addressed by the config hash and contains
config.json, world.json (the planted allocation and task ids),
history.csv, allocation_layer_*.json (+ hardened CSVs), hierarchy.json
and hierarchy.txt, summary.json and timing.json. summary.json is
byte-reproducible from the config alone; wall-clock timing lives in the
separate timing.json, written only after a run that did not fail, so the
reproducibility contract stays exact.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .allocation import (
    as_binary,
    harden,
    hardened_to_csv,
    metric_discreteness,
    metric_sparsity,
    metric_usage,
)
from .config import ExperimentConfig, config_hash
from .recovery import skill_recovery_score
from .synthetic import generate_synthetic_benchmark
from .trainer import TrainedModel, evaluate, few_shot_adapt, multitask_train, steps_to_threshold

OUTPUT_ROOT_ENV = "SKILLMIX_OUTPUT_ROOT"

HISTORY_FIELDS = ("step", "task_id", "loss", "reg_loss", "lr_z", "lr_phi")
CURVE_METRICS = ("loss", "reg_loss")


class RunFailure(RuntimeError):
    """A pipeline stage failed; the partial record carries the marker."""


@dataclass
class RunRecord:
    config: ExperimentConfig
    run_dir: Path
    summary: dict
    failure: dict | None = None
    wall_clock: float = 0.0


def resolve_output_root(config: ExperimentConfig) -> Path:
    if config.output_dir:
        return Path(config.output_dir)
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))


def run_dir_for(config: ExperimentConfig) -> Path:
    name = f"{config.model_kind}-S{config.num_skills}-{config_hash(config)}"
    return resolve_output_root(config) / name


def _dump_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _history_csv(trained: TrainedModel) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HISTORY_FIELDS)
    for r in trained.history:
        writer.writerow([r.step, r.task_id, repr(r.loss), repr(r.reg_loss), repr(r.lr_z), repr(r.lr_phi)])
    return buf.getvalue()


def _allocation_documents(trained: TrainedModel, task_names: list[str]):
    """Per-layer allocation JSON docs and hardened CSVs for the run directory."""
    model = trained.model
    docs = []
    matrices = model.allocation_eval_matrices()
    for layer, matrix in enumerate(matrices):
        names = task_names[: matrix.shape[0]]
        doc = {
            "tasks": names,
            "skills": int(matrix.shape[1]),
            "layer": layer,
            "logits": None,
        }
        logits = model.alloc.logits(layer)
        if logits is not None:
            doc["logits"] = logits.tolist()
        else:
            doc["matrix"] = matrix.tolist()
        csv_text = hardened_to_csv(harden(matrix), names)
        docs.append((doc, csv_text, matrix))
    return docs


def _allocation_metrics(matrix: np.ndarray) -> dict:
    return {
        "discreteness": metric_discreteness(matrix),
        "sparsity": metric_sparsity(matrix),
        "usage": metric_usage(matrix),
    }


def run_experiment(config: ExperimentConfig, overwrite: bool = True) -> RunRecord:
    """Full pipeline: world -> train -> evaluate -> adapt -> score -> persist.

    On a stage failure the partial summary carries a failure marker and the
    returned record's `failure` field is set; nothing is raised here so
    sweeps can continue past broken points.
    """
    run_dir = run_dir_for(config)
    if run_dir.exists() and not overwrite:
        raise RunFailure(f"{run_dir} exists; pass overwrite to replace it")
    run_dir.mkdir(parents=True, exist_ok=True)
    _dump_json(run_dir / "config.json", config.to_dict())

    started = time.monotonic()
    summary: dict = {"config_hash": config_hash(config), "model_kind": config.model_kind}
    stage = "generate_world"
    try:
        w = config.world
        world, tasks = generate_synthetic_benchmark(
            config.seed,
            w.num_tasks,
            w.num_true_skills,
            w.input_dim,
            w.examples_per_task,
            w.noise_sigma,
            (w.skills_per_task_min, w.skills_per_task_max),
            holdout_tasks=w.holdout_tasks,
            task_kind=w.task_kind,
        )
        train_tasks = [t for t in tasks if t.split == "train"]
        holdout = [t for t in tasks if t.split == "eval"]
        _dump_json(
            run_dir / "world.json",
            {
                "true_z": world.true_z.tolist(),
                "task_ids": [t.id for t in tasks],
                "planted_skills": {t.id: list(t.planted_skills) for t in tasks},
                "noise_sigma": world.noise_sigma,
            },
        )

        stage = "multitask_train"
        trained = multitask_train(config, train_tasks, world=world)
        (run_dir / "history.csv").write_text(_history_csv(trained))
        summary["param_count"] = trained.model.param_count()
        summary["steps_to_threshold"] = steps_to_threshold(trained)
        summary["dev_evals"] = [[e.step, e.dev_loss] for e in trained.evals]

        stage = "evaluate_train_tasks"
        summary["train_tasks"] = {
            t.id: evaluate(trained.model, i, t) for i, t in enumerate(train_tasks)
        }

        stage = "allocation_analysis"
        alloc_docs = _allocation_documents(trained, [t.id for t in train_tasks])
        summary["allocation_metrics"] = {}
        for layer, (doc, csv_text, matrix) in enumerate(alloc_docs):
            _dump_json(run_dir / f"allocation_layer_{layer}.json", doc)
            (run_dir / f"allocation_layer_{layer}.csv").write_text(csv_text)
            summary["allocation_metrics"][f"layer_{layer}"] = _allocation_metrics(matrix)
        if alloc_docs and trained.kind == "skilled":
            truth = world.true_z[: len(train_tasks)]
            recovery = {}
            for layer, (_, _, matrix) in enumerate(alloc_docs):
                if matrix.shape[1] >= truth.shape[1]:
                    score = skill_recovery_score(harden(matrix), truth)
                    recovery[f"layer_{layer}"] = {
                        "cell_accuracy": score.cell_accuracy,
                        "best_permutation": list(score.best_permutation),
                    }
            summary["recovery"] = recovery

        stage = "hierarchy_export"
        if alloc_docs:
            groups = export_hierarchy(harden(alloc_docs[0][2]), [t.id for t in train_tasks])
            _dump_json(run_dir / "hierarchy.json", groups)
            (run_dir / "hierarchy.txt").write_text(render_hierarchy_text(groups))

        stage = "few_shot_adaptation"
        few_shot: dict = {}
        for ordinal, task in enumerate(holdout):
            resamples = []
            for resample in range(config.adaptation_resamples):
                result = few_shot_adapt(trained, task, resample=resample, task_ordinal=ordinal)
                resamples.append(
                    {"before": result.metrics_before, "after": result.metrics_after}
                )
            few_shot[task.id] = {
                "resamples": resamples,
                "median_after_loss": float(
                    np.median([r["after"]["loss"] for r in resamples])
                ),
            }
        summary["few_shot"] = few_shot
    except Exception as exc:  # partial record with failure marker
        summary["failure"] = {"stage": stage, "error": f"{type(exc).__name__}: {exc}"}
        _dump_json(run_dir / "summary.json", summary)
        return RunRecord(config, run_dir, summary, failure=summary["failure"])

    _dump_json(run_dir / "summary.json", summary)
    wall = time.monotonic() - started
    _dump_json(run_dir / "timing.json", {"wall_clock_seconds": wall})
    return RunRecord(config, run_dir, summary, wall_clock=wall)


# ---------------------------------------------------------------------------
# hierarchy export


def export_hierarchy(z: np.ndarray, task_names: list[str]) -> dict[str, list[str]]:
    """Group tasks by identical allocation rows, keyed by the row bitstring."""
    binary = as_binary(z)
    groups: dict[str, list[str]] = {}
    for name, row in zip(task_names, binary):
        key = "".join(str(int(v)) for v in row)
        groups.setdefault(key, []).append(name)
    return {key: sorted(groups[key]) for key in sorted(groups)}


def _supersets(key: str, others) -> list[str]:
    a = [c == "1" for c in key]
    result = []
    for other in others:
        if other == key:
            continue
        b = [c == "1" for c in other]
        if all(x or not y for x, y in zip(b, a)) and any(x and not y for x, y in zip(b, a)):
            result.append(other)
    return result


def render_hierarchy_text(groups: dict[str, list[str]]) -> str:
    """Containment order: a subset line names the groups strictly above it."""
    keys = sorted(groups, key=lambda k: (-k.count("1"), k))
    lines = []
    for key in keys:
        lines.append(f"{key}: {', '.join(groups[key])}")
        above = sorted(_supersets(key, keys), key=lambda k: k.count("1"))
        if above:
            lines.append(f"  contained in: {', '.join(above)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# tidy outputs for external plotting


def emit_plot_data(run_dirs: list[str | Path], out_dir: str | Path) -> tuple[Path, Path]:
    """Long-format CSVs: per-step training curves and per-run sweep metrics."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    curves_path = out_dir / "curves.csv"
    sweep_path = out_dir / "sweep_metrics.csv"

    with open(curves_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model_kind", "seed", "step", "metric", "value"])
        for run in run_dirs:
            run = Path(run)
            cfg = json.loads((run / "config.json").read_text())
            rows = list(csv.DictReader(io.StringIO((run / "history.csv").read_text())))
            for row in rows:
                for metric in CURVE_METRICS:
                    writer.writerow(
                        [cfg["model_kind"], cfg["seed"], row["step"], metric, row[metric]]
                    )

    with open(sweep_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model_kind", "seed", "num_skills", "metric", "value"])
        for run in run_dirs:
            run = Path(run)
            cfg = json.loads((run / "config.json").read_text())
            summary = json.loads((run / "summary.json").read_text())
            base = [cfg["model_kind"], cfg["seed"], cfg["num_skills"]]
            for layer, metrics in summary.get("allocation_metrics", {}).items():
                for name, value in metrics.items():
                    writer.writerow(base + [f"{name}_{layer}", repr(value)])
            for layer, rec in summary.get("recovery", {}).items():
                writer.writerow(base + [f"recovery_{layer}", repr(rec["cell_accuracy"])])
            writer.writerow(base + ["steps_to_threshold", summary.get("steps_to_threshold")])
            if summary.get("few_shot"):
                med = float(
                    np.median(
                        [t["median_after_loss"] for t in summary["few_shot"].values()]
                    )
                )
                writer.writerow(base + ["few_shot_median_loss", repr(med)])
    return curves_path, sweep_path


# ---------------------------------------------------------------------------
# sweeps and comparisons


def run_sweep(config: ExperimentConfig, grid: list[int] | None = None, overwrite: bool = True) -> list[RunRecord]:
    """One run per inventory size; every point's config is built, hence checked, before the first run."""
    grid = config.sweep_grid if grid is None else grid
    points = [config.replace(num_skills=num_skills) for num_skills in grid]
    records = [run_experiment(point, overwrite=overwrite) for point in points]
    _write_group_table(config, records, "sweep_metrics.csv")
    return records


def run_compare(config: ExperimentConfig, kinds: list[str], overwrite: bool = True) -> list[RunRecord]:
    """One run per model kind on one world; every kind's config is checked before the first run."""
    points = [config.replace(model_kind=kind) for kind in kinds]
    records = [run_experiment(point, overwrite=overwrite) for point in points]
    _write_group_table(config, records, "compare_table.csv")
    return records


def _write_group_table(config: ExperimentConfig, records: list[RunRecord], filename: str) -> None:
    ok_dirs = [r.run_dir for r in records if r.failure is None]
    if ok_dirs:
        emit_plot_data(ok_dirs, resolve_output_root(config))
    path = resolve_output_root(config) / filename
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model_kind", "num_skills", "run_dir", "status"])
        for r in records:
            status = "ok" if r.failure is None else f"failed:{r.failure['stage']}"
            writer.writerow([r.config.model_kind, r.config.num_skills, str(r.run_dir), status])
