"""Experiment orchestration: run, persist, run grids, export.

A run directory, `<model_kind>-<config_hash>` under the output root
(`SKILLMIX_OUTPUT_ROOT`, `runs` by default), contains config.json,
world.json (the planted allocation and task ids), history.csv,
allocation_layer_*.json (+ hardened CSVs), hierarchy.json and
hierarchy.txt, summary.json and timing.json. summary.json is
byte-reproducible from the config alone; wall-clock timing lives in the
separate timing.json (the run's seconds and each pipeline stage's),
written only after a run that did not fail, so the reproducibility
contract stays exact. A run that scores skill recovery times its first
`scipy.optimize` import as a stage of its own.

A grid (`run_grid`) runs the product of config fields' values and writes,
under the output root, the plot data of the runs that passed and one status
table, compare_table.csv: a column per varied field, run_dir, then status.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import time
from dataclasses import dataclass
from functools import reduce
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
from .config import ExperimentConfig, config_hash, parse_config_dict
from .errors import ConfigError, ShapeError
from .recovery import skill_recovery_score
from .synthetic import generate_synthetic_benchmark
from .trainer import TrainedModel, evaluate, few_shot_adapt, multitask_train, steps_to_threshold

OUTPUT_ROOT_ENV = "SKILLMIX_OUTPUT_ROOT"

HISTORY_FIELDS = ("step", "task_id", "loss", "reg_loss", "tau")
CURVE_METRICS = ("loss", "reg_loss", "tau")


class RunFailure(RuntimeError):
    """A pipeline stage failed; the partial record carries the marker."""


@dataclass
class RunRecord:
    config: ExperimentConfig
    run_dir: Path
    summary: dict
    failure: dict | None = None
    wall_clock: float = 0.0


def resolve_output_root() -> Path:
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))


def run_dir_for(config: ExperimentConfig) -> Path:
    return resolve_output_root() / f"{config.model_kind}-{config_hash(config)}"


def _dump_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _history_csv(trained: TrainedModel) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HISTORY_FIELDS)
    h = trained.history
    # .tolist() gives Python floats, whose repr is the shortest round-trip form.
    columns = (h.task.tolist(), h.loss.tolist(), h.reg_loss.tolist(), h.tau.tolist())
    for step, (task, loss, reg_loss, tau) in enumerate(zip(*columns)):
        writer.writerow([step, trained.tasks[task].id, repr(loss), repr(reg_loss), repr(tau)])
    return buf.getvalue()


class _StageClock:
    """The pipeline stage a run is in, and the seconds each finished stage took."""

    def __init__(self):
        self.name: str | None = None
        self.seconds: dict[str, float] = {}
        self._started = 0.0

    def enter(self, name: str | None) -> None:
        """Finish the current stage, if any, and start `name` (None: none)."""
        now = time.monotonic()
        if self.name is not None:
            self.seconds[self.name] = now - self._started
        self.name, self._started = name, now


def run_experiment(config: ExperimentConfig, overwrite: bool = True) -> RunRecord:
    """Full pipeline: world -> train -> evaluate -> adapt -> score -> persist.

    On a stage failure the partial summary carries a failure marker and the
    returned record's `failure` field is set; a failed stage raises nothing,
    so a grid can continue past broken points. It does raise `RunFailure`,
    before any stage runs, when the run directory exists and `overwrite` is
    false.
    """
    run_dir = run_dir_for(config)
    if run_dir.exists() and not overwrite:
        raise RunFailure(f"{run_dir} exists; pass overwrite to replace it")
    run_dir.mkdir(parents=True, exist_ok=True)
    _dump_json(run_dir / "config.json", config.to_dict())

    started = time.monotonic()
    summary: dict = {"config_hash": config_hash(config), "model_kind": config.model_kind}
    stage = _StageClock()
    stage.enter("generate_world")
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

        stage.enter("multitask_train")
        trained = multitask_train(config, train_tasks, world=world)
        (run_dir / "history.csv").write_text(_history_csv(trained))
        summary["param_count"] = trained.model.param_count()
        summary["steps_to_threshold"] = steps_to_threshold(trained)
        summary["dev_evals"] = [[e.step, e.dev_loss] for e in trained.evals]

        stage.enter("evaluate_train_tasks")
        metrics = evaluate(trained.model, np.arange(len(train_tasks)), train_tasks)
        summary["train_tasks"] = {t.id: m for t, m in zip(train_tasks, metrics)}

        model, names = trained.model, [t.id for t in train_tasks]
        truth = world.true_z[: len(train_tasks)]
        scored = config.model_kind == "skilled" and model.task_rows.num_skills >= truth.shape[1]
        if scored:
            # Recovery scoring's first use of scipy.optimize: its import, about 0.2 s, is timed apart.
            stage.enter("import_scipy_optimize")
            import scipy.optimize  # noqa: F401

        stage.enter("allocation_analysis")
        matrices = model.allocation_eval_matrices()  # one row per training task
        hardened = [harden(matrix) for matrix in matrices]
        summary["allocation_metrics"] = {}
        if config.model_kind == "skilled":
            summary["recovery"] = {}
        for layer, (matrix, binary) in enumerate(zip(matrices, hardened)):
            logits = model.task_rows.logits(layer)
            doc = {"tasks": names, "skills": int(matrix.shape[1]), "layer": layer, "logits": None}
            if logits is not None:
                doc["logits"] = logits.tolist()
            else:
                doc["matrix"] = matrix.tolist()
            _dump_json(run_dir / f"allocation_layer_{layer}.json", doc)
            (run_dir / f"allocation_layer_{layer}.csv").write_text(hardened_to_csv(binary, names))
            summary["allocation_metrics"][f"layer_{layer}"] = {
                "discreteness": metric_discreteness(matrix),
                "sparsity": metric_sparsity(matrix),
                "usage": metric_usage(matrix),
            }
            if scored:
                score = skill_recovery_score(binary, truth)
                summary["recovery"][f"layer_{layer}"] = {
                    "cell_accuracy": score.cell_accuracy,
                    "best_permutation": list(score.best_permutation),
                }

        stage.enter("hierarchy_export")
        if hardened:
            groups = export_hierarchy(hardened[0], names)
            _dump_json(run_dir / "hierarchy.json", groups)
            (run_dir / "hierarchy.txt").write_text(render_hierarchy_text(groups))

        stage.enter("few_shot_adaptation")
        few_shot: dict = {}
        if holdout:
            result = few_shot_adapt(trained, holdout, resamples=range(config.adaptation_resamples))
            for task_id, before, after in zip(result.task_ids, result.metrics_before, result.metrics_after):
                few_shot.setdefault(task_id, {"resamples": []})["resamples"].append(
                    {"before": before, "after": after}
                )
        for record in few_shot.values():
            record["median_after_loss"] = float(np.median([r["after"]["loss"] for r in record["resamples"]]))
        summary["few_shot"] = few_shot
    except Exception as exc:  # partial record with failure marker
        summary["failure"] = {"stage": stage.name, "error": f"{type(exc).__name__}: {exc}"}
        _dump_json(run_dir / "summary.json", summary)
        return RunRecord(config, run_dir, summary, failure=summary["failure"])

    stage.enter(None)
    _dump_json(run_dir / "summary.json", summary)
    wall = time.monotonic() - started
    _dump_json(run_dir / "timing.json", {"wall_clock_seconds": wall, "stage_seconds": stage.seconds})
    return RunRecord(config, run_dir, summary, wall_clock=wall)


# ---------------------------------------------------------------------------
# hierarchy export


def export_hierarchy(z: np.ndarray, task_names: list[str]) -> dict[str, list[str]]:
    """Group tasks by identical allocation rows, keyed by the row bitstring; `task_names` names each row."""
    binary = as_binary(z)
    if binary.ndim != 2 or binary.shape[0] != len(task_names):
        raise ShapeError(f"{len(task_names)} task names for an allocation matrix of shape {binary.shape}")
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
    """Long-format CSVs: per-step training curves, and per-run metrics whose `run` is the run directory's name."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    curves_path = out_dir / "curves.csv"
    sweep_path = out_dir / "sweep_metrics.csv"
    with open(curves_path, "w", newline="") as curves_fh, open(sweep_path, "w", newline="") as sweep_fh:
        curves = csv.writer(curves_fh, lineterminator="\n")
        curves.writerow(["model_kind", "seed", "step", "metric", "value"])
        writer = csv.writer(sweep_fh, lineterminator="\n")
        writer.writerow(["model_kind", "seed", "num_skills", "run", "metric", "value"])
        for run in map(Path, run_dirs):
            cfg = json.loads((run / "config.json").read_text())
            for row in csv.DictReader(io.StringIO((run / "history.csv").read_text())):
                for metric in CURVE_METRICS:
                    curves.writerow([cfg["model_kind"], cfg["seed"], row["step"], metric, row[metric]])
            summary = json.loads((run / "summary.json").read_text())
            base = [cfg["model_kind"], cfg["seed"], cfg["num_skills"], run.name]
            for layer, metrics in summary.get("allocation_metrics", {}).items():
                for name, value in metrics.items():
                    writer.writerow(base + [f"{name}_{layer}", repr(value)])
            for layer, rec in summary.get("recovery", {}).items():
                writer.writerow(base + [f"recovery_{layer}", repr(rec["cell_accuracy"])])
            writer.writerow(base + ["steps_to_threshold", summary.get("steps_to_threshold")])
            if summary.get("few_shot"):
                med = float(np.median([t["median_after_loss"] for t in summary["few_shot"].values()]))
                writer.writerow(base + ["few_shot_median_loss", repr(med)])
    return curves_path, sweep_path


# ---------------------------------------------------------------------------
# grids of runs


def run_grid(config: ExperimentConfig, axes: dict[str, list], overwrite: bool = True) -> list[RunRecord]:
    """One run per point of the product of `axes`, a map from a config field (`seed`, `world.*`, ...) to its values.

    The first axis is outermost. A point is `config` with its fields set, parsed as a config document is;
    before the first run every point's values are checked, no two points may be one config and, without
    `overwrite`, no point's run directory may exist.
    """
    if not axes or not all(axes.values()):
        raise ConfigError("grid", "must vary at least one field, each over at least one value")
    points = []
    for values in itertools.product(*axes.values()):
        doc = config.to_dict()
        for field, value in zip(axes, values):
            target, key = (doc["world"], field[len("world.") :]) if field.startswith("world.") else (doc, field)
            target[key] = value
        points.append(parse_config_dict(doc))
    if len(set(map(config_hash, points))) < len(points):
        raise ConfigError("grid", "two points are one config")
    taken = [] if overwrite else [run_dir for run_dir in map(run_dir_for, points) if run_dir.exists()]
    if taken:
        raise RunFailure(f"{taken[0]} exists; pass overwrite to replace it")
    records = [run_experiment(point, overwrite=overwrite) for point in points]
    # Written even when no run passed, so no plot data of an earlier grid is left next to this grid's table.
    emit_plot_data([r.run_dir for r in records if r.failure is None], resolve_output_root())
    with open(resolve_output_root() / "compare_table.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*axes, "run_dir", "status"])
        for r in records:
            status = "ok" if r.failure is None else f"failed:{r.failure['stage']}"
            writer.writerow([*(reduce(getattr, field.split("."), r.config) for field in axes), str(r.run_dir), status])
    return records


def run_compare(config: ExperimentConfig, kinds: list[str], overwrite: bool = True) -> list[RunRecord]:
    """`run_grid` over `model_kind`: one run per kind on one world."""
    return run_grid(config, {"model_kind": kinds}, overwrite)
