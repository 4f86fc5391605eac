"""Correctness checks on a finished run, computed apart from the program.

Each check reads a run directory (and, for the eval losses, the trained
parameters) and raises `CheckFailed` with a reason. None of them compares
against stored output: they recompute a result independently (recovery,
hierarchy, eval losses) or test a property the method must have
(thresholds reached on a noiseless planted world, adaptation helping on
regression, byte-identical summaries for one config).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

EVAL_LOSS_RTOL = 1e-9


class CheckFailed(Exception):
    pass


def _load(path: Path):
    return json.loads(path.read_text())


def _hardened(path: Path) -> tuple[list[str], np.ndarray]:
    rows = list(csv.reader(path.read_text().splitlines()))
    return [r[0] for r in rows[1:]], np.array([[int(v) for v in r[1:]] for r in rows[1:]])


def _layers(run_dir: Path) -> list[int]:
    return sorted(int(p.stem.rsplit("_", 1)[1]) for p in run_dir.glob("allocation_layer_*.csv"))


def check_no_failure(run_dir: Path) -> None:
    summary = _load(run_dir / "summary.json")
    if "failure" in summary:
        raise CheckFailed(f"{run_dir.name}: failure marker {summary['failure']}")


def check_recovery(run_dir: Path) -> None:
    """Best-assignment cell accuracy from the hardened CSVs and world.json."""
    summary = _load(run_dir / "summary.json")
    if summary["model_kind"] != "skilled":
        return
    true_z = np.array(_load(run_dir / "world.json")["true_z"])
    reported = summary.get("recovery", {})
    for layer in _layers(run_dir):
        _, learned = _hardened(run_dir / f"allocation_layer_{layer}.csv")
        truth = true_z[: learned.shape[0]]
        if learned.shape[1] < truth.shape[1]:
            continue
        key = f"layer_{layer}"
        if key not in reported:
            raise CheckFailed(f"{run_dir.name}: no recovery score for {key}")
        agreement = (truth[:, :, None] == learned[:, None, :]).sum(axis=0)
        rows, cols = linear_sum_assignment(agreement, maximize=True)
        best = int(agreement[rows, cols].sum())
        expected = best / (learned.shape[0] * truth.shape[1])
        got = reported[key]["cell_accuracy"]
        if abs(got - expected) > 1e-12:
            raise CheckFailed(f"{run_dir.name}: {key} cell_accuracy {got} != recomputed {expected}")
        perm = reported[key]["best_permutation"]
        if len(perm) != truth.shape[1] or len(set(perm)) != len(perm):
            raise CheckFailed(f"{run_dir.name}: {key} permutation {perm} is not injective")
        if int(sum(agreement[j, perm[j]] for j in range(len(perm)))) != best:
            raise CheckFailed(f"{run_dir.name}: {key} permutation {perm} does not reach the optimum")


def check_hierarchy(run_dir: Path) -> None:
    """hierarchy.json equals the grouping of hardened layer-0 rows and partitions the tasks."""
    if not (run_dir / "allocation_layer_0.csv").exists():
        return
    names, bits = _hardened(run_dir / "allocation_layer_0.csv")
    groups: dict[str, list[str]] = {}
    for name, row in zip(names, bits):
        groups.setdefault("".join(str(v) for v in row), []).append(name)
    expected = {key: sorted(groups[key]) for key in sorted(groups)}
    stored = _load(run_dir / "hierarchy.json")
    members = [name for group in stored.values() for name in group]
    train_ids = sorted(_load(run_dir / "summary.json")["train_tasks"])
    if sorted(members) != train_ids:
        raise CheckFailed(f"{run_dir.name}: hierarchy groups do not partition the training tasks")
    if stored != expected:
        raise CheckFailed(f"{run_dir.name}: hierarchy.json differs from the hardened layer-0 rows")


def check_threshold(run_dir: Path) -> None:
    """On a noiseless planted world the dev loss reaches its threshold."""
    config = _load(run_dir / "config.json")
    if config["world"]["noise_sigma"] != 0.0:
        return
    reached = _load(run_dir / "summary.json")["steps_to_threshold"]
    if reached > config["steps"]:
        raise CheckFailed(f"{run_dir.name}: dev-loss threshold not reached in {config['steps']} steps")


def check_adaptation(run_dir: Path) -> None:
    """Adaptation of the skilled model lowers the median held-out loss of every regression task.

    Classification tasks are left out: the logistic loss can rise while
    accuracy holds, as margins grow. Baselines are left out too: the paper
    claims the property for the skilled model, and a baseline that adapts
    all of a shared network on k examples can end slightly worse.
    """
    summary = _load(run_dir / "summary.json")
    if summary["model_kind"] != "skilled":
        return
    few_shot = summary["few_shot"]
    for task_id, record in few_shot.items():
        resamples = record["resamples"]
        if "mse" not in resamples[0]["before"]:
            continue
        before = float(np.median([r["before"]["loss"] for r in resamples]))
        after = float(np.median([r["after"]["loss"] for r in resamples]))
        if not after < before:
            raise CheckFailed(f"{run_dir.name}: adaptation did not lower {task_id} loss ({before} -> {after})")


def check_group_table(output_root: Path, kinds) -> None:
    """run_compare's table lists every kind as ok, next to the plot CSVs."""
    with open(output_root / "compare_table.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [r["model_kind"] for r in rows] != list(kinds) or any(r["status"] != "ok" for r in rows):
        raise CheckFailed(f"compare table does not list {list(kinds)} all ok")
    for name in ("curves.csv", "sweep_metrics.csv"):
        if not (output_root / name).exists():
            raise CheckFailed(f"group output {name} is missing")


def check_repeat(first: bytes, again: bytes, name: str) -> None:
    if first != again:
        raise CheckFailed(f"{name}: summary.json differs between repeats of one seed")


# ---------------------------------------------------------------------------
# eval losses from the trained parameters, in plain numpy


def _allocation_row(run_dir: Path, layer: int, task: int, tau: float) -> np.ndarray:
    doc = _load(run_dir / f"allocation_layer_{layer}.json")
    if doc.get("logits") is not None:
        row = 1.0 / (1.0 + np.exp(-np.array(doc["logits"][task]) / tau))
    else:
        row = np.array(doc["matrix"][task], dtype=np.float64)
    return row / row.sum()


def _skill_layer(x, run_dir, model, layer, task, tau):
    named = model.named_parameters()
    phi = named[f"layer{layer}.phi.0"].data
    base = named[f"layer{layer}.base.0"].data
    mask = getattr(getattr(model.layers[layer], "skills", None), "mask", None)
    if mask is not None:
        phi = phi * mask
    theta = base + _allocation_row(run_dir, layer, task, tau) @ phi
    in_dim = x.shape[1]
    out_dim = theta.size // (in_dim + 1)
    weight = theta[: out_dim * in_dim].reshape(out_dim, in_dim)
    return x @ weight.T + theta[out_dim * in_dim :]


def _hypernet_layer(x, model, layer, task):
    named = model.named_parameters()
    w1_a, w2_a, w1_b, w2_b = (named[f"layer{layer}.gen.{j}"].data for j in range(4))
    w0, b0 = named[f"layer{layer}.base.0"].data, named[f"layer{layer}.base.1"].data
    e = named["embeddings"].data[task]
    out_dim, in_dim = w0.shape
    rank = w2_a.shape[0] // out_dim
    a = (w2_a @ np.maximum(w1_a @ e, 0.0)).reshape(out_dim, rank)
    b = (w2_b @ np.maximum(w1_b @ e, 0.0)).reshape(rank, in_dim)
    return x @ w0.T + (x @ b.T) @ a.T + b0


def numpy_eval_loss(run_dir: Path, trained, task_index: int, task) -> float:
    config = trained.config
    h = task.x_eval
    for layer in range(len(trained.model.layers)):
        if trained.kind == "hypernet":
            h = _hypernet_layer(h, trained.model, layer, task_index)
        else:
            h = _skill_layer(h, run_dir, trained.model, layer, task_index, config.tau)
    if task.kind == "regression":
        return float(np.mean((h - task.y_eval) ** 2))
    return float(np.mean(np.logaddexp(0.0, -task.y_eval * h)))


def check_eval_losses(run_dir: Path, trained) -> None:
    """Each training task's eval loss, recomputed from the trained parameters."""
    if trained.config.parameterisation == "lowrank" and trained.kind != "hypernet":
        raise CheckFailed("the numpy reference has no low-rank layer")
    reported = _load(run_dir / "summary.json")["train_tasks"]
    for index, task in enumerate(trained.tasks):
        expected = numpy_eval_loss(run_dir, trained, index, task)
        got = reported[task.id]["loss"]
        if abs(got - expected) > EVAL_LOSS_RTOL * max(abs(got), abs(expected)):
            raise CheckFailed(f"{run_dir.name}: {task.id} eval loss {got} != numpy {expected}")


def check_run(run_dir: Path, trained) -> None:
    """Every single-run check; raises on the first failure."""
    check_no_failure(run_dir)
    check_recovery(run_dir)
    check_hierarchy(run_dir)
    check_threshold(run_dir)
    check_adaptation(run_dir)
    check_eval_losses(run_dir, trained)
