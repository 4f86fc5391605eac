"""Synthetic multitask benchmark with planted ground-truth skills.

Every task's target function is a linear map built from a hidden base vector
plus the mean of that task's active ground-truth skills, so a noiseless
world is exactly realisable by a linear predictor and the planted allocation
can be scored against whatever a model learns. Held-out tasks are generated
as unions of training-task skill subsets, which makes them solvable by
recombining already-learned skills.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, GenerationError

# Independent rng streams derived from the one experiment seed.
STREAM_WORLD = 0
STREAM_TRAIN = 1
STREAM_ADAPT = 2

_RESAMPLE_LIMIT = 1000


def task_id(split: str, row: int) -> str:
    """The id of the task on `row` of the planted allocation, e.g. `train_task_03`."""
    return f"{split}_task_{row:02d}"


@dataclass
class TaskSpec:
    """One synthetic task with disjoint example splits."""

    id: str
    kind: str  # regression | classification
    split: str  # train | eval  (task-level partition)
    x_train: np.ndarray
    y_train: np.ndarray
    x_dev: np.ndarray
    y_dev: np.ndarray
    x_eval: np.ndarray
    y_eval: np.ndarray
    planted_skills: tuple[int, ...] | None = None

    @property
    def input_dim(self) -> int:
        return self.x_train.shape[1]


@dataclass
class SyntheticWorld:
    """Ground truth behind a generated benchmark."""

    true_z: np.ndarray  # [num_tasks_total, num_true_skills] binary
    true_skills: np.ndarray  # [num_true_skills, input_dim], unit rows
    true_base: np.ndarray  # [input_dim]
    noise_sigma: float
    seed: int

    def oracle_weights(self, task_row: int) -> np.ndarray:
        active = np.flatnonzero(self.true_z[task_row])
        return self.true_base + self.true_skills[active].mean(axis=0)


def _sample_rows(rng, num_tasks, num_skills, size_range) -> np.ndarray:
    lo, hi = size_range
    sizes = rng.integers(lo, hi + 1, size=num_tasks)
    z = np.zeros((num_tasks, num_skills), dtype=np.int64)
    for i, size in enumerate(sizes):
        z[i, rng.choice(num_skills, size=size, replace=False)] = 1
    return z


def _columns_distinct(z: np.ndarray) -> bool:
    return len({tuple(col) for col in z.T}) == z.shape[1]


def generate_synthetic_benchmark(
    seed: int,
    num_tasks: int,
    num_true_skills: int,
    input_dim: int,
    examples_per_task: int,
    noise_sigma: float,
    skills_per_task_range: tuple[int, int] = (1, 3),
    holdout_tasks: int = 0,
    task_kind: str = "regression",
    eval_examples: int | None = None,
) -> tuple[SyntheticWorld, list[TaskSpec]]:
    """Plant a skill inventory and emit train tasks plus recombinable held-out tasks.

    The training block of the allocation is resampled until its columns are
    pairwise distinct (identifiability aid) and no row is empty; held-out
    rows are unions of two training rows. All randomness flows from `seed`.
    """
    if num_true_skills > num_tasks:
        raise ContractError("num_true_skills must not exceed num_tasks")
    lo, hi = skills_per_task_range
    if not 1 <= lo <= hi <= num_true_skills:
        raise ContractError(
            f"skills_per_task_range {skills_per_task_range} outside [1, {num_true_skills}]"
        )
    if task_kind not in ("regression", "classification", "mixed"):
        raise ContractError(f"unknown task kind '{task_kind}'")

    rng = np.random.default_rng([seed, STREAM_WORLD])

    skills = rng.standard_normal((num_true_skills, input_dim))
    skills /= np.linalg.norm(skills, axis=1, keepdims=True)
    base = rng.standard_normal(input_dim)
    base /= np.linalg.norm(base)

    for attempt in range(_RESAMPLE_LIMIT):
        z_train = _sample_rows(rng, num_tasks, num_true_skills, (lo, hi))
        if np.all(z_train.sum(axis=1) >= 1) and _columns_distinct(z_train):
            break
    else:
        raise GenerationError(
            f"could not sample a distinct-column allocation in {_RESAMPLE_LIMIT} attempts"
        )

    rows = [z_train]
    for _ in range(holdout_tasks):
        first, second = rng.choice(num_tasks, size=2, replace=False)
        union = np.minimum(z_train[first] + z_train[second], 1)
        rows.append(union[None, :])
    true_z = np.concatenate(rows, axis=0)

    world = SyntheticWorld(true_z, skills, base, float(noise_sigma), int(seed))

    n_dev = max(16, examples_per_task // 4)
    n_eval = eval_examples if eval_examples is not None else max(64, examples_per_task)
    total = examples_per_task + n_dev + n_eval

    tasks: list[TaskSpec] = []
    for row in range(true_z.shape[0]):
        split = "train" if row < num_tasks else "eval"
        if task_kind == "mixed":
            kind = "regression" if row % 2 == 0 else "classification"
        else:
            kind = task_kind
        x = rng.standard_normal((total, input_dim))
        y = x @ world.oracle_weights(row)
        if noise_sigma > 0:
            y = y + rng.normal(0.0, noise_sigma, size=total)
        if kind == "classification":
            y = np.where(y >= 0.0, 1.0, -1.0)
        y = y[:, None]
        a, b = examples_per_task, examples_per_task + n_dev
        tasks.append(
            TaskSpec(
                id=task_id(split, row),
                kind=kind,
                split=split,
                x_train=x[:a],
                y_train=y[:a],
                x_dev=x[a:b],
                y_dev=y[a:b],
                x_eval=x[b:],
                y_eval=y[b:],
                planted_skills=tuple(int(j) for j in np.flatnonzero(true_z[row])),
            )
        )
    return world, tasks

