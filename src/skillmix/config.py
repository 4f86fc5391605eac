"""Experiment configuration: strict parsing, typed defaults, hashing.

Unknown keys are rejected rather than ignored; a silently dropped typo is
the most expensive way to lose an experiment. Value checks run where a
config is built (`__post_init__`), so every point of a sweep or comparison
is checked before its first run. All defaults are the standard training
settings used throughout the test suite.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .synthetic import task_id

SWEEP_GRID_DEFAULT = (2, 4, 8, 16, 32)
MODEL_KINDS = ("skilled", "private", "shared", "expert", "hypernet")
PARAMETERISATIONS = ("dense", "sparse", "lowrank")
ALLOCATION_MODES = ("per_layer", "global")
ADAPT_MODES = ("z_then_full", "z_only", "full")
TASK_KINDS = ("regression", "classification", "mixed")
MAX_FEW_SHOT = 32  # upper bound on k_shot: the k-shot pool is drawn from the training split


@dataclass(frozen=True)
class WorldConfig:
    num_tasks: int = 16
    num_true_skills: int = 4
    input_dim: int = 16
    examples_per_task: int = 128
    noise_sigma: float = 0.0
    skills_per_task_min: int = 1
    skills_per_task_max: int = 3
    holdout_tasks: int = 4
    task_kind: str = "regression"

    def __post_init__(self):
        if self.num_tasks < 1:
            raise ConfigError("world.num_tasks", "must be >= 1")
        if self.num_true_skills < 1 or self.num_true_skills > self.num_tasks:
            raise ConfigError("world.num_true_skills", "must lie in [1, num_tasks]")
        if not 1 <= self.skills_per_task_min <= self.skills_per_task_max <= self.num_true_skills:
            raise ConfigError("world.skills_per_task_min", "range must satisfy 1 <= min <= max <= num_true_skills")
        if self.noise_sigma < 0:
            raise ConfigError("world.noise_sigma", "must be >= 0")
        if self.holdout_tasks < 0:
            raise ConfigError("world.holdout_tasks", "must be >= 0")
        if self.task_kind not in TASK_KINDS:
            raise ConfigError("world.task_kind", f"must be one of {TASK_KINDS}")
        if self.examples_per_task < 1:
            raise ConfigError("world.examples_per_task", "must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    world: WorldConfig = field(default_factory=WorldConfig)
    model_kind: str = "skilled"
    num_skills: int = 4
    parameterisation: str = "dense"
    sparsity: float = 0.9
    rank: int = 4
    hidden_dim: int = 32
    allocation_mode: str = "per_layer"
    freeze_allocation: object = None  # None | "identity" | "ones" | nested 0/1 lists
    tau: float = 1.0
    tau_final: float | None = None  # linear annealing target; None disables
    lr_z: float = 0.1
    lr_phi: float = 1e-3
    ibp_alpha: float = 5.0
    ibp_strength: float = 0.0
    steps: int = 3000
    batch_size: int = 32
    warmup_mask_steps: int = 100
    eval_every: int = 200
    select_best_dev: bool = True
    loss_threshold_frac: float = 0.5
    k_shot: int = 16
    adaptation_steps: int = 1000
    adaptation_batch_size: int = 8
    adaptation_resamples: int = 5
    adapt_z_only_steps: int = 100
    adapt_mode: str = "z_then_full"
    embedding_dim: int = 8
    expert_table: object = None  # None | "planted" | {"tasks": {...}, "num_skills": k}
    sweep_grid: tuple[int, ...] = SWEEP_GRID_DEFAULT
    output_dir: str | None = None

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ConfigError("model_kind", f"must be one of {MODEL_KINDS}")
        if self.parameterisation not in PARAMETERISATIONS:
            raise ConfigError("parameterisation", f"must be one of {PARAMETERISATIONS}")
        if self.allocation_mode not in ALLOCATION_MODES:
            raise ConfigError("allocation_mode", f"must be one of {ALLOCATION_MODES}")
        if self.adapt_mode not in ADAPT_MODES:
            raise ConfigError("adapt_mode", f"must be one of {ADAPT_MODES}")
        if self.num_skills < 1:
            raise ConfigError("num_skills", "must be >= 1")
        if not 0.0 <= self.sparsity < 1.0:
            raise ConfigError("sparsity", "must lie in [0, 1)")
        if self.rank < 1:
            raise ConfigError("rank", "must be >= 1")
        if self.hidden_dim < 1:
            raise ConfigError("hidden_dim", "must be >= 1")
        if self.tau <= 0:
            raise ConfigError("tau", "must be positive")
        if self.tau_final is not None and self.tau_final <= 0:
            raise ConfigError("tau_final", "must be positive")
        if self.lr_z <= 0:
            raise ConfigError("lr_z", "must be positive")
        if self.lr_phi <= 0:
            raise ConfigError("lr_phi", "must be positive")
        if self.lr_z < self.lr_phi:
            raise ConfigError("lr_z", "two-speed training requires lr_z >= lr_phi")
        if self.ibp_alpha <= 0:
            raise ConfigError("ibp_alpha", "must be positive")
        if self.ibp_strength < 0:
            raise ConfigError("ibp_strength", "must be >= 0")
        if self.steps < 0:
            raise ConfigError("steps", "must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size", "must be >= 1")
        if self.eval_every < 1:
            raise ConfigError("eval_every", "must be >= 1")
        if not 0.0 < self.loss_threshold_frac <= 1.0:
            raise ConfigError("loss_threshold_frac", "must lie in (0, 1]")
        if not 0 <= self.k_shot <= MAX_FEW_SHOT:
            raise ConfigError("k_shot", f"must lie in [0, {MAX_FEW_SHOT}]")
        if self.adaptation_steps < 0:
            raise ConfigError("adaptation_steps", "must be >= 0")
        if self.adaptation_batch_size < 1:
            raise ConfigError("adaptation_batch_size", "must be >= 1")
        if self.adaptation_resamples < 1:
            raise ConfigError("adaptation_resamples", "must be >= 1")
        if self.embedding_dim < 1:
            raise ConfigError("embedding_dim", "must be >= 1")
        if not self.sweep_grid or any(n < 1 for n in self.sweep_grid):
            raise ConfigError("sweep_grid", "must be a non-empty list of skill counts >= 1")
        if self.freeze_allocation is not None:
            if self.freeze_allocation not in ("identity", "ones") and not isinstance(self.freeze_allocation, list):
                raise ConfigError("freeze_allocation", "must be null, 'identity', 'ones' or a 0/1 matrix")
            if isinstance(self.freeze_allocation, list):
                _validate_frozen_matrix(self.freeze_allocation, self.world.num_tasks)
        if self.expert_table is not None:
            if self.expert_table != "planted":
                if not isinstance(self.expert_table, dict) or "tasks" not in self.expert_table or "num_skills" not in self.expert_table:
                    raise ConfigError("expert_table", "must be null, 'planted' or {tasks, num_skills}")
                _validate_expert_table(self.expert_table, self.world)
        if self.model_kind == "expert" and self.expert_table is None:
            raise ConfigError("expert_table", "required when model_kind is 'expert'")

    def replace(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["sweep_grid"] = list(self.sweep_grid)
        return doc


def _expect(key: str, value, kinds: tuple[type, ...], what: str):
    # bool is an int subclass; keep the two apart explicitly.
    if isinstance(value, bool) and bool not in kinds:
        raise ConfigError(key, f"expected {what}, got a boolean")
    if not isinstance(value, kinds):
        raise ConfigError(key, f"expected {what}, got {type(value).__name__} ({value!r})")
    return value


def _typed(key: str, value, default):
    if isinstance(default, bool):
        return _expect(key, value, (bool,), "a boolean")
    if isinstance(default, int):
        return int(_expect(key, value, (int,), "an integer"))
    if isinstance(default, float):
        return float(_expect(key, value, (int, float), "a number"))
    if isinstance(default, str):
        return _expect(key, value, (str,), "a string")
    return value


def _parse_world(doc: dict) -> WorldConfig:
    defaults = WorldConfig()
    known = {f.name: getattr(defaults, f.name) for f in dataclasses.fields(WorldConfig)}
    for key in doc:
        if key not in known:
            raise ConfigError(f"world.{key}", "unknown key")
    values = {k: _typed(f"world.{k}", doc[k], known[k]) if k in doc else known[k] for k in known}
    return WorldConfig(**values)


def parse_config_dict(doc: dict) -> ExperimentConfig:
    defaults = ExperimentConfig()
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for key in doc:
        if key not in known:
            raise ConfigError(key, "unknown key")

    values: dict = {}
    for f in dataclasses.fields(ExperimentConfig):
        if f.name not in doc:
            continue
        raw = doc[f.name]
        if f.name == "world":
            values["world"] = _parse_world(_expect("world", raw, (dict,), "an object"))
        elif f.name == "sweep_grid":
            grid = _expect("sweep_grid", raw, (list,), "a list of integers")
            values["sweep_grid"] = tuple(int(_expect("sweep_grid", v, (int,), "an integer")) for v in grid)
        elif f.name in ("freeze_allocation", "expert_table"):
            values[f.name] = raw
        elif f.name in ("tau_final", "output_dir") and raw is None:
            values[f.name] = None
        elif f.name == "tau_final":
            values[f.name] = float(_expect("tau_final", raw, (int, float), "a number"))
        elif f.name == "output_dir":
            values[f.name] = _expect("output_dir", raw, (str,), "a string")
        else:
            values[f.name] = _typed(f.name, raw, getattr(defaults, f.name))

    return ExperimentConfig(**values)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_frozen_matrix(rows: list, num_tasks: int) -> None:
    """A rectangular 0/1 integer matrix, one row per training task, no empty row."""
    if len(rows) != num_tasks or not all(isinstance(row, list) for row in rows):
        raise ConfigError("freeze_allocation", f"must have one row per training task ({num_tasks})")
    if len({len(row) for row in rows}) != 1:
        raise ConfigError("freeze_allocation", "rows must all have the same length")
    if not all(_is_int(v) and v in (0, 1) for row in rows for v in row):
        raise ConfigError("freeze_allocation", "entries must be the integers 0 or 1")
    if not all(1 in row for row in rows):
        raise ConfigError("freeze_allocation", "every row must activate at least one skill")


def _validate_expert_table(table: dict, world: WorldConfig) -> None:
    """Integer skill subsets in [0, num_skills), one non-empty subset per training task."""
    num_skills, tasks = table["num_skills"], table["tasks"]
    if not _is_int(num_skills) or num_skills < 1:
        raise ConfigError("expert_table", "num_skills must be an integer >= 1")
    if world.holdout_tasks > 0 and num_skills < world.num_true_skills:
        # A held-out task adapts on its planted skills, indexed over the world's skills.
        raise ConfigError("expert_table", "num_skills must be >= world.num_true_skills when tasks are held out")
    if not isinstance(tasks, dict):
        raise ConfigError("expert_table", "tasks must map task ids to skill lists")
    for name, subset in tasks.items():
        if not isinstance(subset, list) or not subset:
            raise ConfigError("expert_table", f"task '{name}' needs a non-empty list of skills")
        if not all(_is_int(j) and 0 <= j < num_skills for j in subset):
            raise ConfigError("expert_table", f"task '{name}' has a skill outside [0, {num_skills})")
    for row in range(world.num_tasks):
        if task_id("train", row) not in tasks:
            raise ConfigError("expert_table", f"no entry for training task '{task_id('train', row)}'")


def parse_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(str(path), "config file does not exist")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(str(path), "top-level JSON value must be an object")
    return parse_config_dict(doc)


def config_hash(config: ExperimentConfig) -> str:
    """Content address of the experiment; where it is written (`output_dir`) is not part of it."""
    canonical = json.dumps(config.replace(output_dir=None).to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
