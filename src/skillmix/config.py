"""Experiment configuration: strict parsing, typed defaults, hashing.

Unknown keys are rejected rather than ignored; a silently dropped typo is
the most expensive way to lose an experiment. All defaults are the standard
training settings used throughout the test suite.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

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
    world = WorldConfig(**values)
    if world.num_tasks < 1:
        raise ConfigError("world.num_tasks", "must be >= 1")
    if world.num_true_skills < 1 or world.num_true_skills > world.num_tasks:
        raise ConfigError("world.num_true_skills", "must lie in [1, num_tasks]")
    if not 1 <= world.skills_per_task_min <= world.skills_per_task_max <= world.num_true_skills:
        raise ConfigError("world.skills_per_task_min", "range must satisfy 1 <= min <= max <= num_true_skills")
    if world.noise_sigma < 0:
        raise ConfigError("world.noise_sigma", "must be >= 0")
    if world.holdout_tasks < 0:
        raise ConfigError("world.holdout_tasks", "must be >= 0")
    if world.task_kind not in TASK_KINDS:
        raise ConfigError("world.task_kind", f"must be one of {TASK_KINDS}")
    if world.examples_per_task < 1:
        raise ConfigError("world.examples_per_task", "must be >= 1")
    return world


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

    config = ExperimentConfig(**values)
    _validate(config)
    return config


def _validate(c: ExperimentConfig) -> None:
    if c.model_kind not in MODEL_KINDS:
        raise ConfigError("model_kind", f"must be one of {MODEL_KINDS}")
    if c.parameterisation not in PARAMETERISATIONS:
        raise ConfigError("parameterisation", f"must be one of {PARAMETERISATIONS}")
    if c.allocation_mode not in ALLOCATION_MODES:
        raise ConfigError("allocation_mode", f"must be one of {ALLOCATION_MODES}")
    if c.adapt_mode not in ADAPT_MODES:
        raise ConfigError("adapt_mode", f"must be one of {ADAPT_MODES}")
    if c.num_skills < 1:
        raise ConfigError("num_skills", "must be >= 1")
    if not 0.0 <= c.sparsity < 1.0:
        raise ConfigError("sparsity", "must lie in [0, 1)")
    if c.rank < 1:
        raise ConfigError("rank", "must be >= 1")
    if c.hidden_dim < 1:
        raise ConfigError("hidden_dim", "must be >= 1")
    if c.tau <= 0:
        raise ConfigError("tau", "must be positive")
    if c.tau_final is not None and c.tau_final <= 0:
        raise ConfigError("tau_final", "must be positive")
    if c.lr_z <= 0:
        raise ConfigError("lr_z", "must be positive")
    if c.lr_phi <= 0:
        raise ConfigError("lr_phi", "must be positive")
    if c.lr_z < c.lr_phi:
        raise ConfigError("lr_z", "two-speed training requires lr_z >= lr_phi")
    if c.ibp_alpha <= 0:
        raise ConfigError("ibp_alpha", "must be positive")
    if c.ibp_strength < 0:
        raise ConfigError("ibp_strength", "must be >= 0")
    if c.steps < 0:
        raise ConfigError("steps", "must be >= 0")
    if c.batch_size < 1:
        raise ConfigError("batch_size", "must be >= 1")
    if c.eval_every < 1:
        raise ConfigError("eval_every", "must be >= 1")
    if not 0.0 < c.loss_threshold_frac <= 1.0:
        raise ConfigError("loss_threshold_frac", "must lie in (0, 1]")
    if not 0 <= c.k_shot <= MAX_FEW_SHOT:
        raise ConfigError("k_shot", f"must lie in [0, {MAX_FEW_SHOT}]")
    if c.adaptation_steps < 0:
        raise ConfigError("adaptation_steps", "must be >= 0")
    if c.adaptation_batch_size < 1:
        raise ConfigError("adaptation_batch_size", "must be >= 1")
    if c.adaptation_resamples < 1:
        raise ConfigError("adaptation_resamples", "must be >= 1")
    if c.embedding_dim < 1:
        raise ConfigError("embedding_dim", "must be >= 1")
    if c.freeze_allocation is not None:
        if c.freeze_allocation not in ("identity", "ones") and not isinstance(c.freeze_allocation, list):
            raise ConfigError("freeze_allocation", "must be null, 'identity', 'ones' or a 0/1 matrix")
    if c.expert_table is not None:
        if c.expert_table != "planted":
            if not isinstance(c.expert_table, dict) or "tasks" not in c.expert_table or "num_skills" not in c.expert_table:
                raise ConfigError("expert_table", "must be null, 'planted' or {tasks, num_skills}")
    if c.model_kind == "expert" and c.expert_table is None:
        raise ConfigError("expert_table", "required when model_kind is 'expert'")


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
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
