"""Experiment configuration: strict parsing, typed defaults, hashing.

Unknown keys are rejected rather than ignored, inside `world` too, the
only object a config holds; a silently dropped typo is the most expensive
way to lose an experiment. Value checks run where a config is built
(`__post_init__`), so every point of a sweep or comparison is checked
before its first run. All defaults are the standard training
settings used throughout the test suite.

Parsing a config loads only `json` and `__future__` beyond what a bare
interpreter has, so a fresh process checks a config in a few
milliseconds: the two config classes are `_Record`s rather than
dataclasses (`dataclasses` pulls in `inspect` and `ast`), and
`config_hash` imports `hashlib` when called.
"""

# Annotations stay strings: `_Record` and the parser read them as field kinds.
from __future__ import annotations

import json
import os

from .errors import ConfigError

SWEEP_GRID_DEFAULT = (2, 4, 8, 16, 32)
MODEL_KINDS = ("skilled", "private", "shared", "expert", "hypernet")
PARAMETERISATIONS = ("dense", "sparse", "lowrank")
ALLOCATION_MODES = ("per_layer", "global")
ADAPT_MODES = ("z_then_full", "z_only", "full")
TASK_KINDS = ("regression", "classification", "mixed")
MAX_FEW_SHOT = 32  # upper bound on k_shot: the k-shot pool is drawn from the training split


class _Record:
    """A frozen, keyword-only record: its fields are the class's annotated attributes, in order.

    A field's class attribute is its default; a record class as default is
    built afresh for each instance. Every construction, `replace` included,
    stores each float field's value as a `float` (so `tau=1` and
    `tau=1.0` give one document and one `config_hash`), checks that it is
    finite, and then runs `__post_init__`.
    `prefix` is what a `ConfigError` puts before a field's name.
    """

    def __init_subclass__(cls, prefix: str = ""):
        cls._fields, cls._prefix = tuple(cls.__annotations__), prefix

    def __init__(self, **values):
        cls = type(self)
        unknown = values.keys() - set(cls._fields)
        if unknown:
            raise TypeError(f"{cls.__name__} has no field {sorted(unknown)[0]!r}")
        for name in cls._fields:
            if name not in values:
                default = getattr(cls, name)
                values[name] = default() if isinstance(default, type) else default
            value = values[name]
            if cls.__annotations__[name].startswith("float") and value is not None:
                value = float(value)
                if not abs(value) < float("inf"):
                    raise ConfigError(cls._prefix + name, "must be a finite number")
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: field {name!r} cannot change")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.__dict__ == other.__dict__ if type(other) is type(self) else NotImplemented

    def __hash__(self):
        # A matrix field holds lists; as tuples they hash, and equal records still hash alike.
        return hash(tuple(_hashable(value) for value in self.__dict__.values()))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in self.__dict__.items())})"

    def replace(self, **changes):
        return type(self)(**{**self.__dict__, **changes})

    def to_dict(self) -> dict:
        """The JSON document of the record: a nested record becomes a dict, every list and dict a new one."""
        return {name: _plain(value) for name, value in self.__dict__.items()}


def _hashable(value):
    return tuple(_hashable(v) for v in value) if isinstance(value, list) else value


def _plain(value):
    if isinstance(value, _Record):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


class WorldConfig(_Record, prefix="world."):
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
        if self.input_dim < 1:
            raise ConfigError("world.input_dim", "must be >= 1")
        if self.num_true_skills < 1 or self.num_true_skills > self.num_tasks:
            raise ConfigError("world.num_true_skills", "must lie in [1, num_tasks]")
        if not 1 <= self.skills_per_task_min <= self.skills_per_task_max <= self.num_true_skills:
            raise ConfigError("world.skills_per_task_min", "range must satisfy 1 <= min <= max <= num_true_skills")
        if self.num_true_skills >= 2 and self.skills_per_task_min == self.num_true_skills:
            # Every planted row would be all ones, so no two skill columns could differ.
            raise ConfigError("world.skills_per_task_min", "must be below num_true_skills when num_true_skills >= 2")
        if self.noise_sigma < 0:
            raise ConfigError("world.noise_sigma", "must be >= 0")
        if self.holdout_tasks < 0:
            raise ConfigError("world.holdout_tasks", "must be >= 0")
        if self.holdout_tasks > 0 and self.num_tasks < 2:
            # A held-out task is the union of two distinct training tasks' skills.
            raise ConfigError("world.holdout_tasks", "needs world.num_tasks >= 2")
        if self.task_kind not in TASK_KINDS:
            raise ConfigError("world.task_kind", f"must be one of {TASK_KINDS}")
        if self.examples_per_task < 1:
            raise ConfigError("world.examples_per_task", "must be >= 1")


class ExperimentConfig(_Record):
    seed: int = 0
    world: WorldConfig = WorldConfig  # a record class as default: built afresh for each config
    model_kind: str = "skilled"
    num_skills: int = 4
    parameterisation: str = "dense"
    sparsity: float = 0.9
    rank: int = 4
    hidden_dim: int = 32
    allocation_mode: str = "per_layer"
    freeze_allocation: object = None  # None | "identity" | 0/1 matrix, one row per training task
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
    expert_table: object = None  # None | "planted" | 0/1 matrix, one row per training task
    sweep_grid: tuple[int, ...] = SWEEP_GRID_DEFAULT
    output_dir: str | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed", "must be >= 0")
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
        # The mask freezes after step warmup_mask_steps; never freezing it
        # would train a dense model under a sparse config.
        if self.warmup_mask_steps < 1:
            raise ConfigError("warmup_mask_steps", "must be >= 1")
        if self.parameterisation == "sparse" and self.warmup_mask_steps > self.steps:
            raise ConfigError("warmup_mask_steps", "must be <= steps with the sparse parameterisation")
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
        if self.adapt_z_only_steps < 0:
            raise ConfigError("adapt_z_only_steps", "must be >= 0")
        if self.embedding_dim < 1:
            raise ConfigError("embedding_dim", "must be >= 1")
        if not self.sweep_grid or min(self.sweep_grid) < 1 or len(set(self.sweep_grid)) < len(self.sweep_grid):
            raise ConfigError("sweep_grid", "must be a non-empty list of distinct skill counts >= 1")
        if self.freeze_allocation not in (None, "identity"):
            _validate_matrix("freeze_allocation", self.freeze_allocation, self.world.num_tasks)
        if self.expert_table not in (None, "planted"):
            _validate_matrix("expert_table", self.expert_table, self.world.num_tasks)
            columns = len(self.expert_table[0])
            if self.world.holdout_tasks > 0 and columns < self.world.num_true_skills:
                # A held-out task adapts on its planted skills, indexed over the world's skills.
                raise ConfigError("expert_table", f"must be {_MATRIX_FORMS['expert_table']}; with held-out tasks "
                                  f"it needs world.num_true_skills ({self.world.num_true_skills}) columns, not {columns}")
        if self.model_kind == "expert" and self.expert_table is None:
            raise ConfigError("expert_table", "required when model_kind is 'expert'")


def _expect(key: str, value, kinds: tuple[type, ...], what: str):
    # bool is an int subclass; keep the two apart explicitly.
    if isinstance(value, bool) and bool not in kinds:
        raise ConfigError(key, f"expected {what}, got a boolean")
    if not isinstance(value, kinds):
        raise ConfigError(key, f"expected {what}, got {type(value).__name__} ({value!r})")
    return value


# The Python types a JSON value of each scalar annotation may have, and their name in an error.
_JSON_TYPES = {"bool": ((bool,), "a boolean"), "int": ((int,), "an integer"),
               "float": ((int, float), "a number"), "str": ((str,), "a string")}


def _parse(cls, doc: dict):
    """A `cls` record from a JSON object, each field typed by its annotation."""
    for key in doc:
        if key not in cls._fields:
            raise ConfigError(cls._prefix + key, "unknown key")
    return cls(**{key: _typed(cls._prefix + key, doc[key], cls.__annotations__[key]) for key in cls._fields if key in doc})


def _typed(key: str, value, annotation: str):
    kind, _, nullable = annotation.partition(" | ")
    if nullable and value is None:
        return None
    if kind == "WorldConfig":
        return _parse(WorldConfig, _expect(key, value, (dict,), "an object"))
    if kind == "tuple[int, ...]":
        return tuple(_typed(key, v, "int") for v in _expect(key, value, (list,), "a list of integers"))
    if kind not in _JSON_TYPES:
        return value  # an `object` field: its __post_init__ check says which forms it takes
    value = _expect(key, value, *_JSON_TYPES[kind])
    return float(value) if kind == "float" else value


def parse_config_dict(doc: dict) -> ExperimentConfig:
    return _parse(ExperimentConfig, doc)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# What each allocation field accepts, for its errors.
_MATRIX_FORMS = {"freeze_allocation": "null, 'identity' or a 0/1 matrix",
                 "expert_table": "null, 'planted' or a 0/1 matrix"}


def _validate_matrix(key: str, rows, num_tasks: int) -> None:
    """A list of lists, one row per training task, rectangular, integer 0/1 entries, no empty row."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        problem = f"got {type(rows).__name__} ({rows!r})"
    elif len(rows) != num_tasks:
        problem = f"got {len(rows)} rows"
    elif len({len(row) for row in rows}) != 1:
        problem = "its rows differ in length"
    elif not all(_is_int(v) and v in (0, 1) for row in rows for v in row):
        problem = "an entry is not the integer 0 or 1"
    elif not all(1 in row for row in rows):
        problem = "a row activates no skill"
    else:
        return
    raise ConfigError(key, f"must be {_MATRIX_FORMS[key]} with one row per training task ({num_tasks}); {problem}")


def parse_config(path: str | os.PathLike) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, unreadable, not text
        raise ConfigError(str(path), f"cannot read the config file: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(str(path), "top-level JSON value must be an object")
    return parse_config_dict(doc)


def config_hash(config: ExperimentConfig) -> str:
    """Content address of the experiment; where it is written (`output_dir`) is not part of it."""
    import hashlib  # here, not at the top: parsing a config needs no hashing

    canonical = json.dumps(config.replace(output_dir=None).to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
