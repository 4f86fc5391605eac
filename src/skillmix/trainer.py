"""Multitask training loop, evaluation and few-shot adaptation.

One training step: pick a task uniformly, draw a batch, sample a relaxed
allocation row, compose the per-task network, minimise the task likelihood
loss (squared error for regression, logistic for classification) plus the
optional allocation prior, and take one two-speed Adam step. Everything is
driven by a single seed through separate derived rng streams, so runs are
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, add, backward, mul, neg, no_grad, reduce_mean, reset_tape, softplus, sub, tensor
from .config import MAX_FEW_SHOT, ExperimentConfig
from .errors import ContractError, TrainingDivergedError
from .model import build_model, make_layer_shapes
from .optim import Adam, build_two_speed_groups
from .priors import ibp_regularizer
from .synthetic import STREAM_ADAPT, STREAM_TRAIN, SyntheticWorld, TaskSpec

STREAM_INIT = 3


@dataclass
class StepRecord:
    step: int
    task_id: str
    loss: float
    reg_loss: float
    lr_z: float
    lr_phi: float


@dataclass
class EvalRecord:
    step: int
    dev_loss: float


@dataclass
class TrainedModel:
    model: object
    optimizer: Adam
    kind: str
    history: list[StepRecord]
    evals: list[EvalRecord]
    task_ids: list[str]
    config: ExperimentConfig
    tasks: list[TaskSpec] = field(repr=False, default_factory=list)


def task_loss(pred: Tensor, targets: np.ndarray, kind: str) -> Tensor:
    """Negative log-likelihood up to constants: MSE or logistic loss."""
    y = tensor(targets)
    if kind == "regression":
        err = sub(pred, y)
        return reduce_mean(mul(err, err))
    if kind == "classification":
        return reduce_mean(softplus(neg(mul(y, pred))))
    raise ContractError(f"unknown task kind '{kind}'")


def evaluate(model, task_index: int, task: TaskSpec, split: str = "eval") -> dict:
    """Deterministic metrics on a split; uses the expected allocation path."""
    x = getattr(task, f"x_{split}")
    y = getattr(task, f"y_{split}")
    if x.shape[0] == 0:
        raise ContractError(f"task '{task.id}' has an empty {split} split")
    with no_grad():
        pred, _ = model.forward(task_index, tensor(x), train=False)
        loss = task_loss(pred, y, task.kind).item()
    metrics = {"loss": loss}
    if task.kind == "regression":
        metrics["mse"] = float(np.mean((pred.data - y) ** 2))
    else:
        signs = np.where(pred.data >= 0.0, 1.0, -1.0)
        metrics["accuracy"] = float(np.mean(signs == y))
    return metrics


def _mean_dev_loss(model, tasks: list[TaskSpec]) -> float:
    losses = [evaluate(model, i, t, split="dev")["loss"] for i, t in enumerate(tasks)]
    return float(np.mean(losses))


def _anneal_tau(config: ExperimentConfig, step: int) -> float:
    if config.tau_final is None or config.steps <= 1:
        return config.tau
    frac = step / (config.steps - 1)
    return config.tau + (config.tau_final - config.tau) * frac


def build_model_from_config(config: ExperimentConfig, tasks: list[TaskSpec], world: SyntheticWorld | None):
    """Resolve config into a concrete model; see `resolve_frozen_allocation`."""
    num_tasks = len(tasks)
    shapes = make_layer_shapes(tasks[0].input_dim, config.hidden_dim)
    rng = np.random.default_rng([config.seed, STREAM_INIT])
    frozen = resolve_frozen_allocation(config, num_tasks)
    num_skills = config.num_skills
    if frozen is not None:
        num_skills = frozen.shape[1]
    expert = None
    if config.model_kind == "expert":
        expert = resolve_expert_allocation(config, tasks, world)
    return build_model(
        config.model_kind,
        num_tasks,
        num_skills,
        shapes,
        rng,
        parameterisation=config.parameterisation,
        sparsity=config.sparsity,
        rank=config.rank,
        tau=config.tau,
        allocation_mode=config.allocation_mode,
        frozen_allocation=frozen,
        embed_dim=config.embedding_dim,
        expert=expert,
    )


def resolve_frozen_allocation(config: ExperimentConfig, num_tasks: int) -> np.ndarray | None:
    if config.freeze_allocation is None or config.model_kind != "skilled":
        return None
    if config.freeze_allocation == "identity":
        return np.eye(num_tasks)
    if config.freeze_allocation == "ones":
        return np.ones((num_tasks, 1))
    return np.asarray(config.freeze_allocation, dtype=np.float64)


def resolve_expert_allocation(config: ExperimentConfig, tasks: list[TaskSpec], world: SyntheticWorld | None):
    from .baselines import FixedAllocation, allocation_expert

    if config.expert_table == "planted":
        if world is None:
            raise ContractError("planted expert table requires a synthetic world")
        from .allocation import BinaryAllocation

        rows = world.true_z[: len(tasks)]
        return FixedAllocation("expert", BinaryAllocation(rows))
    if isinstance(config.expert_table, dict):
        table = {k: [int(v) for v in vals] for k, vals in config.expert_table["tasks"].items()}
        num_skills = int(config.expert_table["num_skills"])
        return allocation_expert(table, num_skills, [t.id for t in tasks])
    raise ContractError("expert kind requires expert_table ('planted' or an inline table)")


def multitask_train(
    config: ExperimentConfig,
    tasks: list[TaskSpec],
    model_kind: str | None = None,
    world: SyntheticWorld | None = None,
) -> TrainedModel:
    """Train one model kind on the training tasks; deterministic per seed."""
    if model_kind is not None and model_kind != config.model_kind:
        config = config.replace(model_kind=model_kind)
    train_tasks = [t for t in tasks if t.split == "train"]
    if not train_tasks:
        raise ContractError("need at least one training task")

    model = build_model_from_config(config, train_tasks, world)
    optimizer = build_two_speed_groups(
        model.z_parameters(),
        model.phi_parameters() + model.base_parameters(),
        config.lr_z,
        config.lr_phi,
    )

    rng = np.random.default_rng([config.seed, STREAM_TRAIN])
    history: list[StepRecord] = []
    evals: list[EvalRecord] = [EvalRecord(0, _mean_dev_loss(model, train_tasks))]
    best_loss, best_snap = evals[0].dev_loss, None

    for step in range(config.steps):
        tau_t = _anneal_tau(config, step)
        reset_tape()
        task_index = int(rng.integers(len(train_tasks)))
        task = train_tasks[task_index]
        batch = rng.integers(task.x_train.shape[0], size=config.batch_size)
        x = tensor(task.x_train[batch])

        pred, relaxed_mats = model.forward(task_index, x, train=True, rng=rng, tau=tau_t)
        loss = task_loss(pred, task.y_train[batch], task.kind)
        loss_value = loss.item()

        reg_value = 0.0
        total = loss
        if config.ibp_strength > 0.0 and relaxed_mats:
            for relaxed in relaxed_mats:
                reg = ibp_regularizer(relaxed, config.ibp_alpha, config.ibp_strength)
                reg_value += reg.item()
                total = add(total, reg)

        if not np.isfinite(loss_value) or not np.isfinite(reg_value):
            raise TrainingDivergedError(
                step, task.id, {"loss": loss_value, "reg_loss": reg_value}
            )

        backward(total)
        optimizer.step()
        optimizer.zero_grad()
        history.append(
            StepRecord(step, task.id, loss_value, reg_value, config.lr_z, config.lr_phi)
        )

        if step + 1 == config.warmup_mask_steps and config.parameterisation == "sparse":
            model.freeze_sparse_masks()
            # Stale moments would keep nudging newly masked-out entries.
            optimizer.reset_state()

        if (step + 1) % config.eval_every == 0 or step + 1 == config.steps:
            dev_loss = _mean_dev_loss(model, train_tasks)
            evals.append(EvalRecord(step + 1, dev_loss))
            if config.select_best_dev and dev_loss < best_loss:
                best_loss = dev_loss
                best_snap = model.snapshot()

    if config.select_best_dev and best_snap is not None:
        model.restore(best_snap)

    return TrainedModel(
        model=model,
        optimizer=optimizer,
        kind=config.model_kind,
        history=history,
        evals=evals,
        task_ids=[t.id for t in train_tasks],
        config=config,
        tasks=train_tasks,
    )


def steps_to_threshold(trained: TrainedModel, frac: float | None = None) -> int:
    """First evaluated step whose dev loss is <= frac * initial dev loss.

    Returns config.steps + 1 when the threshold is never reached, so the
    value stays comparable across model kinds.
    """
    frac = trained.config.loss_threshold_frac if frac is None else frac
    threshold = trained.evals[0].dev_loss * frac
    for record in trained.evals[1:]:
        if record.dev_loss <= threshold:
            return record.step
    return trained.config.steps + 1


# ---------------------------------------------------------------------------
# few-shot adaptation


@dataclass
class AdaptationResult:
    task_id: str
    task_index: int
    model: object
    metrics_before: dict
    metrics_after: dict
    history: list[StepRecord]


def _register_new_task(model, kind: str, task: TaskSpec, rng) -> int:
    if kind == "skilled":
        return model.alloc.add_task()
    if kind == "shared":
        return model.alloc.add_task(np.ones(1))
    if kind == "private":
        return model.add_fresh_task(rng)
    if kind == "expert":
        if task.planted_skills is None:
            raise ContractError("expert adaptation needs the task's planted skills")
        bits = np.zeros(model.alloc.num_skills)
        bits[list(task.planted_skills)] = 1.0
        return model.alloc.add_task(bits)
    if kind == "hypernet":
        return model.add_task_embedding()
    raise ContractError(f"unknown model kind '{kind}'")


def _adaptation_phases(model, kind: str, task_index: int, config: ExperimentConfig, steps: int):
    """(num_steps, optimizer) pairs: the task's new parameters alone, then with the skills.

    The skilled kind follows `adapt_mode` and the hypernet always runs
    `z_then_full`; the baselines have no new task parameters and adapt their
    skills (the private kind its fresh skill) for every step.
    """
    if kind == "private":
        new, skills, mode = [], model.fresh_parameters(task_index), "full"
    elif kind in ("shared", "expert"):
        new, skills, mode = [], model.phi_parameters(), "full"
    else:
        new, skills = model.new_task_parameters(task_index), model.phi_parameters()
        mode = config.adapt_mode if kind == "skilled" else "z_then_full"
    head = {"z_only": steps, "full": 0}.get(mode, min(config.adapt_z_only_steps, steps))
    phases = []
    if head:
        phases.append((head, build_two_speed_groups(new, [], config.lr_z, config.lr_phi)))
    if steps > head:
        phases.append((steps - head, build_two_speed_groups(new, skills, config.lr_z, config.lr_phi)))
    return phases


def few_shot_adapt(
    trained: TrainedModel,
    task: TaskSpec,
    steps: int | None = None,
    k_shot: int | None = None,
    resample: int = 0,
    task_ordinal: int = 0,
) -> AdaptationResult:
    """Adapt a trained model to an unseen task from k labelled examples.

    The base model is cloned, a fresh task slot is registered (a learnable
    allocation row, a fixed row, a fresh skill, or a fresh embedding,
    depending on the kind), and only the scheduled parameter groups are
    trained. `resample` indexes independent k-shot subsets of the task's
    training pool.
    """
    config = trained.config
    steps = config.adaptation_steps if steps is None else steps
    k_shot = config.k_shot if k_shot is None else k_shot
    if task.id in trained.task_ids:
        raise ContractError(f"task id '{task.id}' collides with a training task")
    if k_shot > MAX_FEW_SHOT:
        raise ContractError(f"k_shot must be <= {MAX_FEW_SHOT}")

    rng = np.random.default_rng([config.seed, STREAM_ADAPT, task_ordinal, resample])
    model = trained.model.clone()
    task_index = _register_new_task(model, trained.kind, task, rng)
    metrics_before = evaluate(model, task_index, task)

    history: list[StepRecord] = []
    if steps == 0 or k_shot == 0:
        return AdaptationResult(task.id, task_index, model, metrics_before, dict(metrics_before), history)

    pool = rng.choice(task.x_train.shape[0], size=min(k_shot, task.x_train.shape[0]), replace=False)
    x_pool, y_pool = task.x_train[pool], task.y_train[pool]
    batch_size = min(config.adaptation_batch_size, len(pool))

    step = 0
    for phase_steps, optimizer in _adaptation_phases(model, trained.kind, task_index, config, steps):
        for _ in range(phase_steps):
            reset_tape()
            batch = rng.integers(len(pool), size=batch_size)
            pred, _ = model.forward(task_index, tensor(x_pool[batch]), train=True, rng=rng)
            loss = task_loss(pred, y_pool[batch], task.kind)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise TrainingDivergedError(step, task.id, {"loss": loss_value})
            backward(loss)
            optimizer.step()
            optimizer.zero_grad()
            history.append(StepRecord(step, task.id, loss_value, 0.0, config.lr_z, config.lr_phi))
            step += 1

    metrics_after = evaluate(model, task_index, task)
    return AdaptationResult(task.id, task_index, model, metrics_before, metrics_after, history)
