"""Multitask training loop, evaluation and few-shot adaptation.

One step (`_step`, shared by training and adaptation): sample a relaxed
allocation row, compose the per-task network, minimise the task likelihood
loss (squared error for regression, logistic for classification) plus the
optional allocation prior on the base tasks, and take one two-speed Adam
step. Training picks a task uniformly and draws a batch per step;
adaptation registers the held-out task on a clone of the trained model
(one more allocation row, or an embedding for the hypernet) and steps on
k-shot batches. Everything is driven by a single seed through separate
derived rng streams, so runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, add, backward, mul, neg, no_grad, reduce_mean, reset_tape, softplus, sub, tensor
from .baselines import allocation_expert
from .config import MAX_FEW_SHOT, ExperimentConfig
from .errors import ContractError, TrainingDivergedError
from .model import build_model, make_layer_shapes
from .optim import build_two_speed_groups
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
    """Resolve config into a concrete model; see `resolve_fixed_allocation`."""
    return build_model(
        config.model_kind,
        len(tasks),
        config.num_skills,
        make_layer_shapes(tasks[0].input_dim, config.hidden_dim),
        np.random.default_rng([config.seed, STREAM_INIT]),
        parameterisation=config.parameterisation,
        sparsity=config.sparsity,
        rank=config.rank,
        tau=config.tau,
        allocation_mode=config.allocation_mode,
        fixed=resolve_fixed_allocation(config, tasks, world),
        embed_dim=config.embedding_dim,
    )


def resolve_fixed_allocation(
    config: ExperimentConfig, tasks: list[TaskSpec], world: SyntheticWorld | None
) -> np.ndarray | None:
    """The kind's fixed 0/1 allocation over `tasks`; None when the allocation is learned.

    Private is the identity and shared a single ones column; a frozen
    skilled model takes `freeze_allocation` ("identity", "ones" or the
    matrix as given); expert takes the planted rows or the inline table.
    """
    n, kind = len(tasks), config.model_kind
    frozen = config.freeze_allocation if kind == "skilled" else None
    if kind == "private" or frozen == "identity":
        return np.eye(n)
    if kind == "shared" or frozen == "ones":
        return np.ones((n, 1))
    if frozen is not None:
        return np.asarray(frozen, dtype=np.float64)
    if kind != "expert":
        return None
    if config.expert_table == "planted":
        if world is None:
            raise ContractError("planted expert table requires a synthetic world")
        return world.true_z[:n].astype(np.float64)
    if isinstance(config.expert_table, dict):
        table, num_skills = config.expert_table["tasks"], int(config.expert_table["num_skills"])
        return allocation_expert(table, num_skills, [t.id for t in tasks]).astype(np.float64)
    raise ContractError("expert kind requires expert_table ('planted' or an inline table)")


def _step(model, optimizer, config: ExperimentConfig, task_index: int, task: TaskSpec, x, y, rng, tau, step: int):
    """One step on a batch; returns (task loss, prior) values.

    Only base tasks return relaxed allocation matrices, so a new task's
    step carries no prior.
    """
    reset_tape()
    pred, relaxed_mats = model.forward(task_index, tensor(x), train=True, rng=rng, tau=tau)
    loss = task_loss(pred, y, task.kind)
    loss_value = loss.item()

    reg_value = 0.0
    total = loss
    if config.ibp_strength > 0.0:
        for relaxed in relaxed_mats:
            reg = ibp_regularizer(relaxed, config.ibp_alpha, config.ibp_strength)
            reg_value += reg.item()
            total = add(total, reg)

    if not np.isfinite(loss_value) or not np.isfinite(reg_value):
        raise TrainingDivergedError(step, task.id, {"loss": loss_value, "reg_loss": reg_value})

    backward(total)
    optimizer.step()
    optimizer.zero_grad()
    return loss_value, reg_value


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
        task_index = int(rng.integers(len(train_tasks)))
        task = train_tasks[task_index]
        batch = rng.integers(task.x_train.shape[0], size=config.batch_size)
        loss_value, reg_value = _step(
            model, optimizer, config, task_index, task,
            task.x_train[batch], task.y_train[batch], rng, _anneal_tau(config, step), step,
        )
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


def _register_new_task(model, kind: str, task: TaskSpec, rng) -> int:
    """A new allocation row for every skill-composed kind; an embedding for the hypernet.

    The skilled kind learns its row. The others get a fixed one: ones for
    shared, the planted skills for expert, and for private a one-hot row on
    a new skill added to every layer.
    """
    if kind == "hypernet":
        return model.add_task_embedding()
    if kind == "skilled":
        return model.alloc.add_task()
    if kind == "private":
        model.add_skill(rng)
        active = [model.alloc.num_skills - 1]
    elif kind == "shared":
        active = [0]
    elif kind == "expert":
        if task.planted_skills is None:
            raise ContractError("expert adaptation needs the task's planted skills")
        active = list(task.planted_skills)
    else:
        raise ContractError(f"unknown model kind '{kind}'")
    bits = np.zeros(model.alloc.num_skills)
    bits[active] = 1.0
    return model.alloc.add_task(bits)


def _adaptation_phases(model, task_index: int, config: ExperimentConfig, steps: int):
    """(num_steps, optimizer) pairs: the new task's own parameters alone, then with the skills.

    The head follows `adapt_mode` (`z_only`: every step, `full`: none,
    `z_then_full`: `adapt_z_only_steps`). A new task with a fixed row has
    no parameters of its own, so it adapts the skills for every step.
    """
    new, skills = model.new_task_parameters(task_index), model.phi_parameters()
    head = 0
    if new:
        head = {"z_only": steps, "full": 0}.get(config.adapt_mode, min(config.adapt_z_only_steps, steps))
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

    The base model is cloned and the task registered on the clone (a
    learnable allocation row, a fixed row, a new skill with a one-hot row,
    or an embedding, depending on the kind); only the scheduled parameter
    groups are trained. `resample` indexes independent k-shot subsets of the
    task's training pool.
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
    if steps == 0 or k_shot == 0:
        return AdaptationResult(task.id, task_index, model, metrics_before, dict(metrics_before))

    pool = rng.choice(task.x_train.shape[0], size=min(k_shot, task.x_train.shape[0]), replace=False)
    x_pool, y_pool = task.x_train[pool], task.y_train[pool]
    batch_size = min(config.adaptation_batch_size, len(pool))

    step = 0
    for phase_steps, optimizer in _adaptation_phases(model, task_index, config, steps):
        # Only the phase's own parameters take gradients: any other would keep
        # one that a later phase's first step would apply.
        trained_ids = {id(p) for p in optimizer.parameters}
        for p in model.named_parameters().values():
            p.requires_grad = id(p) in trained_ids
        for _ in range(phase_steps):
            batch = rng.integers(len(pool), size=batch_size)
            _step(model, optimizer, config, task_index, task, x_pool[batch], y_pool[batch], rng, None, step)
            step += 1

    metrics_after = evaluate(model, task_index, task)
    return AdaptationResult(task.id, task_index, model, metrics_before, metrics_after)
