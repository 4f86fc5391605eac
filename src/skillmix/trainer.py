"""Multitask training loop, evaluation and few-shot adaptation.

One step (`_step`, shared by training and adaptation): sample a relaxed
allocation row, compose the per-task network, minimise the task likelihood
loss (squared error for regression, logistic for classification) plus the
optional allocation prior on the base tasks, and take one two-speed Adam
step. Training draws its whole schedule up front: every step's task
(uniform) and then every step's batch rows, one block each, and logs
each step into columns (`History`).

Evaluation (`evaluate`) is one forward over many tasks' stacked splits, so
each dev evaluation, the training tasks' final metrics and an adaptation
stack's metrics before and after are one call each.

Adaptation runs every (held-out task, resample) pair side by side as one
replica of a stack: the trained model is copied with a leading replica
axis on its skill parameters (`TaskModel.replicate`), each replica's new
task is registered on the copy (one more allocation row, or an
embedding for the hypernet), and every step records one tape for all
replicas and takes one elementwise Adam step. The loss is the sum of the
replicas' mean losses, so each replica's gradient is its own, and each
replica keeps its own rng stream and draw order, so it ends bit for bit
where an adaptation on its own would. Everything is driven by a single
seed through separate derived rng streams, so runs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import expit

from .autodiff import Tensor, add, apply_op, backward, no_grad, reset_tape, tensor, zeros
from .config import ExperimentConfig
from .errors import ContractError, ShapeError, TrainingDivergedError
from .model import AllocationState, HypernetModel, SkillModel
from .optim import build_two_speed_groups
from .priors import ibp_regularizer
from .skills import DenseLayer, LayerShape, LowRankLayer
from .synthetic import STREAM_ADAPT, STREAM_TRAIN, SyntheticWorld, TaskSpec

STREAM_INIT = 3
LOSS_THRESHOLD_FRAC = 0.5  # `steps_to_threshold` counts the steps to halve the initial dev loss


@dataclass
class History:
    """Training's per-step log as columns; entry i is step i.

    `task` is the schedule: step i trained on `TrainedModel.tasks[task[i]]`.
    `loss`, `reg_loss` and `tau` are float64: the step's task loss, its
    prior term (0.0 without one) and its temperature.
    """

    task: np.ndarray
    loss: np.ndarray
    reg_loss: np.ndarray
    tau: np.ndarray


@dataclass
class EvalRecord:
    step: int
    dev_loss: float


@dataclass
class TrainedModel:
    model: object
    history: History
    evals: list[EvalRecord]
    config: ExperimentConfig
    tasks: list[TaskSpec] = field(repr=False)

    @property
    def kind(self) -> str:
        """The config's model kind, read-only."""
        return self.config.model_kind


def task_loss(pred: Tensor, targets: np.ndarray, kind: str) -> Tensor:
    """Negative log-likelihood up to constants, as one tape node: MSE or logistic loss.

    A stack of replicas' predictions [..., n, 1] gives the sum of the
    replicas' mean losses, so each replica's gradient is its own loss's.
    """
    if kind not in ("regression", "classification"):
        raise ContractError(f"unknown task kind '{kind}'")
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != pred.shape:
        raise ShapeError(f"targets shape {y.shape} != predictions shape {pred.shape}")
    count = y.shape[-2] * y.shape[-1]
    if kind == "regression":
        err = pred.data - y
        return apply_op((pred,), (err * err).mean(axis=(-2, -1)).sum(), lambda g: (2.0 * g / count * err,))

    margin = -(y * pred.data)
    softplus = np.maximum(margin, 0.0) + np.log1p(np.exp(-np.abs(margin)))
    return apply_op((pred,), softplus.mean(axis=(-2, -1)).sum(), lambda g: (-g / count * expit(margin) * y,))


def _split(task: TaskSpec, split: str) -> tuple[np.ndarray, np.ndarray]:
    x = getattr(task, f"x_{split}")
    if x.shape[0] == 0:
        raise ContractError(f"task '{task.id}' has an empty {split} split")
    return x, getattr(task, f"y_{split}")


def _metrics(pred: np.ndarray, y: np.ndarray, kind: str) -> dict:
    metrics = {"loss": task_loss(tensor(pred), y, kind).item()}
    if kind == "regression":
        metrics["mse"] = float(np.mean((pred - y) ** 2))
    else:
        signs = np.where(pred >= 0.0, 1.0, -1.0)
        metrics["accuracy"] = float(np.mean(signs == y))
    return metrics


def evaluate(model, task, tasks: list[TaskSpec], split: str = "eval") -> list[dict]:
    """Deterministic metrics on a split, one dict per spec, from one forward on the expected allocation path.

    The specs' splits, which must share a size, are stacked into one input
    [len(tasks), n, in]. `task` is an int array of base tasks, tasks[i]
    being task[i]'s spec, or a new task's index on a replicated model,
    whose replica r evaluates tasks[r]. Each dict equals what a forward on
    its task alone gives.
    """
    splits = [_split(spec, split) for spec in tasks]
    with no_grad():
        pred, _ = model.forward(task, tensor(np.stack([x for x, _ in splits])), train=False)
    return [_metrics(p, y, spec.kind) for p, (_, y), spec in zip(pred.data, splits, tasks)]


def _mean_dev_loss(model, tasks: list[TaskSpec]) -> float:
    losses = [m["loss"] for m in evaluate(model, np.arange(len(tasks)), tasks, "dev")]
    return float(np.mean(losses))


def _anneal_tau(config: ExperimentConfig, step: int) -> float:
    if config.tau_final is None or config.steps <= 1:
        return config.tau
    frac = step / (config.steps - 1)
    return config.tau + (config.tau_final - config.tau) * frac


def build_model_from_config(config: ExperimentConfig, tasks: list[TaskSpec], world: SyntheticWorld):
    """The model `config` describes over `tasks`: two linear layers, input -> hidden_dim -> 1.

    The only model constructor; every setting comes from the config, which
    has already checked it. The hypernet kind gets `embedding_dim`-wide task
    embeddings and adapters of at most `rank`. Every other kind composes
    skills over an allocation: the kind's fixed 0/1 matrix
    (`resolve_fixed_allocation`), whose column count is the inventory size,
    or, for the skilled kind without one, learnable logits over
    `num_skills`, one matrix per layer or one for all (`allocation_mode`),
    stacked [M, T, S] and all zero, so every cell starts at probability 0.5.
    The layers hold dense, sparse (`sparsity`) or low-rank (`rank`) skills.
    The allocation keeps `tau`, not `tau_final`: expected-path evaluation,
    `summary.json`'s `allocation_metrics` and a new task's adaptation draws
    all run at `tau`; only training draws anneal to `tau_final` (`_anneal_tau`).

    The construction rng `[seed, STREAM_INIT]` is drawn by the hypernet's
    embeddings and then by each layer in order. The skill inventories depend
    only on their dimensions, so two kinds with the same inventory (e.g.
    private and a frozen-identity skilled model) start bit-identical.
    """
    rng = np.random.default_rng([config.seed, STREAM_INIT])
    hidden = config.hidden_dim
    shapes = [LayerShape(tasks[0].input_dim, hidden), LayerShape(hidden, 1)]
    if config.model_kind == "hypernet":
        return HypernetModel(len(tasks), config.embedding_dim, shapes, config.rank, rng)
    fixed = resolve_fixed_allocation(config, tasks, world)
    if fixed is None:
        num_skills = config.num_skills
        count = len(shapes) if config.allocation_mode == "per_layer" else 1
        matrices = zeros((count, len(tasks), num_skills), requires_grad=True)
    elif fixed.shape[0] != len(tasks):
        raise ShapeError("fixed allocation shape disagrees with the task count")
    else:
        matrices, num_skills = fixed[None], fixed.shape[1]
    if config.parameterisation == "lowrank":
        layers = [LowRankLayer(shape, num_skills, config.rank, rng) for shape in shapes]
    else:
        sparsity = config.sparsity if config.parameterisation == "sparse" else None
        layers = [DenseLayer(shape, num_skills, rng, sparsity) for shape in shapes]
    return SkillModel(layers, AllocationState(matrices, config.tau))


def resolve_fixed_allocation(config: ExperimentConfig, tasks: list[TaskSpec], world: SyntheticWorld) -> np.ndarray | None:
    """The kind's fixed 0/1 allocation over `tasks`; None when the allocation is learned.

    Private is the identity and shared a single ones column. A frozen
    skilled model takes `freeze_allocation` ("identity" or a 0/1 matrix),
    expert takes `expert_table` (the planted rows or a 0/1 matrix); a
    matrix has one row per training task, in task order.
    """
    n, kind = len(tasks), config.model_kind
    matrix = {"skilled": config.freeze_allocation, "expert": config.expert_table}.get(kind)
    if kind == "private" or matrix == "identity":
        return np.eye(n)
    if kind == "shared":
        return np.ones((n, 1))
    if matrix == "planted":
        matrix = world.true_z[:n]
    return None if matrix is None else np.asarray(matrix, dtype=np.float64)


def _step(model, optimizer, config: ExperimentConfig, task_index: int, kind: str, name: str, x, y, rng, tau, step: int):
    """One step on a batch of task `name`; returns (task loss, prior) values.

    A replicated model steps every replica at once: `x` and `y` carry the
    replica axis, `rng` is one generator per replica and the loss is the
    sum of the replicas' losses. Only a base task of a learnable allocation
    returns its relaxed stack of allocation matrices, and the prior scores
    every matrix of it in one node; a new task's step carries no prior.
    """
    reset_tape()
    pred, relaxed = model.forward(task_index, tensor(x), train=True, rng=rng, tau=tau)
    loss = task_loss(pred, y, kind)
    loss_value = loss.item()

    reg_value = 0.0
    total = loss
    if config.ibp_strength > 0.0 and relaxed:
        reg = ibp_regularizer(relaxed[0], config.ibp_alpha, config.ibp_strength)
        reg_value = reg.item()
        total = add(total, reg)

    if not math.isfinite(loss_value) or not math.isfinite(reg_value):
        raise TrainingDivergedError(step, name, {"loss": loss_value, "reg_loss": reg_value})

    backward(total)
    optimizer.step()
    optimizer.zero_grad()
    return loss_value, reg_value


def multitask_train(config: ExperimentConfig, tasks: list[TaskSpec], world: SyntheticWorld) -> TrainedModel:
    """Train the config's model kind on the training tasks; deterministic per seed.

    The generator `[seed, STREAM_TRAIN]` draws, in this order: the task of
    every step (`integers(T, size=steps)`), every step's batch rows in one
    [steps, batch_size] block, each row within its task's training split,
    and then, per step, the learnable allocation's Gumbel noise. The batch
    block is kept in the narrowest integer type that holds the largest
    split's row index, and the step log (`History`) as columns.
    """
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
    schedule = rng.integers(len(train_tasks), size=config.steps)
    sizes = np.array([t.x_train.shape[0] for t in train_tasks])
    batches = rng.integers(0, sizes[schedule][:, None], size=(config.steps, config.batch_size))
    # Narrowed once drawn: the block lives through every step, and an int64 draw keeps the rng stream.
    batches = batches.astype(np.min_scalar_type(sizes.max() - 1))
    history = History(schedule, *(np.empty(config.steps) for _ in range(3)))
    evals: list[EvalRecord] = [EvalRecord(0, _mean_dev_loss(model, train_tasks))]
    best_loss, best_snap = evals[0].dev_loss, None
    # A sparse skill-composed model freezes its masks once; the hypernet has none.
    masked = config.parameterisation == "sparse" and config.model_kind != "hypernet"

    for step, (task_index, batch) in enumerate(zip(schedule.tolist(), batches)):
        task = train_tasks[task_index]
        tau = _anneal_tau(config, step)
        loss_value, reg_value = _step(
            model, optimizer, config, task_index, task.kind, task.id,
            task.x_train[batch], task.y_train[batch], rng, tau, step,
        )
        history.loss[step], history.reg_loss[step], history.tau[step] = loss_value, reg_value, tau

        if masked and step + 1 == config.warmup_mask_steps:
            model.freeze_sparse_masks()
            # Stale moments would keep nudging newly masked-out entries.
            optimizer.reset_state()

        if (step + 1) % config.eval_every == 0 or step + 1 == config.steps:
            dev_loss = _mean_dev_loss(model, train_tasks)
            evals.append(EvalRecord(step + 1, dev_loss))
            if dev_loss < best_loss:
                best_loss = dev_loss
                best_snap = model.snapshot()

    if best_snap is not None:
        model.restore(best_snap)

    return TrainedModel(
        model=model,
        history=history,
        evals=evals,
        config=config,
        tasks=train_tasks,
    )


def steps_to_threshold(trained: TrainedModel) -> int:
    """First evaluated step whose dev loss is <= LOSS_THRESHOLD_FRAC * initial dev loss.

    Returns config.steps + 1 when the threshold is never reached, so the
    value stays comparable across model kinds.
    """
    threshold = trained.evals[0].dev_loss * LOSS_THRESHOLD_FRAC
    for record in trained.evals[1:]:
        if record.dev_loss <= threshold:
            return record.step
    return trained.config.steps + 1


# ---------------------------------------------------------------------------
# few-shot adaptation


@dataclass
class AdaptationResult:
    """Adaptations run side by side, one replica per (task, resample), in `few_shot_adapt`'s order.

    `model` is the trained model's replicated copy with the new task
    registered at `task_index`: replica r's skills and new-task parameters
    are slice r of their stacked arrays.
    """

    model: object
    task_index: int
    task_ids: list[str]
    metrics_before: list[dict]
    metrics_after: list[dict]


def _register_new_task(model, config: ExperimentConfig, tasks: list[TaskSpec], rngs: list) -> int:
    """A new allocation row for every skill-composed kind; an embedding for the hypernet; one per replica.

    Replica r adapts tasks[r] and draws from rngs[r]. The skilled kind
    learns its row, unless the inventory has one skill: that row normalises
    to [1.0] whatever its logits, so it is fixed. The others get a fixed
    row too: ones for shared, the planted skills for expert, and for
    private a one-hot row on a new skill added to every layer.
    """
    kind = config.model_kind
    if kind == "hypernet":
        return model.add_task_embedding(len(tasks))
    alloc = model.task_rows
    if kind == "skilled" and alloc.num_skills > 1:
        return alloc.add_task(np.zeros((len(tasks), alloc.num_skills)), learnable=True)
    if kind == "private":
        model.add_skill(rngs)
        active = [[alloc.num_skills - 1]] * len(tasks)
    elif kind in ("shared", "skilled"):
        active = [[0]] * len(tasks)
    else:  # expert
        if any(task.planted_skills is None for task in tasks):
            raise ContractError("expert adaptation needs the task's planted skills")
        active = [list(task.planted_skills) for task in tasks]
    bits = np.zeros((len(tasks), alloc.num_skills))
    for row, skills in zip(bits, active):
        row[skills] = 1.0
    return alloc.add_task(bits, learnable=False)


def _adaptation_phases(model, config: ExperimentConfig):
    """(num_steps, fast, slow) triples: the new task's own parameters alone, then with the skills.

    The steps sum to `adaptation_steps`. `fast` trains at `lr_z` and
    `slow` at `lr_phi`. The head follows `adapt_mode` (`z_only`: every
    step, `full`: none, `z_then_full`: `adapt_z_only_steps`). A new task
    with a fixed row has no parameters of its own, so it adapts the skills
    for every step.
    """
    steps = config.adaptation_steps
    new, skills = model.new_task_parameters(), model.phi_parameters()
    head = 0
    if new:
        head = {"z_only": steps, "full": 0}.get(config.adapt_mode, min(config.adapt_z_only_steps, steps))
    phases = []
    if head:
        phases.append((head, new, []))
    if steps > head:
        phases.append((steps - head, new, skills))
    return phases


def few_shot_adapt(
    trained: TrainedModel,
    tasks: list[TaskSpec],
    ordinals: Sequence[int] | None = None,
    resamples: Sequence[int] = (0,),
) -> AdaptationResult:
    """Adapt a trained model to unseen tasks from `k_shot` labelled examples, every (task, resample) at once.

    One replica per task and resample, task-major. The trained model is
    replicated (`TaskModel.replicate`) and the new task registered on the
    copy: a learnable allocation row, a fixed row, a new skill with a
    one-hot row, or an embedding, depending on the kind. Only the scheduled
    parameter groups are trained, for the config's `adaptation_steps`. A
    resample is an independent k-shot subset of the task's training pool;
    `ordinals` (default 0, 1, ...) are the tasks' positions among the
    held-out tasks.

    Replica (task, resample) draws from its own rng stream `[seed,
    STREAM_ADAPT, ordinal, resample]`, in the order an adaptation on its own
    would: the private kind's new skill, the k-shot pool, every step's
    batch in one [adaptation_steps, batch] block, then per step one Gumbel
    draw of its learnable block, layer 0's row before layer 1's. Each step
    records one tape whose loss sums the replicas' losses and takes one
    elementwise Adam step, so every replica ends bit for bit where it
    would alone. The tasks must share a task kind and a training split
    size.
    """
    config = trained.config
    ordinals = range(len(tasks)) if ordinals is None else ordinals
    training_ids = {task.id for task in trained.tasks}
    for task in tasks:
        if task.id in training_ids:
            raise ContractError(f"task id '{task.id}' collides with a training task")
    if len(ordinals) != len(tasks) or len({(t.kind, t.x_train.shape[0]) for t in tasks}) != 1:
        raise ContractError("adapt one or more tasks of one kind and training split size, one ordinal each")

    stack = [task for task in tasks for _ in resamples]
    rngs = [np.random.default_rng([config.seed, STREAM_ADAPT, o, r]) for o in ordinals for r in resamples]
    model = trained.model.replicate(len(stack))
    task_index = _register_new_task(model, config, stack, rngs)
    before = evaluate(model, task_index, stack)
    result = AdaptationResult(model, task_index, [t.id for t in stack], before, [dict(m) for m in before])
    if config.adaptation_steps == 0 or config.k_shot == 0:
        return result

    train_size = tasks[0].x_train.shape[0]
    pools = [rng.choice(train_size, size=min(config.k_shot, train_size), replace=False) for rng in rngs]
    x_pool = np.stack([t.x_train[pool] for t, pool in zip(stack, pools)])
    y_pool = np.stack([t.y_train[pool] for t, pool in zip(stack, pools)])
    pool_size = x_pool.shape[1]
    batch_size = min(config.adaptation_batch_size, pool_size)
    # The block lives through every step, so it takes the narrowest type that holds a pool
    # index: uint8, as pool_size <= k_shot <= MAX_FEW_SHOT = 32.
    batches = np.empty((config.adaptation_steps, len(stack), batch_size), dtype=np.min_scalar_type(pool_size - 1))
    for r, rng in enumerate(rngs):
        batches[:, r] = rng.integers(pool_size, size=(config.adaptation_steps, batch_size))
    replica = np.arange(len(stack))[:, None]
    kind, name = tasks[0].kind, ",".join(t.id for t in tasks)

    step = 0
    for phase_steps, fast, slow in _adaptation_phases(model, config):
        # Built as its phase starts: building packs the parameters into the
        # optimiser's buffers, so it must see the previous phase's updates.
        optimizer = build_two_speed_groups(fast, slow, config.lr_z, config.lr_phi)
        # Only the phase's own parameters take gradients: any other would keep
        # one that a later phase's first step would apply.
        trained_ids = {id(p) for p in optimizer.parameters}
        for p in model.named_parameters().values():
            p.requires_grad = id(p) in trained_ids
        for batch in batches[step : step + phase_steps]:
            _step(model, optimizer, config, task_index, kind, name,
                  x_pool[replica, batch], y_pool[replica, batch], rngs, None, step)
            step += 1
    # Free the last phase's Adam moments first: the evaluation's stacked
    # activations on top of them would set the run's peak memory.
    del optimizer
    result.metrics_after = evaluate(model, task_index, stack)
    return result
