"""The hypernetwork layer, the task rows and the models built on them.

A model is a stack of linear layers whose parameters are produced, per task,
from that task's row in one `TaskRows` store. The store holds the base
tasks' rows [..., T, D] and at most one new task's block [R, ..., 1, D],
one row per replica (see below), and `TaskRows.select` is the only place
that decides which rows a forward reads. The rows are one of two things:

  * skill composition (skilled, private, shared, expert): the store is an
    `AllocationState` whose base is every layer's allocation matrix stacked
    [M, T, S], learnable logits for the skilled kind and a fixed 0/1 array
    for a frozen skilled model and for the private, shared and expert
    baselines. A task's rows are normalised into simplex weights and mixed
    over a skill inventory on top of a shared base. A new task is one more
    allocation row; the private kind also adds one more skill to every
    layer and gives the task a one-hot row on it, so every kind adapts
    through the same forward path. A training step records one Gumbel draw
    and one normalised-row node for the whole stack, and one node per layer
    (`skills.DenseLayer.forward` or `skills.LowRankLayer.forward`, which
    reads its own matrix's row);
  * hypernetwork generation: the store's base is the task embeddings
    [T, embed_dim]. Low-rank adapters are generated from the task's
    embedding and applied around the base map; each layer records one
    tape node (`HypernetLayer.forward`).

Each layer class owns its family's parameters, skills and shared base
map: the skill families `skills.DenseLayer` (dense or sparse rows) and
`skills.LowRankLayer` (adapter pairs), and here `HypernetLayer` (adapter
generators).

Few-shot adaptation runs on `TaskModel.replicate(R)`, a copy whose skill
parameters (the trainable ones besides a new task's own) carry a leading
axis of R independent replicas. Its new task's block has one row or
embedding per replica, the forward pass takes inputs [R, n, in] and every
op broadcasts the shared base parameters over the replicas. The trained
model itself keeps its shapes and is never written to.

Evaluation stacks base tasks on that leading axis instead: given an int
array of tasks and inputs [T, n, in], `select` returns the base rows as a
constant and the array as the index, so each task gets its own forward's
output bit for bit and no gradient flows through the gather.

The layers are linear on purpose: the synthetic benchmark's targets are
linear, so a realisable world admits exactly zero loss while the two-layer
stack still exercises per-layer allocation.

A model is built only by `trainer.build_model_from_config`, which reads
every setting from the config; the classes here take plain values.
"""

from __future__ import annotations

import copy

import numpy as np

from .allocation import expected_allocation, gumbel_sigmoid_sample, normalize_rows
from .autodiff import Tensor, apply_op, kaiming_uniform, matrix_t, tensor, unbroadcast, zeros
from .errors import ContractError, ShapeError, TaskLookupError
from .skills import DenseLayer, LayerShape


# ---------------------------------------------------------------------------
# hypernetwork layers


class HypernetLayer:
    """A base map W0, b0 plus a low-rank adapter (A, B) generated from the task's embedding.

    Each factor is W2 @ relu(W1 @ embedding) reshaped row-major, A [out, r]
    by `w1_a`, `w2_a` and B [r, in] by `w1_b`, `w2_b`, with r <= min(in, out)
    and hidden size = embedding size. `w2_a` starts at zero: a no-op adapter.
    """

    def __init__(self, shape: LayerShape, embed_dim: int, rank: int, rng):
        self.shape = shape
        self.rank = rank = min(rank, shape.in_dim, shape.out_dim)
        self.w1_a = kaiming_uniform((embed_dim, embed_dim), rng, requires_grad=True)
        self.w2_a = zeros((shape.out_dim * rank, embed_dim), requires_grad=True)
        self.w1_b = kaiming_uniform((embed_dim, embed_dim), rng, requires_grad=True)
        self.w2_b = kaiming_uniform((rank * shape.in_dim, embed_dim), rng, requires_grad=True)
        self.W0 = kaiming_uniform((shape.out_dim, shape.in_dim), rng, requires_grad=True)
        self.b0 = kaiming_uniform((shape.out_dim,), rng, requires_grad=True)

    def forward(self, x: Tensor, embedding: Tensor, index) -> Tensor:
        """x @ W0^T + (x @ B^T) @ A^T + b0, with (A, B) generated from the task's embedding; one tape node.

        `embedding` and `index` are what `TaskRows.select` returns: the
        column read is `embedding[..., index, :]`, one embedding, a new
        task's replicas' embeddings [R, embed_dim] or an index array's
        [T, embed_dim]. Leading axes of `x` and of the column stack
        replicas or tasks, with the generators stacked alike; W0 and b0 are
        shared.
        """
        if x.shape[-1] != self.shape.in_dim:
            raise ShapeError(f"input shape {x.shape} incompatible with in_dim {self.shape.in_dim}")
        e = embedding.data
        a, b, generated_vjp = hypernet_generate(e[..., index, :][..., None], self)
        xd, w0, b0 = x.data, self.W0, self.b0
        xb = xd @ matrix_t(b)
        out = xd @ matrix_t(w0.data) + xb @ matrix_t(a)
        out += b0.data
        generators = self.phi_parameters()
        need_x, need_e, need_w0, need_b0 = (t.requires_grad for t in (x, embedding, w0, b0))
        need_generated = need_e or any(p.requires_grad for p in generators)

        def vjp(g):
            g_xb = g @ a
            g_x = unbroadcast(g_xb @ b + g @ w0.data, x.shape) if need_x else None
            g_e, g_generators = None, (None,) * 4
            if need_generated:
                g_a = unbroadcast(matrix_t(g) @ xb, a.shape)
                g_b = unbroadcast(matrix_t(g_xb) @ xd, b.shape)
                g_column, g_generators = generated_vjp(g_a, g_b)
                g_e = np.zeros_like(e)
                g_e[..., index, :] = g_column[..., 0]
            return (
                g_x,
                g_e,
                *g_generators,
                unbroadcast(matrix_t(g) @ xd, w0.shape) if need_w0 else None,
                unbroadcast(g, b0.shape) if need_b0 else None,
            )

        return apply_op((x, embedding, *generators, w0, b0), out, vjp)

    def phi_parameters(self) -> list[Tensor]:
        return [self.w1_a, self.w2_a, self.w1_b, self.w2_b]

    def base_parameters(self) -> list[Tensor]:
        return [self.W0, self.b0]


def _generated_factor(w1: Tensor, w2: Tensor, column: np.ndarray, shape: tuple[int, ...]):
    """W2 @ relu(W1 @ column) reshaped to `shape`, and its VJP (column, W1, W2)."""
    pre = w1.data @ column
    gate = (pre > 0.0).astype(np.float64)
    hidden = pre * gate
    flat = w2.data @ hidden

    def vjp(g: np.ndarray):
        g_flat = g.reshape(flat.shape)
        g_w2 = unbroadcast(g_flat * matrix_t(hidden), w2.shape) if w2.requires_grad else None
        g_pre = unbroadcast(matrix_t(w2.data) @ g_flat, hidden.shape) * gate
        g_w1 = unbroadcast(g_pre * matrix_t(column), w1.shape) if w1.requires_grad else None
        return unbroadcast(matrix_t(w1.data) @ g_pre, column.shape), g_w1, g_w2

    return flat.reshape(shape), vjp


def hypernet_generate(column: np.ndarray, layer: HypernetLayer):
    """The (A, B) adapter pair a layer generates from an [embed_dim, 1] embedding column, and its VJP.

    Plain arrays, no tape node: `HypernetLayer.forward` records the whole
    layer as one node. `vjp(g_a, g_b)` returns the column's gradient and
    the generators' in `phi_parameters` order, None for a generator that
    needs none. A stack of columns [..., embed_dim, 1], with generators
    stacked alike, gives a stack of pairs.
    """
    lead = column.shape[:-2]
    o, i, r = layer.shape.out_dim, layer.shape.in_dim, layer.rank
    a, vjp_a = _generated_factor(layer.w1_a, layer.w2_a, column, lead + (o, r))
    b, vjp_b = _generated_factor(layer.w1_b, layer.w2_b, column, lead + (r, i))

    def vjp(g_a: np.ndarray, g_b: np.ndarray):
        g_col_a, g_w1_a, g_w2_a = vjp_a(g_a)
        g_col_b, g_w1_b, g_w2_b = vjp_b(g_b)
        return g_col_a + g_col_b, (g_w1_a, g_w2_a, g_w1_b, g_w2_b)

    return a, b, vjp


# ---------------------------------------------------------------------------
# task rows


class TaskRows:
    """The base tasks' rows [..., T, D] and at most one new task's block [R, ..., 1, D].

    Each block is learnable (a `Tensor`) or fixed (an array). A model
    adapts one new task at a time, on a replicated copy (see
    `TaskModel.replicate`), so a second `add` is a contract error.
    """

    def __init__(self, base: Tensor | np.ndarray):
        self.base = base
        self.num_base_tasks = base.shape[-2]
        self.new: Tensor | np.ndarray | None = None

    def add(self, block: Tensor | np.ndarray) -> int:
        """Register the new task's block; returns its task index, T."""
        if self.new is not None:
            raise ContractError("a model holds at most one new task")
        self.new = block
        return self.num_base_tasks

    def select(self, task, train: bool):
        """The (block, index) a forward reads for `task`: rows `block[..., index, :]`.

        `task` is one index, base or new, or an int array of base tasks,
        one per leading row of the input. An array gets the base as a
        constant, so no gradient flows through the gather, and may not
        train. A task outside the store raises `TaskLookupError`.
        """
        if isinstance(task, (int, np.integer)):
            if 0 <= task < self.num_base_tasks:
                return self.base, task
            if task == self.num_base_tasks and self.new is not None:
                return self.new, 0
            raise TaskLookupError(f"unknown task index {task}")
        if train:
            raise ContractError("a task index array is for evaluation only")
        task = np.asarray(task)
        if task.ndim != 1 or task.dtype.kind not in "iu" or not ((task >= 0) & (task < self.num_base_tasks)).all():
            raise TaskLookupError(f"task indices {task.tolist()} are not all base tasks below {self.num_base_tasks}")
        base = self.base
        return (tensor(base.data) if isinstance(base, Tensor) else base), task

    def parameters(self) -> list[Tensor]:
        return [block for block in (self.base, self.new) if isinstance(block, Tensor)]


class AllocationState(TaskRows):
    """Every layer's allocation matrix in one stack [M, T, S]: M = 2 (`per_layer`) or 1 (`global`).

    The stack is learnable logits (a `Tensor`) or, with M = 1, a fixed 0/1
    array. Layer l reads matrix l of a `per_layer` stack and matrix 0 of
    any other. A new task's block [R, M, 1, S] holds one row per matrix for
    each of the R replicas that adapt it side by side, learnable or fixed
    independently of the stack, so a frozen skilled model adapts a learned
    row over its fixed inventory.

    `tau` is the config's starting temperature. The expected path
    (evaluation and `eval_matrix`) and a new task's adaptation draws run at
    it; only training passes an annealed `tau` to `rows_for_step`.
    """

    def __init__(self, matrices: Tensor | np.ndarray, tau: float):
        super().__init__(matrices)
        self.tau = float(tau)
        self.num_matrices, _, self.num_skills = matrices.shape

    def matrix_index(self, layer: int) -> int:
        return layer if self.num_matrices > 1 else 0

    def add_task(self, rows, learnable: bool) -> int:
        """A new task from its [R, S] rows, one per replica: learnable logits starting at `rows`, or fixed 0/1 rows."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape[-1] != self.num_skills:
            raise ShapeError(f"allocation row needs {self.num_skills} entries")
        if not learnable and (rows.sum(axis=-1) < 1).any():
            raise ContractError("a task must activate at least one skill")
        block = np.repeat(rows[:, None, None, :], self.num_matrices, axis=1)
        return self.add(tensor(block, requires_grad=True) if learnable else block)

    def add_skill(self) -> None:
        """One more inventory column, zero in every base row (fixed allocations, before any new task)."""
        self.base = np.pad(self.base, ((0, 0), (0, 0), (0, 1)))
        self.num_skills += 1

    def rows_for_step(self, task, train: bool, rng, tau: float | None = None):
        """The task's simplex weight rows [..., M, S], one per matrix, plus what the prior scores.

        A learnable block gets one full Gumbel draw per call while training
        (the expected path otherwise), from each replica's own generator
        when `rng` is a list of them; a fixed one draws nothing. Either way
        one `normalize_rows` call gives the rows of all matrices. The second
        value is a list holding the relaxed base stack, for base tasks of a
        learnable allocation only: it feeds the prior regulariser. An int
        array of base tasks gives their rows [T, M, S], the tasks leading as
        replicas do.
        """
        block, index = self.select(task, train)
        relaxed = []
        if isinstance(block, Tensor):
            tau = self.tau if tau is None else tau
            drawn = gumbel_sigmoid_sample(block, tau, rng) if train else expected_allocation(block, tau)
            relaxed = [] if block is self.new else [drawn]
            block = drawn
        rows = normalize_rows(block, index)
        if isinstance(index, np.ndarray):
            rows = tensor(rows.data.swapaxes(0, 1))
        return rows, relaxed

    def eval_matrix(self, layer: int) -> np.ndarray:
        """The base tasks' deterministic relaxed matrix [T, S] for this layer; a new task's rows are not in it."""
        base = self.base
        return (expected_allocation(base, self.tau) if isinstance(base, Tensor) else base)[self.matrix_index(layer)]

    def logits(self, layer: int) -> np.ndarray | None:
        """The learnable base logits behind a layer; None for a fixed matrix."""
        if not isinstance(self.base, Tensor):
            return None
        return self.base.data[self.matrix_index(layer)]


# ---------------------------------------------------------------------------
# models


class TaskModel:
    """Bookkeeping shared by every kind, derived from its `TaskRows` and `named_parameters`."""

    layers: list
    task_rows: TaskRows

    def z_parameters(self) -> list[Tensor]:
        return self.task_rows.parameters()

    def new_task_parameters(self) -> list[Tensor]:
        new = self.task_rows.new
        return [new] if isinstance(new, Tensor) else []

    def phi_parameters(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.phi_parameters()]

    def base_parameters(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.base_parameters()]

    def _layer_parameters(self, phi_name: str) -> dict[str, Tensor]:
        named: dict[str, Tensor] = {}
        for i, layer in enumerate(self.layers):
            for j, p in enumerate(layer.phi_parameters()):
                named[f"layer{i}.{phi_name}.{j}"] = p
            for j, p in enumerate(layer.base_parameters()):
                named[f"layer{i}.base.{j}"] = p
        return named

    def param_count(self) -> int:
        return int(sum(p.size for p in self.named_parameters().values()))

    def replicate(self, replicas: int):
        """A copy on which `replicas` adaptations run side by side, one new task each.

        Every skill parameter (`phi_parameters`) gets a leading [replicas]
        axis of real copies, so replica r's skills are slice r and train
        apart from the others. The base parameters and the base tasks'
        allocation or embeddings, which adaptation never trains, stay
        unreplicated. The copy shares no array with this model.
        """
        model = copy.deepcopy(self)
        for p in model.phi_parameters():
            p.data = np.repeat(p.data[None], replicas, axis=0)
        return model

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters().items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        named = self.named_parameters()
        for name, data in snap.items():
            named[name].data[...] = data


class SkillModel(TaskModel):
    """Skill-composed network: skilled, private, shared and expert kinds."""

    def __init__(self, layers: list, alloc: AllocationState):
        self.layers = layers
        self.task_rows = alloc

    def forward(self, task, x: Tensor, train: bool = False, rng=None, tau: float | None = None):
        """The task's network on `x`, and the relaxed allocation stack the prior scores (see `TaskRows.select`)."""
        alloc = self.task_rows
        rows, relaxed = alloc.rows_for_step(task, train, rng, tau)
        h = x
        for i, layer in enumerate(self.layers):
            h = layer.forward(h, rows, alloc.matrix_index(i))
        return h, relaxed

    def add_skill(self, rngs) -> None:
        """One more skill in every layer and replica, unused by every base task (the private kind's new task)."""
        for layer in self.layers:
            layer.add_skill(rngs)
        self.task_rows.add_skill()

    def named_parameters(self) -> dict[str, Tensor]:
        named = {f"z.{i}": p for i, p in enumerate(self.z_parameters())}
        named.update(self._layer_parameters("phi"))
        return named

    def allocation_eval_matrices(self) -> list[np.ndarray]:
        return [self.task_rows.eval_matrix(layer) for layer in range(len(self.layers))]

    def freeze_sparse_masks(self) -> None:
        for layer in self.layers:
            if isinstance(layer, DenseLayer):
                layer.freeze()


class HypernetModel(TaskModel):
    """Task-embedding-conditioned generation of per-layer low-rank adapters."""

    def __init__(self, num_tasks: int, embed_dim: int, shapes: list[LayerShape], rank: int, rng):
        self.task_rows = TaskRows(kaiming_uniform((num_tasks, embed_dim), rng, requires_grad=True))
        self.layers = [HypernetLayer(shape, embed_dim, rank, rng) for shape in shapes]

    def forward(self, task, x: Tensor, train: bool = False, rng=None, tau: float | None = None):
        """The task's network on `x`, and an empty list: no prior applies (see `TaskRows.select`)."""
        embedding, index = self.task_rows.select(task, train)
        h = x
        for layer in self.layers:
            h = layer.forward(h, embedding, index)
        return h, []

    def add_task_embedding(self, replicas: int) -> int:
        # New tasks start from the mean trained embedding: a neutral point
        # that transfers and gives non-zero relu gradients.
        mean = self.task_rows.base.data.mean(axis=0, keepdims=True)
        return self.task_rows.add(tensor(np.repeat(mean[None], replicas, axis=0), requires_grad=True))

    def named_parameters(self) -> dict[str, Tensor]:
        named = {"embeddings": self.task_rows.base}
        if self.task_rows.new is not None:
            named["embeddings.extra.0"] = self.task_rows.new
        named.update(self._layer_parameters("gen"))
        return named

    def allocation_eval_matrices(self) -> list[np.ndarray]:
        return []
