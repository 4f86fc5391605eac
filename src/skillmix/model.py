"""Per-task networks assembled from composed layer parameters.

A model is a stack of linear layers whose parameters are produced, per task,
in one of two ways:

  * skill composition (skilled, private, shared, expert): the task's row of
    the allocation is normalised into simplex weights and mixed over a skill
    inventory on top of a shared base. One `AllocationState` covers every
    kind: its matrix is learnable logits for the skilled kind and a fixed
    0/1 array for a frozen skilled model and for the private, shared and
    expert baselines. A new task is one more allocation row; the private
    kind also adds one more skill to every layer and gives the task a
    one-hot row on it, so every kind adapts through the same forward path.
    A training step records two tape nodes per learnable matrix (the Gumbel
    draw and the task's normalised row) and one per layer (the fused
    `skills.mixed_affine` or `skills.mixed_lowrank`);
  * hypernetwork generation: low-rank adapters are generated from a task
    embedding and applied around the base map. The model owns the
    embeddings, new tasks' rows included; each layer owns its generators.

The layers are linear on purpose: the synthetic benchmark's targets are
linear, so a realisable world admits exactly zero loss while the two-layer
stack still exercises per-layer allocation.
"""

from __future__ import annotations

import copy

import numpy as np

from . import skills as sk
from .allocation import (
    expected_allocation,
    gumbel_sigmoid_sample,
    init_logits,
    normalize_rows,
)
from .autodiff import Tensor, add, kaiming_uniform, matmul, reshape, take_row, tensor, transpose, zeros
from .baselines import HyperNet, hypernet_generate, new_hypernet
from .config import ALLOCATION_MODES, MODEL_KINDS
from .errors import ContractError, ShapeError, TaskLookupError
from .skills import LayerShape


# ---------------------------------------------------------------------------
# layer stores


class DenseLayer:
    """Dense skill rows; given a sparsity, a mask restricts them once frozen."""

    def __init__(self, shape: LayerShape, num_skills: int, rng, sparsity: float | None = None):
        self.shape = shape
        self.skills = sk.new_dense_skills(num_skills, shape.flat_dim, rng, sparsity)
        self._phi_init = None if sparsity is None else self.skills.phi.data.copy()

    def freeze(self) -> None:
        """Select the mask from the change since initialisation (sparse stores only)."""
        if self._phi_init is not None:
            sk.freeze_mask(self.skills, self._phi_init)

    def forward(self, x: Tensor, w: Tensor) -> Tensor:
        return sk.mixed_affine(x, self.skills, w, self.shape)

    def add_skill(self, rng) -> None:
        """Append a zero skill row, so a task on it starts at the base map; a frozen mask keeps it dense."""
        s = self.skills
        s.phi.data = np.concatenate([s.phi.data, np.zeros((1, s.dim))])
        if s.mask is not None:
            s.mask = np.concatenate([s.mask, np.ones((1, s.dim))])

    def phi_parameters(self) -> list[Tensor]:
        return [self.skills.phi]

    def base_parameters(self) -> list[Tensor]:
        return [self.skills.base]


class LowRankLayer:
    def __init__(self, shape: LayerShape, num_skills: int, rank: int, rng):
        if rank > min(shape.in_dim, shape.out_dim):
            raise ShapeError(
                f"rank {rank} exceeds layer dims ({shape.out_dim}, {shape.in_dim})"
            )
        self.shape = shape
        self.skills = sk.new_lowrank_skills(num_skills, shape.out_dim, shape.in_dim, rank, rng)

    def forward(self, x: Tensor, w: Tensor) -> Tensor:
        return sk.mixed_lowrank(x, self.skills, w)

    def add_skill(self, rng) -> None:
        """Append an adapter pair with A = 0, so a task on it starts at the base map, and a kaiming B."""
        s = self.skills
        b = kaiming_uniform((s.rank, s.in_dim), rng)
        s.A.data = np.concatenate([s.A.data, np.zeros((1, s.out_dim, s.rank))])
        s.B.data = np.concatenate([s.B.data, b.data[None]])

    def phi_parameters(self) -> list[Tensor]:
        return [self.skills.A, self.skills.B]

    def base_parameters(self) -> list[Tensor]:
        return [self.skills.W0, self.skills.b0]


class HypernetLayer:
    def __init__(self, shape: LayerShape, embed_dim: int, rank: int, rng):
        self.shape = shape
        rank = min(rank, shape.in_dim, shape.out_dim)
        self.hypernet: HyperNet = new_hypernet(embed_dim, shape.out_dim, shape.in_dim, rank, rng)
        self.W0 = kaiming_uniform((shape.out_dim, shape.in_dim), rng, requires_grad=True)
        self.b0 = kaiming_uniform((shape.out_dim,), rng, requires_grad=True)

    def forward(self, x: Tensor, column: Tensor) -> Tensor:
        """x @ W0^T + (x @ B^T) @ A^T + b0, with (A, B) generated from the task's embedding column."""
        a, b = hypernet_generate(column, self.hypernet)
        y = matmul(x, transpose(self.W0))
        y = add(y, matmul(matmul(x, transpose(b)), transpose(a)))
        return add(y, self.b0)

    def phi_parameters(self) -> list[Tensor]:
        return self.hypernet.generator_parameters()

    def base_parameters(self) -> list[Tensor]:
        return [self.W0, self.b0]


# ---------------------------------------------------------------------------
# allocation state


class AllocationState:
    """One allocation matrix per layer (`per_layer`) or one for all layers (`global`).

    Each matrix is learnable logits (a `Tensor`) or a fixed 0/1 array. A
    new task appends one [1, S] row per matrix, learnable or fixed
    independently of the matrix, so a frozen skilled model adapts a learned
    row over its fixed inventory.
    """

    def __init__(self, matrices: list, num_layers: int, tau: float = 1.0):
        self.matrices = matrices
        self.num_layers = num_layers
        self.tau = float(tau)
        self.num_base_tasks, self.num_skills = matrices[0].shape
        self.extra_rows: list[list] = []  # per new task, one [1, S] row per matrix

    @property
    def num_tasks(self) -> int:
        return self.num_base_tasks + len(self.extra_rows)

    def _matrix_index(self, layer: int) -> int:
        return layer if len(self.matrices) > 1 else 0

    def add_task(self, bits=None) -> int:
        """A new task: learnable rows initialised at 0 when `bits` is None, else the fixed row."""
        if bits is None:
            rows = [zeros((1, self.num_skills), requires_grad=True) for _ in self.matrices]
        else:
            row = np.asarray(bits, dtype=np.float64).reshape(1, -1)
            if row.shape[1] != self.num_skills:
                raise ShapeError(f"allocation row needs {self.num_skills} entries")
            if row.sum() < 1:
                raise ContractError("a task must activate at least one skill")
            rows = [row] * len(self.matrices)
        self.extra_rows.append(rows)
        return self.num_tasks - 1

    def add_skill(self) -> None:
        """One more inventory column, zero in every existing row (fixed allocations only)."""
        self.matrices = [np.pad(m, ((0, 0), (0, 1))) for m in self.matrices]
        self.extra_rows = [[np.pad(row, ((0, 0), (0, 1))) for row in rows] for rows in self.extra_rows]
        self.num_skills += 1

    def new_task_parameters(self, task: int) -> list[Tensor]:
        return [row for row in self.extra_rows[task - self.num_base_tasks] if isinstance(row, Tensor)]

    def rows_for_step(self, task: int, train: bool, rng, tau: float | None = None):
        """Per-layer simplex weight rows plus the relaxed base matrices.

        Each learnable block gets one full Gumbel draw per call while
        training (the expected path otherwise); fixed blocks draw nothing.
        The relaxed matrices are returned for base tasks only: they feed the
        prior regulariser.
        """
        tau = self.tau if tau is None else tau
        base_task = task < self.num_base_tasks
        if base_task:
            blocks, index = self.matrices, task
        else:
            blocks, index = self.extra_rows[task - self.num_base_tasks], 0
        per_matrix, relaxed_mats = [], []
        for block in blocks:
            if not isinstance(block, Tensor):
                row = block[index]
                per_matrix.append(tensor(row / row.sum()))
                continue
            relaxed = (
                gumbel_sigmoid_sample(block, tau, rng) if train else expected_allocation(block, tau)
            )
            if base_task:
                relaxed_mats.append(relaxed)
            per_matrix.append(normalize_rows(relaxed, index))
        weights = [per_matrix[self._matrix_index(layer)] for layer in range(self.num_layers)]
        return weights, relaxed_mats

    def eval_matrix(self, layer: int) -> np.ndarray:
        """Deterministic relaxed matrix for this layer, new-task rows included."""
        i = self._matrix_index(layer)
        blocks = [self.matrices[i]] + [rows[i] for rows in self.extra_rows]
        return np.concatenate(
            [expected_allocation(b, self.tau).data if isinstance(b, Tensor) else b for b in blocks],
            axis=0,
        )

    def logits(self, layer: int) -> np.ndarray | None:
        """The learnable base logits behind a layer; None for a fixed matrix."""
        block = self.matrices[self._matrix_index(layer)]
        return block.data if isinstance(block, Tensor) else None

    def z_parameters(self) -> list[Tensor]:
        blocks = self.matrices + [row for rows in self.extra_rows for row in rows]
        return [block for block in blocks if isinstance(block, Tensor)]


# ---------------------------------------------------------------------------
# models


class TaskModel:
    """Bookkeeping shared by every kind, derived from `named_parameters`."""

    layers: list

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

    def clone(self):
        return copy.deepcopy(self)

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
        self.alloc = alloc

    @property
    def num_tasks(self) -> int:
        return self.alloc.num_tasks

    def forward(self, task: int, x: Tensor, train: bool = False, rng=None, tau: float | None = None):
        if not 0 <= task < self.num_tasks:
            raise TaskLookupError(f"unknown task index {task}")
        rows, relaxed_mats = self.alloc.rows_for_step(task, train, rng, tau)
        h = x
        for layer, w in zip(self.layers, rows):
            h = layer.forward(h, w)
        return h, relaxed_mats

    def add_skill(self, rng) -> None:
        """One more skill in every layer, unused by every existing task (the private kind's new task)."""
        for layer in self.layers:
            layer.add_skill(rng)
        self.alloc.add_skill()

    def new_task_parameters(self, task: int) -> list[Tensor]:
        return self.alloc.new_task_parameters(task)

    def z_parameters(self) -> list[Tensor]:
        return self.alloc.z_parameters()

    def named_parameters(self) -> dict[str, Tensor]:
        named = {f"z.{i}": p for i, p in enumerate(self.z_parameters())}
        named.update(self._layer_parameters("phi"))
        return named

    def allocation_eval_matrices(self) -> list[np.ndarray]:
        return [self.alloc.eval_matrix(layer) for layer in range(len(self.layers))]

    def freeze_sparse_masks(self) -> None:
        for layer in self.layers:
            if isinstance(layer, DenseLayer):
                layer.freeze()


class HypernetModel(TaskModel):
    """Task-embedding-conditioned generation of per-layer low-rank adapters."""

    def __init__(self, num_tasks: int, embed_dim: int, shapes: list[LayerShape], rank: int, rng):
        self.embeddings = kaiming_uniform((num_tasks, embed_dim), rng, requires_grad=True)
        self.extra_embeddings: list[Tensor] = []  # one [1, embed_dim] row per new task
        self.layers = [HypernetLayer(shape, embed_dim, rank, rng) for shape in shapes]

    @property
    def num_tasks(self) -> int:
        return self.embeddings.shape[0] + len(self.extra_embeddings)

    def forward(self, task: int, x: Tensor, train: bool = False, rng=None, tau: float | None = None):
        if not 0 <= task < self.num_tasks:
            raise TaskLookupError(f"unknown task index {task}")
        base_count, embed_dim = self.embeddings.shape
        h = x
        for layer in self.layers:
            # One column per layer: a column shared by the layers would sum
            # the embedding gradient in another order.
            if task < base_count:
                row = take_row(self.embeddings, task)
            else:
                row = self.extra_embeddings[task - base_count]
            h = layer.forward(h, reshape(row, (embed_dim, 1)))
        return h, []

    def add_task_embedding(self) -> int:
        # New tasks start from the mean trained embedding: a neutral point
        # that transfers and gives non-zero relu gradients.
        mean = self.embeddings.data.mean(axis=0, keepdims=True)
        self.extra_embeddings.append(tensor(mean.copy(), requires_grad=True))
        return self.num_tasks - 1

    def new_task_parameters(self, task: int) -> list[Tensor]:
        return [self.extra_embeddings[task - self.embeddings.shape[0]]]

    def z_parameters(self) -> list[Tensor]:
        return [self.embeddings] + self.extra_embeddings

    def named_parameters(self) -> dict[str, Tensor]:
        named = {"embeddings": self.embeddings}
        for i, p in enumerate(self.extra_embeddings):
            named[f"embeddings.extra.{i}"] = p
        named.update(self._layer_parameters("gen"))
        return named

    def allocation_eval_matrices(self) -> list[np.ndarray]:
        return []

    def freeze_sparse_masks(self) -> None:
        pass


# ---------------------------------------------------------------------------
# construction


def make_layer_shapes(input_dim: int, hidden_dim: int, output_dim: int = 1) -> list[LayerShape]:
    return [LayerShape(input_dim, hidden_dim), LayerShape(hidden_dim, output_dim)]


def _make_store(shape: LayerShape, num_skills: int, parameterisation: str, sparsity: float, rank: int, rng):
    if parameterisation == "dense":
        return DenseLayer(shape, num_skills, rng)
    if parameterisation == "sparse":
        return DenseLayer(shape, num_skills, rng, sparsity)
    if parameterisation == "lowrank":
        return LowRankLayer(shape, num_skills, min(rank, shape.in_dim, shape.out_dim), rng)
    raise ContractError(f"unknown parameterisation '{parameterisation}'")


def build_model(
    kind: str,
    num_tasks: int,
    num_skills: int,
    shapes: list[LayerShape],
    rng,
    parameterisation: str = "dense",
    sparsity: float = 0.9,
    rank: int = 4,
    tau: float = 1.0,
    allocation_mode: str = "per_layer",
    fixed: np.ndarray | None = None,
    embed_dim: int = 8,
):
    """Construct a model of the requested kind with a fixed rng draw order.

    `fixed` is the kind's fixed 0/1 allocation [num_tasks, inventory] (see
    `trainer.resolve_fixed_allocation`); its column count is the inventory
    size. Without it the skilled kind learns logits over `num_skills`.
    The skill inventories depend only on their dimensions, so two kinds with
    the same inventory (e.g. private and a frozen-identity skilled model)
    consume the construction rng identically and start bit-identical.
    """
    if kind not in MODEL_KINDS:
        raise ContractError(f"unknown model kind '{kind}'; expected one of {MODEL_KINDS}")
    if kind == "hypernet":
        return HypernetModel(num_tasks, embed_dim, shapes, rank, rng)
    if fixed is not None:
        fixed = np.asarray(fixed, dtype=np.float64)
        if fixed.ndim != 2 or fixed.shape[0] != num_tasks:
            raise ShapeError("fixed allocation shape disagrees with the task count")
        matrices, num_skills = [fixed], fixed.shape[1]
    elif kind != "skilled":
        raise ContractError(f"the {kind} kind needs a fixed allocation matrix")
    elif allocation_mode not in ALLOCATION_MODES:
        raise ContractError(f"unknown allocation mode '{allocation_mode}'")
    else:
        count = len(shapes) if allocation_mode == "per_layer" else 1
        matrices = [init_logits(num_tasks, num_skills) for _ in range(count)]
    layers = [_make_store(shape, num_skills, parameterisation, sparsity, rank, rng) for shape in shapes]
    return SkillModel(layers, AllocationState(matrices, len(shapes), tau))
