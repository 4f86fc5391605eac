"""Per-task networks assembled from composed layer parameters.

A model is a stack of linear layers whose parameters are produced, per task,
in one of two ways:

  * skill composition (skilled, private, shared, expert): the task's row of
    the allocation is normalised into simplex weights and mixed over a skill
    inventory on top of a shared base. One `AllocationState` covers every
    kind: its matrix is learnable logits for the skilled kind and a fixed
    0/1 array for a frozen skilled model and for the private, shared and
    expert baselines;
  * hypernetwork generation: low-rank adapters are generated from a task
    embedding and applied around the base map.

The layers are linear on purpose: the synthetic benchmark's targets are
linear, so a realisable world admits exactly zero loss while the two-layer
stack still exercises per-layer allocation.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import skills as sk
from .allocation import (
    AllocationLogits,
    expected_allocation,
    gumbel_sigmoid_sample,
    init_logits,
    normalize_rows,
)
from .autodiff import (
    Tensor,
    add,
    kaiming_uniform,
    matmul,
    narrow,
    reshape,
    take_row,
    tensor,
    transpose,
    zeros,
)
from .baselines import (
    FixedAllocation,
    HyperNet,
    allocation_private,
    allocation_shared,
    hypernet_generate,
    new_hypernet,
)
from .config import ALLOCATION_MODES, MODEL_KINDS
from .errors import ContractError, ShapeError, TaskLookupError


@dataclass(frozen=True)
class LayerShape:
    in_dim: int
    out_dim: int

    @property
    def flat_dim(self) -> int:
        return self.out_dim * self.in_dim + self.out_dim


def _affine(x: Tensor, theta: Tensor, shape: LayerShape) -> Tensor:
    """Unflatten theta into (weight, bias) and apply x @ W^T + b."""
    o, i = shape.out_dim, shape.in_dim
    weight = reshape(narrow(theta, 0, o * i), (o, i))
    bias = narrow(theta, o * i, o)
    return add(matmul(x, transpose(weight)), bias)


def _low_rank_affine(x: Tensor, w0: Tensor, a: Tensor, b: Tensor, b0: Tensor) -> Tensor:
    """x @ W0^T + (x @ B^T) @ A^T + b0: the base map plus one adapter pair."""
    y = matmul(x, transpose(w0))
    y = add(y, matmul(matmul(x, transpose(b)), transpose(a)))
    return add(y, b0)


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
        return _affine(x, sk.compose_dense(self.skills, w), self.shape)

    def forward_fresh(self, x: Tensor, fresh: list[Tensor]) -> Tensor:
        return _affine(x, add(self.skills.base, fresh[0]), self.shape)

    def new_fresh_skill(self, rng) -> list[Tensor]:
        # A fresh skill starts at zero so the composed map starts at the base.
        return [zeros((self.shape.flat_dim,), requires_grad=True)]

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
        return sk.lora_forward(x, self.skills, w)

    def forward_fresh(self, x: Tensor, fresh: list[Tensor]) -> Tensor:
        a, b = fresh
        return _low_rank_affine(x, self.skills.W0, a, b, self.skills.b0)

    def new_fresh_skill(self, rng) -> list[Tensor]:
        a = zeros((self.shape.out_dim, self.skills.rank), requires_grad=True)
        b = kaiming_uniform((self.skills.rank, self.shape.in_dim), rng, requires_grad=True)
        return [a, b]

    def phi_parameters(self) -> list[Tensor]:
        return [self.skills.A, self.skills.B]

    def base_parameters(self) -> list[Tensor]:
        return [self.skills.W0, self.skills.b0]


class HypernetLayer:
    def __init__(self, shape: LayerShape, embeddings: Tensor, rank: int, rng):
        self.shape = shape
        rank = min(rank, shape.in_dim, shape.out_dim)
        self.hypernet: HyperNet = new_hypernet(
            embeddings.shape[0],
            embeddings.shape[1],
            shape.out_dim,
            shape.in_dim,
            rank,
            rng,
            shared_embeddings=embeddings,
        )
        self.W0 = kaiming_uniform((shape.out_dim, shape.in_dim), rng, requires_grad=True)
        self.b0 = kaiming_uniform((shape.out_dim,), rng, requires_grad=True)

    def forward(self, x: Tensor, task: int) -> Tensor:
        a, b = hypernet_generate(task, self.hypernet)
        return _low_rank_affine(x, self.W0, a, b, self.b0)

    def phi_parameters(self) -> list[Tensor]:
        return self.hypernet.generator_parameters()

    def base_parameters(self) -> list[Tensor]:
        return [self.W0, self.b0]


# ---------------------------------------------------------------------------
# allocation state


def _learnable(block) -> bool:
    return isinstance(block, AllocationLogits)


class AllocationState:
    """One allocation matrix per layer (`per_layer`) or one for all layers (`global`).

    Each matrix is learnable logits (`AllocationLogits`) or a fixed 0/1
    array. A new task appends one [1, S] row per matrix, learnable or fixed
    independently of the matrix, so a frozen skilled model adapts a learned
    row over its fixed inventory.
    """

    def __init__(self, matrices: list, num_layers: int, tau: float = 1.0):
        self.matrices = matrices
        self.num_layers = num_layers
        self.tau = float(tau)
        first = matrices[0].z.data if _learnable(matrices[0]) else matrices[0]
        self.num_base_tasks, self.num_skills = first.shape
        self.extra_rows: list[list] = []  # per new task, one [1, S] row per matrix

    @property
    def num_tasks(self) -> int:
        return self.num_base_tasks + len(self.extra_rows)

    def _matrix_index(self, layer: int) -> int:
        return layer if len(self.matrices) > 1 else 0

    def add_task(self, bits=None) -> int:
        """A new task: learnable rows initialised at 0 when `bits` is None, else the fixed row."""
        if bits is None:
            rows = [
                AllocationLogits(zeros((1, self.num_skills), requires_grad=True))
                for _ in self.matrices
            ]
        else:
            row = np.asarray(bits, dtype=np.float64).reshape(1, -1)
            if row.shape[1] != self.num_skills:
                raise ShapeError(f"allocation row needs {self.num_skills} entries")
            if row.sum() < 1:
                raise ContractError("a task must activate at least one skill")
            rows = [row] * len(self.matrices)
        self.extra_rows.append(rows)
        return self.num_tasks - 1

    def new_task_parameters(self, task: int) -> list[Tensor]:
        return [row.z for row in self.extra_rows[task - self.num_base_tasks] if _learnable(row)]

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
            if not _learnable(block):
                row = block[index]
                per_matrix.append(tensor(row / row.sum()))
                continue
            relaxed = (
                gumbel_sigmoid_sample(block, tau, rng) if train else expected_allocation(block, tau)
            )
            if base_task:
                relaxed_mats.append(relaxed)
            per_matrix.append(take_row(normalize_rows(relaxed), index))
        weights = [per_matrix[self._matrix_index(layer)] for layer in range(self.num_layers)]
        return weights, relaxed_mats

    def eval_matrix(self, layer: int) -> np.ndarray:
        """Deterministic relaxed matrix for this layer, new-task rows included."""
        i = self._matrix_index(layer)
        blocks = [self.matrices[i]] + [rows[i] for rows in self.extra_rows]
        return np.concatenate(
            [expected_allocation(b, self.tau).z_hat.data if _learnable(b) else b for b in blocks],
            axis=0,
        )

    def logits(self, layer: int) -> np.ndarray | None:
        """The learnable base logits behind a layer; None for a fixed matrix."""
        block = self.matrices[self._matrix_index(layer)]
        return block.z.data if _learnable(block) else None

    def z_parameters(self) -> list[Tensor]:
        blocks = self.matrices + [row for rows in self.extra_rows for row in rows]
        return [block.z for block in blocks if _learnable(block)]


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

    def __init__(self, kind: str, layers: list, alloc: AllocationState):
        self.kind = kind
        self.layers = layers
        self.alloc = alloc
        self._fresh: dict[int, list[list[Tensor]]] = {}  # task -> per-layer fresh params

    @property
    def num_tasks(self) -> int:
        return self.alloc.num_tasks

    def forward(self, task: int, x: Tensor, train: bool = False, rng=None, tau: float | None = None):
        if not 0 <= task < self.num_tasks:
            raise TaskLookupError(f"unknown task index {task}")
        if task in self._fresh:
            h = x
            for layer, fresh in zip(self.layers, self._fresh[task]):
                h = layer.forward_fresh(h, fresh)
            return h, []
        rows, relaxed_mats = self.alloc.rows_for_step(task, train, rng, tau)
        h = x
        for layer, w in zip(self.layers, rows):
            h = layer.forward(h, w)
        return h, relaxed_mats

    def add_fresh_task(self, rng) -> int:
        """A new task with its own fresh skill per layer (the private kind's adaptation)."""
        index = self.alloc.add_task(np.ones(self.alloc.num_skills))  # row is unused
        self._fresh[index] = [layer.new_fresh_skill(rng) for layer in self.layers]
        return index

    def fresh_parameters(self, task: int) -> list[Tensor]:
        return [p for group in self._fresh[task] for p in group]

    def new_task_parameters(self, task: int) -> list[Tensor]:
        return self.alloc.new_task_parameters(task)

    def z_parameters(self) -> list[Tensor]:
        return self.alloc.z_parameters()

    def named_parameters(self) -> dict[str, Tensor]:
        named = {f"z.{i}": p for i, p in enumerate(self.z_parameters())}
        named.update(self._layer_parameters("phi"))
        for task, groups in self._fresh.items():
            for li, group in enumerate(groups):
                for j, p in enumerate(group):
                    named[f"fresh{task}.layer{li}.{j}"] = p
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
        self.kind = "hypernet"
        self.embeddings = kaiming_uniform((num_tasks, embed_dim), rng, requires_grad=True)
        self.layers = [HypernetLayer(shape, self.embeddings, rank, rng) for shape in shapes]
        self._num_base_tasks = num_tasks

    @property
    def num_tasks(self) -> int:
        return self.layers[0].hypernet.num_tasks

    def forward(self, task: int, x: Tensor, train: bool = False, rng=None, tau: float | None = None):
        if not 0 <= task < self.num_tasks:
            raise TaskLookupError(f"unknown task index {task}")
        h = x
        for layer in self.layers:
            h = layer.forward(h, task)
        return h, []

    def add_task_embedding(self) -> int:
        # Fresh tasks start from the mean trained embedding: a neutral point
        # that transfers and gives non-zero relu gradients.
        mean = self.embeddings.data.mean(axis=0, keepdims=True)
        fresh = tensor(mean.copy(), requires_grad=True)
        index = None
        for layer in self.layers:
            index = layer.hypernet.add_task_embedding(fresh)
        return index

    def new_task_parameters(self, task: int) -> list[Tensor]:
        return [self.layers[0].hypernet.extra_embeddings[task - self._num_base_tasks]]

    def z_parameters(self) -> list[Tensor]:
        return [self.embeddings] + self.layers[0].hypernet.extra_embeddings

    def named_parameters(self) -> dict[str, Tensor]:
        named = {"embeddings": self.embeddings}
        for i, p in enumerate(self.layers[0].hypernet.extra_embeddings):
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


def _fixed_matrix(kind: str, num_tasks: int, num_skills: int, frozen, expert) -> np.ndarray:
    if kind == "private":
        return allocation_private(num_tasks).matrix.b.astype(np.float64)
    if kind == "shared":
        return allocation_shared(num_tasks).matrix.b.astype(np.float64)
    if kind == "expert":
        if expert.num_tasks != num_tasks:
            raise ContractError("expert allocation row count disagrees with task count")
        return expert.matrix.b.astype(np.float64)
    frozen = np.asarray(frozen, dtype=np.float64)
    if frozen.shape != (num_tasks, num_skills):
        raise ShapeError("frozen allocation shape disagrees with tasks/skills")
    return frozen


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
    frozen_allocation: np.ndarray | None = None,
    embed_dim: int = 8,
    expert: FixedAllocation | None = None,
):
    """Construct a model of the requested kind with a fixed rng draw order.

    The skill inventories are created before any allocation state so that two
    kinds with the same inventory dimensions (e.g. private and a
    frozen-identity skilled model) consume the construction rng identically
    and start bit-identical.
    """
    if kind not in MODEL_KINDS:
        raise ContractError(f"unknown model kind '{kind}'; expected one of {MODEL_KINDS}")
    if kind == "hypernet":
        return HypernetModel(num_tasks, embed_dim, shapes, rank, rng)
    inventory = {"private": num_tasks, "shared": 1}.get(kind, num_skills)
    if kind == "expert":
        if expert is None:
            raise ContractError("expert kind requires a fixed expert allocation")
        inventory = expert.num_skills
    layers = [_make_store(shape, inventory, parameterisation, sparsity, rank, rng) for shape in shapes]

    if kind == "skilled" and frozen_allocation is None:
        if allocation_mode not in ALLOCATION_MODES:
            raise ContractError(f"unknown allocation mode '{allocation_mode}'")
        count = len(shapes) if allocation_mode == "per_layer" else 1
        matrices = [init_logits(num_tasks, inventory) for _ in range(count)]
    else:
        matrices = [_fixed_matrix(kind, num_tasks, inventory, frozen_allocation, expert)]
    return SkillModel(kind, layers, AllocationState(matrices, len(shapes), tau))
