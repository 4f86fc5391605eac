"""Fixed-allocation baselines and the task-conditioned hypernetwork.

Private, shared and expert models are special cases of skill composition:
the allocation matrix is fixed a priori instead of learned. The
hypernetwork baseline drops the discrete allocation entirely and generates
per-task low-rank adapters from a learned task embedding through two
two-layer generators (one for each adapter factor).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .allocation import BinaryAllocation
from .autodiff import (
    SeedLike,
    Tensor,
    as_rng,
    kaiming_uniform,
    matmul,
    relu,
    reshape,
    take_row,
    zeros,
)
from .errors import ContractError, ShapeError, TaskLookupError


@dataclass
class FixedAllocation:
    """A non-learnable binary allocation with its construction kind."""

    kind: str  # private | shared | expert
    matrix: BinaryAllocation

    @property
    def num_tasks(self) -> int:
        return self.matrix.b.shape[0]

    @property
    def num_skills(self) -> int:
        return self.matrix.b.shape[1]


def allocation_private(num_tasks: int) -> FixedAllocation:
    """Identity allocation: one exclusive skill per task, no transfer."""
    if num_tasks < 1:
        raise ShapeError("need at least one task")
    return FixedAllocation("private", BinaryAllocation(np.eye(num_tasks, dtype=np.int64)))


def allocation_shared(num_tasks: int) -> FixedAllocation:
    """Single always-on skill shared by every task."""
    if num_tasks < 1:
        raise ShapeError("need at least one task")
    return FixedAllocation("shared", BinaryAllocation(np.ones((num_tasks, 1), dtype=np.int64)))


def allocation_expert(table: dict[str, list[int]], num_skills: int, task_order: list[str]) -> FixedAllocation:
    """Fixed a-priori allocation from a task -> skill-subset table."""
    matrix = np.zeros((len(task_order), num_skills), dtype=np.int64)
    for row, name in enumerate(task_order):
        if name not in table:
            raise ContractError(f"expert table has no entry for task '{name}'")
        subset = table[name]
        if len(subset) == 0:
            raise ContractError(f"task '{name}' maps to an empty skill set")
        for skill in subset:
            if not 0 <= int(skill) < num_skills:
                raise ContractError(f"task '{name}' references skill {skill} outside [0, {num_skills})")
            matrix[row, int(skill)] = 1
    return FixedAllocation("expert", BinaryAllocation(matrix))


# ---------------------------------------------------------------------------
# hypernetwork


@dataclass
class HyperNet:
    """Per-projection generators producing a low-rank adapter pair per task.

    Each factor is generated as W2 @ relu(W1 @ embedding) and reshaped
    row-major. The A-side W2 starts at zero so generated adapters are
    initially a no-op. The generator hidden size equals the embedding size.
    """

    task_embeddings: Tensor  # [num_tasks, embed_dim]
    w1_a: Tensor  # [embed_dim, embed_dim]
    w2_a: Tensor  # [out_dim * rank, embed_dim], zero-initialised
    w1_b: Tensor  # [embed_dim, embed_dim]
    w2_b: Tensor  # [rank * in_dim, embed_dim]
    out_dim: int
    in_dim: int
    rank: int
    extra_embeddings: list[Tensor] = field(default_factory=list)

    @property
    def num_tasks(self) -> int:
        return self.task_embeddings.shape[0] + len(self.extra_embeddings)

    @property
    def embed_dim(self) -> int:
        return self.task_embeddings.shape[1]

    def generator_parameters(self) -> list[Tensor]:
        return [self.w1_a, self.w2_a, self.w1_b, self.w2_b]

    def add_task_embedding(self, embedding: Tensor) -> int:
        if embedding.shape != (1, self.embed_dim):
            raise ShapeError(f"fresh embedding must have shape (1, {self.embed_dim})")
        self.extra_embeddings.append(embedding)
        return self.num_tasks - 1


def new_hypernet(
    num_tasks: int,
    embed_dim: int,
    out_dim: int,
    in_dim: int,
    rank: int,
    seed: SeedLike,
    shared_embeddings: Tensor | None = None,
) -> HyperNet:
    """Build generators for one projection; embeddings may be shared across layers."""
    rng = as_rng(seed)
    embeddings = (
        shared_embeddings
        if shared_embeddings is not None
        else kaiming_uniform((num_tasks, embed_dim), rng, requires_grad=True)
    )
    return HyperNet(
        task_embeddings=embeddings,
        w1_a=kaiming_uniform((embed_dim, embed_dim), rng, requires_grad=True),
        w2_a=zeros((out_dim * rank, embed_dim), requires_grad=True),
        w1_b=kaiming_uniform((embed_dim, embed_dim), rng, requires_grad=True),
        w2_b=kaiming_uniform((rank * in_dim, embed_dim), rng, requires_grad=True),
        out_dim=out_dim,
        in_dim=in_dim,
        rank=rank,
    )


def _embedding_column(hypernet: HyperNet, task_id: int) -> Tensor:
    base_count = hypernet.task_embeddings.shape[0]
    if 0 <= task_id < base_count:
        row = take_row(hypernet.task_embeddings, task_id)
    elif base_count <= task_id < hypernet.num_tasks:
        row = reshape(hypernet.extra_embeddings[task_id - base_count], (hypernet.embed_dim,))
    else:
        raise TaskLookupError(
            f"task {task_id} has no embedding; register a fresh one before adapting"
        )
    return reshape(row, (hypernet.embed_dim, 1))


def hypernet_generate(task_id: int, hypernet: HyperNet) -> tuple[Tensor, Tensor]:
    """Generate the (A, B) adapter pair for a task, differentiably."""
    column = _embedding_column(hypernet, task_id)
    hidden_a = relu(matmul(hypernet.w1_a, column))
    hidden_b = relu(matmul(hypernet.w1_b, column))
    a = reshape(matmul(hypernet.w2_a, hidden_a), (hypernet.out_dim, hypernet.rank))
    b = reshape(matmul(hypernet.w2_b, hidden_b), (hypernet.rank, hypernet.in_dim))
    return a, b


def param_count_hypernet(layers: int, hidden: int, embed_dim: int) -> int:
    """Parameters added by generators over `layers` blocks of 4 square projections.

    Counts generators producing rank-`embed_dim` adapters for [hidden, hidden]
    projections: per projection 2 * (embed_dim^2) + 2 * (hidden * embed_dim^2)
    collapses to (2 * hidden * embed_dim + 2 * embed_dim) * embed_dim.
    """
    if min(layers, hidden, embed_dim) < 1:
        raise ContractError("layers, hidden and embed_dim must be >= 1")
    return 4 * layers * (2 * hidden * embed_dim + 2 * embed_dim) * embed_dim
