"""Expert allocations and the task-conditioned hypernetwork generators.

Private, shared and expert models are special cases of skill composition:
the allocation matrix is fixed a priori instead of learned (identity, one
ones column, or an expert table; `trainer.resolve_fixed_allocation` picks
it). The hypernetwork baseline drops the discrete allocation entirely and
generates per-task low-rank adapters from a learned task embedding (owned
by `model.HypernetModel`) through two two-layer generators, one for each
adapter factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import SeedLike, Tensor, as_rng, kaiming_uniform, matmul, relu, reshape, zeros
from .errors import ContractError


def allocation_expert(table: dict[str, list[int]], num_skills: int, task_order: list[str]) -> np.ndarray:
    """Fixed a-priori 0/1 allocation [tasks, num_skills] from a task -> skill-subset table."""
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
    return matrix


# ---------------------------------------------------------------------------
# hypernetwork


@dataclass
class HyperNet:
    """Per-projection generators producing a low-rank adapter pair from an embedding.

    Each factor is generated as W2 @ relu(W1 @ embedding) and reshaped
    row-major. The A-side W2 starts at zero so generated adapters are
    initially a no-op. The generator hidden size equals the embedding size.
    """

    w1_a: Tensor  # [embed_dim, embed_dim]
    w2_a: Tensor  # [out_dim * rank, embed_dim], zero-initialised
    w1_b: Tensor  # [embed_dim, embed_dim]
    w2_b: Tensor  # [rank * in_dim, embed_dim]
    out_dim: int
    in_dim: int
    rank: int

    def generator_parameters(self) -> list[Tensor]:
        return [self.w1_a, self.w2_a, self.w1_b, self.w2_b]


def new_hypernet(embed_dim: int, out_dim: int, in_dim: int, rank: int, seed: SeedLike) -> HyperNet:
    """Build the generators for one projection."""
    rng = as_rng(seed)
    return HyperNet(
        w1_a=kaiming_uniform((embed_dim, embed_dim), rng, requires_grad=True),
        w2_a=zeros((out_dim * rank, embed_dim), requires_grad=True),
        w1_b=kaiming_uniform((embed_dim, embed_dim), rng, requires_grad=True),
        w2_b=kaiming_uniform((rank * in_dim, embed_dim), rng, requires_grad=True),
        out_dim=out_dim,
        in_dim=in_dim,
        rank=rank,
    )


def hypernet_generate(column: Tensor, hypernet: HyperNet) -> tuple[Tensor, Tensor]:
    """Generate the (A, B) adapter pair from an [embed_dim, 1] embedding column, differentiably.

    A stack of columns [..., embed_dim, 1], with generators stacked alike,
    gives a stack of pairs.
    """
    lead = column.shape[:-2]
    hidden_a = relu(matmul(hypernet.w1_a, column))
    hidden_b = relu(matmul(hypernet.w1_b, column))
    a = reshape(matmul(hypernet.w2_a, hidden_a), lead + (hypernet.out_dim, hypernet.rank))
    b = reshape(matmul(hypernet.w2_b, hidden_b), lead + (hypernet.rank, hypernet.in_dim))
    return a, b

