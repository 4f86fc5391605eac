"""Skill parameter inventories and their composition into per-task parameters.

Two storage families are supported for the inventory:
  * dense rows, one flat parameter vector per skill; a sparse inventory is
    the same store with a 0/1 mask that, once frozen, limits each skill to
    the entries whose magnitude changed most during a dense warm-up phase;
  * low-rank adapter pairs (A, B) applied around a base linear map.

Composition is always `base + sum_j w_j * skill_j` with w a simplex weight
vector obtained from a normalised allocation row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    SeedLike,
    Tensor,
    add,
    as_rng,
    kaiming_uniform,
    matmul,
    mul,
    reshape,
    take_row,
    tensor,
    transpose,
    zeros,
)
from .errors import ContractError, ShapeError


@dataclass
class DenseSkills:
    phi: Tensor  # [num_skills, dim]
    base: Tensor  # [dim]
    sparsity: float | None = None  # target fraction of masked entries per row; None: never masked
    mask: np.ndarray | None = None  # 0/1 [num_skills, dim]; None until frozen

    def __post_init__(self):
        if self.phi.ndim != 2 or self.base.ndim != 1:
            raise ShapeError("dense skills need phi [S, d] and base [d]")
        if self.phi.shape[1] != self.base.shape[0]:
            raise ShapeError(f"phi dim {self.phi.shape[1]} != base dim {self.base.shape[0]}")
        if self.sparsity is not None and not 0.0 <= self.sparsity < 1.0:
            raise ContractError(f"sparsity must lie in [0, 1), got {self.sparsity}")

    @property
    def num_skills(self) -> int:
        return self.phi.shape[0]

    @property
    def dim(self) -> int:
        return self.phi.shape[1]

    @property
    def keep_per_skill(self) -> int:
        # At least one entry, so a narrow layer under high sparsity still has a skill.
        return max(1, int(round((1.0 - self.sparsity) * self.dim)))


@dataclass
class LowRankSkills:
    A: Tensor  # [num_skills, out_dim, rank], zero-initialised
    B: Tensor  # [num_skills, rank, in_dim]
    W0: Tensor  # [out_dim, in_dim]
    b0: Tensor  # [out_dim]

    def __post_init__(self):
        s, o, r = self.A.shape
        s2, r2, i = self.B.shape
        if s != s2 or r != r2:
            raise ShapeError("A and B disagree on skill count or rank")
        if self.W0.shape != (o, i) or self.b0.shape != (o,):
            raise ShapeError("base linear map does not match adapter dimensions")
        if r > min(o, i):
            raise ShapeError(f"rank {r} exceeds min(out={o}, in={i})")

    @property
    def num_skills(self) -> int:
        return self.A.shape[0]

    @property
    def out_dim(self) -> int:
        return self.A.shape[1]

    @property
    def in_dim(self) -> int:
        return self.B.shape[2]

    @property
    def rank(self) -> int:
        return self.A.shape[2]


def new_dense_skills(num_skills: int, dim: int, seed: SeedLike, sparsity: float | None = None) -> DenseSkills:
    rng = as_rng(seed)
    phi = kaiming_uniform((num_skills, dim), rng, requires_grad=True)
    base = kaiming_uniform((dim,), rng, requires_grad=True)
    return DenseSkills(phi, base, sparsity)


def new_lowrank_skills(num_skills: int, out_dim: int, in_dim: int, rank: int, seed: SeedLike) -> LowRankSkills:
    rng = as_rng(seed)
    # A starts at zero so the initial delta vanishes; B carries the scale.
    a = zeros((num_skills, out_dim, rank), requires_grad=True)
    b = kaiming_uniform((num_skills, rank, in_dim), rng, requires_grad=True)
    w0 = kaiming_uniform((out_dim, in_dim), rng, requires_grad=True)
    b0 = kaiming_uniform((out_dim,), rng, requires_grad=True)
    return LowRankSkills(a, b, w0, b0)


def _check_weights(num_skills: int, w: Tensor) -> None:
    if w.ndim != 1 or w.shape[0] != num_skills:
        raise ShapeError(f"weights must be a [{num_skills}] vector, got shape {w.shape}")


def compose_dense(skills: DenseSkills, w: Tensor) -> Tensor:
    """theta = base + sum_j w_j * phi_j, differentiable in all three.

    Once a mask is frozen, phi is restricted to it and masked entries get
    exactly zero gradient.
    """
    _check_weights(skills.num_skills, w)
    phi = skills.phi if skills.mask is None else mul(skills.phi, tensor(skills.mask))
    mixed = matmul(reshape(w, (1, skills.num_skills)), phi)
    return add(skills.base, reshape(mixed, (skills.dim,)))


def select_sparse_mask(phi_before: np.ndarray, phi_after: np.ndarray, k: int) -> np.ndarray:
    """Per-skill 0/1 mask keeping the k entries with the largest |change|.

    Ties break towards the lower index so the selection is deterministic.
    """
    before = np.asarray(phi_before, dtype=np.float64)
    after = np.asarray(phi_after, dtype=np.float64)
    if before.shape != after.shape or before.ndim != 2:
        raise ShapeError("before/after snapshots must be equal-shape 2-D arrays")
    dim = before.shape[1]
    if not 1 <= k <= dim:
        raise ContractError(f"k must lie in [1, {dim}], got {k}")
    delta = np.abs(after - before)
    # Stable argsort on -delta: equal deltas keep ascending index order.
    order = np.argsort(-delta, axis=1, kind="stable")
    mask = np.zeros_like(before)
    rows = np.arange(before.shape[0])[:, None]
    mask[rows, order[:, :k]] = 1.0
    return mask


def freeze_mask(skills: DenseSkills, phi_initial: np.ndarray) -> None:
    """Select and freeze the mask from the warm-up change |phi - phi_initial|."""
    skills.mask = select_sparse_mask(phi_initial, skills.phi.data, skills.keep_per_skill)


def lora_forward(x: Tensor, skills: LowRankSkills, w: Tensor) -> Tensor:
    """y = (W0 + sum_j w_j A_j B_j) x + b0 without materialising the delta.

    Accepts a single input vector [in] or a batch [n, in]; the factored path
    evaluates sum_j w_j * A_j (B_j x), which is mathematically identical to
    the materialised product whenever the shapes agree.
    """
    _check_weights(skills.num_skills, w)
    single = x.ndim == 1
    if single:
        if x.shape[0] != skills.in_dim:
            raise ShapeError(f"input dim {x.shape[0]} != expected {skills.in_dim}")
        x = reshape(x, (1, skills.in_dim))
    elif x.ndim != 2 or x.shape[1] != skills.in_dim:
        raise ShapeError(f"input shape {x.shape} incompatible with in_dim {skills.in_dim}")

    y = matmul(x, transpose(skills.W0))
    for j in range(skills.num_skills):
        hidden = matmul(x, transpose(take_row(skills.B, j)))
        contribution = matmul(hidden, transpose(take_row(skills.A, j)))
        y = add(y, mul(contribution, take_row(w, j)))
    y = add(y, skills.b0)
    return reshape(y, (skills.out_dim,)) if single else y


def param_count_lora(layers: int, hidden: int, rank: int, num_tasks: int, num_skills: int) -> int:
    """Parameters added by low-rank skills over `layers` blocks of 4 projections."""
    if min(layers, hidden, rank, num_skills) < 1 or num_tasks < 0:
        raise ContractError("layers, hidden, rank, num_skills must be >= 1 and num_tasks >= 0")
    return 4 * layers * (2 * hidden * rank + num_tasks) * num_skills
