"""Skill parameter inventories and their composition into per-task parameters.

Two storage families are supported for the inventory:
  * dense rows, one flat parameter vector per skill; a sparse inventory is
    the same store with a 0/1 mask that, once frozen, limits each skill to
    the entries whose magnitude changed most during a dense warm-up phase;
  * low-rank adapter pairs (A, B) applied around a base linear map.

Composition is always `base + sum_j w_j * skill_j` with w a simplex weight
vector obtained from a normalised allocation row. It is never a tape chain
of its own: each family has one fused op that mixes the skills and applies
the resulting linear layer as a single tape node with a hand-written VJP,
`mixed_affine` for dense rows (theta = base + w @ (phi * mask), unflattened
into the layer's weight and bias) and `mixed_lowrank` for adapter pairs
(W0 + sum_j w_j A_j B_j, evaluated batched over the skill axis without
materialising the delta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import SeedLike, Tensor, apply_op, as_rng, kaiming_uniform, zeros
from .errors import ContractError, ShapeError


@dataclass(frozen=True)
class LayerShape:
    in_dim: int
    out_dim: int

    @property
    def flat_dim(self) -> int:
        return self.out_dim * self.in_dim + self.out_dim


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


def _check_input(x: Tensor, in_dim: int) -> None:
    if x.ndim != 2 or x.shape[1] != in_dim:
        raise ShapeError(f"input shape {x.shape} incompatible with in_dim {in_dim}")


def mixed_affine(x: Tensor, skills: DenseSkills, w: Tensor, shape: LayerShape) -> Tensor:
    """x @ W^T + b, with (W, b) the flat theta = base + w @ (phi * mask) unflattened; one tape node.

    Differentiable in x, phi, base and w; once a mask is frozen, masked
    entries of phi get exactly zero gradient. The forward pass and the VJP
    replay, in the same order, the numpy operations of the unfused chain
    (mask, mix, slice, reshape, transpose, matmul, add), so values and
    gradients are bit-identical to it. Only inputs that require a gradient
    get one: the first layer's input is a constant.
    """
    _check_weights(skills.num_skills, w)
    _check_input(x, shape.in_dim)
    if skills.dim != shape.flat_dim:
        raise ShapeError(f"skill dim {skills.dim} != layer size {shape.flat_dim}")
    o, i = shape.out_dim, shape.in_dim
    phi, base, mask = skills.phi, skills.base, skills.mask
    phi_m = phi.data if mask is None else phi.data * mask
    w_row = w.data.reshape(1, -1)
    theta = base.data + (w_row @ phi_m).reshape(-1)
    weight_t = theta[: o * i].reshape(o, i).T.copy()
    xd = x.data
    need_x, need_phi, need_base, need_w = (t.requires_grad for t in (x, phi, base, w))

    def vjp(g):
        g_theta = np.concatenate([(xd.T @ g).T.reshape(-1), g.sum(axis=0)]).reshape(1, -1)
        g_phi = w_row.T @ g_theta if need_phi else None
        if need_phi and mask is not None:
            g_phi *= mask
        return (
            g @ weight_t.T if need_x else None,
            g_phi,
            g_theta.reshape(-1) if need_base else None,
            (g_theta @ phi_m.T).reshape(-1) if need_w else None,
        )

    return apply_op((x, phi, base, w), xd @ weight_t + theta[o * i :], vjp)


def mixed_lowrank(x: Tensor, skills: LowRankSkills, w: Tensor) -> Tensor:
    """x @ (W0 + sum_j w_j A_j B_j)^T + b0 without materialising the delta; one tape node.

    Evaluates H_j = B_j x^T and C_j = A_j H_j for every skill in one batched
    matmul each (no Python loop over the skills), then y = x W0^T + sum_j w_j C_j^T + b0. Equal to the
    materialised product up to rounding. Only inputs that require a
    gradient get one.
    """
    _check_weights(skills.num_skills, w)
    _check_input(x, skills.in_dim)
    a, b, w0 = skills.A.data, skills.B.data, skills.W0.data
    xd, wd = x.data, w.data
    hidden = b @ xd.T  # [S, r, n]
    mixed = (a @ hidden).reshape(len(wd), -1)  # [S, o * n]
    out = xd @ w0.T + (wd @ mixed).reshape(-1, len(xd)).T + skills.b0.data
    inputs = (x, skills.A, skills.B, skills.W0, skills.b0, w)
    need_x, need_a, need_b, need_w0, need_b0, need_w = (t.requires_grad for t in inputs)
    scale = wd[:, None, None]

    def vjp(g):
        g_t = g.T  # [o, n]
        g_hidden = scale * (a.transpose(0, 2, 1) @ g_t) if (need_x or need_b) else None
        g_x = None
        if need_x:
            s, r, n = g_hidden.shape
            g_x = g @ w0 + g_hidden.transpose(2, 0, 1).reshape(n, s * r) @ b.reshape(s * r, -1)
        return (
            g_x,
            scale * (g_t @ hidden.transpose(0, 2, 1)) if need_a else None,
            g_hidden @ xd if need_b else None,
            g_t @ xd if need_w0 else None,
            g.sum(axis=0) if need_b0 else None,
            mixed @ g_t.reshape(-1) if need_w else None,
        )

    return apply_op(inputs, out, vjp)


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

