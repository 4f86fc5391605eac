"""Skill parameter inventories and their composition into per-task parameters.

Two storage families are supported for the inventory:
  * dense rows, one flat parameter vector per skill; a sparse inventory is
    the same store with a 0/1 mask that, once frozen, limits each skill to
    the entries whose magnitude changed most during a dense warm-up phase
    (`model.DenseLayer` chooses and freezes it);
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

from .autodiff import Tensor, apply_op, kaiming_uniform, matrix_t, zeros
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
    mask: np.ndarray | None = None  # 0/1 [num_skills, dim]; None until frozen

    def __post_init__(self):
        if self.phi.ndim != 2 or self.base.ndim != 1:
            raise ShapeError("dense skills need phi [S, d] and base [d]")
        if self.phi.shape[1] != self.base.shape[0]:
            raise ShapeError(f"phi dim {self.phi.shape[1]} != base dim {self.base.shape[0]}")

    @property
    def num_skills(self) -> int:
        return self.phi.shape[-2]

    @property
    def dim(self) -> int:
        return self.phi.shape[-1]


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
        return self.A.shape[-3]

    @property
    def out_dim(self) -> int:
        return self.A.shape[-2]

    @property
    def in_dim(self) -> int:
        return self.B.shape[-1]

    @property
    def rank(self) -> int:
        return self.A.shape[-1]


def new_dense_skills(num_skills: int, dim: int, rng: np.random.Generator) -> DenseSkills:
    phi = kaiming_uniform((num_skills, dim), rng, requires_grad=True)
    base = kaiming_uniform((dim,), rng, requires_grad=True)
    return DenseSkills(phi, base)


def new_lowrank_skills(num_skills: int, out_dim: int, in_dim: int, rank: int, rng: np.random.Generator) -> LowRankSkills:
    # A starts at zero so the initial delta vanishes; B carries the scale.
    a = zeros((num_skills, out_dim, rank), requires_grad=True)
    b = kaiming_uniform((num_skills, rank, in_dim), rng, requires_grad=True)
    w0 = kaiming_uniform((out_dim, in_dim), rng, requires_grad=True)
    b0 = kaiming_uniform((out_dim,), rng, requires_grad=True)
    return LowRankSkills(a, b, w0, b0)


def _weight_rows(num_skills: int, w: Tensor, matrix: int | None):
    """The layer's weight rows [..., S] and a map from their gradient to `w`'s.

    `matrix` None: `w` holds the rows. Otherwise `w` [..., M, S] stacks one
    row per allocation matrix and the layer reads row `matrix`; its
    gradient is zero in the other matrices' rows.
    """
    if w.ndim < 1 or w.shape[-1] != num_skills:
        raise ShapeError(f"weights must be [..., {num_skills}] vectors, got shape {w.shape}")
    if matrix is None:
        return w.data, lambda g: g
    if w.ndim < 2 or not 0 <= matrix < w.shape[-2]:
        raise ShapeError(f"no matrix {matrix} in weight rows of shape {w.shape}")

    def stacked(g):
        full = np.zeros(w.shape)
        full[..., matrix, :] = g
        return full

    return w.data[..., matrix, :], stacked


def _check_input(x: Tensor, in_dim: int, lead: tuple) -> None:
    if x.ndim != len(lead) + 2 or x.shape[:-2] != lead or x.shape[-1] != in_dim:
        raise ShapeError(f"input shape {x.shape} incompatible with stack {lead} and in_dim {in_dim}")


def mixed_affine(x: Tensor, skills: DenseSkills, w: Tensor, shape: LayerShape, matrix: int | None = None) -> Tensor:
    """x @ W^T + b, with (W, b) the flat theta = base + w @ (phi * mask) unflattened; one tape node.

    Differentiable in x, phi, base and w; once a mask is frozen, masked
    entries of phi get exactly zero gradient. The forward pass and the VJP
    replay, in the same order, the numpy operations of the unfused chain
    (mask, mix, slice, reshape, transpose, matmul, add), so values and
    gradients are bit-identical to it. Only inputs that require a gradient
    get one: the first layer's input is a constant.

    Leading axes of `w` stack replicas: `w` [..., S] holds one weight row
    per replica, and `x` [..., n, in] and `phi` [..., S, d] carry the same
    leading axes, while `base` and the mask are shared (their gradient
    then has the leading axes too, so only stacked `phi` may train). A
    stacked numpy matmul runs the 2-D product per slice, so each replica's
    output and gradients equal the unstacked op's on its slice, bit for bit.

    Given `matrix`, `w` [..., M, S] holds the task's row of every
    allocation matrix and the layer mixes with row `matrix` (see
    `_weight_rows`).
    """
    wd, w_grad = _weight_rows(skills.num_skills, w, matrix)
    lead = wd.shape[:-1]
    _check_input(x, shape.in_dim, lead)
    if skills.dim != shape.flat_dim:
        raise ShapeError(f"skill dim {skills.dim} != layer size {shape.flat_dim}")
    o, i = shape.out_dim, shape.in_dim
    phi, base, mask = skills.phi, skills.base, skills.mask
    phi_m = phi.data if mask is None else phi.data * mask
    w_row = wd[..., None, :]
    theta = base.data + (w_row @ phi_m)[..., 0, :]
    weight_t = matrix_t(theta[..., : o * i].reshape(lead + (o, i))).copy()
    xd = x.data
    need_x, need_phi, need_base, need_w = (t.requires_grad for t in (x, phi, base, w))

    def vjp(g):
        g_weight = matrix_t(matrix_t(xd) @ g).reshape(lead + (-1,))
        g_theta = np.concatenate([g_weight, g.sum(axis=-2)], axis=-1)[..., None, :]
        g_phi = wd[..., :, None] * g_theta if need_phi else None
        if need_phi and mask is not None:
            g_phi *= mask
        return (
            g @ matrix_t(weight_t) if need_x else None,
            g_phi,
            g_theta[..., 0, :] if need_base else None,
            w_grad((g_theta @ matrix_t(phi_m))[..., 0, :]) if need_w else None,
        )

    out = xd @ weight_t
    out += theta[..., None, o * i :]
    return apply_op((x, phi, base, w), out, vjp)


def mixed_lowrank(x: Tensor, skills: LowRankSkills, w: Tensor, matrix: int | None = None) -> Tensor:
    """x @ (W0 + sum_j w_j A_j B_j)^T + b0 without materialising the delta; one tape node.

    Evaluates H_j = B_j x^T and C_j = A_j H_j for every skill in one batched
    matmul each (no Python loop over the skills), then y = x W0^T + sum_j w_j C_j^T + b0. Equal to the
    materialised product up to rounding. Only inputs that require a
    gradient get one. Leading axes stack replicas as in `mixed_affine`:
    `x`, `w`, `A` and `B` carry them, `W0` and `b0` are shared. `matrix`
    selects the row of stacked weight rows as in `mixed_affine`.
    """
    wd, w_grad = _weight_rows(skills.num_skills, w, matrix)
    lead = wd.shape[:-1]
    _check_input(x, skills.in_dim, lead)
    a, b, w0 = skills.A.data, skills.B.data, skills.W0.data
    xd = x.data
    n = xd.shape[-2]
    x_skills = xd[..., None, :, :]  # broadcast over the skill axis
    hidden = b @ matrix_t(x_skills)  # [..., S, r, n]
    mixed = (a @ hidden).reshape(lead + (wd.shape[-1], -1))  # [..., S, o * n]
    out = xd @ w0.T + matrix_t((wd[..., None, :] @ mixed).reshape(lead + (-1, n))) + skills.b0.data
    inputs = (x, skills.A, skills.B, skills.W0, skills.b0, w)
    need_x, need_a, need_b, need_w0, need_b0, need_w = (t.requires_grad for t in inputs)
    scale = wd[..., None, None]

    def vjp(g):
        g_t = matrix_t(g)  # [..., o, n]
        g_t_skills = g_t[..., None, :, :]
        g_hidden = scale * (matrix_t(a) @ g_t_skills) if (need_x or need_b) else None
        g_x = None
        if need_x:
            s, r = g_hidden.shape[-3:-1]
            g_x = g @ w0 + np.moveaxis(g_hidden, -1, -3).reshape(lead + (n, s * r)) @ b.reshape(lead + (s * r, -1))
        return (
            g_x,
            scale * (g_t_skills @ matrix_t(hidden)) if need_a else None,
            g_hidden @ x_skills if need_b else None,
            g_t @ xd if need_w0 else None,
            g.sum(axis=-2) if need_b0 else None,
            w_grad((mixed @ g_t.reshape(lead + (-1, 1)))[..., 0]) if need_w else None,
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
