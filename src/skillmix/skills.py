"""The skill families: one layer class each, whose `forward` is the family's fused op.

  * `DenseLayer`: dense rows, one flat parameter vector per skill, in a
    `DenseSkills` store; given a sparsity, it chooses and freezes the 0/1
    mask of a sparse inventory (each skill's entries that changed most
    during a dense warm-up phase);
  * `LowRankLayer`: low-rank adapter pairs (A, B) around a base linear map
    (W0, b0).

Composition is always `base + sum_j w_j * skill_j` with w a simplex weight
vector obtained from a normalised allocation row. It is never a tape chain
of its own: each layer's `forward` mixes the skills and applies the
resulting linear layer as a single tape node with a hand-written VJP.
`DenseLayer.forward` computes theta = base + w @ (phi * mask), unflattened
into the layer's weight and bias; `LowRankLayer.forward` computes
W0 + sum_j w_j A_j B_j, evaluated batched over the skill axis without
materialising the delta.

Both read `w` [..., M, S], the task's row of every allocation matrix, and
mix with row `matrix`; leading axes of `w` stack replicas or tasks.
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
    phi: Tensor  # [..., num_skills, dim]
    base: Tensor  # [dim]
    mask: np.ndarray | None = None  # 0/1 [num_skills, dim]; None until frozen


def _weight_rows(num_skills: int, w: Tensor, matrix: int):
    """Row `matrix` of the weight rows `w` [..., M, S], and a map from its gradient to `w`'s.

    The gradient is zero in the other matrices' rows.
    """
    if w.ndim < 1 or w.shape[-1] != num_skills:
        raise ShapeError(f"weights must be [..., {num_skills}] vectors, got shape {w.shape}")
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


class DenseLayer:
    """Dense skill rows; given a sparsity, the layer owns the choice of their mask.

    A sparse layer keeps a copy of its initial rows through the warm-up. `freeze` then
    keeps each skill's `keep` entries that changed most, `max(1, round((1 - sparsity) *
    flat_dim))`: at least one, so a narrow layer under high sparsity still has a skill.
    Rows, base and mask stay one `DenseSkills` record on `skills` because the
    benchmark's checks read `skills.mask` and `skills.phi` through it.
    """

    def __init__(self, shape: LayerShape, num_skills: int, rng, sparsity: float | None = None):
        self.shape = shape
        phi = kaiming_uniform((num_skills, shape.flat_dim), rng, requires_grad=True)
        self.skills = DenseSkills(phi, kaiming_uniform((shape.flat_dim,), rng, requires_grad=True))
        self._phi_init = None if sparsity is None else phi.data.copy()
        self.keep = None if sparsity is None else max(1, round((1.0 - sparsity) * shape.flat_dim))

    def freeze(self) -> None:
        """Set the mask from the change since initialisation and drop the warm-up copy (sparse stores only)."""
        if self._phi_init is not None:
            self.skills.mask = select_sparse_mask(self._phi_init, self.skills.phi.data, self.keep)
            self._phi_init = None

    def forward(self, x: Tensor, w: Tensor, matrix: int) -> Tensor:
        """x @ W^T + b, with (W, b) the flat theta = base + w @ (phi * mask) unflattened; one tape node.

        Differentiable in x, phi, base and w; once a mask is frozen, masked
        entries of phi get exactly zero gradient. Only inputs that require a
        gradient get one: the first layer's input is a constant.

        Leading axes of `w` stack replicas: `x` [..., n, in] and `phi`
        [..., S, d] carry the same leading axes, while `base` and the mask
        are shared (their gradient then has the leading axes too, so only
        stacked `phi` may train). A stacked numpy matmul runs the 2-D
        product per slice, so each replica's output and gradients equal the
        unstacked op's on its slice, bit for bit.
        """
        phi, base, mask = self.skills.phi, self.skills.base, self.skills.mask
        wd, w_grad = _weight_rows(phi.shape[-2], w, matrix)
        lead = wd.shape[:-1]
        _check_input(x, self.shape.in_dim, lead)
        o, i = self.shape.out_dim, self.shape.in_dim
        phi_m = phi.data if mask is None else phi.data * mask
        theta = base.data + (wd[..., None, :] @ phi_m)[..., 0, :]
        weight = theta[..., : o * i].reshape(lead + (o, i))
        xd = x.data
        need_x, need_phi, need_base, need_w = (t.requires_grad for t in (x, phi, base, w))

        def vjp(g):
            g_weight = matrix_t(matrix_t(xd) @ g).reshape(lead + (-1,))
            g_theta = np.concatenate([g_weight, g.sum(axis=-2)], axis=-1)
            g_phi = np.einsum("...s,...d->...sd", wd, g_theta) if need_phi else None
            if need_phi and mask is not None:
                g_phi *= mask
            return (
                g @ weight if need_x else None,
                g_phi,
                g_theta if need_base else None,
                w_grad((g_theta[..., None, :] @ matrix_t(phi_m))[..., 0, :]) if need_w else None,
            )

        out = xd @ matrix_t(weight)
        out += theta[..., None, o * i :]
        return apply_op((x, phi, base, w), out, vjp)

    def add_skill(self, rngs) -> None:
        """Append a zero skill row to every replica, so a task on it starts at the base map; a frozen mask keeps it dense."""
        s = self.skills
        phi = s.phi.data
        s.phi.data = np.concatenate([phi, np.zeros(phi.shape[:-2] + (1, phi.shape[-1]))], axis=-2)
        if s.mask is not None:
            s.mask = np.concatenate([s.mask, np.ones((1, phi.shape[-1]))])

    def phi_parameters(self) -> list[Tensor]:
        return [self.skills.phi]

    def base_parameters(self) -> list[Tensor]:
        return [self.skills.base]


class LowRankLayer:
    """Adapter pairs A [S, out, r] (zero at first, so B carries the scale) and B [S, r, in] around W0, b0; r <= min(in, out)."""

    def __init__(self, shape: LayerShape, num_skills: int, rank: int, rng):
        self.shape = shape
        self.rank = rank = min(rank, shape.in_dim, shape.out_dim)
        self.A = zeros((num_skills, shape.out_dim, rank), requires_grad=True)
        self.B = kaiming_uniform((num_skills, rank, shape.in_dim), rng, requires_grad=True)
        self.W0 = kaiming_uniform((shape.out_dim, shape.in_dim), rng, requires_grad=True)
        self.b0 = kaiming_uniform((shape.out_dim,), rng, requires_grad=True)

    def forward(self, x: Tensor, w: Tensor, matrix: int) -> Tensor:
        """x @ (W0 + sum_j w_j A_j B_j)^T + b0 without materialising the delta; one tape node.

        Evaluates H_j = B_j x^T and C_j = A_j H_j for every skill in one batched
        matmul each (no Python loop over the skills), then y = x W0^T + sum_j w_j C_j^T + b0.
        Equal to the materialised product up to rounding. Only inputs that
        require a gradient get one. Leading axes stack replicas as in
        `DenseLayer.forward`: `x`, `w`, `A` and `B` carry them, `W0` and `b0`
        are shared.
        """
        wd, w_grad = _weight_rows(self.A.shape[-3], w, matrix)
        lead = wd.shape[:-1]
        _check_input(x, self.shape.in_dim, lead)
        a, b, w0 = self.A.data, self.B.data, self.W0.data
        xd = x.data
        n = xd.shape[-2]
        x_skills = xd[..., None, :, :]  # broadcast over the skill axis
        hidden = b @ matrix_t(x_skills)  # [..., S, r, n]
        mixed = (a @ hidden).reshape(lead + (wd.shape[-1], -1))  # [..., S, o * n]
        out = xd @ w0.T + matrix_t((wd[..., None, :] @ mixed).reshape(lead + (-1, n))) + self.b0.data
        inputs = (x, self.A, self.B, self.W0, self.b0, w)
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

    def add_skill(self, rngs) -> None:
        """Append an adapter pair to every replica: A = 0, so a task on it starts at the base map, and a kaiming B from the replica's generator."""
        b = np.stack([kaiming_uniform((self.rank, self.shape.in_dim), rng).data for rng in rngs])
        self.A.data = np.concatenate([self.A.data, np.zeros((len(rngs), 1, self.shape.out_dim, self.rank))], axis=-3)
        self.B.data = np.concatenate([self.B.data, b[:, None]], axis=-3)

    def phi_parameters(self) -> list[Tensor]:
        return [self.A, self.B]

    def base_parameters(self) -> list[Tensor]:
        return [self.W0, self.b0]


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
