"""The hypernetwork baseline's task-conditioned adapter generators.

The private, shared and expert baselines need no code here: each is skill
composition over a fixed 0/1 allocation (`trainer.resolve_fixed_allocation`).
The hypernetwork drops the discrete allocation and generates per-task
low-rank adapters from a learned task embedding (owned by
`model.HypernetModel`) through two two-layer generators, one for each
adapter factor; `hypernet_generate` computes them as plain arrays for the
layer's one tape node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, kaiming_uniform, matrix_t, unbroadcast, zeros


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


def new_hypernet(embed_dim: int, out_dim: int, in_dim: int, rank: int, rng: np.random.Generator) -> HyperNet:
    """Build the generators for one projection."""
    return HyperNet(
        w1_a=kaiming_uniform((embed_dim, embed_dim), rng, requires_grad=True),
        w2_a=zeros((out_dim * rank, embed_dim), requires_grad=True),
        w1_b=kaiming_uniform((embed_dim, embed_dim), rng, requires_grad=True),
        w2_b=kaiming_uniform((rank * in_dim, embed_dim), rng, requires_grad=True),
        out_dim=out_dim,
        in_dim=in_dim,
        rank=rank,
    )


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


def hypernet_generate(column: np.ndarray, hypernet: HyperNet):
    """The (A, B) adapter pair generated from an [embed_dim, 1] embedding column, and its VJP.

    Plain arrays, no tape node: `model.HypernetLayer.forward` records the
    whole layer as one node. `vjp(g_a, g_b)` returns the column's gradient
    and the generators' in `generator_parameters` order, None for a
    generator that needs none. Values and gradients replay the numpy
    operations of the unfused matmul -> relu -> matmul -> reshape chains
    (`tests/unfused.py`) in order. A stack of columns [..., embed_dim, 1],
    with generators stacked alike, gives a stack of pairs.
    """
    lead = column.shape[:-2]
    h = hypernet
    a, vjp_a = _generated_factor(h.w1_a, h.w2_a, column, lead + (h.out_dim, h.rank))
    b, vjp_b = _generated_factor(h.w1_b, h.w2_b, column, lead + (h.rank, h.in_dim))

    def vjp(g_a: np.ndarray, g_b: np.ndarray):
        # The B chain was recorded after the A chain, so its part comes first.
        g_col_b, g_w1_b, g_w2_b = vjp_b(g_b)
        g_col_a, g_w1_a, g_w2_a = vjp_a(g_a)
        return g_col_b + g_col_a, (g_w1_a, g_w2_a, g_w1_b, g_w2_b)

    return a, b, vjp
