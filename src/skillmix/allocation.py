"""Task-skill allocation: logits, relaxed Bernoulli sampling, diagnostics.

An allocation matrix [num_tasks, num_skills] is a plain value: learnable
logits and relaxed draws are `Tensor`s, a fixed or hardened 0/1 matrix is
an int64 array. A task selects skills through one logits matrix per layer;
a model keeps its matrices stacked [M, T, S]. During training each cell is
sampled from a relaxed Bernoulli (Gumbel-sigmoid) so the binary choice
stays differentiable; at evaluation time the deterministic u=0.5 path is
used, which collapses to sigmoid(z / tau). Rows are normalised before
composition so the number of active skills does not change the norm of
the composed parameters. A training draw and the task's normalised rows
are one tape node each for the whole stack.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy.special import expit, xlogy

from .autodiff import Tensor, apply_op, tensor
from .errors import DomainError, ShapeError

# Uniform draws are clamped away from {0,1} so logit(u) stays finite.
UNIFORM_EPS = 1e-7


def gumbel_sigmoid_sample(logits: Tensor, tau: float, rng: np.random.Generator | list[np.random.Generator]) -> Tensor:
    """Relaxed Bernoulli sample: sigmoid((z + logit(u)) / tau), u ~ Uniform(0,1).

    Reparameterised, so gradients flow to the logits with u held fixed. The
    hardened sample exceeds 0.5 exactly when z + logit(u) > 0, hence
    P(sample > 0.5) = sigmoid(z) for every tau. One tape node; one uniform
    draw per cell (`random` returns the same doubles as `uniform(0, 1)`,
    faster).

    A stack of matrices [M, T, S] draws the same doubles as M draws of
    [T, S] in turn. A stack of replicas' logits [R, ..., S] takes a list of
    R generators: replica r's cells are drawn from generator r alone, in
    the order a draw on its slice would draw them.
    """
    if tau <= 0:
        raise DomainError("temperature must be positive")
    if isinstance(rng, list):
        if len(rng) != logits.shape[0]:
            raise ShapeError(f"{len(rng)} generators for a stack of {logits.shape[0]} replicas")
        u = np.empty(logits.shape)
        for row, replica_rng in zip(u, rng):
            replica_rng.random(out=row)
    else:
        u = rng.random(logits.shape)
    np.minimum(np.maximum(u, UNIFORM_EPS, out=u), 1.0 - UNIFORM_EPS, out=u)
    noise = np.log(u) - np.log1p(-u)
    inv_tau = 1.0 / tau
    out = expit((logits.data + noise) * inv_tau)

    def vjp(g):
        return (g * out * (1.0 - out) * inv_tau,)

    return apply_op((logits,), out, vjp)


def expected_allocation(logits: Tensor, tau: float) -> np.ndarray:
    """Deterministic u=0.5 path, sigmoid(z / tau); evaluation only, so a plain array with no node."""
    if tau <= 0:
        raise DomainError("temperature must be positive")
    return expit(logits.data * (1.0 / tau))


def normalize_rows(t: Tensor | np.ndarray, index) -> Tensor:
    """Row `index` of the matrix scaled to sum to one; invariant under positive row scaling.

    One tape node. A stack of matrices [..., T, S] (a model's allocation
    matrices, replicas' blocks or both) gives the stack of their rows
    [..., S] in one node, each row equal to its matrix's alone. An int
    array of distinct row indices [K] gives those rows [..., K, S].

    A row whose sum is below 1e-12 (every cell of a relaxed row underflowed)
    is divided by inf: it gives zero weights, so the layer composes to its
    base alone, and a zero gradient. That is decided per row, so every other
    row, matrix and replica keeps its values bit for bit.
    """
    if not isinstance(t, Tensor):
        t = tensor(t)
    if t.ndim < 2:
        raise ShapeError(f"row normalisation needs a matrix, got shape {t.shape}")
    if isinstance(index, int):
        in_range = 0 <= index < t.shape[-2]
    else:
        index = np.asarray(index)
        in_range = ((index >= 0) & (index < t.shape[-2])).all()
    if not in_range:
        raise ShapeError(f"row {index} out of range for shape {t.shape}")
    data = t.data
    total = data[..., index, :].sum(axis=-1, keepdims=True)
    empty = total < 1e-12
    if empty.any():
        total[empty] = np.inf
    row = data[..., index, :] / total

    def vjp(g):
        grad = np.zeros_like(data)
        grad[..., index, :] = g / total - (g * row / total).sum(axis=-1, keepdims=True)
        return (grad,)

    return apply_op((t,), row, vjp)


def _round_half_up(values: np.ndarray) -> np.ndarray:
    return np.floor(values + 0.5)


def harden(values: Tensor | np.ndarray) -> np.ndarray:
    """Round every cell at threshold 0.5 (0.5 rounds up) into an int64 0/1 array."""
    data = values.data if isinstance(values, Tensor) else np.asarray(values, dtype=np.float64)
    return _round_half_up(data).astype(np.int64)


def as_binary(z) -> np.ndarray:
    """A 0/1 matrix from outside the program as an int64 array; any other entry is rejected."""
    b = np.asarray(z)
    if not np.isin(b, (0, 1)).all():
        raise DomainError("binary allocation entries must be 0 or 1")
    return b.astype(np.int64)


# ---------------------------------------------------------------------------
# diagnostics of an allocation matrix, all normalised into [0, 1]


def _checked_unit_matrix(z_hat) -> np.ndarray:
    m = np.asarray(z_hat, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {m.shape}")
    if np.any(m < 0.0) or np.any(m > 1.0):
        raise DomainError("matrix entries must lie in [0, 1]")
    return m


def metric_discreteness(z_hat) -> float:
    """Mean binary entropy per cell divided by log 2; 0 for a binary matrix."""
    m = _checked_unit_matrix(z_hat)
    cell_entropy = -(xlogy(m, m) + xlogy(1.0 - m, 1.0 - m))
    return float(cell_entropy.mean() / math.log(2.0))


def metric_sparsity(z_hat) -> float:
    """Fraction of cells that round to one."""
    m = _checked_unit_matrix(z_hat)
    return float(_round_half_up(m).mean())


def metric_usage(z_hat) -> float:
    """Normalised entropy of the column-sum distribution; 1 means balanced use.

    By convention a matrix with no mass (all zeros, as an underflowed
    allocation is) uses no skill and scores 0.0, and any other one-column
    matrix scores 1.0.
    """
    m = _checked_unit_matrix(z_hat)
    column_mass = m.sum(axis=0)
    total = column_mass.sum()
    if total <= 0.0:
        return 0.0
    if m.shape[1] == 1:
        return 1.0
    p = column_mass / total
    # 0.0 - x, not -x: all mass in one column gives +0.0, never -0.0.
    entropy = 0.0 - float(xlogy(p, p).sum())
    return entropy / math.log(m.shape[1])


# ---------------------------------------------------------------------------
# serialisation


def hardened_to_csv(binary: np.ndarray, task_names: list[str]) -> str:
    if len(task_names) != binary.shape[0]:
        raise ShapeError("one task name per row is required")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["task"] + [f"skill_{j}" for j in range(binary.shape[1])])
    for name, row in zip(task_names, binary):
        writer.writerow([name] + [int(v) for v in row])
    return buf.getvalue()
