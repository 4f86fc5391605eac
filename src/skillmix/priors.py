"""Indian buffet process density over binary allocation matrices.

Used as a training regulariser that nudges the relaxed allocation towards
balanced, sparse soft partitions. Only density evaluation is needed, never
generative sampling. The exact density (`ibp_log_prob`) is defined on
binary matrices. The regulariser (`ibp_regularizer`) is the one density
node on the tape: it continues the factorial terms through log-gamma on
the continuous column sums so gradients can flow to the logits, while the
column-history multiplicity term is evaluated on the hardened matrix and
treated as a constant per step. Skipping the prior at strength 0 is the
trainer's decision (`trainer._step` records no prior node then).

The regulariser records one tape node whose hand-written VJP (digamma of
the column masses) replays, in order, the numpy operations of the
generic-op chain it replaces, so its value and gradient are bit for bit
those of that chain. It takes a model's stack of allocation matrices
[M, T, S] as one input: each matrix is scored apart, the M values are
added in matrix order, and one node covers them.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache

import numpy as np
from scipy.special import digamma, gammaln

from .allocation import as_binary
from .autodiff import Tensor, apply_op
from .errors import DomainError


@lru_cache(maxsize=64)
def _harmonic_sum(n: int) -> float:
    """Sum of the first n harmonic numbers: H_1 + H_2 + ... + H_n."""
    total = 0.0
    h = 0.0
    for i in range(1, n + 1):
        h += 1.0 / i
        total += h
    return total


@lru_cache(maxsize=64)
def _log_factorials(n: int) -> list[float]:
    """log(c!) for c = 0 .. n."""
    return gammaln(np.arange(n + 1.0) + 1.0).tolist()


def _history_log_terms(binary: np.ndarray) -> list[float]:
    """Per matrix of a 0/1 stack [M, T, S], the sum over distinct column bit-patterns h of log(count(h)!)."""
    columns = np.ascontiguousarray(binary.swapaxes(-1, -2))
    patterns = columns.view(np.dtype((np.void, columns.shape[-1] * columns.itemsize)))[..., 0]
    log_factorials = _log_factorials(binary.shape[-1])
    # fsum is exactly rounded, so the value does not depend on the column order.
    return [math.fsum(log_factorials[c] for c in Counter(row).values()) for row in patterns.tolist()]


def _history_log_term(binary: np.ndarray) -> float:
    """Sum over distinct column bit-patterns h of log(count(h)!)."""
    return _history_log_terms(np.asarray(binary)[None])[0]


def ibp_log_prob(z: np.ndarray, alpha: float) -> float:
    """Log-density of a binary task-skill matrix under the buffet-process prior.

    Columns whose sum is zero denote unused skills; the prior is a
    distribution over matrices with non-empty columns, so such columns are
    excluded from the per-skill term and from the leading count. The value
    depends only on the multiset of column patterns, hence it is exactly
    invariant under column permutation.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    binary = as_binary(z)
    num_tasks = binary.shape[0]
    column_sums = binary.sum(axis=0)
    active = column_sums > 0

    value = float(active.sum()) * math.log(alpha)
    value -= _history_log_term(binary)
    value -= alpha * _harmonic_sum(num_tasks)
    m = column_sums[active].astype(np.float64)
    value += math.fsum(gammaln(num_tasks - m + 1.0) + gammaln(m) - _log_factorials(num_tasks)[num_tasks])
    return value


def _relaxed_terms(z_hat: Tensor, alpha: float):
    """Per-matrix log-density values of a stack [M, T, S] and a map from their gradient to the stack's.

    A [T, S] matrix is a stack of one. Each matrix's constant comes from
    its hardened cells (`harden`'s predicate, x + 0.5 >= 1). The
    per-column part is lgamma(N + 1 - m) + lgamma(m) on each active
    column's mass m. Every matrix's value gets the same gradient, the
    output's.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    stack = z_hat.data.reshape((-1,) + z_hat.shape[-2:])
    num_tasks = stack.shape[-2]
    hardened = stack + 0.5 >= 1.0
    active = hardened.any(axis=-2)
    gate = active.astype(np.float64)
    # Inactive columns are gated out below; shift their mass to 1 first so
    # lgamma stays inside its domain when the input is exactly binary.
    safe_mass = stack.sum(axis=-2) + (1.0 - gate)
    rest = (num_tasks + 1.0) - safe_mass
    if np.minimum(rest, safe_mass).min() <= 0.0:
        raise DomainError("lgamma requires strictly positive inputs")
    column_terms = ((gammaln(rest) + gammaln(safe_mass)) * gate).sum(axis=-1).tolist()

    log_alpha, harmonic = math.log(alpha), _harmonic_sum(num_tasks)
    log_factorial = _log_factorials(num_tasks)[num_tasks]
    values = [
        terms + (count * log_alpha - history - alpha * harmonic - count * log_factorial)
        for terms, count, history in zip(column_terms, active.sum(axis=-1).tolist(), _history_log_terms(hardened))
    ]

    def matrix_grad(g):
        gated = g * gate
        per_column = gated * digamma(safe_mass) - gated * digamma(rest)
        return np.repeat(per_column.reshape(z_hat.shape[:-2] + (1, -1)), num_tasks, axis=-2)

    return values, matrix_grad


def _sum_in_order(values) -> float:
    """0.0 + v_0 + v_1 + ...: the total that adding the matrices' terms one by one gives."""
    total = 0.0
    for value in values:
        total += value
    return total


def ibp_regularizer(z_hat: Tensor, alpha: float, strength: float) -> Tensor:
    """Loss term -strength * relaxed log-density of `z_hat`, one tape node.

    On a binary input at strength 1 the value is `-ibp_log_prob` up to
    rounding: the per-column terms are summed in column order here and
    exactly rounded (`math.fsum`) there. A stack [M, T, S] scores each
    matrix apart and adds the M terms in matrix order.
    """
    if strength < 0:
        raise DomainError("strength must be non-negative")
    values, matrix_grad = _relaxed_terms(z_hat, alpha)
    total = _sum_in_order(-value * strength for value in values)
    return apply_op((z_hat,), total, lambda g: (matrix_grad(-(g * strength)),))
