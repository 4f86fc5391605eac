"""Indian buffet process density over binary allocation matrices.

Used as a training regulariser that nudges the relaxed allocation towards
balanced, sparse soft partitions. Only density evaluation is needed, never
generative sampling. The exact density is defined on binary matrices; the
relaxed variant continues the factorial terms through log-gamma on the
continuous column sums so gradients can flow to the logits, while the
column-history multiplicity term is evaluated on the hardened matrix and
treated as a constant per step.

The relaxed density and the regulariser each record one tape node whose
hand-written VJP (digamma of the column masses) replays, in order, the
numpy operations of the generic-op chain they replace, so values and
gradients are bit for bit those of that chain.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache

import numpy as np
from scipy.special import digamma, gammaln

from .allocation import as_binary, harden
from .autodiff import Tensor, apply_op, scalar
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
def _log_factorial(n: int) -> float:
    return float(gammaln(n + 1.0))


def _history_log_term(binary: np.ndarray) -> float:
    """Sum over distinct column bit-patterns h of log(count(h)!)."""
    counts = Counter(column.tobytes() for column in np.ascontiguousarray(binary.T))
    # fsum is exactly rounded, so the value does not depend on the column order.
    return math.fsum(gammaln(np.fromiter(counts.values(), np.float64) + 1.0))


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
    value += math.fsum(gammaln(num_tasks - m + 1.0) + gammaln(m) - _log_factorial(num_tasks))
    return value


def _relaxed_terms(z_hat: Tensor, alpha: float):
    """The relaxed log-density's value and a map from its gradient to the matrix's.

    The constant comes from the hardened matrix. The per-column part is
    lgamma(N + 1 - m) + lgamma(m) on each active column's mass m.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    num_tasks = z_hat.shape[0]
    hardened = harden(z_hat)
    active = hardened.sum(axis=0) > 0

    constant = float(active.sum()) * math.log(alpha)
    constant -= _history_log_term(hardened)
    constant -= alpha * _harmonic_sum(num_tasks)
    constant -= float(active.sum()) * _log_factorial(num_tasks)

    gate = active.astype(np.float64)
    # Inactive columns are gated out below; shift their mass to 1 first so
    # lgamma stays inside its domain when the input is exactly binary.
    safe_mass = z_hat.data.sum(axis=0) + (1.0 - gate)
    rest = (num_tasks + 1.0) - safe_mass
    if (rest <= 0.0).any() or (safe_mass <= 0.0).any():
        raise DomainError("lgamma requires strictly positive inputs")
    value = ((gammaln(rest) + gammaln(safe_mass)) * gate).sum() + constant

    def matrix_grad(g):
        gated = g * gate
        return np.broadcast_to(gated * digamma(safe_mass) - gated * digamma(rest), z_hat.shape)

    return value, matrix_grad


def relaxed_ibp_log_prob(z_hat: Tensor, alpha: float) -> Tensor:
    """Differentiable continuation of the log-density on a relaxed matrix.

    Column sums use the continuous values; the factorials become log-gamma.
    The history term and the active-column count come from the hardened
    matrix and contribute no gradient. On a binary input this equals
    `ibp_log_prob` up to rounding: the per-column terms are summed in
    column order here and exactly rounded (`math.fsum`) there.
    """
    value, matrix_grad = _relaxed_terms(z_hat, alpha)
    return apply_op((z_hat,), value, lambda g: (matrix_grad(g),))


def ibp_regularizer(z_hat: Tensor, alpha: float, strength: float) -> Tensor:
    """Loss term -strength * relaxed log-density, one tape node; strength 0 records none."""
    if strength < 0:
        raise DomainError("strength must be non-negative")
    if strength == 0.0:
        return scalar(0.0)
    value, matrix_grad = _relaxed_terms(z_hat, alpha)
    return apply_op((z_hat,), -value * strength, lambda g: (matrix_grad(-(g * strength)),))
