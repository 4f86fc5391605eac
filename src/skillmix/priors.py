"""Indian buffet process density over binary allocation matrices.

Used as a training regulariser that nudges the relaxed allocation towards
balanced, sparse soft partitions. Only density evaluation is needed, never
generative sampling. The exact density is defined on binary matrices; the
relaxed variant continues the factorial terms through log-gamma on the
continuous column sums so gradients can flow to the logits, while the
column-history multiplicity term is evaluated on the hardened matrix and
treated as a constant per step.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
from scipy.special import gammaln

from .allocation import BinaryAllocation, RelaxedAllocation, harden
from .autodiff import Tensor, add, lgamma, mul, neg, reduce_sum, scalar, sub, tensor
from .errors import DomainError


def _harmonic_sum(n: int) -> float:
    """Sum of the first n harmonic numbers: H_1 + H_2 + ... + H_n."""
    total = 0.0
    h = 0.0
    for i in range(1, n + 1):
        h += 1.0 / i
        total += h
    return total


def _history_log_term(binary: np.ndarray) -> float:
    """Sum over distinct column bit-patterns h of log(count(h)!)."""
    counts = Counter(tuple(int(v) for v in binary[:, j]) for j in range(binary.shape[1]))
    # fsum is exactly rounded, so the value does not depend on the column order.
    return math.fsum(gammaln(c + 1.0) for c in counts.values())


def ibp_log_prob(z: BinaryAllocation | np.ndarray, alpha: float) -> float:
    """Log-density of a binary task-skill matrix under the buffet-process prior.

    Columns whose sum is zero denote unused skills; the prior is a
    distribution over matrices with non-empty columns, so such columns are
    excluded from the per-skill term and from the leading count. The value
    depends only on the multiset of column patterns, hence it is exactly
    invariant under column permutation.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    binary = z.b if isinstance(z, BinaryAllocation) else BinaryAllocation(np.asarray(z)).b
    num_tasks = binary.shape[0]
    column_sums = binary.sum(axis=0)
    active = column_sums > 0

    value = float(active.sum()) * math.log(alpha)
    value -= _history_log_term(binary)
    value -= alpha * _harmonic_sum(num_tasks)
    m = column_sums[active].astype(np.float64)
    value += math.fsum(gammaln(num_tasks - m + 1.0) + gammaln(m) - gammaln(num_tasks + 1.0))
    return value


def relaxed_ibp_log_prob(z_hat: RelaxedAllocation | Tensor, alpha: float) -> Tensor:
    """Differentiable continuation of the log-density on a relaxed matrix.

    Column sums use the continuous values; the factorials become log-gamma.
    The history term and the active-column count come from the hardened
    matrix and contribute no gradient. On a binary input this equals
    `ibp_log_prob` exactly.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    t = z_hat.z_hat if isinstance(z_hat, RelaxedAllocation) else z_hat
    num_tasks, num_skills = t.shape
    hardened = harden(t.data).b
    active = hardened.sum(axis=0) > 0

    constant = float(active.sum()) * math.log(alpha)
    constant -= _history_log_term(hardened)
    constant -= alpha * _harmonic_sum(num_tasks)
    constant -= float(active.sum()) * float(gammaln(num_tasks + 1.0))

    gate = active.astype(np.float64)
    column_mass = reduce_sum(t, axis=0)
    # Inactive columns are gated out below; shift their mass to 1 first so
    # lgamma stays inside its domain when the input is exactly binary.
    safe_mass = add(column_mass, tensor(1.0 - gate))
    per_column = add(
        lgamma(sub(float(num_tasks) + 1.0, safe_mass)),
        lgamma(safe_mass),
    )
    gated = mul(per_column, tensor(gate))
    return add(reduce_sum(gated), scalar(constant))


def ibp_regularizer(z_hat: RelaxedAllocation | Tensor, alpha: float, strength: float) -> Tensor:
    """Loss term -strength * relaxed log-density; strength 0 contributes nothing."""
    if strength < 0:
        raise DomainError("strength must be non-negative")
    if strength == 0.0:
        return scalar(0.0)
    return mul(neg(relaxed_ibp_log_prob(z_hat, alpha)), strength)
