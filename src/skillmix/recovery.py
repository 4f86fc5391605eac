"""Scoring a learned allocation against the planted ground truth.

Learned skills have no canonical order, so the score maximises cell
agreement over injective assignments of true columns into learned columns.
Among the optimal assignments the lexicographically first one is reported,
so the permutation does not depend on the solver's tie-breaking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .allocation import as_binary
from .errors import ContractError


@dataclass
class RecoveryScore:
    best_permutation: tuple[int, ...]  # learned column index per true column
    cell_accuracy: float


def _agreement_matrix(learned: np.ndarray, true: np.ndarray) -> np.ndarray:
    """[true_cols, learned_cols] count of rows on which the columns agree."""
    return (true[:, :, None] == learned[:, None, :]).sum(axis=0).astype(np.int64)


def _best_total(agreement: np.ndarray) -> int:
    if agreement.shape[0] == 0:
        return 0
    rows, cols = linear_sum_assignment(agreement, maximize=True)
    return int(agreement[rows, cols].sum())


def skill_recovery_score(learned, true) -> RecoveryScore:
    """Best-permutation cell accuracy of a hardened learned matrix vs truth.

    True columns are fixed in order, each to the lowest free learned column
    that still admits an optimal completion; one assignment solve on the
    remaining rows and columns checks each candidate. The result is the
    lexicographically first optimal permutation.
    """
    learned_b, true_b = as_binary(learned), as_binary(true)
    if learned_b.shape[0] != true_b.shape[0]:
        raise ContractError("learned and true matrices must cover the same tasks")
    if learned_b.shape[1] < true_b.shape[1]:
        raise ContractError("learned inventory must be at least as large as the true one")
    agreement = _agreement_matrix(learned_b, true_b)
    best = _best_total(agreement)
    free = list(range(learned_b.shape[1]))
    perm, gained = [], 0
    for j in range(true_b.shape[1]):
        for col in free:
            rest = [c for c in free if c != col]
            if gained + agreement[j, col] + _best_total(agreement[j + 1 :, rest]) == best:
                break
        perm.append(col)
        free.remove(col)
        gained += int(agreement[j, col])
    return RecoveryScore(tuple(perm), best / (learned_b.shape[0] * true_b.shape[1]))
