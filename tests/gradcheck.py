"""Finite-difference gradient checks for the tests, and a private tape to run them on."""

from contextlib import contextmanager

import numpy as np

from skillmix import autodiff as ad
from skillmix.errors import ContractError, DomainError


@contextmanager
def fresh_tape():
    """Swap in a private tape; the previous one is restored on exit."""
    prev = ad._tape
    ad._tape = ad.Tape()
    try:
        yield ad._tape
    finally:
        ad._tape = prev


def grad_check(f, x, eps=1e-5):
    """Max relative error between reverse-mode and central finite differences.

    The relative error per coordinate uses max(|analytic|, |numeric|, 1e-8)
    as denominator. `f` must map a tensor to a scalar tensor.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    leaf = ad.Tensor(np.array(x.data, copy=True), requires_grad=True)
    with fresh_tape() as t:
        out = f(leaf)
        if not isinstance(out, ad.Tensor) or out.size != 1:
            raise ContractError("grad_check requires a scalar-valued function")
        ad.backward(out, t)
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)

    numeric = np.zeros_like(analytic)
    flat_data = leaf.data.reshape(-1)
    flat_num = numeric.reshape(-1)
    with ad.no_grad():
        for k in range(flat_data.size):
            orig = flat_data[k]
            flat_data[k] = orig + eps
            f_plus = f(leaf).item()
            flat_data[k] = orig - eps
            f_minus = f(leaf).item()
            flat_data[k] = orig
            flat_num[k] = (f_plus - f_minus) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
