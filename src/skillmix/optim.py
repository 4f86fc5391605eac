"""Adam optimiser with per-group learning rates.

The two-speed grouping routes allocation logits to a fast group and every
other parameter (skills plus base) to a slow group, which biases training
towards discovering allocations before the generic parameters absorb the
signal.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import Tensor
from .errors import ContractError


class Adam:
    """Standard Adam over parameter groups; state is kept per tensor.

    Every update is elementwise, so one step over parameters stacked on a
    leading replica axis equals one step of a separate optimiser per
    replica. A step allocates nothing: each tensor keeps its two moments
    and two scratch arrays, and the update runs in place in the textbook
    operation order.
    """

    def __init__(
        self,
        groups: Sequence[dict],
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        seen: set[int] = set()
        for group in groups:
            if group["lr"] <= 0:
                raise ContractError("learning rate must be positive")
            for p in group["params"]:
                if id(p) in seen:
                    raise ContractError("parameter assigned to more than one group")
                seen.add(id(p))
        self.groups = [dict(params=list(g["params"]), lr=float(g["lr"])) for g in groups]
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step = 0
        self._state: dict[int, tuple[np.ndarray, ...]] = {}

    def step(self) -> None:
        self._step += 1
        t = self._step
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for group in self.groups:
            lr = group["lr"]
            for p in group["params"]:
                if p.grad is None:
                    continue
                state = self._state.get(id(p))
                if state is None:
                    state = tuple(np.zeros_like(p.data) for _ in range(4))
                    self._state[id(p)] = state
                m, v, update, denom = state
                # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
                m *= self.beta1
                np.multiply(p.grad, 1.0 - self.beta1, out=update)
                m += update
                v *= self.beta2
                np.square(p.grad, out=update)
                update *= 1.0 - self.beta2
                v += update
                # p -= lr (m / bias1) / (sqrt(v / bias2) + eps)
                np.divide(m, bias1, out=update)
                update *= lr
                np.divide(v, bias2, out=denom)
                np.sqrt(denom, out=denom)
                denom += self.eps
                update /= denom
                p.data -= update

    def zero_grad(self) -> None:
        for group in self.groups:
            for p in group["params"]:
                p.grad = None

    def reset_state(self) -> None:
        """Drop all moment estimates (used when the parameterisation changes)."""
        self._step = 0
        self._state.clear()

    @property
    def parameters(self) -> list[Tensor]:
        return [p for g in self.groups for p in g["params"]]


def build_two_speed_groups(
    z_params: Sequence[Tensor],
    phi_params: Sequence[Tensor],
    lr_z: float,
    lr_phi: float,
) -> Adam:
    """Adam over two groups: allocation logits at lr_z, everything else at lr_phi.

    lr_z == lr_phi degenerates to single-speed training; lr_z < lr_phi is
    rejected because the grouping exists to accelerate allocation learning.
    """
    if lr_z <= 0 or lr_phi <= 0:
        raise ContractError("learning rates must be positive")
    if lr_z < lr_phi:
        raise ContractError("two-speed grouping requires lr_z >= lr_phi")
    groups = []
    if z_params:
        groups.append(dict(params=z_params, lr=lr_z))
    if phi_params:
        groups.append(dict(params=phi_params, lr=lr_phi))
    return Adam(groups)
