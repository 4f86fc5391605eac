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
    """Standard Adam over parameter groups; its state is one flat vector for every group.

    Building the optimiser packs every group's parameters, group after
    group, into one contiguous float64 vector, and every `p.data` becomes a
    view into it, so build it after the last change to the parameters'
    shapes. A step gathers the gradients into one vector and runs the
    update in place on the whole buffer, in the textbook operation order,
    with no temporaries. Only the learning-rate multiply runs once per
    group, on the group's slice with its scalar rate, so the state is the
    two moment vectors and two work vectors. A step needs a gradient for
    every parameter and raises `ContractError`, before it touches any
    state, when one has none: the trainer lets exactly the optimised
    parameters require one. Every operation is elementwise, so the result
    does not depend on the packing: it equals one optimiser per group, and
    one step over parameters stacked on a leading replica axis equals one
    step of a separate optimiser per replica.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, groups: Sequence[dict]):
        seen: set[int] = set()
        for group in groups:
            if group["lr"] <= 0:
                raise ContractError("learning rate must be positive")
            for p in group["params"]:
                if id(p) in seen:
                    raise ContractError("parameter assigned to more than one group")
                seen.add(id(p))
        self.groups = [dict(params=list(g["params"]), lr=float(g["lr"])) for g in groups]
        self._step = 0
        self._params = [p for g in self.groups for p in g["params"]]
        self._data = np.zeros(sum(p.size for p in self._params))
        # (slice, lr) per group, in buffer order.
        self._group_rates = []
        start = 0
        for group in self.groups:
            group_start = start
            for p in group["params"]:
                view = self._data[start : start + p.size].reshape(p.shape)
                view[...] = p.data
                p.data = view
                start += p.size
            self._group_rates.append((slice(group_start, start), group["lr"]))
        self._m, self._v, self._update, self._grad = (np.zeros_like(self._data) for _ in range(4))

    def step(self) -> None:
        if any(p.grad is None for p in self._params):
            raise ContractError("every optimised parameter needs a gradient before a step")
        self._step += 1
        t = self._step
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        m, v, update, grad = self._m, self._v, self._update, self._grad
        np.concatenate([p.grad.reshape(-1) for p in self._params], out=grad)
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=update)
        m += update
        v *= self.beta2
        np.square(grad, out=update)
        update *= 1.0 - self.beta2
        v += update
        # p -= lr (m / bias1) / (sqrt(v / bias2) + eps); once 0.9**t is below
        # half an ulp of 1, bias1 is 1.0 and m / bias1 is m itself.
        if bias1 == 1.0:
            for part, lr in self._group_rates:
                np.multiply(m[part], lr, out=update[part])
        else:
            np.divide(m, bias1, out=update)
            for part, lr in self._group_rates:
                update[part] *= lr
        # The gradient is used up, so its buffer takes the denominator.
        np.divide(v, bias2, out=grad)
        np.sqrt(grad, out=grad)
        grad += self.eps
        update /= grad
        self._data -= update

    def zero_grad(self) -> None:
        for p in self._params:
            p.grad = None

    def reset_state(self) -> None:
        """Drop all moment estimates (used when the parameterisation changes)."""
        self._step = 0
        self._m.fill(0.0)
        self._v.fill(0.0)

    @property
    def parameters(self) -> list[Tensor]:
        return list(self._params)


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
