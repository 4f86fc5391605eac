"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every differentiable operation appends one node to the active tape in
execution order, so the record is already topologically sorted and
``backward`` is a single reverse sweep that touches each node exactly once.
Training code resets the tape once per step (``reset_tape``).

``apply_op`` is the one way to record a node. The model records through it
as fused ops with hand-written VJPs: a skill-composed layer
(``skills.mixed_affine``, ``skills.mixed_lowrank``), a hypernetwork layer
(``model.HypernetLayer.forward``), a Gumbel draw and the normalised
allocation rows (``allocation``), each one node for all of a model's
allocation matrices, the task loss (``trainer.task_loss``) and the IBP
prior (``priors.ibp_regularizer``), one node for all matrices too. The
one generic op left is ``add``, which sums the loss and the prior. Those
are all the ops that record nodes: the creation helpers (``zeros``,
``kaiming_uniform``, ``tensor``) build leaves and record nothing. A VJP
returns one part per input, or None for an input that needs no
gradient; an input may be listed more than once, and its parts are then
accumulated in order.

Semantics worth knowing:
  * repeated ``backward`` calls accumulate into ``.grad`` (a loss and a
    regulariser can be back-propagated separately); each call sets a new
    array, never writes into the old one;
  * a leaf's ``.grad`` is the array the sweep produced, not a copy, and may
    share memory with another leaf's: read it, never write into it;
  * tensors are treated as immutable after creation except for ``.grad`` and
    in-place optimiser updates, which must only happen after ``backward``
    and before the next forward pass on a reset tape;
  * a tape is single-threaded state and must not be shared across threads.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from .errors import ContractError, ShapeError

Array = np.ndarray


class Tensor:
    """A dense float64 array plus an optional same-shape gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        # Not np.ascontiguousarray: it turns 0-d data (a take_row of a vector) into shape (1,).
        self.data: Array = np.array(data, dtype=np.float64, order="C", copy=None)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={list(self.shape)}{flag})"


VjpFn = Callable[[Array], tuple]


class _Node:
    __slots__ = ("inputs", "output", "vjp")

    def __init__(self, inputs: tuple[Tensor, ...], output: Tensor, vjp: VjpFn):
        self.inputs = inputs
        self.output = output
        self.vjp = vjp


class Tape:
    """Execution-ordered operation record; inputs always precede their use."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def record(self, node: _Node) -> None:
        self.nodes.append(node)

    def reset(self) -> None:
        self.nodes.clear()

    def __len__(self) -> int:
        return len(self.nodes)


_tape = Tape()
_grad_enabled = True


def active_tape() -> Tape:
    return _tape


def reset_tape() -> None:
    _tape.reset()


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable recording; forward passes inside produce plain constants."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


def apply_op(inputs: tuple[Tensor, ...], out_data: Array, vjp: VjpFn) -> Tensor:
    """Wrap `out_data` as a tensor and record one node when any input requires a gradient."""
    out = Tensor(out_data)
    if _grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _tape.record(_Node(inputs, out, vjp))
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


# ---------------------------------------------------------------------------
# creation


def _checked_dims(shape) -> tuple[int, ...]:
    dims = tuple(int(d) for d in shape)
    if len(dims) == 0 or any(d < 1 for d in dims):
        raise ShapeError(f"all dimensions must be >= 1, got {dims}")
    return dims


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(_checked_dims(shape)), requires_grad)


def kaiming_uniform(shape, rng: np.random.Generator, requires_grad: bool = False) -> Tensor:
    """Uniform in +/- sqrt(6 / fan_in) where fan_in is the last dimension."""
    dims = _checked_dims(shape)
    bound = math.sqrt(6.0 / dims[-1])
    return Tensor(rng.uniform(-bound, bound, size=dims), requires_grad)


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad)


# ---------------------------------------------------------------------------
# array helpers for VJPs


def _broadcast_check(a_shape: tuple, b_shape: tuple) -> None:
    try:
        np.broadcast_shapes(a_shape, b_shape)
    except ValueError:
        raise ShapeError(f"shapes {a_shape} and {b_shape} are not broadcast-compatible") from None


def unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum gradient over axes that broadcasting expanded, back to `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    squash = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if squash:
        grad = grad.sum(axis=squash, keepdims=True)
    return grad.reshape(shape)


def matrix_t(x: Array) -> Array:
    """Each matrix of a stack transposed; a plain `.T` for a 2-D array."""
    return x.swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# elementwise binary ops


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check(a.shape, b.shape)

    def vjp(g: Array):
        return unbroadcast(g, a.shape), unbroadcast(g, b.shape)

    return apply_op((a, b), a.data + b.data, vjp)


# ---------------------------------------------------------------------------
# reverse sweep


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into `.grad` of every requires_grad leaf.

    Walks the active tape once in reverse; each node's output gradient is
    complete before the node is visited because consumers are always
    recorded later than producers. Calling backward twice without resetting
    grads adds the two gradient fields together.
    """
    if loss.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not _tape.nodes:
        raise ContractError("backward on an empty tape")

    pending: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {id(loss): loss}

    for node in reversed(_tape.nodes):
        out_grad = pending.pop(id(node.output), None)
        if out_grad is None:
            continue
        holders.pop(id(node.output), None)
        for inp, part in zip(node.inputs, node.vjp(out_grad)):
            if part is None or not inp.requires_grad:
                continue
            key = id(inp)
            seen = pending.get(key)
            pending[key] = part if seen is None else seen + part
            holders[key] = inp

    # Entries that survive the sweep were never produced by a node on this
    # tape: they are the leaves.
    for key, grad in pending.items():
        leaf = holders[key]
        if not leaf.requires_grad:
            continue
        contribution = np.ascontiguousarray(grad)
        leaf.grad = contribution if leaf.grad is None else leaf.grad + contribution
