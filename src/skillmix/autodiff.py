"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every differentiable operation appends one node to the active tape in
execution order, so the record is already topologically sorted and
``backward`` is a single reverse sweep that touches each node exactly once.
Training code resets the tape once per step (``reset_tape``).

``apply_op`` is the one way to record a node. Besides the small generic ops
below, the model's hot chains record through it as fused ops with
hand-written VJPs: a skill-composed layer (``skills.mixed_affine``,
``skills.mixed_lowrank``), a Gumbel draw and a normalised allocation row
(``allocation``) and the task loss (``trainer.task_loss``). A VJP returns
one part per input, or None for an input that needs no gradient; an input
may be listed more than once, and its parts are then accumulated in order.

Semantics worth knowing:
  * repeated ``backward`` calls accumulate into ``.grad`` (a loss and a
    regulariser can be back-propagated separately);
  * tensors are treated as immutable after creation except for ``.grad`` and
    in-place optimiser updates, which must only happen after ``backward``
    and before the next forward pass on a reset tape;
  * a tape is single-threaded state and must not be shared across threads.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence, Union

import numpy as np
from scipy.special import digamma, expit, gammaln

from .errors import ContractError, DomainError, ShapeError

Array = np.ndarray
SeedLike = Union[int, Sequence[int], np.random.Generator]


def as_rng(seed: SeedLike) -> np.random.Generator:
    """Normalise an int seed / seed sequence / Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


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

    # Arithmetic sugar; python scalars are wrapped as constant tensors.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

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


def full(shape, value: float, requires_grad: bool = False) -> Tensor:
    return Tensor(np.full(_checked_dims(shape), float(value)), requires_grad)


def kaiming_uniform(shape, seed: SeedLike, requires_grad: bool = False) -> Tensor:
    """Uniform in +/- sqrt(6 / fan_in) where fan_in is the last dimension."""
    dims = _checked_dims(shape)
    bound = math.sqrt(6.0 / dims[-1])
    return Tensor(as_rng(seed).uniform(-bound, bound, size=dims), requires_grad)


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad)


def scalar(value: float) -> Tensor:
    return Tensor(np.asarray(float(value)))


# ---------------------------------------------------------------------------
# broadcasting helpers


def _broadcast_check(a_shape: tuple, b_shape: tuple) -> None:
    try:
        np.broadcast_shapes(a_shape, b_shape)
    except ValueError:
        raise ShapeError(f"shapes {a_shape} and {b_shape} are not broadcast-compatible") from None


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
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


# ---------------------------------------------------------------------------
# elementwise binary ops


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check(a.shape, b.shape)

    def vjp(g: Array):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return apply_op((a, b), a.data + b.data, vjp)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check(a.shape, b.shape)

    def vjp(g: Array):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return apply_op((a, b), a.data - b.data, vjp)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_check(a.shape, b.shape)
    ad, bd = a.data, b.data

    def vjp(g: Array):
        return _unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)

    return apply_op((a, b), ad * bd, vjp)


# ---------------------------------------------------------------------------
# matmul / structural ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data

    def vjp(g: Array):
        return g @ bd.T, ad.T @ g

    return apply_op((a, b), ad @ bd, vjp)


def transpose(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got shape {x.shape}")

    def vjp(g: Array):
        return (g.T,)

    return apply_op((x,), x.data.T.copy(), vjp)


def reshape(x: Tensor, shape) -> Tensor:
    x = _as_tensor(x)
    new_shape = tuple(int(d) for d in shape)
    if int(np.prod(new_shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} (size {x.size}) into {new_shape}")
    old_shape = x.shape

    def vjp(g: Array):
        return (g.reshape(old_shape),)

    return apply_op((x,), x.data.reshape(new_shape), vjp)


def take_row(x: Tensor, index: int) -> Tensor:
    """Select x[index] along axis 0; 1-D input yields a 0-D scalar."""
    x = _as_tensor(x)
    if x.ndim < 1:
        raise ShapeError("take_row needs at least one dimension")
    if not 0 <= index < x.shape[0]:
        raise ShapeError(f"row {index} out of range for shape {x.shape}")

    def vjp(g: Array):
        full_grad = np.zeros_like(x.data)
        full_grad[index] = g
        return (full_grad,)

    return apply_op((x,), x.data[index].copy(), vjp)


# ---------------------------------------------------------------------------
# elementwise unary ops


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = expit(x.data)

    def vjp(g: Array):
        return (g * out * (1.0 - out),)

    return apply_op((x,), out, vjp)


def neg(x: Tensor) -> Tensor:
    x = _as_tensor(x)

    def vjp(g: Array):
        return (-g,)

    return apply_op((x,), -x.data, vjp)


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    gate = (x.data > 0.0).astype(np.float64)

    def vjp(g: Array):
        return (g * gate,)

    return apply_op((x,), x.data * gate, vjp)


def lgamma(x: Tensor) -> Tensor:
    """log Gamma(x) for x > 0; derivative is the digamma function."""
    x = _as_tensor(x)
    if np.any(x.data <= 0.0):
        raise DomainError("lgamma requires strictly positive inputs")
    xd = x.data

    def vjp(g: Array):
        return (g * digamma(xd),)

    return apply_op((x,), gammaln(xd), vjp)


# ---------------------------------------------------------------------------
# reductions


def _checked_axis(axis: int | None, ndim: int) -> int | None:
    if axis is None:
        return None
    if not -ndim <= axis < ndim:
        raise ShapeError(f"axis {axis} out of range for rank {ndim}")
    return axis % ndim


def _spread(g: Array, shape: tuple, axis: int | None, keepdims: bool) -> Array:
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def reduce_sum(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    axis = _checked_axis(axis, x.ndim)
    shape = x.shape

    def vjp(g: Array):
        return (_spread(g, shape, axis, keepdims),)

    return apply_op((x,), x.data.sum(axis=axis, keepdims=keepdims), vjp)


# ---------------------------------------------------------------------------
# reverse sweep


def backward(loss: Tensor, tape: Tape | None = None) -> None:
    """Accumulate d(loss)/d(leaf) into `.grad` of every requires_grad leaf.

    Walks the tape once in reverse; each node's output gradient is complete
    before the node is visited because consumers are always recorded later
    than producers. Calling backward twice without resetting grads adds the
    two gradient fields together.
    """
    t = tape if tape is not None else _tape
    if loss.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not t.nodes:
        raise ContractError("backward on an empty tape")

    pending: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {id(loss): loss}

    for node in reversed(t.nodes):
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
        leaf.grad = contribution.copy() if leaf.grad is None else leaf.grad + contribution
