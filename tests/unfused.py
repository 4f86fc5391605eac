"""Reference chains of small autodiff ops that the fused ops replace.

Each function records the op-by-op chain the model used before its hot
paths became single tape nodes: the dense/sparse composition and affine map,
the Gumbel draw, the normalised row, the task loss, the IBP prior and the
hypernetwork layer. The equivalence tests compare the fused ops against
these bit for bit. The generic ops only these chains need (subtraction,
product, negation, division, matrix product, transpose, reshape, row
selection, sigmoid, relu, softplus, log-gamma, sum and mean) live here too.
"""

import math
from collections import Counter

import numpy as np
from scipy.special import digamma, expit, gammaln

from skillmix import autodiff as ad
from skillmix.allocation import UNIFORM_EPS, harden
from skillmix.errors import DomainError, ShapeError
from skillmix.priors import _harmonic_sum


def sub(a, b):
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    ad._broadcast_check(a.shape, b.shape)

    def vjp(g):
        return ad.unbroadcast(g, a.shape), ad.unbroadcast(-g, b.shape)

    return ad.apply_op((a, b), a.data - b.data, vjp)


def mul(a, b):
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    ad._broadcast_check(a.shape, b.shape)
    adata, bdata = a.data, b.data

    def vjp(g):
        return ad.unbroadcast(g * bdata, a.shape), ad.unbroadcast(g * adata, b.shape)

    return ad.apply_op((a, b), adata * bdata, vjp)


def div(a, b):
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    ad._broadcast_check(a.shape, b.shape)
    num, den = a.data, b.data
    out = num / den

    def vjp(g):
        return ad.unbroadcast(g / den, a.shape), ad.unbroadcast(-g * out / den, b.shape)

    return ad.apply_op((a, b), out, vjp)


def neg(x):
    x = ad._as_tensor(x)

    def vjp(g):
        return (-g,)

    return ad.apply_op((x,), -x.data, vjp)


def matmul(a, b):
    """Matrix product of the last two axes; leading (stack) axes broadcast."""
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul expects operands of rank >= 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    ad._broadcast_check(a.shape[:-2], b.shape[:-2])
    adata, bdata = a.data, b.data

    def vjp(g):
        return (
            ad.unbroadcast(g @ ad.matrix_t(bdata), a.shape),
            ad.unbroadcast(ad.matrix_t(adata) @ g, b.shape),
        )

    return ad.apply_op((a, b), adata @ bdata, vjp)


def transpose(x):
    """Swap the last two axes."""
    x = ad._as_tensor(x)
    if x.ndim < 2:
        raise ShapeError(f"transpose expects a tensor of rank >= 2, got shape {x.shape}")

    def vjp(g):
        return (ad.matrix_t(g),)

    return ad.apply_op((x,), ad.matrix_t(x.data).copy(), vjp)


def reshape(x, shape):
    x = ad._as_tensor(x)
    new_shape = tuple(int(d) for d in shape)
    if int(np.prod(new_shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} (size {x.size}) into {new_shape}")
    old_shape = x.shape

    def vjp(g):
        return (g.reshape(old_shape),)

    return ad.apply_op((x,), x.data.reshape(new_shape), vjp)


def take_row(x, index):
    """Select x[index] along axis 0; 1-D input yields a 0-D scalar."""
    x = ad._as_tensor(x)
    if x.ndim < 1:
        raise ShapeError("take_row needs at least one dimension")
    if not 0 <= index < x.shape[0]:
        raise ShapeError(f"row {index} out of range for shape {x.shape}")

    def vjp(g):
        full_grad = np.zeros_like(x.data)
        full_grad[index] = g
        return (full_grad,)

    return ad.apply_op((x,), x.data[index].copy(), vjp)


def relu(x):
    x = ad._as_tensor(x)
    gate = (x.data > 0.0).astype(np.float64)

    def vjp(g):
        return (g * gate,)

    return ad.apply_op((x,), x.data * gate, vjp)


def sigmoid(x):
    x = ad._as_tensor(x)
    out = expit(x.data)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return ad.apply_op((x,), out, vjp)


def lgamma(x):
    """log Gamma(x) for x > 0; derivative is the digamma function."""
    x = ad._as_tensor(x)
    if np.any(x.data <= 0.0):
        raise DomainError("lgamma requires strictly positive inputs")
    xd = x.data

    def vjp(g):
        return (g * digamma(xd),)

    return ad.apply_op((x,), gammaln(xd), vjp)


def softplus(x):
    """log(1 + exp(x)) computed without overflow."""
    x = ad._as_tensor(x)
    xd = x.data
    out = np.maximum(xd, 0.0) + np.log1p(np.exp(-np.abs(xd)))
    s = expit(xd)

    def vjp(g):
        return (g * s,)

    return ad.apply_op((x,), out, vjp)


def _checked_axis(axis, ndim):
    if axis is None:
        return None
    if not -ndim <= axis < ndim:
        raise ShapeError(f"axis {axis} out of range for rank {ndim}")
    return axis % ndim


def _spread(g, shape, axis, keepdims):
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def reduce_sum(x, axis=None, keepdims=False):
    x = ad._as_tensor(x)
    axis = _checked_axis(axis, x.ndim)
    shape = x.shape

    def vjp(g):
        return (_spread(g, shape, axis, keepdims),)

    return ad.apply_op((x,), x.data.sum(axis=axis, keepdims=keepdims), vjp)


def reduce_mean(x, axis=None, keepdims=False):
    x = ad._as_tensor(x)
    axis = _checked_axis(axis, x.ndim)
    shape = x.shape
    count = x.size if axis is None else shape[axis]

    def vjp(g):
        return (_spread(g, shape, axis, keepdims) / count,)

    return ad.apply_op((x,), x.data.mean(axis=axis, keepdims=keepdims), vjp)


def narrow(x, start, length):
    """Contiguous slice x[start:start+length] along axis 0."""
    if start < 0 or length < 1 or start + length > x.shape[0]:
        raise ShapeError(f"narrow [{start}:{start + length}] out of range for shape {x.shape}")

    def vjp(g):
        full_grad = np.zeros_like(x.data)
        full_grad[start : start + length] = g
        return (full_grad,)

    return ad.apply_op((x,), x.data[start : start + length].copy(), vjp)


def compose_dense(skills, w):
    """theta = base + sum_j w_j * (phi * mask)_j."""
    num_skills, dim = skills.phi.shape
    if w.ndim != 1 or w.shape[0] != num_skills:
        raise ShapeError(f"weights must be a [{num_skills}] vector, got shape {w.shape}")
    phi = skills.phi if skills.mask is None else mul(skills.phi, ad.tensor(skills.mask))
    mixed = matmul(reshape(w, (1, num_skills)), phi)
    return ad.add(skills.base, reshape(mixed, (dim,)))


def affine(x, theta, shape):
    """Unflatten theta into (weight, bias) and apply x @ W^T + b."""
    o, i = shape.out_dim, shape.in_dim
    weight = reshape(narrow(theta, 0, o * i), (o, i))
    bias = narrow(theta, o * i, o)
    return ad.add(matmul(x, transpose(weight)), bias)


def mixed_affine(x, skills, w, shape):
    return affine(x, compose_dense(skills, w), shape)


def gumbel_sigmoid_sample(logits, tau, rng):
    u = rng.uniform(size=logits.shape)
    u = np.clip(u, UNIFORM_EPS, 1.0 - UNIFORM_EPS)
    noise = np.log(u) - np.log1p(-u)
    return sigmoid(mul(ad.add(logits, ad.tensor(noise)), 1.0 / tau))


def normalize_rows(t):
    """Every row scaled to sum to one."""
    sums = reduce_sum(t, axis=1, keepdims=True)
    if np.any(sums.data < 1e-12):
        raise DomainError("row sum below 1e-12; cannot normalise")
    return div(t, sums)


def task_loss(pred, targets, kind):
    y = ad.tensor(targets)
    if kind == "regression":
        err = sub(pred, y)
        return reduce_mean(mul(err, err))
    return reduce_mean(softplus(neg(mul(y, pred))))


def history_log_term(binary):
    """Sum over distinct column bit-patterns h of log(count(h)!), read one cell at a time."""
    counts = Counter(tuple(int(v) for v in binary[:, j]) for j in range(binary.shape[1]))
    return math.fsum(gammaln(c + 1.0) for c in counts.values())


def relaxed_ibp_log_prob(z_hat, alpha):
    """The relaxed IBP log-density as the lgamma chain it was before it became one node."""
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    num_tasks = z_hat.shape[0]
    hardened = harden(z_hat)
    active = hardened.sum(axis=0) > 0

    constant = float(active.sum()) * math.log(alpha)
    constant -= history_log_term(hardened)
    constant -= alpha * _harmonic_sum(num_tasks)
    constant -= float(active.sum()) * float(gammaln(num_tasks + 1.0))

    gate = active.astype(np.float64)
    column_mass = reduce_sum(z_hat, axis=0)
    safe_mass = ad.add(column_mass, ad.tensor(1.0 - gate))
    per_column = ad.add(
        lgamma(sub(float(num_tasks) + 1.0, safe_mass)),
        lgamma(safe_mass),
    )
    gated = mul(per_column, ad.tensor(gate))
    return ad.add(reduce_sum(gated), ad.tensor(constant))


def ibp_regularizer(z_hat, alpha, strength):
    return mul(neg(relaxed_ibp_log_prob(z_hat, alpha)), strength)


def skill_forward(model, task, x, rng, tau):
    """SkillModel.forward for a base task, learnable matrices and dense layers, op by op.

    Each matrix is its own slice of the stacked logits, drawn, normalised
    and scored apart; the relaxed matrices come back one per matrix.
    """
    stack = model.task_rows.base
    per_matrix, relaxed_mats = [], []
    for m in range(stack.shape[0]):
        relaxed = gumbel_sigmoid_sample(take_row(stack, m), tau, rng)
        relaxed_mats.append(relaxed)
        per_matrix.append(take_row(normalize_rows(relaxed), task))
    h = x
    for layer_index, layer in enumerate(model.layers):
        w = per_matrix[layer_index if len(per_matrix) > 1 else 0]
        h = mixed_affine(h, layer.skills, w, layer.shape)
    return h, relaxed_mats


def hypernet_generate(column, layer):
    """The (A, B) adapter pair a hypernet layer generates from an [..., embed_dim, 1] column tensor, op by op."""
    lead = column.shape[:-2]
    o, i, r = layer.shape.out_dim, layer.shape.in_dim, layer.rank
    hidden_a = relu(matmul(layer.w1_a, column))
    hidden_b = relu(matmul(layer.w1_b, column))
    a = reshape(matmul(layer.w2_a, hidden_a), lead + (o, r))
    b = reshape(matmul(layer.w2_b, hidden_b), lead + (r, i))
    return a, b


def hypernet_layer(layer, x, column):
    """x @ W0^T + (x @ B^T) @ A^T + b0, op by op."""
    a, b = hypernet_generate(column, layer)
    y = matmul(x, transpose(layer.W0))
    y = ad.add(y, matmul(matmul(x, transpose(b)), transpose(a)))
    return ad.add(y, layer.b0)


def hypernet_forward(model, task, x):
    """HypernetModel.forward, op by op: one embedding column per layer."""
    base_count, embed_dim = model.task_rows.base.shape
    h = x
    for layer in model.layers:
        if task < base_count:
            row = take_row(model.task_rows.base, task)
        else:
            row = model.task_rows.new
        h = hypernet_layer(layer, h, reshape(row, row.shape[:-2] + (embed_dim, 1)))
    return h, []
