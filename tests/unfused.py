"""Reference chains of small autodiff ops that the fused ops replace.

Each function records the op-by-op chain the model used before its hot
paths became single tape nodes: the dense/sparse composition and affine map,
the Gumbel draw, the normalised row and the task loss. The equivalence tests
compare the fused ops against these bit for bit. The generic ops only these
chains need (division, softplus, mean) live here too.
"""

import numpy as np
from scipy.special import expit

from skillmix import autodiff as ad
from skillmix.allocation import UNIFORM_EPS
from skillmix.errors import DegenerateMatrixError, ShapeError


def div(a, b):
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    ad._broadcast_check(a.shape, b.shape)
    num, den = a.data, b.data
    out = num / den

    def vjp(g):
        return ad._unbroadcast(g / den, a.shape), ad._unbroadcast(-g * out / den, b.shape)

    return ad.apply_op((a, b), out, vjp)


def softplus(x):
    """log(1 + exp(x)) computed without overflow."""
    x = ad._as_tensor(x)
    xd = x.data
    out = np.maximum(xd, 0.0) + np.log1p(np.exp(-np.abs(xd)))
    s = expit(xd)

    def vjp(g):
        return (g * s,)

    return ad.apply_op((x,), out, vjp)


def reduce_mean(x, axis=None, keepdims=False):
    x = ad._as_tensor(x)
    axis = ad._checked_axis(axis, x.ndim)
    shape = x.shape
    count = x.size if axis is None else shape[axis]

    def vjp(g):
        return (ad._spread(g, shape, axis, keepdims) / count,)

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
    if w.ndim != 1 or w.shape[0] != skills.num_skills:
        raise ShapeError(f"weights must be a [{skills.num_skills}] vector, got shape {w.shape}")
    phi = skills.phi if skills.mask is None else ad.mul(skills.phi, ad.tensor(skills.mask))
    mixed = ad.matmul(ad.reshape(w, (1, skills.num_skills)), phi)
    return ad.add(skills.base, ad.reshape(mixed, (skills.dim,)))


def affine(x, theta, shape):
    """Unflatten theta into (weight, bias) and apply x @ W^T + b."""
    o, i = shape.out_dim, shape.in_dim
    weight = ad.reshape(narrow(theta, 0, o * i), (o, i))
    bias = narrow(theta, o * i, o)
    return ad.add(ad.matmul(x, ad.transpose(weight)), bias)


def mixed_affine(x, skills, w, shape):
    return affine(x, compose_dense(skills, w), shape)


def gumbel_sigmoid_sample(logits, tau, rng):
    u = rng.uniform(size=logits.shape)
    u = np.clip(u, UNIFORM_EPS, 1.0 - UNIFORM_EPS)
    noise = np.log(u) - np.log1p(-u)
    return ad.sigmoid((logits + ad.tensor(noise)) * (1.0 / tau))


def normalize_rows(t):
    """Every row scaled to sum to one."""
    sums = ad.reduce_sum(t, axis=1, keepdims=True)
    if np.any(sums.data < 1e-12):
        raise DegenerateMatrixError("row sum below 1e-12; cannot normalise")
    return div(t, sums)


def task_loss(pred, targets, kind):
    y = ad.tensor(targets)
    if kind == "regression":
        err = ad.sub(pred, y)
        return reduce_mean(ad.mul(err, err))
    return reduce_mean(softplus(ad.neg(ad.mul(y, pred))))


def skill_forward(model, task, x, rng, tau):
    """SkillModel.forward for a base task, learnable matrices and dense layers, op by op."""
    alloc = model.alloc
    per_matrix, relaxed_mats = [], []
    for block in alloc.matrices:
        relaxed = gumbel_sigmoid_sample(block, tau, rng)
        relaxed_mats.append(relaxed)
        per_matrix.append(ad.take_row(normalize_rows(relaxed), task))
    h = x
    for layer_index, layer in enumerate(model.layers):
        w = per_matrix[layer_index if len(per_matrix) > 1 else 0]
        h = mixed_affine(h, layer.skills, w, layer.shape)
    return h, relaxed_mats
