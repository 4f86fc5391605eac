import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillmix import autodiff as ad
from skillmix import skills as sk
from skillmix.errors import ContractError, ShapeError
from skillmix.skills import DenseLayer, LowRankLayer

import unfused
from gradcheck import grad_check


@pytest.fixture(autouse=True)
def clean_tape():
    ad.reset_tape()
    yield
    ad.reset_tape()


def layer_shape(dim):
    """The [dim - 1 -> 1] layer whose flat parameters are dim entries."""
    return sk.LayerShape(dim - 1, 1)


def dense(phi, base, mask=None, shape=None):
    """A dense layer whose skills record holds `phi`, `base` and `mask`; arrays become trainable leaves.

    The layer is `shape`, by default the [dim - 1 -> 1] layer of `phi`'s rows.
    """
    phi, base = (t if isinstance(t, ad.Tensor) else ad.tensor(t, requires_grad=True) for t in (phi, base))
    layer = DenseLayer(shape or layer_shape(phi.shape[-1]), phi.shape[-2], np.random.default_rng(0))
    layer.skills = sk.DenseSkills(phi, base, mask)
    return layer


def kaiming_dense(num_skills, dim, seed):
    """The [dim - 1 -> 1] dense layer, its skills drawn by the layer: kaiming rows, then a kaiming base."""
    return DenseLayer(layer_shape(dim), num_skills, np.random.default_rng(seed))


def one_row(w):
    """The weight row `w` as a one-row stack [1, S], the layer reading it as matrix 0."""
    return ad.tensor(np.asarray(w, dtype=np.float64)[None], requires_grad=True)


def composed(layer, w):
    """theta = base + w @ phi for the weight row `w`, read back through the layer's forward.

    The probe inputs are 0 (giving the bias, exactly) and the unit vectors
    (giving weight + bias), so the read-back is exact for small integers.
    """
    d = layer.shape.in_dim
    probe = np.vstack([np.zeros(d), np.eye(d)])
    y = layer.forward(ad.tensor(probe), one_row(w), 0).data[:, 0]
    return np.append(y[1:] - y[0], y[0])


def probe_objective(out, seed=0):
    """A scalar that depends on every output entry."""
    probe = np.random.default_rng(seed).standard_normal(out.shape)
    return unfused.reduce_sum(unfused.mul(out, ad.tensor(probe)))


def grads_of(loss, tensors):
    for t in tensors:
        t.grad = None
    ad.backward(loss)
    return [t.grad for t in tensors]


# ---------------------------------------------------------------------------
# dense composition (DenseLayer.forward)


def test_compose_dense_one_hot_selects_single_skill():
    layer = dense([[1.0, 2.0], [3.0, 4.0]], [10.0, 10.0])
    assert composed(layer, [0.0, 1.0]).tolist() == [13.0, 14.0]


def test_compose_dense_zero_skills_is_base():
    layer = dense(np.zeros((3, 4)), np.arange(4.0))
    assert np.array_equal(composed(layer, [0.2, 0.3, 0.5]), np.arange(4.0))


def test_compose_dense_hand_value():
    layer = dense([[2.0, 0.0], [0.0, 4.0]], [0.0, 0.0])
    assert composed(layer, [0.5, 0.5]).tolist() == [1.0, 2.0]


def test_compose_dense_dimension_mismatch():
    layer = dense(np.zeros((2, 3)), np.zeros(3))
    x = ad.tensor(np.zeros((1, 2)))
    with pytest.raises(ShapeError):
        layer.forward(x, one_row([1.0, 0.0, 0.0]), 0)
    with pytest.raises(ShapeError):
        layer.forward(ad.tensor(np.zeros((1, 3))), one_row([1.0, 0.0]), 0)


def test_compose_dense_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    phi0 = rng.standard_normal((3, 5))
    base0 = rng.standard_normal(5)
    w0 = rng.dirichlet(np.ones(3))
    x0 = rng.standard_normal((2, 4))

    def through_phi(phi):
        return probe_objective(dense(phi, ad.tensor(base0)).forward(ad.tensor(x0), ad.tensor(w0[None]), 0))

    def through_w(w):
        return probe_objective(dense(ad.tensor(phi0), ad.tensor(base0)).forward(ad.tensor(x0), w, 0))

    def through_base(base):
        return probe_objective(dense(ad.tensor(phi0), base).forward(ad.tensor(x0), ad.tensor(w0[None]), 0))

    def through_x(x):
        return probe_objective(dense(ad.tensor(phi0), ad.tensor(base0)).forward(x, ad.tensor(w0[None]), 0))

    assert grad_check(through_phi, ad.tensor(phi0)) < 1e-6
    assert grad_check(through_w, ad.tensor(w0[None])) < 1e-6
    assert grad_check(through_base, ad.tensor(base0)) < 1e-6
    assert grad_check(through_x, ad.tensor(x0)) < 1e-6


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_compose_linear_in_weights(seed):
    ad.reset_tape()
    rng = np.random.default_rng(seed)
    layer = dense(rng.standard_normal((4, 6)), rng.standard_normal(6))
    w1, w2 = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
    alpha, beta = rng.uniform(-2, 2, size=2)
    mixed = composed(layer, alpha * w1 + beta * w2)
    separate = (
        alpha * composed(layer, w1)
        + beta * composed(layer, w2)
        - (alpha + beta - 1) * layer.skills.base.data
    )
    assert np.allclose(mixed, separate, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_norm_control_under_simplex_weights(seed):
    # Convexity: the composed delta never exceeds the largest skill row norm,
    # which is the instability row normalisation exists to prevent.
    ad.reset_tape()
    rng = np.random.default_rng(seed)
    layer = dense(rng.standard_normal((5, 8)), rng.standard_normal(8))
    w = rng.dirichlet(np.ones(5) * rng.uniform(0.2, 3.0))
    theta = composed(layer, w)
    delta = np.linalg.norm(theta - layer.skills.base.data)
    assert delta <= max(np.linalg.norm(row) for row in layer.skills.phi.data) + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 5),
    in_dim=st.integers(1, 5),
    out_dim=st.integers(1, 4),
    num_skills=st.integers(1, 5),
    masked=st.booleans(),
    x_needs_grad=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_mixed_affine_equals_unfused_chain(batch, in_dim, out_dim, num_skills, masked, x_needs_grad, seed):
    rng = np.random.default_rng(seed)
    shape = sk.LayerShape(in_dim, out_dim)
    layer = dense(rng.standard_normal((num_skills, shape.flat_dim)), rng.standard_normal(shape.flat_dim), shape=shape)
    skills = layer.skills
    if masked:
        skills.mask = (rng.uniform(size=skills.phi.shape) < 0.5).astype(np.float64)
    w = ad.tensor(rng.dirichlet(np.ones(num_skills)), requires_grad=True)
    w_stack = ad.tensor(w.data[None], requires_grad=True)
    x = ad.tensor(rng.standard_normal((batch, in_dim)), requires_grad=x_needs_grad)
    inputs = [skills.phi, skills.base] + ([x] if x_needs_grad else [])
    out = layer.forward(x, w_stack, 0)
    fused = [out.data] + grads_of(probe_objective(out, seed), inputs + [w_stack])
    fused[-1] = fused[-1][..., 0, :]
    ad.reset_tape()
    out = unfused.mixed_affine(x, skills, w, shape)
    reference = [out.data] + grads_of(probe_objective(out, seed), inputs + [w])
    if not x_needs_grad:
        assert x.grad is None
    for got, expected in zip(fused, reference):
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# sparse mask selection


def test_mask_selects_largest_change():
    before = np.zeros((1, 3))
    after = np.array([[0.0, 5.0, 1.0]])
    assert sk.select_sparse_mask(before, after, 1).tolist() == [[0.0, 1.0, 0.0]]


def test_mask_ties_break_to_lower_index():
    before = np.zeros((1, 4))
    after = np.ones((1, 4))
    assert sk.select_sparse_mask(before, after, 2).tolist() == [[1.0, 1.0, 0.0, 0.0]]


def test_mask_matches_full_sort_oracle():
    rng = np.random.default_rng(4)
    before = rng.standard_normal((2, 10))
    after = rng.standard_normal((2, 10))
    mask = sk.select_sparse_mask(before, after, 3)
    assert np.array_equal(mask.sum(axis=1), [3, 3])
    delta = np.abs(after - before)
    for row in range(2):
        # exhaustive oracle: sort every index by change, keep the top three
        expected = sorted(range(10), key=lambda j: (-delta[row, j], j))[:3]
        assert sorted(np.flatnonzero(mask[row])) == sorted(expected)


def test_mask_k_out_of_range():
    with pytest.raises(ContractError):
        sk.select_sparse_mask(np.zeros((1, 3)), np.ones((1, 3)), 0)
    with pytest.raises(ContractError):
        sk.select_sparse_mask(np.zeros((1, 3)), np.ones((1, 3)), 4)


# ---------------------------------------------------------------------------
# sparse composition


def make_sparse(sparsity=0.9, num_skills=2, dim=100, seed=0):
    """A sparse layer whose flat skill rows have `dim` entries, its mask not yet frozen."""
    return DenseLayer(sk.LayerShape(dim - 1, 1), num_skills, np.random.default_rng(seed), sparsity)


def probe_input(layer, batch=3, seed=0):
    return ad.tensor(np.random.default_rng(seed).standard_normal((batch, layer.shape.in_dim)))


def test_full_mask_equals_dense_composition():
    layer = kaiming_dense(2, 100, seed=0)
    w = one_row([0.3, 0.7])
    x = probe_input(layer)
    dense_out = layer.forward(x, w, 0)
    layer.skills.mask = np.ones((2, 100))
    sparse_out = layer.forward(x, w, 0)
    assert np.array_equal(sparse_out.data, dense_out.data)


def test_empty_mask_returns_base():
    layer = kaiming_dense(2, 100, seed=0)
    layer.skills.mask = np.zeros((2, 100))
    x = probe_input(layer)
    out = layer.forward(x, one_row([0.5, 0.5]), 0)
    base_only = dense(ad.tensor(np.zeros((2, 100))), layer.skills.base)
    assert np.array_equal(out.data, base_only.forward(x, one_row([0.5, 0.5]), 0).data)


def test_ninety_percent_sparsity_keeps_ten_of_hundred():
    layer = make_sparse(sparsity=0.9, dim=100)
    assert layer.skills.mask is None
    layer.skills.phi.data += np.random.default_rng(5).standard_normal(layer.skills.phi.shape)
    layer.freeze()
    assert layer.keep == 10
    assert np.array_equal(layer.skills.mask.sum(axis=1), [10, 10])


def test_freeze_keeps_the_entries_that_changed_most_and_only_once():
    layer = make_sparse(sparsity=0.5, num_skills=1, dim=4)
    layer.skills.phi.data += [[0.0, 3.0, -2.0, 0.5]]
    layer.freeze()
    assert layer.skills.mask.tolist() == [[0.0, 1.0, 1.0, 0.0]]
    # The warm-up copy is gone: a later change does not move the mask.
    layer.skills.phi.data += [[9.0, 0.0, 0.0, 9.0]]
    layer.freeze()
    assert layer.skills.mask.tolist() == [[0.0, 1.0, 1.0, 0.0]]


def test_masked_entries_get_exactly_zero_gradient():
    layer = make_sparse(sparsity=0.9, dim=100)
    layer.skills.phi.data += np.random.default_rng(6).standard_normal(layer.skills.phi.shape)
    layer.freeze()
    skills = layer.skills
    out = layer.forward(probe_input(layer), one_row([0.5, 0.5]), 0)
    ad.backward(unfused.reduce_sum(unfused.mul(out, out)))
    masked = skills.phi.grad[skills.mask == 0]
    unmasked = skills.phi.grad[skills.mask == 1]
    assert np.all(masked == 0.0)
    assert np.any(unmasked != 0.0)


def test_unmasked_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    mask = (rng.uniform(size=(2, 12)) < 0.4).astype(np.float64)
    base = rng.standard_normal(12)
    w = rng.dirichlet(np.ones(2))
    x = rng.standard_normal((3, 11))

    def f(phi):
        return probe_objective(dense(phi, ad.tensor(base), mask).forward(ad.tensor(x), ad.tensor(w[None]), 0))

    assert grad_check(f, ad.tensor(rng.standard_normal((2, 12)))) < 1e-4


def test_keep_per_skill_never_rounds_to_zero():
    layer = make_sparse(sparsity=0.9, dim=4)
    assert layer.keep == 1
    layer.freeze()
    assert np.array_equal(layer.skills.mask.sum(axis=1), [1, 1])


# ---------------------------------------------------------------------------
# low-rank path


def lora_forward_materialized(x, layer, w):
    """Reference path: build the delta sum_j w_j * (A_j @ B_j) first, then apply it."""
    delta = None
    for j in range(layer.A.shape[0]):
        product = unfused.matmul(unfused.take_row(layer.A, j), unfused.take_row(layer.B, j))
        term = unfused.mul(product, unfused.take_row(w, j))
        delta = term if delta is None else ad.add(delta, term)
    weight = ad.add(layer.W0, delta)
    return ad.add(unfused.matmul(x, unfused.transpose(weight)), layer.b0)


def lowrank_layer(num_skills, out_dim, in_dim, rank, seed):
    return LowRankLayer(sk.LayerShape(in_dim, out_dim), num_skills, rank, np.random.default_rng(seed))


def random_lowrank(rng, num_skills, out_dim, in_dim, rank, seed):
    layer = lowrank_layer(num_skills, out_dim, in_dim, rank, seed)
    layer.A.data[:] = rng.standard_normal(layer.A.shape)
    return layer


def test_lora_zero_adapters_reduce_to_base_map():
    layer = lowrank_layer(3, 4, 5, 2, seed=0)
    x = ad.tensor(np.random.default_rng(1).standard_normal((1, 5)))
    out = layer.forward(x, one_row(np.ones(3) / 3), 0)
    expected = x.data @ layer.W0.data.T + layer.b0.data
    assert np.allclose(out.data, expected, atol=1e-12)


def test_lora_scalar_hand_value():
    layer = lowrank_layer(1, 1, 1, 1, seed=0)
    layer.W0.data[:] = [[1.0]]
    layer.A.data[:] = [[[2.0]]]
    layer.B.data[:] = [[[3.0]]]
    layer.b0.data[:] = [0.0]
    out = layer.forward(ad.tensor([[1.0]]), one_row([1.0]), 0)
    assert out.data.tolist() == [[7.0]]


def test_lora_factored_equals_materialized_on_random_instances():
    rng = np.random.default_rng(8)
    for trial in range(100):
        s, o, i = rng.integers(1, 4), rng.integers(1, 7), rng.integers(1, 7)
        r = int(rng.integers(1, min(o, i) + 1))
        layer = random_lowrank(rng, int(s), int(o), int(i), r, seed=trial)
        w = ad.tensor(rng.dirichlet(np.ones(int(s))))
        x = ad.tensor(rng.standard_normal((3, int(i))))
        fast = layer.forward(x, one_row(w.data), 0)
        slow = lora_forward_materialized(x, layer, w)
        assert np.max(np.abs(fast.data - slow.data)) < 1e-12


def relative_error(got, expected):
    return np.max(np.abs(got - expected)) / max(np.max(np.abs(expected)), 1e-300)


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 5),
    in_dim=st.integers(1, 6),
    out_dim=st.integers(1, 6),
    num_skills=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
def test_mixed_lowrank_matches_materialized_reference(batch, in_dim, out_dim, num_skills, seed):
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, min(in_dim, out_dim) + 1))
    layer = random_lowrank(rng, num_skills, out_dim, in_dim, rank, seed)
    w = ad.tensor(rng.dirichlet(np.ones(num_skills)), requires_grad=True)
    w_stack = one_row(w.data)
    x = ad.tensor(rng.standard_normal((batch, in_dim)), requires_grad=True)
    inputs = [x, layer.A, layer.B, layer.W0, layer.b0]
    out = layer.forward(x, w_stack, 0)
    fast = [out.data] + grads_of(probe_objective(out, seed), inputs + [w_stack])
    fast[-1] = fast[-1][..., 0, :]
    ad.reset_tape()
    out = lora_forward_materialized(x, layer, w)
    slow = [out.data] + grads_of(probe_objective(out, seed), inputs + [w])
    for got, expected in zip(fast, slow):
        assert got.shape == expected.shape
        assert relative_error(got, expected) <= 1e-12


def test_lora_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    layer = random_lowrank(rng, 2, 3, 4, 2, seed=3)
    w0 = rng.dirichlet(np.ones(2))
    x0 = rng.standard_normal((2, 4))

    def through(name):
        def f(t):
            parts = {"x": ad.tensor(x0), "w": ad.tensor(w0[None]), "layer": copy.copy(layer)}
            if name in parts:
                parts[name] = t
            else:
                setattr(parts["layer"], name, t)
            return probe_objective(parts["layer"].forward(parts["x"], parts["w"], 0))

        return f

    starts = {"A": layer.A.data, "B": layer.B.data, "W0": layer.W0.data, "b0": layer.b0.data, "w": w0[None], "x": x0}
    for name, start in starts.items():
        assert grad_check(through(name), ad.tensor(start)) < 1e-5, name


def test_lowrank_rank_is_clamped_to_the_layer_size():
    layer = LowRankLayer(sk.LayerShape(3, 2), 1, 4, np.random.default_rng(0))
    assert layer.rank == 2
    assert layer.A.shape == (1, 2, 2) and layer.B.shape == (1, 2, 3)


def test_lora_input_shape_checks():
    layer = lowrank_layer(1, 2, 3, 1, seed=0)
    with pytest.raises(ShapeError):
        layer.forward(ad.tensor(np.ones((1, 4))), one_row([1.0]), 0)
    with pytest.raises(ShapeError):
        layer.forward(ad.tensor(np.ones(3)), one_row([1.0]), 0)


# ---------------------------------------------------------------------------
# a layer reading its own row of stacked allocation rows


def _stacked_rows(rng, lead, num_skills):
    return ad.tensor(rng.dirichlet(np.ones(num_skills), size=lead + (2,)), requires_grad=True)


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("matrix", [0, 1])
@pytest.mark.parametrize("family", ["dense", "lowrank"])
def test_a_layer_reads_its_row_of_the_stacked_rows(family, matrix, lead):
    """Output and gradients equal the layer's on the lone row; the other matrix's rows get exact zeros."""
    rng = np.random.default_rng(matrix + 2 * len(lead))
    if family == "dense":
        layer = DenseLayer(sk.LayerShape(2, 4), 3, np.random.default_rng(1))
        skills = layer.skills
        if lead:
            skills.phi.data = np.repeat(skills.phi.data[None], lead[0], axis=0)
        params = [skills.phi, skills.base]
    else:
        layer = random_lowrank(rng, 3, 4, 2, 2, seed=1)
        if lead:
            layer.A.data = np.repeat(layer.A.data[None], lead[0], axis=0)
            layer.B.data = np.repeat(layer.B.data[None], lead[0], axis=0)
        params = [layer.A, layer.B, layer.W0, layer.b0]

    x = ad.tensor(rng.standard_normal(lead + (5, 2)), requires_grad=True)
    rows = _stacked_rows(rng, lead, 3)
    row = ad.tensor(rows.data[..., matrix : matrix + 1, :], requires_grad=True)
    stacked_out = layer.forward(x, rows, matrix)
    stacked_grads = grads_of(probe_objective(stacked_out), [x, rows] + params)
    ad.reset_tape()
    lone_out = layer.forward(x, row, 0)
    lone_grads = grads_of(probe_objective(lone_out), [x, row] + params)
    assert np.array_equal(stacked_out.data, lone_out.data)
    assert np.array_equal(stacked_grads[1][..., matrix, :], lone_grads[1][..., 0, :])
    assert np.all(stacked_grads[1][..., 1 - matrix, :] == 0.0)
    for got, expected in zip(stacked_grads[:1] + stacked_grads[2:], lone_grads[:1] + lone_grads[2:]):
        assert np.array_equal(got, expected)


def test_a_layer_rejects_a_matrix_the_rows_do_not_hold():
    layer = kaiming_dense(2, 3, seed=0)
    rows = ad.tensor(np.full((2, 2), 0.5))
    with pytest.raises(ShapeError):
        layer.forward(ad.tensor(np.ones((1, 2))), rows, 2)
    with pytest.raises(ShapeError):
        layer.forward(ad.tensor(np.ones((1, 2))), ad.tensor([0.5, 0.5]), 0)
