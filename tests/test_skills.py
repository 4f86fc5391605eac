import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillmix import autodiff as ad
from skillmix import skills as sk
from skillmix.errors import ContractError, ShapeError
from skillmix.model import DenseLayer

import unfused
from gradcheck import grad_check


@pytest.fixture(autouse=True)
def clean_tape():
    ad.reset_tape()
    yield
    ad.reset_tape()


def dense(phi, base):
    return sk.DenseSkills(ad.tensor(phi, requires_grad=True), ad.tensor(base, requires_grad=True))


def layer_shape(skills):
    """The [dim - 1 -> 1] layer whose flat parameters are the skills' dim entries."""
    return sk.LayerShape(skills.dim - 1, 1)


def composed(skills, w):
    """theta = base + w @ phi, read back through mixed_affine.

    The probe inputs are 0 (giving the bias, exactly) and the unit vectors
    (giving weight + bias), so the read-back is exact for small integers.
    """
    d = skills.dim
    probe = np.vstack([np.zeros(d - 1), np.eye(d - 1)])
    y = sk.mixed_affine(ad.tensor(probe), skills, w, layer_shape(skills)).data[:, 0]
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
# dense composition (mixed_affine)


def test_compose_dense_one_hot_selects_single_skill():
    skills = dense([[1.0, 2.0], [3.0, 4.0]], [10.0, 10.0])
    assert composed(skills, ad.tensor([0.0, 1.0])).tolist() == [13.0, 14.0]


def test_compose_dense_zero_skills_is_base():
    skills = dense(np.zeros((3, 4)), np.arange(4.0))
    assert np.array_equal(composed(skills, ad.tensor([0.2, 0.3, 0.5])), np.arange(4.0))


def test_compose_dense_hand_value():
    skills = dense([[2.0, 0.0], [0.0, 4.0]], [0.0, 0.0])
    assert composed(skills, ad.tensor([0.5, 0.5])).tolist() == [1.0, 2.0]


def test_compose_dense_dimension_mismatch():
    skills = dense(np.zeros((2, 3)), np.zeros(3))
    x = ad.tensor(np.zeros((1, 2)))
    with pytest.raises(ShapeError):
        sk.mixed_affine(x, skills, ad.tensor([1.0, 0.0, 0.0]), layer_shape(skills))
    with pytest.raises(ShapeError):
        sk.mixed_affine(ad.tensor(np.zeros((1, 3))), skills, ad.tensor([1.0, 0.0]), layer_shape(skills))
    with pytest.raises(ShapeError):
        sk.mixed_affine(x, skills, ad.tensor([1.0, 0.0]), sk.LayerShape(1, 1))


def test_compose_dense_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    phi0 = rng.standard_normal((3, 5))
    base0 = rng.standard_normal(5)
    w0 = rng.dirichlet(np.ones(3))
    x0 = rng.standard_normal((2, 4))
    shape = sk.LayerShape(4, 1)

    def through_phi(phi):
        skills = sk.DenseSkills(phi, ad.tensor(base0))
        return probe_objective(sk.mixed_affine(ad.tensor(x0), skills, ad.tensor(w0), shape))

    def through_w(w):
        skills = sk.DenseSkills(ad.tensor(phi0), ad.tensor(base0))
        return probe_objective(sk.mixed_affine(ad.tensor(x0), skills, w, shape))

    def through_base(base):
        skills = sk.DenseSkills(ad.tensor(phi0), base)
        return probe_objective(sk.mixed_affine(ad.tensor(x0), skills, ad.tensor(w0), shape))

    def through_x(x):
        skills = sk.DenseSkills(ad.tensor(phi0), ad.tensor(base0))
        return probe_objective(sk.mixed_affine(x, skills, ad.tensor(w0), shape))

    assert grad_check(through_phi, ad.tensor(phi0)) < 1e-6
    assert grad_check(through_w, ad.tensor(w0)) < 1e-6
    assert grad_check(through_base, ad.tensor(base0)) < 1e-6
    assert grad_check(through_x, ad.tensor(x0)) < 1e-6


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_compose_linear_in_weights(seed):
    ad.reset_tape()
    rng = np.random.default_rng(seed)
    skills = dense(rng.standard_normal((4, 6)), rng.standard_normal(6))
    w1, w2 = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
    alpha, beta = rng.uniform(-2, 2, size=2)
    mixed = composed(skills, ad.tensor(alpha * w1 + beta * w2))
    separate = (
        alpha * composed(skills, ad.tensor(w1))
        + beta * composed(skills, ad.tensor(w2))
        - (alpha + beta - 1) * skills.base.data
    )
    assert np.allclose(mixed, separate, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_norm_control_under_simplex_weights(seed):
    # Convexity: the composed delta never exceeds the largest skill row norm,
    # which is the instability row normalisation exists to prevent.
    ad.reset_tape()
    rng = np.random.default_rng(seed)
    skills = dense(rng.standard_normal((5, 8)), rng.standard_normal(8))
    w = rng.dirichlet(np.ones(5) * rng.uniform(0.2, 3.0))
    theta = composed(skills, ad.tensor(w))
    delta = np.linalg.norm(theta - skills.base.data)
    assert delta <= max(np.linalg.norm(row) for row in skills.phi.data) + 1e-9


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
    skills = dense(rng.standard_normal((num_skills, shape.flat_dim)), rng.standard_normal(shape.flat_dim))
    if masked:
        skills.mask = (rng.uniform(size=skills.phi.shape) < 0.5).astype(np.float64)
    w = ad.tensor(rng.dirichlet(np.ones(num_skills)), requires_grad=True)
    x = ad.tensor(rng.standard_normal((batch, in_dim)), requires_grad=x_needs_grad)
    inputs = [skills.phi, skills.base, w] + ([x] if x_needs_grad else [])
    results = []
    for op in (sk.mixed_affine, unfused.mixed_affine):
        ad.reset_tape()
        out = op(x, skills, w, shape)
        results.append([out.data] + grads_of(probe_objective(out, seed), inputs))
    fused, reference = results
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


def probe_input(skills, batch=3, seed=0):
    return ad.tensor(np.random.default_rng(seed).standard_normal((batch, skills.dim - 1)))


def test_full_mask_equals_dense_composition():
    skills = sk.new_dense_skills(2, 100, np.random.default_rng(0))
    skills.mask = np.ones((2, 100))
    w = ad.tensor([0.3, 0.7])
    x = probe_input(skills)
    sparse_out = sk.mixed_affine(x, skills, w, layer_shape(skills))
    dense_out = sk.mixed_affine(x, sk.DenseSkills(skills.phi, skills.base), w, layer_shape(skills))
    assert np.array_equal(sparse_out.data, dense_out.data)


def test_empty_mask_returns_base():
    skills = sk.new_dense_skills(2, 100, np.random.default_rng(0))
    skills.mask = np.zeros((2, 100))
    x = probe_input(skills)
    out = sk.mixed_affine(x, skills, ad.tensor([0.5, 0.5]), layer_shape(skills))
    base_only = sk.DenseSkills(ad.tensor(np.zeros((2, 100))), skills.base)
    assert np.array_equal(out.data, sk.mixed_affine(x, base_only, ad.tensor([0.5, 0.5]), layer_shape(skills)).data)


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
    out = sk.mixed_affine(probe_input(skills), skills, ad.tensor([0.5, 0.5]), layer.shape)
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
        skills = sk.DenseSkills(phi, ad.tensor(base), mask=mask)
        return probe_objective(sk.mixed_affine(ad.tensor(x), skills, ad.tensor(w), layer_shape(skills)))

    assert grad_check(f, ad.tensor(rng.standard_normal((2, 12)))) < 1e-4


def test_keep_per_skill_never_rounds_to_zero():
    layer = make_sparse(sparsity=0.9, dim=4)
    assert layer.keep == 1
    layer.freeze()
    assert np.array_equal(layer.skills.mask.sum(axis=1), [1, 1])


# ---------------------------------------------------------------------------
# low-rank path


def lora_forward_materialized(x, skills, w):
    """Reference path: build the delta sum_j w_j * (A_j @ B_j) first, then apply it."""
    delta = None
    for j in range(skills.num_skills):
        product = unfused.matmul(unfused.take_row(skills.A, j), unfused.take_row(skills.B, j))
        term = unfused.mul(product, unfused.take_row(w, j))
        delta = term if delta is None else ad.add(delta, term)
    weight = ad.add(skills.W0, delta)
    return ad.add(unfused.matmul(x, unfused.transpose(weight)), skills.b0)


def random_lowrank(rng, num_skills, out_dim, in_dim, rank, seed):
    skills = sk.new_lowrank_skills(num_skills, out_dim, in_dim, rank, np.random.default_rng(seed))
    skills.A.data[:] = rng.standard_normal(skills.A.shape)
    return skills


def test_lora_zero_adapters_reduce_to_base_map():
    skills = sk.new_lowrank_skills(3, 4, 5, 2, np.random.default_rng(0))
    x = ad.tensor(np.random.default_rng(1).standard_normal((1, 5)))
    out = sk.mixed_lowrank(x, skills, ad.tensor(np.ones(3) / 3))
    expected = x.data @ skills.W0.data.T + skills.b0.data
    assert np.allclose(out.data, expected, atol=1e-12)


def test_lora_scalar_hand_value():
    skills = sk.new_lowrank_skills(1, 1, 1, 1, np.random.default_rng(0))
    skills.W0.data[:] = [[1.0]]
    skills.A.data[:] = [[[2.0]]]
    skills.B.data[:] = [[[3.0]]]
    skills.b0.data[:] = [0.0]
    out = sk.mixed_lowrank(ad.tensor([[1.0]]), skills, ad.tensor([1.0]))
    assert out.data.tolist() == [[7.0]]


def test_lora_factored_equals_materialized_on_random_instances():
    rng = np.random.default_rng(8)
    for trial in range(100):
        s, o, i = rng.integers(1, 4), rng.integers(1, 7), rng.integers(1, 7)
        r = int(rng.integers(1, min(o, i) + 1))
        skills = random_lowrank(rng, int(s), int(o), int(i), r, seed=trial)
        w = ad.tensor(rng.dirichlet(np.ones(int(s))))
        x = ad.tensor(rng.standard_normal((3, int(i))))
        fast = sk.mixed_lowrank(x, skills, w)
        slow = lora_forward_materialized(x, skills, w)
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
    skills = random_lowrank(rng, num_skills, out_dim, in_dim, rank, seed)
    w = ad.tensor(rng.dirichlet(np.ones(num_skills)), requires_grad=True)
    x = ad.tensor(rng.standard_normal((batch, in_dim)), requires_grad=True)
    inputs = [x, skills.A, skills.B, skills.W0, skills.b0, w]
    results = []
    for op in (sk.mixed_lowrank, lora_forward_materialized):
        ad.reset_tape()
        out = op(x, skills, w)
        results.append([out.data] + grads_of(probe_objective(out, seed), inputs))
    for got, expected in zip(*results):
        assert got.shape == expected.shape
        assert relative_error(got, expected) <= 1e-12


def test_lora_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    skills = random_lowrank(rng, 2, 3, 4, 2, seed=3)
    w0 = rng.dirichlet(np.ones(2))
    x0 = rng.standard_normal((2, 4))

    def through(name):
        def f(t):
            parts = {"A": skills.A, "B": skills.B, "W0": skills.W0, "b0": skills.b0}
            parts.update(x=ad.tensor(x0), w=ad.tensor(w0))
            parts[name] = t
            x, w = parts.pop("x"), parts.pop("w")
            return probe_objective(sk.mixed_lowrank(x, sk.LowRankSkills(**parts), w))

        return f

    starts = {"A": skills.A.data, "B": skills.B.data, "W0": skills.W0.data, "b0": skills.b0.data, "w": w0, "x": x0}
    for name, start in starts.items():
        assert grad_check(through(name), ad.tensor(start)) < 1e-5, name


def test_lowrank_rank_bound_enforced():
    with pytest.raises(ShapeError):
        sk.new_lowrank_skills(1, 2, 3, 4, np.random.default_rng(0))


def test_lora_input_shape_checks():
    skills = sk.new_lowrank_skills(1, 2, 3, 1, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        sk.mixed_lowrank(ad.tensor(np.ones((1, 4))), skills, ad.tensor([1.0]))
    with pytest.raises(ShapeError):
        sk.mixed_lowrank(ad.tensor(np.ones(3)), skills, ad.tensor([1.0]))


# ---------------------------------------------------------------------------
# a layer reading its own row of stacked allocation rows


def _stacked_rows(rng, lead, num_skills):
    return ad.tensor(rng.dirichlet(np.ones(num_skills), size=lead + (2,)), requires_grad=True)


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("matrix", [0, 1])
@pytest.mark.parametrize("family", ["dense", "lowrank"])
def test_a_layer_reads_its_row_of_the_stacked_rows(family, matrix, lead):
    """Output and gradients equal the op on the lone row; the other matrix's rows get exact zeros."""
    rng = np.random.default_rng(matrix + 2 * len(lead))
    if family == "dense":
        skills = sk.new_dense_skills(3, 4 * 2 + 4, np.random.default_rng(1))
        if lead:
            skills.phi.data = np.repeat(skills.phi.data[None], lead[0], axis=0)
        params = [skills.phi, skills.base]

        def op(x, w, index=None):
            return sk.mixed_affine(x, skills, w, sk.LayerShape(2, 4), index)
    else:
        skills = random_lowrank(rng, 3, 4, 2, 2, seed=1)
        if lead:
            skills.A.data = np.repeat(skills.A.data[None], lead[0], axis=0)
            skills.B.data = np.repeat(skills.B.data[None], lead[0], axis=0)
        params = [skills.A, skills.B, skills.W0, skills.b0]

        def op(x, w, index=None):
            return sk.mixed_lowrank(x, skills, w, index)

    x = ad.tensor(rng.standard_normal(lead + (5, 2)), requires_grad=True)
    rows = _stacked_rows(rng, lead, 3)
    row = ad.tensor(rows.data[..., matrix, :], requires_grad=True)
    stacked_out = op(x, rows, matrix)
    stacked_grads = grads_of(probe_objective(stacked_out), [x, rows] + params)
    ad.reset_tape()
    lone_out = op(x, row)
    lone_grads = grads_of(probe_objective(lone_out), [x, row] + params)
    assert np.array_equal(stacked_out.data, lone_out.data)
    assert np.array_equal(stacked_grads[1][..., matrix, :], lone_grads[1])
    assert np.all(stacked_grads[1][..., 1 - matrix, :] == 0.0)
    for got, expected in zip(stacked_grads[:1] + stacked_grads[2:], lone_grads[:1] + lone_grads[2:]):
        assert np.array_equal(got, expected)


def test_a_layer_rejects_a_matrix_the_rows_do_not_hold():
    skills = sk.new_dense_skills(2, 3, np.random.default_rng(0))
    rows = ad.tensor(np.full((2, 2), 0.5))
    with pytest.raises(ShapeError):
        sk.mixed_affine(ad.tensor(np.ones((1, 2))), skills, rows, sk.LayerShape(2, 1), 2)
    with pytest.raises(ShapeError):
        sk.mixed_affine(ad.tensor(np.ones((1, 2))), skills, ad.tensor([0.5, 0.5]), sk.LayerShape(2, 1), 0)
