import math

import numpy as np
import pytest

from skillmix import autodiff as ad
from skillmix.errors import ContractError, DomainError, ShapeError

import unfused
from gradcheck import fresh_tape, grad_check


@pytest.fixture(autouse=True)
def clean_tape():
    ad.reset_tape()
    yield
    ad.reset_tape()


# ---------------------------------------------------------------------------
# creation


def test_zeros():
    assert ad.zeros((2, 2)).data.tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_kaiming_uniform_bound_from_fan_in():
    t = ad.kaiming_uniform((4, 8), np.random.default_rng(7))
    bound = math.sqrt(6.0 / 8.0)
    assert np.all(np.abs(t.data) <= bound)
    assert t.data.std() > 0.1  # actually random, not degenerate


@pytest.mark.parametrize("shape", [(0,), (2, 0), (-1, 3)])
def test_bad_dimensions_rejected(shape):
    with pytest.raises(ShapeError):
        ad.zeros(shape)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    m = ad.tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = ad.tensor(np.eye(2))
    assert np.array_equal(unfused.matmul(eye, m).data, m.data)


def test_matmul_hand_value():
    out = unfused.matmul(ad.tensor([[1.0, 2.0]]), ad.tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        unfused.matmul(ad.tensor(np.ones((3, 4))), ad.tensor(np.ones((3, 2))))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    b = ad.tensor(rng.standard_normal((4, 2)))
    err = grad_check(lambda a: unfused.reduce_sum(unfused.matmul(a, b)), ad.tensor(rng.standard_normal((3, 4))))
    assert err < 1e-5


# ---------------------------------------------------------------------------
# unary ops


def test_sigmoid_values():
    assert unfused.sigmoid(ad.tensor([0.0])).data[0] == 0.5
    assert unfused.sigmoid(ad.tensor([2.0])).data[0] == pytest.approx(0.8807970779778823, abs=1e-12)


def test_lgamma_domain():
    with pytest.raises(DomainError):
        unfused.lgamma(ad.tensor([-1.0]))


def test_exp_neg_abs_relu_softplus_values():
    x = ad.tensor([-2.0, 0.0, 3.0])
    assert np.allclose(unfused.neg(x).data, [2.0, 0.0, -3.0])
    assert np.allclose(unfused.relu(x).data, [0.0, 0.0, 3.0])
    assert np.allclose(unfused.softplus(x).data, np.log1p(np.exp(x.data)))


def test_softplus_stable_for_large_inputs():
    out = unfused.softplus(ad.tensor([800.0, -800.0]))
    assert out.data[0] == pytest.approx(800.0)
    assert out.data[1] == 0.0


@pytest.mark.parametrize("f", [unfused.sigmoid, unfused.neg, unfused.relu, unfused.softplus])
def test_unary_gradients(f):
    rng = np.random.default_rng(42)
    err = grad_check(lambda t: unfused.reduce_sum(f(t)), ad.tensor(rng.standard_normal(6) + 0.1))
    assert err < 1e-6


# ---------------------------------------------------------------------------
# binary ops and broadcasting


def test_binary_hand_values():
    assert ad.add(ad.tensor([1.0, 2.0]), ad.tensor([0.0, 0.0])).data.tolist() == [1.0, 2.0]
    assert unfused.sub(ad.tensor([3.0]), 1.0).data.tolist() == [2.0]
    assert unfused.mul(2.0, ad.tensor([3.0])).data.tolist() == [6.0]


def test_incompatible_shapes_rejected():
    with pytest.raises(ShapeError):
        ad.add(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((2, 2))))


def test_broadcast_vector_gradient_is_column_sum():
    matrix = ad.tensor(np.arange(6.0).reshape(2, 3))
    vec = ad.tensor(np.zeros(3), requires_grad=True)
    ad.backward(unfused.reduce_sum(unfused.sub(matrix, vec)))
    assert np.array_equal(vec.grad, [-2.0, -2.0, -2.0])


def test_broadcast_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    m = ad.tensor(rng.standard_normal((2, 3)))
    err = grad_check(lambda v: unfused.reduce_sum(unfused.mul(ad.add(m, v), ad.add(m, v))), ad.tensor(rng.standard_normal(3)))
    assert err < 1e-6


def test_div_gradients():
    rng = np.random.default_rng(5)
    a = ad.tensor(rng.standard_normal((2, 2)))
    err = grad_check(lambda b: unfused.reduce_sum(unfused.div(a, b)), ad.tensor(rng.uniform(1.0, 2.0, (2, 2))))
    assert err < 1e-6


# ---------------------------------------------------------------------------
# reductions and structural ops


def test_reduce_values():
    assert unfused.reduce_sum(ad.tensor([1.0, 2.0, 3.0])).item() == 6.0
    out = unfused.reduce_mean(ad.tensor([[1.0, 3.0], [5.0, 7.0]]), axis=0)
    assert out.data.tolist() == [3.0, 5.0]


def test_reduce_axis_out_of_range():
    with pytest.raises(ShapeError):
        unfused.reduce_sum(ad.tensor([[1.0]]), axis=2)


def test_mean_gradient_is_one_over_n():
    x = ad.tensor(np.arange(8.0), requires_grad=True)
    ad.backward(unfused.reduce_mean(x))
    assert np.allclose(x.grad, 1.0 / 8.0)


def test_reshape_transpose_take_row():
    x = ad.tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    assert unfused.reshape(x, (3, 2)).shape == (3, 2)
    assert np.array_equal(unfused.transpose(x).data, x.data.T)
    assert np.array_equal(unfused.take_row(x, 1).data, [3.0, 4.0, 5.0])
    with pytest.raises(ShapeError):
        unfused.reshape(x, (4, 2))
    with pytest.raises(ShapeError):
        unfused.take_row(x, 2)


def test_take_row_gradient_scatters():
    x = ad.tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ad.backward(unfused.reduce_sum(unfused.take_row(x, 0)))
    assert np.array_equal(x.grad, [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])


def test_an_input_listed_twice_accumulates_its_parts_in_order():
    x = ad.tensor([1.0, 2.0], requires_grad=True)
    parts = []

    def vjp(g):
        parts.append(g)
        return g * 2.0, g * 3.0

    out = ad.apply_op((x, x), x.data * 5.0, vjp)
    assert len(ad.active_tape()) == 1
    ad.backward(unfused.reduce_sum(out))
    assert np.array_equal(x.grad, [5.0, 5.0])
    assert len(parts) == 1


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_sum_gives_ones():
    x = ad.tensor(np.random.default_rng(0).standard_normal((3, 4)), requires_grad=True)
    ad.backward(unfused.reduce_sum(x))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_quadratic_gives_2x():
    x = ad.tensor([1.0, -2.0, 3.0], requires_grad=True)
    ad.backward(unfused.reduce_sum(unfused.mul(x, x)))
    assert np.allclose(x.grad, 2.0 * x.data)


def test_backward_requires_scalar_and_nonempty_tape():
    x = ad.tensor([1.0, 2.0], requires_grad=True)
    y = unfused.mul(x, x)
    with pytest.raises(ContractError):
        ad.backward(y)
    ad.reset_tape()
    with pytest.raises(ContractError):
        ad.backward(ad.tensor(1.0))


def test_repeated_backward_accumulates():
    x = ad.tensor([1.0, 1.0], requires_grad=True)
    loss = unfused.reduce_sum(unfused.mul(x, x))
    ad.backward(loss)
    first = x.grad.copy()
    ad.backward(loss)
    assert np.array_equal(x.grad, 2.0 * first)


def test_repeated_backward_leaves_the_first_gradient_array_unchanged():
    # The leaf gets the sweep's array without a copy; a second sweep must build a new one.
    x = ad.tensor([1.0, 2.0], requires_grad=True)
    loss = unfused.reduce_sum(unfused.mul(x, x))
    ad.backward(loss)
    first = x.grad
    kept = first.copy()
    ad.backward(loss)
    assert x.grad is not first
    assert np.array_equal(first, kept)
    assert np.array_equal(x.grad, 2.0 * kept)


def test_backward_is_linear_in_the_loss():
    rng = np.random.default_rng(11)
    data = rng.standard_normal(5)
    alpha, beta = 0.7, -1.3

    def grads_of(fn):
        x = ad.tensor(data, requires_grad=True)
        with fresh_tape():
            ad.backward(fn(x))
        return x.grad

    gf = grads_of(lambda x: unfused.reduce_sum(unfused.sigmoid(x)))
    gg = grads_of(lambda x: unfused.reduce_sum(unfused.mul(x, x)))
    combined = grads_of(
        lambda x: ad.add(
            unfused.mul(unfused.reduce_sum(unfused.sigmoid(x)), alpha),
            unfused.mul(unfused.reduce_sum(unfused.mul(x, x)), beta),
        )
    )
    assert np.max(np.abs(combined - (alpha * gf + beta * gg))) < 1e-10


def test_composite_sigmoid_matmul_gradient():
    rng = np.random.default_rng(21)
    w = ad.tensor(rng.standard_normal((4, 3)))
    err = grad_check(
        lambda x: unfused.reduce_sum(unfused.sigmoid(unfused.matmul(x, w))),
        ad.tensor(rng.standard_normal((2, 4))),
    )
    assert err < 1e-4


def test_deterministic_gradients_across_runs():
    def run():
        x = ad.tensor(ad.kaiming_uniform((3, 5), np.random.default_rng(99)).data, requires_grad=True)
        with fresh_tape():
            loss = unfused.reduce_sum(unfused.sigmoid(unfused.mul(x, x)))
            ad.backward(loss)
        return x.data.copy(), x.grad.copy()

    d1, g1 = run()
    d2, g2 = run()
    assert np.array_equal(d1, d2) and np.array_equal(g1, g2)


# ---------------------------------------------------------------------------
# grad_check itself


def test_grad_check_on_sum_is_machine_precision():
    assert grad_check(unfused.reduce_sum, ad.tensor(np.arange(4.0))) < 1e-10


def test_grad_check_sigmoid_at_zero():
    x = ad.tensor(np.zeros(5))
    with fresh_tape():
        leaf = ad.tensor(np.zeros(5), requires_grad=True)
        ad.backward(unfused.reduce_sum(unfused.sigmoid(leaf)))
        assert np.allclose(leaf.grad, 0.25)
    assert grad_check(lambda v: unfused.reduce_sum(unfused.sigmoid(v)), x) < 1e-6


def test_grad_check_rejects_nonscalar_and_bad_eps():
    with pytest.raises(ContractError):
        grad_check(lambda v: unfused.mul(v, v), ad.tensor([1.0, 2.0]))
    with pytest.raises(DomainError):
        grad_check(unfused.reduce_sum, ad.tensor([1.0]), eps=0.0)


def test_grad_check_flags_eps_sensitivity_near_zero_denominator():
    # 1/x near x ~ 1e-4 with eps 1e-5: central differences are badly off.
    x = ad.tensor([1e-4])
    err = grad_check(lambda v: unfused.reduce_sum(unfused.div(ad.tensor([1.0]), v)), x, eps=1e-5)
    assert err > 1e-2


def test_no_grad_blocks_recording():
    x = ad.tensor([1.0], requires_grad=True)
    with ad.no_grad():
        y = unfused.mul(x, x)
    assert not y.requires_grad
    assert len(ad.active_tape()) == 0
