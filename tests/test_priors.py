import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from skillmix import autodiff as ad
from skillmix.errors import ContractError, DomainError
from skillmix.optim import Adam, build_two_speed_groups
from skillmix.priors import _history_log_term, ibp_log_prob, ibp_regularizer

import unfused
from drift import assert_arrays_close
from gradcheck import grad_check

binary_matrices = arrays(
    np.int64,
    st.tuples(st.integers(1, 6), st.integers(1, 5)),
    elements=st.integers(0, 1),
)


@pytest.fixture(autouse=True)
def clean_tape():
    ad.reset_tape()
    yield
    ad.reset_tape()


# ---------------------------------------------------------------------------
# exact log-density


def test_single_cell_matrix():
    # |S| log a = 0, history term 0, harmonic term H_1 = 1, per-column term 0.
    assert ibp_log_prob(np.array([[1]]), 1.0) == pytest.approx(-1.0, abs=1e-10)


def test_two_task_column():
    # -(H_1 + H_2) - log 2 = -2.5 - log 2
    expected = -2.5 - math.log(2.0)
    assert ibp_log_prob(np.array([[1], [1]]), 1.0) == pytest.approx(expected, abs=1e-10)
    assert ibp_log_prob(np.array([[1], [1]]), 1.0) == pytest.approx(-3.1931, abs=1e-3)


def test_zero_columns_are_excluded():
    with_empty = ibp_log_prob(np.array([[1, 0], [1, 0]]), 2.0)
    without = ibp_log_prob(np.array([[1], [1]]), 2.0)
    assert with_empty == pytest.approx(without, abs=1e-12)


def test_alpha_must_be_positive():
    with pytest.raises(DomainError):
        ibp_log_prob(np.array([[1]]), 0.0)


# All ones but cell (0, 1), columns shuffled to (0, 2, 1): summing the
# per-column terms in column order made this value differ in the last bits.
_ROUNDING_CASE = np.ones((6, 3), dtype=np.int64)
_ROUNDING_CASE[0, 1] = 0


@settings(max_examples=60, deadline=None)
@given(binary_matrices, st.floats(0.1, 10.0), st.randoms(use_true_random=False))
@example(_ROUNDING_CASE, 1.0, random.Random(0))
def test_column_permutation_invariance_exact(matrix, alpha, rnd):
    cols = list(range(matrix.shape[1]))
    rnd.shuffle(cols)
    assert ibp_log_prob(matrix[:, cols], alpha) == ibp_log_prob(matrix, alpha)


@settings(max_examples=40, deadline=None)
@given(binary_matrices, st.floats(0.1, 10.0))
def test_duplicating_tasks_strictly_decreases_log_density(matrix, alpha):
    if matrix.sum() == 0:
        return
    doubled = np.concatenate([matrix, matrix], axis=0)
    assert ibp_log_prob(doubled, alpha) < ibp_log_prob(matrix, alpha)


# ---------------------------------------------------------------------------
# relaxed continuation


def test_relaxed_equals_exact_on_binary_inputs():
    rng = np.random.default_rng(0)
    for _ in range(20):
        shape = (rng.integers(1, 7), rng.integers(1, 6))
        binary = rng.integers(0, 2, size=shape).astype(np.float64)
        alpha = float(rng.uniform(0.2, 8.0))
        relaxed = -ibp_regularizer(ad.tensor(binary), alpha, 1.0).item()
        assert relaxed == pytest.approx(ibp_log_prob(binary.astype(int), alpha), abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(binary_matrices)
def test_history_term_by_column_bytes_equals_the_cell_by_cell_count(matrix):
    assert_arrays_close(_history_log_term(matrix), unfused.history_log_term(matrix))


def _relaxed(rng, shape):
    return rng.uniform(0.02, 0.98, size=shape)


def _binary(rng, shape):
    # Exactly 0/1, with an all-ones and an all-zeros column: both gate ends.
    m = rng.integers(0, 2, size=shape).astype(np.float64)
    m[:, 0], m[:, -1] = 1.0, 0.0
    return m


def _inactive_column(rng, shape):
    m = _relaxed(rng, shape)
    m[:, 1] = rng.uniform(0.0, 0.49, size=shape[0])
    return m


def _one_row(rng, shape):
    return _relaxed(rng, (1, shape[1]))


@pytest.mark.parametrize("make", [_relaxed, _binary, _inactive_column, _one_row])
@pytest.mark.parametrize("shape", [(2, 3), (6, 5), (24, 8)])
@pytest.mark.parametrize("strength", [1.0, 0.1, 0.37])
def test_fused_prior_equals_the_unfused_chain(make, shape, strength):
    """Value and gradient within the float tolerance; strength 1 is the negated relaxed log-density itself.

    The matrix has a consumer recorded before the prior, as the normalised
    row is in a step, so its gradient sums two parts.
    """
    rng = np.random.default_rng(sum(shape))
    data = make(rng, shape)
    probe = rng.standard_normal(data.shape)
    alpha = float(rng.uniform(0.2, 8.0))
    results = []
    for prior in (ibp_regularizer, unfused.ibp_regularizer):
        ad.reset_tape()
        z = ad.tensor(data, requires_grad=True)
        other = unfused.reduce_sum(unfused.mul(z, ad.tensor(probe)))
        value = prior(z, alpha, strength)
        ad.backward(ad.add(other, value))
        results.append((value.data, z.grad))
    (value, grad), (ref_value, ref_grad) = results
    assert value.shape == ref_value.shape == ()
    assert_arrays_close(value, ref_value)
    assert_arrays_close(grad, ref_grad)


@pytest.mark.parametrize("strength", [1.0, 0.1])
def test_stacked_prior_is_the_sum_of_each_matrixs_term(strength):
    """One node over a stack [M, T, S]: the value v_0 + v_1 within the float tolerance, each matrix's gradient bit for bit."""
    rng = np.random.default_rng(12)
    data = rng.uniform(0.02, 0.98, size=(2, 6, 5))
    data[1, :, 2] = rng.uniform(0.0, 0.49, size=6)  # an inactive column in one matrix only
    stack = ad.tensor(data, requires_grad=True)
    value = ibp_regularizer(stack, 2.5, strength)
    assert len(ad.active_tape()) == 1
    ad.backward(value)
    expected = 0.0
    for m in range(2):
        ad.reset_tape()
        matrix = ad.tensor(data[m], requires_grad=True)
        alone = ibp_regularizer(matrix, 2.5, strength)
        ad.backward(alone)
        expected += alone.item()
        assert np.array_equal(stack.grad[m], matrix.grad)
    assert value.shape == ()
    assert_arrays_close(value.item(), expected)


def test_fused_prior_records_one_node():
    z = ad.tensor(np.random.default_rng(1).uniform(size=(5, 4)), requires_grad=True)
    ibp_regularizer(z, 2.0, 0.1)
    assert len(ad.active_tape()) == 1


def test_fused_prior_keeps_the_domain_checks():
    # Column mass 3 on one task leaves lgamma(N + 1 - m) at lgamma(-1).
    for prior in (ibp_regularizer, unfused.ibp_regularizer):
        with pytest.raises(DomainError):
            prior(ad.tensor([[3.0]]), 1.0, 0.1)
        with pytest.raises(DomainError):
            prior(ad.tensor([[0.5]]), 0.0, 0.1)


def test_regularizer_is_negative_scaled_log_prob():
    values = np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.6]])
    log_prob = -ibp_regularizer(ad.tensor(values), 2.0, 1.0).item()
    reg = ibp_regularizer(ad.tensor(values), 2.0, 0.5)
    assert reg.item() == pytest.approx(-0.5 * log_prob, abs=1e-12)


def test_relaxed_gradient_matches_finite_differences():
    # Entries kept away from 0.5 so hardening (the constant part) is stable
    # under the finite-difference perturbation.
    rng = np.random.default_rng(3)
    base = np.where(rng.uniform(size=(4, 3)) < 0.5, rng.uniform(0.1, 0.42, (4, 3)), rng.uniform(0.58, 0.9, (4, 3)))
    err = grad_check(lambda t: ibp_regularizer(t, 5.0, 1.0), ad.tensor(base))
    assert err < 1e-4


def test_regularizer_rejects_negative_strength():
    with pytest.raises(DomainError):
        ibp_regularizer(ad.tensor(np.full((2, 2), 0.5)), 1.0, -0.1)


# ---------------------------------------------------------------------------
# optimiser grouping


def test_adam_first_step_magnitude_equals_lr():
    # On f(x) = x the first Adam step moves by exactly lr (up to eps).
    x = ad.tensor([0.0], requires_grad=True)
    opt = Adam([dict(params=[x], lr=0.01)])
    ad.backward(unfused.reduce_sum(x))
    opt.step()
    assert x.data[0] == pytest.approx(-0.01, rel=1e-6)


def test_two_speed_routes_and_rejects_overlap():
    z = ad.tensor([0.0], requires_grad=True)
    phi = ad.tensor([0.0], requires_grad=True)
    opt = build_two_speed_groups([z], [phi], 0.1, 0.001)
    assert [g["lr"] for g in opt.groups] == [0.1, 0.001]
    with pytest.raises(ContractError):
        build_two_speed_groups([z], [z, phi], 0.1, 0.001)


def test_two_speed_allows_equal_rates_rejects_inverted():
    z = ad.tensor([0.0], requires_grad=True)
    phi = ad.tensor([0.0], requires_grad=True)
    build_two_speed_groups([z], [phi], 1e-3, 1e-3)
    with pytest.raises(ContractError):
        build_two_speed_groups([z], [phi], 1e-4, 1e-3)
    with pytest.raises(ContractError):
        build_two_speed_groups([z], [phi], 0.0, 1e-3)


def test_grouping_partitions_exactly():
    params = [ad.tensor([float(i)], requires_grad=True) for i in range(5)]
    opt = build_two_speed_groups(params[:2], params[2:], 0.1, 0.01)
    grouped = [id(p) for g in opt.groups for p in g["params"]]
    assert sorted(grouped) == sorted(id(p) for p in params)
    assert len(set(grouped)) == len(params)


def test_adam_converges_on_quadratic():
    x = ad.tensor([5.0], requires_grad=True)
    opt = Adam([dict(params=[x], lr=0.1)])
    for _ in range(400):
        ad.reset_tape()
        ad.backward(unfused.reduce_sum(unfused.mul(x, x)))
        opt.step()
        opt.zero_grad()
    assert abs(x.data[0]) < 1e-3


def test_adam_step_without_every_gradient_is_a_contract_error():
    x = ad.tensor([1.0], requires_grad=True)
    y = ad.tensor([1.0], requires_grad=True)
    opt = Adam([dict(params=[x, y], lr=0.1)])
    ad.backward(unfused.reduce_sum(unfused.mul(x, x)))
    with pytest.raises(ContractError):
        opt.step()
    assert x.data[0] == 1.0 and y.data[0] == 1.0
    # The refused step touched no state: once y has a gradient, the first step is the textbook one.
    y.grad = np.ones(1)
    opt.step()
    assert x.data[0] == pytest.approx(0.9, rel=1e-6) and y.data[0] == pytest.approx(0.9, rel=1e-6)


def test_adam_packs_each_group_into_one_buffer():
    params = [ad.tensor(np.arange(6.0).reshape(2, 3), requires_grad=True), ad.tensor([7.0], requires_grad=True)]
    before = [p.data.copy() for p in params]
    opt = Adam([dict(params=params, lr=0.1)])
    assert all(np.array_equal(p.data, b) for p, b in zip(params, before))
    assert params[0].data.base is params[1].data.base is not None
    assert opt.groups[0]["params"] == params


def test_optimisers_built_in_sequence_keep_the_first_ones_updates():
    # Each adaptation phase builds its optimiser when it starts: the second
    # packs the tensors again and must start from the first one's updates.
    x = ad.tensor([1.0, -2.0], requires_grad=True)
    y = ad.tensor([0.5], requires_grad=True)
    first = Adam([dict(params=[x], lr=0.1)])
    for _ in range(3):
        ad.reset_tape()
        ad.backward(unfused.reduce_sum(unfused.mul(x, x)))
        first.step()
        first.zero_grad()
    after_first = x.data.copy()
    assert not np.array_equal(after_first, [1.0, -2.0])
    second = build_two_speed_groups([x], [y], 0.1, 0.01)
    assert np.array_equal(x.data, after_first)
    ad.reset_tape()
    ad.backward(unfused.reduce_sum(unfused.mul(unfused.mul(x, x), y)))
    second.step()
    assert np.all(np.abs(x.data - after_first) > 0.0)
    assert np.all(np.abs(x.data - after_first) < 0.1 + 1e-12)


def test_adam_in_place_step_equals_the_textbook_expressions():
    # The in-place update must round exactly like the plain numpy expressions.
    rng = np.random.default_rng(0)
    params = [ad.tensor(rng.standard_normal(shape), requires_grad=True) for shape in [(3, 1, 4), (5,)]]
    reference = [p.data.copy() for p in params]
    moments = [(np.zeros_like(r), np.zeros_like(r)) for r in reference]
    opt = Adam([dict(params=params[:1], lr=0.1), dict(params=params[1:], lr=1e-3)])
    for t in range(1, 6):
        for p, r, (m, v), lr in zip(params, reference, moments, (0.1, 1e-3)):
            p.grad = rng.standard_normal(p.shape)
            m *= 0.9
            m += (1.0 - 0.9) * p.grad
            v *= 0.999
            v += (1.0 - 0.999) * p.grad**2
            r -= lr * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
        opt.step()
        for p, r in zip(params, reference):
            assert np.array_equal(p.data, r)


def test_one_buffer_for_both_groups_equals_one_adam_per_group():
    # 400 steps with a reset at step 25: the packed optimiser and two single-group
    # ones end bit for bit alike, also once the first bias correction rounds to 1.0
    # (356 steps after the reset).
    rng = np.random.default_rng(4)
    shapes = [(2, 3), (4,), (3, 1, 2), (5,)]
    starts = [rng.standard_normal(shape) for shape in shapes]
    packed = [ad.tensor(s.copy(), requires_grad=True) for s in starts]
    apart = [ad.tensor(s.copy(), requires_grad=True) for s in starts]
    both = build_two_speed_groups(packed[:2], packed[2:], 0.1, 1e-3)
    fast, slow = Adam([dict(params=apart[:2], lr=0.1)]), Adam([dict(params=apart[2:], lr=1e-3)])
    assert [g["params"] for g in both.groups] == [packed[:2], packed[2:]]
    for t in range(400):
        grads = [rng.standard_normal(shape) for shape in shapes]
        for p, q, g in zip(packed, apart, grads):
            p.grad, q.grad = g, g
        for opt in (both, fast, slow):
            opt.step()
            opt.zero_grad()
        if t == 25:
            for opt in (both, fast, slow):
                opt.reset_state()
        for p, q in zip(packed, apart):
            assert np.array_equal(p.data, q.data), t
    assert all(p.grad is None for p in packed)


def test_adam_equals_the_textbook_expressions_once_the_first_bias_correction_is_one():
    # From step 356 on, 1 - 0.9**t rounds to 1.0 and the step skips the division by it.
    rng = np.random.default_rng(1)
    p = ad.tensor(rng.standard_normal(7), requires_grad=True)
    r, m, v = p.data.copy(), np.zeros(7), np.zeros(7)
    opt = Adam([dict(params=[p], lr=0.01)])
    for t in range(1, 401):
        p.grad = rng.standard_normal(7)
        m *= 0.9
        m += (1.0 - 0.9) * p.grad
        v *= 0.999
        v += (1.0 - 0.999) * p.grad**2
        r -= 0.01 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
        opt.step()
        assert np.array_equal(p.data, r), t
    assert 1.0 - 0.9**400 == 1.0
