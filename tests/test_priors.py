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
from skillmix.priors import ibp_log_prob, ibp_regularizer, relaxed_ibp_log_prob

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
        relaxed = relaxed_ibp_log_prob(ad.tensor(binary), alpha).item()
        assert relaxed == pytest.approx(ibp_log_prob(binary.astype(int), alpha), abs=1e-10)


def test_regularizer_zero_strength_contributes_nothing():
    z = ad.tensor(np.full((3, 2), 0.4), requires_grad=True)
    reg = ibp_regularizer(z, 5.0, 0.0)
    assert reg.item() == 0.0
    assert len(ad.active_tape()) == 0  # no recorded ops, hence zero gradient


def test_regularizer_is_negative_scaled_log_prob():
    values = np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.6]])
    log_prob = relaxed_ibp_log_prob(ad.tensor(values), 2.0).item()
    reg = ibp_regularizer(ad.tensor(values), 2.0, 0.5)
    assert reg.item() == pytest.approx(-0.5 * log_prob, abs=1e-12)


def test_relaxed_gradient_matches_finite_differences():
    # Entries kept away from 0.5 so hardening (the constant part) is stable
    # under the finite-difference perturbation.
    rng = np.random.default_rng(3)
    base = np.where(rng.uniform(size=(4, 3)) < 0.5, rng.uniform(0.1, 0.42, (4, 3)), rng.uniform(0.58, 0.9, (4, 3)))
    err = grad_check(lambda t: relaxed_ibp_log_prob(t, 5.0), ad.tensor(base))
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
    ad.backward(ad.reduce_sum(x))
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
        ad.backward(ad.reduce_sum(ad.mul(x, x)))
        opt.step()
        opt.zero_grad()
    assert abs(x.data[0]) < 1e-3


def test_adam_skips_parameters_without_gradients():
    x = ad.tensor([1.0], requires_grad=True)
    y = ad.tensor([1.0], requires_grad=True)
    opt = Adam([dict(params=[x, y], lr=0.1)])
    ad.backward(ad.reduce_sum(ad.mul(x, x)))
    opt.step()
    assert y.data[0] == 1.0 and x.data[0] != 1.0
