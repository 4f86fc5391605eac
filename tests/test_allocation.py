import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from skillmix import autodiff as ad
from skillmix.allocation import (
    UNIFORM_EPS,
    as_binary,
    expected_allocation,
    gumbel_sigmoid_sample,
    harden,
    hardened_to_csv,
    metric_discreteness,
    metric_sparsity,
    metric_usage,
    normalize_rows,
)
from skillmix.cli import EXIT_CONFIG, main
from skillmix.errors import DomainError, ShapeError
from skillmix.experiment import export_hierarchy
from skillmix.priors import ibp_log_prob
from skillmix.recovery import skill_recovery_score

import unfused
from gradcheck import grad_check

unit_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(0.0, 1.0, allow_nan=False),
)


@pytest.fixture(autouse=True)
def clean_tape():
    ad.reset_tape()
    yield
    ad.reset_tape()


# ---------------------------------------------------------------------------
# logits


def test_init_zero_means_half_probability():
    probs = expected_allocation(ad.zeros((3, 4), requires_grad=True), tau=1.0)
    assert np.all(probs == 0.5)


# ---------------------------------------------------------------------------
# sampling


def test_sample_zero_logit_unit_tau_reproduces_the_draw():
    # At z = 0 and tau = 1 the relaxed sample equals the uniform draw itself.
    logits = ad.zeros((4, 5), requires_grad=True)
    sample = gumbel_sigmoid_sample(logits, 1.0, np.random.default_rng(3))
    draws = np.clip(np.random.default_rng(3).uniform(size=(4, 5)), UNIFORM_EPS, 1.0 - UNIFORM_EPS)
    assert np.allclose(sample.data, draws, atol=1e-12)


def test_sample_at_half_draw_is_sigmoid_of_scaled_logit():
    logits = ad.tensor([[2.0]], requires_grad=True)
    relaxed = expected_allocation(logits, tau=1.0)
    assert relaxed[0, 0] == pytest.approx(0.8807970779778823, abs=1e-12)
    assert expected_allocation(ad.tensor([[4.0]], requires_grad=True), tau=2.0)[0, 0] == pytest.approx(
        0.8807970779778823, abs=1e-12
    )


def test_small_tau_sharpens_expected_allocation():
    assert expected_allocation(ad.tensor([[1.0]], requires_grad=True), tau=1e-3)[0, 0] > 1.0 - 1e-12


def test_expected_allocation_is_the_unfused_chain_and_records_no_node():
    logits = ad.tensor(np.random.default_rng(0).standard_normal((5, 4)) * 3.0, requires_grad=True)
    for tau in (0.3, 1.0, 2.5):
        ad.reset_tape()
        got = expected_allocation(logits, tau)
        assert len(ad.active_tape()) == 0
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, unfused.sigmoid(unfused.mul(logits, 1.0 / tau)).data)
    ad.reset_tape()


def test_sample_entries_strictly_inside_unit_interval():
    sample = gumbel_sigmoid_sample(ad.zeros((8, 8), requires_grad=True), 0.5, np.random.default_rng(0))
    assert np.all(sample.data > 0.0) and np.all(sample.data < 1.0)


def test_sample_reproducible_from_seed():
    a = gumbel_sigmoid_sample(ad.zeros((3, 3), requires_grad=True), 1.0, np.random.default_rng(11))
    b = gumbel_sigmoid_sample(ad.zeros((3, 3), requires_grad=True), 1.0, np.random.default_rng(11))
    assert np.array_equal(a.data, b.data)


def test_nonpositive_tau_rejected():
    with pytest.raises(DomainError):
        gumbel_sigmoid_sample(ad.zeros((1, 1), requires_grad=True), 0.0, np.random.default_rng(0))
    with pytest.raises(DomainError):
        expected_allocation(ad.zeros((1, 1), requires_grad=True), -1.0)


@pytest.mark.parametrize("z", [-2.0, 0.0, 2.0])
@pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
def test_hard_threshold_law(z, tau):
    # P(sample > 0.5) = sigmoid(z) for any tau: crossing 0.5 only depends on
    # the sign of z + logit(u).
    n = 10_000
    logits = ad.tensor(np.full((1, n), z), requires_grad=True)
    sample = gumbel_sigmoid_sample(logits, tau, np.random.default_rng(hash((z, tau)) % 2**32))
    freq = float((sample.data > 0.5).mean())
    p = 1.0 / (1.0 + math.exp(-z))
    stderr = math.sqrt(p * (1 - p) / n)
    assert abs(freq - p) <= 3 * stderr


def test_sampled_gradient_matches_finite_differences_with_fixed_draw():
    rng = np.random.default_rng(9)
    start = rng.standard_normal((3, 4))

    def f(z):
        return unfused.reduce_sum(gumbel_sigmoid_sample(z, 0.7, np.random.default_rng(5)))

    assert grad_check(f, ad.tensor(start)) < 1e-4


# ---------------------------------------------------------------------------
# normalisation and hardening


def normalized(matrix):
    """Every row of the matrix through normalize_rows."""
    return np.array([normalize_rows(ad.tensor(matrix), i).data for i in range(len(matrix))])


def test_normalize_rows_examples():
    out = normalized([[0.5, 0.5], [0.9, 0.1]])
    assert np.allclose(out, [[0.5, 0.5], [0.9, 0.1]])
    out = normalized([[0.2, 0.2, 0.6]])
    assert np.allclose(out, [[0.2, 0.2, 0.6]])


def test_normalize_rows_scale_invariance():
    base = np.array([[0.2, 0.2, 0.6]])
    assert np.allclose(normalized(base * 10), normalized(base))


def test_normalize_rows_degenerate_row():
    # A row summing below 1e-12 gives zero weights (the base alone) and a zero gradient.
    ad.reset_tape()
    empty = ad.tensor([[0.0, 0.0]], requires_grad=True)
    row = normalize_rows(empty, 0)
    assert row.data.tolist() == [0.0, 0.0]
    ad.backward(unfused.reduce_sum(unfused.mul(row, ad.tensor([2.0, -3.0]))))
    assert empty.grad.tolist() == [[0.0, 0.0]]
    # Only the selected row is normalised, so only its sum matters.
    assert normalize_rows(ad.tensor([[0.0, 0.0], [1.0, 3.0]]), 1).data.tolist() == [0.25, 0.75]


def test_a_degenerate_row_leaves_every_other_row_and_replica_bit_identical():
    rng = np.random.default_rng(5)
    stack = rng.uniform(0.1, 1.0, size=(3, 2, 4, 5))
    probe = rng.standard_normal((3, 2, 5))
    results = []
    for data in (stack, np.where(np.arange(3)[:, None, None, None] == 1, 1e-300, stack)):
        ad.reset_tape()
        t = ad.tensor(data, requires_grad=True)
        rows = normalize_rows(t, 2)
        ad.backward(unfused.reduce_sum(unfused.mul(rows, ad.tensor(probe))))
        results.append((rows.data, t.grad))
    (clean, clean_grad), (degenerate, degenerate_grad) = results
    assert np.all(degenerate[1] == 0.0) and np.all(degenerate_grad[1] == 0.0)
    for r in (0, 2):
        assert np.array_equal(degenerate[r], clean[r]) and np.array_equal(degenerate_grad[r], clean_grad[r])


@settings(max_examples=50, deadline=None)
@given(
    arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)), elements=st.floats(0.01, 1.0)),
    st.floats(0.1, 100.0),
)
def test_normalize_rows_sums_to_one_and_scales(matrix, scale):
    ad.reset_tape()
    out = normalized(matrix)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
    scaled = normalized(matrix * scale)
    assert np.allclose(out, scaled, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.floats(0.5, 3.0), st.integers(0, 10_000))
def test_draw_and_normalised_row_equal_the_unfused_chain(num_tasks, num_skills, tau, seed):
    rng = np.random.default_rng(seed)
    logits = ad.tensor(rng.standard_normal((num_tasks, num_skills)), requires_grad=True)
    task = int(rng.integers(num_tasks))
    probe = rng.standard_normal(num_skills)
    results = []
    for draw, row_of in [
        (gumbel_sigmoid_sample, normalize_rows),
        (unfused.gumbel_sigmoid_sample, lambda t, i: unfused.take_row(unfused.normalize_rows(t), i)),
    ]:
        ad.reset_tape()
        logits.grad = None
        relaxed = draw(logits, tau, np.random.default_rng(seed))
        row = row_of(relaxed, task)
        # A second consumer of the matrix, as the prior is, recorded after the row.
        loss = ad.add(unfused.reduce_sum(unfused.mul(row, ad.tensor(probe))), unfused.reduce_sum(unfused.lgamma(relaxed)))
        ad.backward(loss)
        results.append((relaxed.data, row.data, logits.grad))
    for got, expected in zip(*results):
        assert np.array_equal(got, expected)


def test_stacked_draw_equals_one_draw_per_replica():
    # Replica r's cells come from generator r alone, as a lone draw on its slice.
    logits = ad.tensor(np.random.default_rng(1).standard_normal((4, 1, 5)), requires_grad=True)
    stacked = gumbel_sigmoid_sample(logits, 0.7, [np.random.default_rng([2, r]) for r in range(4)])
    for r in range(4):
        alone = gumbel_sigmoid_sample(ad.tensor(logits.data[r]), 0.7, np.random.default_rng([2, r]))
        assert np.array_equal(stacked.data[r], alone.data)


def test_matrix_stack_draw_equals_one_draw_per_matrix_in_turn():
    # A model's stack [M, T, S] draws what its matrices drew one after the other.
    logits = np.random.default_rng(3).standard_normal((2, 4, 5))
    stacked = gumbel_sigmoid_sample(ad.tensor(logits), 0.7, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    for m in range(2):
        assert np.array_equal(stacked.data[m], gumbel_sigmoid_sample(ad.tensor(logits[m]), 0.7, rng).data)


def test_replica_block_draw_equals_each_replicas_per_matrix_draws():
    # A new task's block [R, M, 1, S]: generator r draws replica r's layer-0 row, then its layer-1 row.
    logits = ad.tensor(np.random.default_rng(4).standard_normal((3, 2, 1, 5)), requires_grad=True)
    stacked = gumbel_sigmoid_sample(logits, 0.7, [np.random.default_rng([6, r]) for r in range(3)])
    for r in range(3):
        rng = np.random.default_rng([6, r])
        for m in range(2):
            alone = gumbel_sigmoid_sample(ad.tensor(logits.data[r, m]), 0.7, rng)
            assert np.array_equal(stacked.data[r, m], alone.data)


def test_stacked_rows_and_gradients_equal_each_matrix_alone():
    # One node for the stack: each matrix's row and gradient are its own node's, prior part first.
    rng = np.random.default_rng(5)
    data = rng.uniform(0.05, 0.95, size=(2, 4, 3))
    probe, prior_probe = rng.standard_normal((2, 3)), rng.standard_normal((2, 4, 3))
    stack = ad.tensor(data, requires_grad=True)
    rows = normalize_rows(stack, 1)
    ad.backward(ad.add(unfused.reduce_sum(unfused.mul(rows, ad.tensor(probe))),
                       unfused.reduce_sum(unfused.mul(stack, ad.tensor(prior_probe)))))
    for m in range(2):
        ad.reset_tape()
        matrix = ad.tensor(data[m], requires_grad=True)
        row = normalize_rows(matrix, 1)
        ad.backward(ad.add(unfused.reduce_sum(unfused.mul(row, ad.tensor(probe[m]))),
                           unfused.reduce_sum(unfused.mul(matrix, ad.tensor(prior_probe[m])))))
        assert np.array_equal(rows.data[m], row.data)
        assert np.array_equal(stack.grad[m], matrix.grad)


def test_harden_rounds_half_up():
    assert harden(np.array([[0.9, 0.1]])).tolist() == [[1, 0]]
    assert harden(np.array([[0.5]])).tolist() == [[1]]
    assert harden(np.array([[0.4999999]])).tolist() == [[0]]


def test_harden_sign_pattern_statistics():
    # With logits +3/-3 each hardened cell matches the logit sign with
    # probability sigmoid(3); check the aggregate rate over many cells.
    n = 4000
    logits_data = np.concatenate([np.full((1, n), 3.0), np.full((1, n), -3.0)], axis=0)
    hard = harden(gumbel_sigmoid_sample(ad.tensor(logits_data), 1.0, np.random.default_rng(17)))
    match = (hard[0] == 1).mean() * 0.5 + (hard[1] == 0).mean() * 0.5
    p = 1.0 / (1.0 + math.exp(-3.0))
    assert abs(match - p) <= 3 * math.sqrt(p * (1 - p) / (2 * n))


# ---------------------------------------------------------------------------
# diagnostics


def test_discreteness_examples():
    assert metric_discreteness(np.array([[1.0, 0.0], [0.0, 1.0]])) == 0.0
    assert metric_discreteness(np.full((3, 2), 0.5)) == pytest.approx(1.0, abs=1e-12)
    single = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75)) / math.log(2)
    assert metric_discreteness(np.array([[0.25]])) == pytest.approx(single, abs=1e-12)
    assert metric_discreteness(np.array([[0.25]])) == pytest.approx(0.8113, abs=1e-4)


def test_sparsity_examples():
    assert metric_sparsity(np.ones((2, 3))) == 1.0
    assert metric_sparsity(np.zeros((2, 3))) == 0.0
    assert metric_sparsity(np.array([[1.0, 0.0], [1.0, 1.0]])) == 0.75


def test_usage_examples():
    assert metric_usage(np.array([[1.0, 1.0], [1.0, 1.0]])) == pytest.approx(1.0)
    assert metric_usage(np.array([[1.0, 0.0], [1.0, 0.0]])) == 0.0
    # column masses 3 and 1 -> H(0.75, 0.25) / log 2
    m = np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25)) / math.log(2)
    assert metric_usage(m) == pytest.approx(expected, abs=1e-12)


def test_usage_with_all_mass_in_one_column_is_plus_zero():
    # -xlogy(1, 1) is -0.0; summary.json must not record "usage": -0.0.
    for matrix in ([[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.3, 0.0]]):
        assert math.copysign(1.0, metric_usage(np.array(matrix))) == 1.0


def test_usage_single_column_is_one_by_convention():
    assert metric_usage(np.array([[1.0], [0.5]])) == 1.0


def test_usage_of_a_matrix_with_no_mass_is_zero():
    assert metric_usage(np.zeros((2, 2))) == 0.0
    assert metric_usage(np.zeros((2, 1))) == 0.0  # no mass outranks the one-column convention


def test_metric_domain_checks():
    with pytest.raises(DomainError):
        metric_discreteness(np.array([[1.5]]))
    with pytest.raises(DomainError):
        metric_sparsity(np.array([[-0.1]]))


@settings(max_examples=80, deadline=None)
@given(unit_matrices)
def test_metrics_lie_in_unit_interval(matrix):
    assert 0.0 <= metric_discreteness(matrix) <= 1.0
    assert 0.0 <= metric_sparsity(matrix) <= 1.0
    if matrix.sum() > 0:
        assert 0.0 <= metric_usage(matrix) <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(unit_matrices, st.randoms(use_true_random=False))
def test_metrics_invariant_under_column_permutation(matrix, rnd):
    cols = list(range(matrix.shape[1]))
    rnd.shuffle(cols)
    shuffled = matrix[:, cols]
    assert metric_discreteness(shuffled) == pytest.approx(metric_discreteness(matrix), abs=1e-12)
    assert metric_sparsity(shuffled) == pytest.approx(metric_sparsity(matrix), abs=1e-12)
    if matrix.sum() > 0:
        assert metric_usage(shuffled) == pytest.approx(metric_usage(matrix), abs=1e-12)


# ---------------------------------------------------------------------------
# serialisation


def test_hardened_csv_round_trip():
    binary = as_binary(np.array([[1, 0, 1], [0, 1, 1]]))
    text = hardened_to_csv(binary, ["t0", "t1"])
    rows = list(csv.reader(io.StringIO(text)))[1:]
    names = [r[0] for r in rows]
    loaded = as_binary(np.array([[int(v) for v in r[1:]] for r in rows]))
    assert names == ["t0", "t1"]
    assert np.array_equal(loaded, binary)
    assert hardened_to_csv(loaded, names) == text


# ---------------------------------------------------------------------------
# the 0/1 check on matrices from outside the program

NON_BINARY = [[1, 0], [2, 1]]


@pytest.mark.parametrize("caller", ["ibp_log_prob", "skill_recovery_score", "export_hierarchy", "cli"])
def test_a_non_binary_matrix_is_rejected(caller, tmp_path, capsys):
    matrix = np.array(NON_BINARY)
    if caller == "cli":
        path = tmp_path / "allocation_layer_0.json"
        path.write_text(json.dumps({"tasks": ["t0", "t1"], "skills": 2, "layer": 0, "logits": None, "matrix": NON_BINARY}))
        assert main(["export-hierarchy", str(path)]) == EXIT_CONFIG
        assert "0 or 1" in capsys.readouterr().err
        return
    call = {
        "ibp_log_prob": lambda: ibp_log_prob(matrix, 1.0),
        "skill_recovery_score": lambda: skill_recovery_score(matrix, np.eye(2, dtype=np.int64)),
        "export_hierarchy": lambda: export_hierarchy(matrix, ["t0", "t1"]),
    }[caller]
    with pytest.raises(DomainError, match="0 or 1"):
        call()


@pytest.mark.parametrize("names", [["t0"], ["t0", "t1", "t2"]])
def test_export_hierarchy_needs_one_name_per_row(names):
    with pytest.raises(ShapeError):
        export_hierarchy(np.eye(2, dtype=np.int64), names)
