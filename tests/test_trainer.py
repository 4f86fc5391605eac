import dataclasses
import itertools

import numpy as np
import pytest

from skillmix import autodiff as ad
from skillmix import trainer
from skillmix.allocation import as_binary, harden
from skillmix.config import MODEL_KINDS, ExperimentConfig, WorldConfig
from skillmix.errors import ConfigError, ContractError, GenerationError, ShapeError, TrainingDivergedError
from skillmix.priors import ibp_regularizer
from skillmix.recovery import RecoveryScore, skill_recovery_score
from skillmix.synthetic import STREAM_ADAPT, STREAM_TRAIN, generate_synthetic_benchmark
from skillmix.trainer import (
    _adaptation_phases,
    build_model_from_config,
    evaluate,
    few_shot_adapt,
    multitask_train,
    steps_to_threshold,
    task_loss,
)

import unfused
from drift import assert_arrays_close

SMALL_WORLD = WorldConfig(
    num_tasks=6,
    num_true_skills=3,
    input_dim=8,
    examples_per_task=48,
    holdout_tasks=2,
    skills_per_task_min=1,
    skills_per_task_max=2,
)


def small_config(**overrides):
    base = dict(
        seed=0,
        steps=400,
        eval_every=100,
        batch_size=32,
        num_skills=3,
        adaptation_steps=60,
        adaptation_batch_size=8,
        k_shot=8,
        world=SMALL_WORLD,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def make_world(seed=0, **kw):
    w = SMALL_WORLD
    return generate_synthetic_benchmark(
        seed,
        w.num_tasks,
        w.num_true_skills,
        w.input_dim,
        w.examples_per_task,
        w.noise_sigma,
        (w.skills_per_task_min, w.skills_per_task_max),
        holdout_tasks=w.holdout_tasks,
        **kw,
    )


# ---------------------------------------------------------------------------
# synthetic benchmark


def test_world_satisfies_validity_checker():
    # brute-force validity: no empty rows, columns pairwise distinct
    for seed in range(10):
        world, tasks = generate_synthetic_benchmark(seed, 16, 4, 16, 32, 0.0, (1, 3))
        train_block = world.true_z[:16]
        assert np.all(train_block.sum(axis=1) >= 1)
        columns = [tuple(col) for col in train_block.T]
        for a, b in itertools.combinations(columns, 2):
            assert a != b


def planted_mse(world, task_row, task, split="train"):
    """Mean squared error of the planted predictor on one split."""
    x, y = getattr(task, f"x_{split}"), getattr(task, f"y_{split}")
    return float(np.mean((x @ world.oracle_weights(task_row) - y[:, 0]) ** 2))


def test_noiseless_world_is_exactly_realisable():
    world, tasks = make_world()
    for row, task in enumerate(tasks):
        assert planted_mse(world, row, task) == 0.0
        assert planted_mse(world, row, task, split="eval") == 0.0


def test_noise_breaks_exact_realisability():
    world, tasks = generate_synthetic_benchmark(0, 4, 2, 6, 64, 0.5, (1, 2))
    assert planted_mse(world, 0, tasks[0]) > 0.01


def test_single_true_skill_makes_all_tasks_identical():
    world, tasks = generate_synthetic_benchmark(1, 4, 1, 6, 32, 0.0, (1, 1))
    weights = [world.oracle_weights(i) for i in range(4)]
    for w in weights[1:]:
        assert np.array_equal(weights[0], w)


def test_holdout_rows_are_unions_of_training_rows():
    world, tasks = make_world()
    train = world.true_z[:6]
    for row in world.true_z[6:]:
        found = any(
            np.array_equal(np.minimum(train[i] + train[j], 1), row)
            for i in range(6)
            for j in range(6)
            if i != j
        )
        assert found


def test_generation_contract_checks():
    with pytest.raises(ContractError):
        generate_synthetic_benchmark(0, 2, 3, 4, 8, 0.0, (1, 2))
    with pytest.raises(ContractError):
        generate_synthetic_benchmark(0, 4, 2, 4, 8, 0.0, (0, 2))


def test_generation_determinism():
    w1, t1 = make_world(seed=5)
    w2, t2 = make_world(seed=5)
    assert np.array_equal(w1.true_z, w2.true_z)
    assert np.array_equal(t1[0].x_train, t2[0].x_train)
    assert np.array_equal(t1[3].y_eval, t2[3].y_eval)


def test_classification_targets_are_signs():
    world, tasks = generate_synthetic_benchmark(
        2, 4, 2, 6, 32, 0.0, (1, 2), task_kind="classification"
    )
    for task in tasks:
        assert set(np.unique(task.y_train)) <= {-1.0, 1.0}


def test_distinctness_failure_raises_generation_error():
    # one skill, two tasks: both columns... actually 1 column with 2 tasks of
    # subset size 1 is valid; force failure with 2 identical columns instead
    with pytest.raises(GenerationError):
        # 2 true skills but every task must take both -> columns identical
        generate_synthetic_benchmark(0, 3, 2, 4, 8, 0.0, (2, 2))


# ---------------------------------------------------------------------------
# training loop


@pytest.mark.parametrize("kind", ["skilled", "private", "shared", "hypernet"])
def test_training_loss_decreases(kind):
    world, tasks = make_world()
    train_tasks = [t for t in tasks if t.split == "train"]
    cfg = small_config(model_kind=kind)
    trained = multitask_train(cfg, train_tasks, world=world)
    first = np.median(trained.history.loss[:40])
    last = np.median(trained.history.loss[-40:])
    assert last < first
    assert [len(column) for column in vars(trained.history).values()] == [cfg.steps] * 4


def test_expert_kind_trains_with_planted_table():
    world, tasks = make_world()
    train_tasks = [t for t in tasks if t.split == "train"]
    cfg = small_config(model_kind="expert", expert_table="planted")
    trained = multitask_train(cfg, train_tasks, world=world)
    assert np.array_equal(
        trained.model.task_rows.base[0].astype(int), world.true_z[: len(train_tasks)]
    )
    first = np.median(trained.history.loss[:40])
    last = np.median(trained.history.loss[-40:])
    assert last < first


def test_expert_allocation_never_modified_by_training():
    world, tasks = make_world()
    train_tasks = [t for t in tasks if t.split == "train"]
    cfg = small_config(model_kind="expert", expert_table="planted", steps=120)
    trained = multitask_train(cfg, train_tasks, world=world)
    assert np.array_equal(trained.model.task_rows.base[0].astype(int), world.true_z[:6])
    assert trained.model.z_parameters() == []


def test_skilled_frozen_identity_bit_identical_to_private():
    world, tasks = make_world()
    train_tasks = [t for t in tasks if t.split == "train"]
    private = multitask_train(small_config(model_kind="private"), train_tasks, world=world)
    frozen = multitask_train(
        small_config(model_kind="skilled", freeze_allocation="identity"),
        train_tasks,
        world=world,
    )
    snap_p, snap_f = private.model.snapshot(), frozen.model.snapshot()
    assert set(snap_p) == set(snap_f)
    for name in snap_p:
        assert np.array_equal(snap_p[name], snap_f[name]), name
    assert np.array_equal(private.history.loss, frozen.history.loss)


def test_training_determinism():
    world, tasks = make_world()
    train_tasks = [t for t in tasks if t.split == "train"]
    a = multitask_train(small_config(steps=150), train_tasks, world=world)
    b = multitask_train(small_config(steps=150), train_tasks, world=world)
    sa, sb = a.model.snapshot(), b.model.snapshot()
    for name in sa:
        assert np.array_equal(sa[name], sb[name])


def test_nan_loss_aborts_with_diagnostics():
    world, tasks = make_world()
    train_tasks = [t for t in tasks if t.split == "train"]
    train_tasks[0].x_train[0, 0] = np.inf
    # The inf input makes a NaN in the first layer's matmul before the loss check sees it.
    with pytest.raises(TrainingDivergedError) as err, np.errstate(invalid="ignore"):
        multitask_train(small_config(steps=400), train_tasks, world=world)
    assert err.value.task_id == train_tasks[0].id
    assert "loss" in err.value.components


def test_sparse_mask_freezes_after_warmup():
    world, tasks = make_world()
    train_tasks = [t for t in tasks if t.split == "train"]
    cfg = small_config(parameterisation="sparse", sparsity=0.9, warmup_mask_steps=50, steps=120)
    trained = multitask_train(cfg, train_tasks, world=world)
    for layer in trained.model.layers:
        assert layer.skills.mask is not None
        assert np.array_equal(layer.skills.mask.sum(axis=1), np.full(3, layer.keep))


def test_ibp_regulariser_feeds_history():
    world, tasks = make_world()
    train_tasks = [t for t in tasks if t.split == "train"]
    cfg = small_config(ibp_strength=0.01, steps=50)
    trained = multitask_train(cfg, train_tasks, world=world)
    assert np.any(trained.history.reg_loss != 0.0)


def test_steps_to_threshold_cap():
    world, tasks = make_world()
    train_tasks = [t for t in tasks if t.split == "train"]
    trained = multitask_train(small_config(steps=100, eval_every=50), train_tasks, world=world)

    def reached(*dev_losses):
        evals = [trainer.EvalRecord(50 * i, loss) for i, loss in enumerate(dev_losses)]
        return steps_to_threshold(dataclasses.replace(trained, evals=evals))

    # The threshold is half the initial dev loss; never reaching it gives steps + 1.
    assert reached(1.0, 0.6, 0.51) == 101
    assert reached(1.0, 0.6, 0.5) == 100
    assert reached(1.0, 0.5, 0.9) == 50


def test_task_loss_kinds():
    pred = ad.tensor([[1.0], [-2.0]])
    mse = task_loss(pred, np.array([[0.0], [0.0]]), "regression").item()
    assert mse == pytest.approx((1.0 + 4.0) / 2)
    logistic = task_loss(pred, np.array([[1.0], [-1.0]]), "classification").item()
    assert logistic == pytest.approx(np.mean(np.log1p(np.exp([-1.0, -2.0]))))
    with pytest.raises(ContractError):
        task_loss(pred, np.zeros((2, 1)), "ranking")

    # A stack takes one kind per replica: its value is the sum of the
    # replicas' lone losses, and each replica's gradient its own, bit for bit.
    rng = np.random.default_rng(0)
    kinds = ["classification", "regression", "regression", "classification"]
    data, targets = rng.standard_normal((2, 4, 5, 1))
    targets[[0, 3]] = np.where(targets[[0, 3]] >= 0.0, 1.0, -1.0)
    ad.reset_tape()
    stack = ad.tensor(data, requires_grad=True)
    loss = task_loss(stack, targets, kinds)
    ad.backward(loss)
    alone = []
    for r, kind in enumerate(kinds):
        ad.reset_tape()
        pred = ad.tensor(data[r], requires_grad=True)
        value = task_loss(pred, targets[r], kind)
        ad.backward(value)
        assert np.array_equal(stack.grad[r], pred.grad), r
        alone.append(value.item())
    assert loss.item() == np.sum(alone)
    with pytest.raises(ContractError):
        task_loss(stack, targets, ["regression", "ranking", "regression", "regression"])
    with pytest.raises(ShapeError):
        task_loss(stack, targets, kinds[:3])


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_deterministic_and_complete():
    world, tasks = make_world()
    train_tasks = [t for t in tasks if t.split == "train"]
    trained = multitask_train(small_config(steps=100), train_tasks, world=world)
    [m1] = evaluate(trained.model, [0], [train_tasks[0]])
    [m2] = evaluate(trained.model, [0], [train_tasks[0]])
    assert m1 == m2
    assert set(m1) == {"loss", "mse"}


def test_evaluate_empty_split_rejected():
    world, tasks = make_world()
    tasks[0].x_eval = tasks[0].x_eval[:0]
    tasks[0].y_eval = tasks[0].y_eval[:0]
    trained = multitask_train(small_config(steps=30), [t for t in tasks if t.split == "train"], world=world)
    with pytest.raises(ContractError):
        evaluate(trained.model, [0], [tasks[0]])


def test_random_classifier_near_chance():
    # 4000 examples per task give 4000 eval examples.
    world, tasks = generate_synthetic_benchmark(3, 4, 2, 8, 4000, 0.0, (1, 2), task_kind="classification")
    cfg = small_config(steps=0, world=WorldConfig(num_tasks=4, num_true_skills=2, input_dim=8,
                                                  examples_per_task=4000, holdout_tasks=0,
                                                  skills_per_task_max=2, task_kind="classification"))
    trained = multitask_train(cfg, tasks[:4], world=world)
    [metrics] = evaluate(trained.model, [0], [tasks[0]])
    n = tasks[0].y_eval.shape[0]
    base_rate = max(np.mean(tasks[0].y_eval == 1.0), np.mean(tasks[0].y_eval == -1.0))
    # untrained predictor has no label information; accuracy within 3 binomial
    # standard errors of the base rate
    assert abs(metrics["accuracy"] - base_rate) <= 3 * np.sqrt(0.25 / n) + (base_rate - 0.5)


# ---------------------------------------------------------------------------
# few-shot adaptation


def trained_small(kind="skilled", **overrides):
    world, tasks = make_world()
    train_tasks = [t for t in tasks if t.split == "train"]
    holdout = [t for t in tasks if t.split == "eval"]
    trained = multitask_train(small_config(model_kind=kind, **overrides), train_tasks, world=world)
    return trained, holdout


def with_config(trained, **changes):
    """The trained model under a config with `changes`, e.g. other adaptation settings."""
    return dataclasses.replace(trained, config=trained.config.replace(**changes))


def replica_parameters(model, trained_model, r=0) -> dict:
    """Replica r's parameters on a replicated model: slice r of each one that carries the replica axis.

    Those are the new task's and every parameter with one more axis than
    in the trained model; the others are shared by the replicas.
    """
    base = trained_model.named_parameters()
    return {
        name: p.data[r] if name not in base or p.ndim > base[name].ndim else p.data
        for name, p in model.named_parameters().items()
    }


def test_zero_shot_or_zero_steps_is_noop():
    trained, holdout = trained_small(steps=80)
    res = few_shot_adapt(with_config(trained, adaptation_steps=0), [holdout[0]])
    assert res.metrics_before == res.metrics_after
    res = few_shot_adapt(with_config(trained, adaptation_steps=50, k_shot=0), [holdout[0]])
    assert res.metrics_before == res.metrics_after


def test_task_id_collision_rejected():
    trained, _ = trained_small(steps=30)
    with pytest.raises(ContractError):
        few_shot_adapt(trained, [trained.tasks[0]])


def test_k_shot_cap_enforced():
    trained, _ = trained_small(steps=30)
    with pytest.raises(ConfigError):
        with_config(trained, k_shot=64)


@pytest.mark.parametrize("kind", ["skilled", "private", "shared", "hypernet"])
def test_adaptation_improves_loss(kind):
    trained, holdout = trained_small(kind=kind, adaptation_steps=150, k_shot=16)
    res = few_shot_adapt(trained, [holdout[0]])
    assert res.metrics_after[0]["loss"] < res.metrics_before[0]["loss"]


def test_expert_adaptation_uses_planted_row():
    trained, holdout = trained_small(kind="expert", expert_table="planted")
    res = few_shot_adapt(trained, [holdout[0]])
    # The new task's fixed block [R, M, 1, S]: replica 0's row of matrix 0.
    assert np.array_equal(
        res.model.task_rows.new[0, 0, 0].astype(int),
        np.asarray([1 if j in holdout[0].planted_skills else 0 for j in range(3)]),
    )


def test_z_row_only_adaptation_freezes_everything_else():
    trained, holdout = trained_small(adapt_z_only_steps=80, adaptation_steps=80)
    before = trained.model.snapshot()
    res = few_shot_adapt(trained, [holdout[0]])
    after = replica_parameters(res.model, trained.model)
    after_base = {k: v for k, v in after.items() if not k.startswith("z.")}
    before_base = {k: v for k, v in before.items() if not k.startswith("z.")}
    assert set(after_base) == set(before_base)
    for name in before_base:
        assert np.array_equal(after_base[name], before_base[name]), name
    # the new allocation row did move
    new_rows = res.model.new_task_parameters()
    assert any(np.any(row.data != 0.0) for row in new_rows)


def test_frozen_allocation_adapts_a_learned_row():
    trained, holdout = trained_small(freeze_allocation="identity", steps=60, adaptation_steps=40)
    assert trained.model.z_parameters() == []
    res = few_shot_adapt(trained, [holdout[0]])
    new_rows = res.model.new_task_parameters()
    assert res.task_index == res.model.task_rows.num_base_tasks
    phases = _adaptation_phases(res.model, trained.config)
    assert [steps for steps, _, _ in phases] == [40]
    # One replica's block [R, M, 1, S]: a frozen allocation is one matrix.
    assert [row.shape for row in new_rows] == [(1, 1, 1, trained.model.task_rows.num_skills)]
    assert np.any(new_rows[0].data != 0.0)
    assert {id(p) for p in phases[0][1] + phases[0][2]} == {id(row) for row in new_rows}


def test_one_skill_inventory_adapts_the_skills_under_a_fixed_row():
    trained, holdout = trained_small(num_skills=1, steps=40, adaptation_steps=20)
    assert trained.model.z_parameters() != []
    res = few_shot_adapt(trained, [holdout[0]])
    assert res.model.new_task_parameters() == []
    phases = _adaptation_phases(res.model, trained.config)
    assert [steps for steps, _, _ in phases] == [20]
    assert {id(p) for p in phases[0][1] + phases[0][2]} == {id(p) for p in res.model.phi_parameters()}
    assert res.metrics_after != res.metrics_before


def test_skilled_dense_training_step_records_five_tape_nodes():
    # One Gumbel draw and one normalised row for all matrices, per layer one fused op, one loss node.
    world, tasks = make_world()
    train_tasks = [t for t in tasks if t.split == "train"]
    for allocation_mode in ("per_layer", "global"):
        multitask_train(small_config(steps=1, allocation_mode=allocation_mode), train_tasks, world=world)
        assert len(ad.active_tape()) == 5, allocation_mode


def test_hypernet_training_step_records_three_tape_nodes():
    # One fused node per layer and one loss node; the unfused chain recorded 37.
    world, tasks = make_world()
    train_tasks = [t for t in tasks if t.split == "train"]
    multitask_train(small_config(model_kind="hypernet", steps=1), train_tasks, world=world)
    assert len(ad.active_tape()) == 3


def test_the_prior_adds_one_node_and_one_sum_for_all_matrices():
    world, tasks = make_world()
    train_tasks = [t for t in tasks if t.split == "train"]
    multitask_train(small_config(steps=1, ibp_strength=0.1), train_tasks, world=world)
    assert len(ad.active_tape()) == 5 + 2


def _step_gradients_equal_the_unfused_chain(allocation_mode, kind, ibp_strength):
    """One step's loss (with the prior at `ibp_strength`), fused and op by op: values and gradients within the float tolerance.

    The fused step records one draw, one normalised-row node and one prior
    for the stacked matrices; the chain draws, normalises and scores each
    matrix's slice apart and adds the priors in matrix order.
    """
    world, tasks = make_world()
    train_tasks = [t for t in tasks if t.split == "train"]
    config = small_config(allocation_mode=allocation_mode, ibp_strength=ibp_strength)
    model = build_model_from_config(config, train_tasks, world)
    named = model.named_parameters()
    task = train_tasks[2]
    x, y = task.x_train[:16], task.y_train[:16]
    if kind == "classification":
        y = np.where(y >= 0.0, 1.0, -1.0)

    def fused_prior(relaxed_mats):
        (stack,) = relaxed_mats
        return [ibp_regularizer(stack, config.ibp_alpha, config.ibp_strength)]

    def unfused_priors(relaxed_mats):
        return [unfused.ibp_regularizer(m, config.ibp_alpha, config.ibp_strength) for m in relaxed_mats]

    results = []
    for forward, loss_of, priors in [
        (
            lambda: model.forward(2, ad.tensor(x), train=True, rng=np.random.default_rng(5), tau=0.7),
            task_loss,
            fused_prior,
        ),
        (
            lambda: unfused.skill_forward(model, 2, ad.tensor(x), np.random.default_rng(5), 0.7),
            unfused.task_loss,
            unfused_priors,
        ),
    ]:
        ad.reset_tape()
        for p in named.values():
            p.grad = None
        pred, relaxed_mats = forward()
        total = loss_of(pred, y, kind)
        reg_value = 0.0
        for reg in priors(relaxed_mats) if ibp_strength > 0 else []:
            reg_value += reg.item()
            total = ad.add(total, reg)
        ad.backward(total)
        results.append((pred.data, reg_value, {name: p.grad for name, p in named.items()}))
    (pred, reg_value, fused), (ref_pred, ref_reg_value, reference) = results
    assert_arrays_close(pred, ref_pred)
    assert_arrays_close(reg_value, ref_reg_value)
    assert sorted(fused) == sorted(reference)
    for name in fused:
        assert_arrays_close(fused[name], reference[name])


@pytest.mark.parametrize("allocation_mode", ["per_layer", "global"])
@pytest.mark.parametrize("kind", ["regression", "classification"])
def test_step_gradients_with_the_prior_equal_the_unfused_chain(allocation_mode, kind):
    _step_gradients_equal_the_unfused_chain(allocation_mode, kind, 0.1)


@pytest.mark.parametrize("allocation_mode", ["per_layer", "global"])
@pytest.mark.parametrize("kind", ["regression", "classification"])
def test_step_gradients_without_the_prior_equal_the_unfused_chain(allocation_mode, kind):
    _step_gradients_equal_the_unfused_chain(allocation_mode, kind, 0.0)


def test_z_row_only_adaptation_still_learns_on_recombinable_task():
    trained, holdout = trained_small(steps=600, adapt_z_only_steps=150, adaptation_steps=150, k_shot=16)
    res = few_shot_adapt(trained, [holdout[0]])
    assert res.metrics_after[0]["loss"] < res.metrics_before[0]["loss"]


KIND_OVERRIDES = {"expert": {"expert_table": "planted"}}


def _model_state(model) -> dict:
    """Everything of a trained model that adaptation must leave alone, as bytes and shapes."""
    state = {name: (p.shape, p.data.tobytes()) for name, p in model.named_parameters().items()}
    for i, layer in enumerate(model.layers):
        mask = getattr(getattr(layer, "skills", None), "mask", None)
        state[f"layer{i}.mask"] = None if mask is None else (mask.shape, mask.tobytes())
    if hasattr(model.task_rows, "num_skills"):
        state["alloc"] = (model.task_rows.num_base_tasks, model.task_rows.new is None, model.task_rows.num_skills)
    return state


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_adaptation_does_not_mutate_the_base_model(kind):
    for param in ("dense", "sparse", "lowrank"):
        trained, holdout = trained_small(
            kind, steps=60, parameterisation=param, warmup_mask_steps=30, adaptation_steps=40,
            **KIND_OVERRIDES.get(kind, {}),
        )
        assert len(holdout) >= 2
        before = _model_state(trained.model)
        few_shot_adapt(trained, holdout, resamples=(0, 1))
        assert _model_state(trained.model) == before, param


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_adaptation_leaves_no_gradient_behind(kind):
    trained, holdout = trained_small(
        kind, steps=30, adaptation_steps=20, adapt_z_only_steps=10, **KIND_OVERRIDES.get(kind, {})
    )
    res = few_shot_adapt(trained, holdout, resamples=(0, 1))
    assert [name for name, p in res.model.named_parameters().items() if p.grad is not None] == []


def _base_map(model, x):
    """The layers' base maps alone, in numpy: what a task on an all-zero skill computes."""
    for layer in model.layers:
        if hasattr(layer, "W0"):
            weight, bias = layer.W0.data, layer.b0.data
        else:
            o, i = layer.shape.out_dim, layer.shape.in_dim
            base = layer.skills.base.data
            weight, bias = base[: o * i].reshape(o, i), base[o * i :]
        x = x @ weight.T + bias
    return x


@pytest.mark.parametrize("param", ["dense", "sparse", "lowrank"])
def test_private_adaptation_trains_only_a_new_skill(param):
    trained, holdout = trained_small(
        "private", steps=60, parameterisation=param, warmup_mask_steps=30, adaptation_steps=30
    )
    before = trained.model.snapshot()
    start = few_shot_adapt(with_config(trained, adaptation_steps=0), [holdout[0]])
    x = holdout[0].x_eval[:5]
    pred, _ = start.model.forward(start.task_index, ad.tensor(x[None]))
    assert np.allclose(pred.data[0], _base_map(start.model, x), rtol=0, atol=1e-12)
    assert np.array_equal(start.model.task_rows.new[0, 0, 0], np.eye(7)[6])

    res = few_shot_adapt(trained, [holdout[0]])
    after = replica_parameters(res.model, trained.model)
    assert set(after) == set(before)
    for name, old in before.items():
        new = after[name]
        if ".phi." in name:
            assert new.shape == (old.shape[0] + 1,) + old.shape[1:], name
            assert np.array_equal(new[:-1], old), name
        else:
            assert np.array_equal(new, old), name
    assert np.any(after["layer0.phi.0"][-1] != 0.0)
    if param == "sparse":
        assert np.all(res.model.layers[0].skills.mask[-1] == 1.0)


def test_hypernet_z_only_adaptation_leaves_the_generators_unchanged():
    trained, holdout = trained_small(
        "hypernet", steps=60, adapt_z_only_steps=30, adaptation_steps=30
    )
    before = trained.model.snapshot()
    res = few_shot_adapt(trained, [holdout[0]])
    after = replica_parameters(res.model, trained.model)
    for name, old in before.items():
        assert np.array_equal(after[name], old), name
    mean = trained.model.task_rows.base.data.mean(axis=0, keepdims=True)
    assert np.any(after["embeddings.extra.0"] != mean)


def test_resamples_differ_but_are_reproducible():
    trained, holdout = trained_small(steps=80, adaptation_steps=30)
    r0 = few_shot_adapt(trained, [holdout[0]], resamples=(0,))
    r1 = few_shot_adapt(trained, [holdout[0]], resamples=(1,))
    r0_again = few_shot_adapt(trained, [holdout[0]], resamples=(0,))
    assert r0.metrics_after == r0_again.metrics_after
    assert r0.metrics_after != r1.metrics_after


# ---------------------------------------------------------------------------
# draw order: every batch index is drawn before the first step


def _spy_steps(monkeypatch) -> list:
    """Wrap `trainer._step`; each call appends (task_index, x, y, the generators' states)."""
    seen, real_step = [], trainer._step

    def spy(model, optimizer, config, task_index, kind, name, x, y, rng, tau, step):
        rngs = rng if isinstance(rng, list) else [rng]
        seen.append((task_index, x.copy(), y.copy(), [g.bit_generator.state for g in rngs]))
        return real_step(model, optimizer, config, task_index, kind, name, x, y, rng, tau, step)

    monkeypatch.setattr(trainer, "_step", spy)
    return seen


def test_training_draws_the_task_schedule_then_every_batch_in_one_block(monkeypatch):
    world, tasks = make_world()
    train_tasks = [t for t in tasks if t.split == "train"]
    config = small_config(steps=40, eval_every=20)
    seen = _spy_steps(monkeypatch)
    trained = multitask_train(config, train_tasks, world=world)

    rng = np.random.default_rng([config.seed, STREAM_TRAIN])
    schedule = rng.integers(len(train_tasks), size=config.steps)
    sizes = np.array([t.x_train.shape[0] for t in train_tasks])
    rows = rng.integers(0, sizes[schedule][:, None], size=(config.steps, config.batch_size))
    assert np.array_equal(trained.history.task, schedule)
    assert len(seen) == config.steps
    for (task_index, x, y, _), i, row in zip(seen, schedule, rows):
        assert task_index == i
        assert np.array_equal(x, train_tasks[i].x_train[row])
        assert np.array_equal(y, train_tasks[i].y_train[row])
    # The Gumbel noise comes after both blocks, from the same generator.
    assert seen[0][3] == [rng.bit_generator.state]


@pytest.mark.parametrize("kind,param", [("private", "lowrank"), ("skilled", "dense")])
def test_each_replica_draws_every_adaptation_batch_right_after_its_pool(monkeypatch, kind, param):
    trained, holdout = trained_small(kind, parameterisation=param, steps=30, adaptation_steps=12, k_shot=8)
    config = trained.config
    seen = _spy_steps(monkeypatch)
    few_shot_adapt(trained, holdout[:2], resamples=(0, 1))
    replicas = [(o, r) for o in range(2) for r in (0, 1)]
    assert len(seen) == config.adaptation_steps

    for column, (ordinal, resample) in enumerate(replicas):
        rng = np.random.default_rng([config.seed, STREAM_ADAPT, ordinal, resample])
        if kind == "private":
            # The new skill's draws (a kaiming B per lowrank layer) come first.
            trained.model.replicate(1).add_skill([rng])
        task = holdout[ordinal]
        pool = rng.choice(task.x_train.shape[0], size=config.k_shot, replace=False)
        block = rng.integers(config.k_shot, size=(config.adaptation_steps, config.adaptation_batch_size))
        for (_, x, y, _), row in zip(seen, block):
            assert np.array_equal(x[column], task.x_train[pool][row])
            assert np.array_equal(y[column], task.y_train[pool][row])
        # Only the per-step Gumbel draws follow the block.
        assert seen[0][3][column] == rng.bit_generator.state


def _count_integers_calls(monkeypatch) -> list:
    """Make every generator the trainer builds with `np.random.default_rng` count its `integers` calls."""
    calls = []

    class Counting(np.random.Generator):
        def integers(self, *args, **kwargs):
            calls.append(args)
            return super().integers(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: Counting(np.random.PCG64(seed)))
    return calls


def test_training_draws_make_no_integers_call_per_step(monkeypatch):
    world, tasks = make_world()
    train_tasks = [t for t in tasks if t.split == "train"]
    calls = _count_integers_calls(monkeypatch)
    counts = []
    for steps in (10, 40):
        calls.clear()
        multitask_train(small_config(steps=steps, eval_every=10), train_tasks, world=world)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_adaptation_draws_make_no_integers_call_per_step(monkeypatch):
    trained, holdout = trained_small(steps=30)
    calls = _count_integers_calls(monkeypatch)
    counts = []
    for steps in (10, 40):
        calls.clear()
        few_shot_adapt(with_config(trained, adaptation_steps=steps), holdout[:2], resamples=(0, 1))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


# ---------------------------------------------------------------------------
# recovery scoring


def test_recovery_perfect_under_column_shuffle():
    rng = np.random.default_rng(0)
    true = rng.integers(0, 2, size=(8, 4))
    true[:, 0] = 1  # avoid an all-zero pathological column
    perm = [2, 0, 3, 1]
    learned = true[:, perm]
    score = skill_recovery_score(learned, true)
    assert score.cell_accuracy == 1.0
    # applying the recovered assignment reproduces the truth exactly
    assert np.array_equal(learned[:, list(score.best_permutation)], true)


def test_recovery_complement_single_column():
    true = np.array([[1], [1], [1], [1]])
    learned = 1 - true
    assert skill_recovery_score(learned, true).cell_accuracy == 0.0


def test_recovery_requires_enough_learned_columns():
    with pytest.raises(ContractError):
        skill_recovery_score(np.ones((4, 2)), np.ones((4, 3)))
    with pytest.raises(ContractError):
        skill_recovery_score(np.ones((4, 2)), np.ones((5, 2)))


def recovery_exhaustive(learned, true) -> RecoveryScore:
    """Reference: every injective assignment in lexicographic order, first best kept."""
    learned, true = np.asarray(learned), np.asarray(true)
    agreement = (true[:, :, None] == learned[:, None, :]).sum(axis=0)
    num_true = true.shape[1]
    best, best_perm = -1, None
    for perm in itertools.permutations(range(learned.shape[1]), num_true):
        score = int(sum(agreement[j, perm[j]] for j in range(num_true)))
        if score > best:
            best, best_perm = score, perm
    return RecoveryScore(tuple(best_perm), best / (learned.shape[0] * num_true))


def test_hungarian_equals_exhaustive_on_random_instances():
    rng = np.random.default_rng(1)
    for _ in range(25):
        true = rng.integers(0, 2, size=(6, 4))
        learned = rng.integers(0, 2, size=(6, 4))
        exact = recovery_exhaustive(learned, true)
        assigned = skill_recovery_score(learned, true)
        assert assigned.cell_accuracy == pytest.approx(exact.cell_accuracy, abs=1e-12)


@pytest.mark.parametrize("num_learned", [3, 5, 7])
def test_recovery_picks_the_exhaustive_search_permutation(num_learned):
    # Few rows and a biased coin make ties between assignments common.
    rng = np.random.default_rng(num_learned)
    for _ in range(150):
        rows = int(rng.integers(1, 6))
        true = (rng.uniform(size=(rows, 3)) < 0.7).astype(int)
        learned = (rng.uniform(size=(rows, num_learned)) < 0.7).astype(int)
        exact = recovery_exhaustive(learned, true)
        score = skill_recovery_score(learned, true)
        assert score.best_permutation == exact.best_permutation
        assert score.cell_accuracy == exact.cell_accuracy


def test_recovery_of_sixteen_learned_columns_is_the_lexicographic_optimum():
    rng = np.random.default_rng(4)
    true = rng.integers(0, 2, size=(8, 4))
    learned = np.concatenate([rng.integers(0, 2, size=(8, 12)), true], axis=1)
    score = skill_recovery_score(learned, true)
    assert score == recovery_exhaustive(learned, true)
    assert score.cell_accuracy == 1.0


def test_recovery_invariances():
    rng = np.random.default_rng(2)
    true = rng.integers(0, 2, size=(7, 3))
    learned = rng.integers(0, 2, size=(7, 5))
    base = skill_recovery_score(learned, true).cell_accuracy
    cols = rng.permutation(5)
    assert skill_recovery_score(learned[:, cols], true).cell_accuracy == pytest.approx(base)
    rows = rng.permutation(7)
    assert skill_recovery_score(learned[rows], true[rows]).cell_accuracy == pytest.approx(base)


def test_recovery_accepts_binary_allocation_objects():
    true = as_binary(np.array([[1, 0], [0, 1]]))
    learned = harden(np.array([[0.9, 0.2], [0.1, 0.8]]))
    assert skill_recovery_score(learned, true).cell_accuracy == 1.0
