"""The task-row store: one forward over many tasks, and at most one new task.

`model.forward` takes an int array of base tasks, one per leading row of
the input, and `trainer.evaluate` stacks the specs' splits into one such
forward. Both must give each task exactly what its own forward gives, for
every kind, parameterisation and allocation mode, in a regression world
and in a mixed one. The gather passes no gradient to the base rows, and a
model's store takes one new task.
"""

import itertools

import numpy as np
import pytest

from skillmix import autodiff as ad
from skillmix.config import ALLOCATION_MODES, MODEL_KINDS, PARAMETERISATIONS, ExperimentConfig, WorldConfig
from skillmix.errors import ContractError, TaskLookupError
from skillmix.synthetic import generate_synthetic_benchmark
from skillmix.trainer import _metrics, _register_new_task, evaluate, multitask_train

import unfused


def _trained(kind, parameterisation, mode, input_dim, task_kind):
    world_config = WorldConfig(
        num_tasks=5, num_true_skills=3, input_dim=input_dim, examples_per_task=16,
        skills_per_task_max=2, holdout_tasks=0, task_kind=task_kind,
    )
    config = ExperimentConfig(
        seed=1, world=world_config, model_kind=kind, parameterisation=parameterisation,
        allocation_mode=mode, expert_table="planted" if kind == "expert" else None,
        num_skills=3, hidden_dim=8, rank=2, tau=0.7, steps=8, batch_size=8, warmup_mask_steps=4, eval_every=8,
    )
    w = world_config
    world, tasks = generate_synthetic_benchmark(
        config.seed, w.num_tasks, w.num_true_skills, w.input_dim, w.examples_per_task, w.noise_sigma,
        (w.skills_per_task_min, w.skills_per_task_max), holdout_tasks=0, task_kind=task_kind,
    )
    return multitask_train(config, tasks, world=world)


@pytest.mark.parametrize("input_dim", (8, 16))
@pytest.mark.parametrize("task_kind", ("regression", "mixed"))
@pytest.mark.parametrize("kind,parameterisation,mode", itertools.product(MODEL_KINDS, PARAMETERISATIONS, ALLOCATION_MODES))
def test_many_task_evaluation_equals_one_task_forwards(kind, parameterisation, mode, input_dim, task_kind):
    trained = _trained(kind, parameterisation, mode, input_dim, task_kind)
    model, tasks = trained.model, trained.tasks
    for split in ("dev", "eval"):
        xs = [getattr(t, f"x_{split}") for t in tasks]
        ys = [getattr(t, f"y_{split}") for t in tasks]
        alone = [model.forward(i, ad.tensor(x))[0].data for i, x in enumerate(xs)]
        stacked = model.forward(np.arange(len(tasks)), ad.tensor(np.stack(xs)))[0].data
        assert all(np.array_equal(stacked[i], pred) for i, pred in enumerate(alone))
        many = evaluate(model, np.arange(len(tasks)), tasks, split)
        assert many == [_metrics(pred, y, t.kind) for pred, y, t in zip(alone, ys, tasks)]
        assert many == [evaluate(model, [i], [t], split)[0] for i, t in enumerate(tasks)]


@pytest.mark.parametrize("kind", ("skilled", "hypernet"))
def test_task_index_array_guards(kind):
    trained = _trained(kind, "dense", "per_layer", 8, "regression")
    model = trained.model
    x = ad.tensor(np.stack([t.x_dev for t in trained.tasks[:2]]))
    with pytest.raises(ContractError):
        model.forward(np.arange(2), x, train=True, rng=np.random.default_rng(0))
    for bad in ([0, 5], [-1, 0], np.array([0.0, 1.0]), np.array([[0, 1]])):
        with pytest.raises(TaskLookupError):
            model.forward(bad, x)
    with pytest.raises(TaskLookupError):
        evaluate(model, [0, len(trained.tasks)], trained.tasks[:2])


@pytest.mark.parametrize("kind", ("skilled", "hypernet"))
def test_an_index_array_forward_gives_the_base_rows_no_gradient(kind):
    trained = _trained(kind, "dense", "per_layer", 8, "regression")
    model = trained.model
    for p in model.named_parameters().values():
        p.grad = None
    ad.reset_tape()
    x = ad.tensor(np.stack([t.x_dev for t in trained.tasks]))
    pred, _ = model.forward(np.arange(len(trained.tasks)), x)
    ad.backward(unfused.reduce_sum(pred))
    assert model.task_rows.base.grad is None
    assert all(p.grad is not None for p in model.base_parameters())


@pytest.mark.parametrize("kind", ("skilled", "hypernet"))
def test_a_second_new_task_is_a_contract_error(kind):
    trained = _trained(kind, "dense", "per_layer", 8, "regression")
    model, tasks = trained.model.replicate(2), trained.tasks[:2]
    rngs = [np.random.default_rng(r) for r in range(2)]
    assert _register_new_task(model, trained.config, tasks, rngs) == len(trained.tasks)
    with pytest.raises(ContractError):
        _register_new_task(model, trained.config, tasks, rngs)
    assert model.task_rows.num_tasks == len(trained.tasks) + 1
