"""Finite-difference check of one training step for every model kind the workloads use.

The step is the trainer's: a relaxed allocation draw from a fixed rng, the
task loss (squared error or logistic) and, for ibp_train, the IBP
regulariser. The analytic gradient comes from the program's backward; the
numeric one from central differences of the same step, computed here.
"""

import numpy as np
import pytest

from skillmix.autodiff import add, backward, no_grad, reset_tape, tensor
from skillmix.config import parse_config_dict
from skillmix.priors import ibp_regularizer
from skillmix.synthetic import generate_synthetic_benchmark
from skillmix.trainer import build_model_from_config, task_loss
from workloads import COMPARE_KINDS, config_doc

CASES = [("default_run", "skilled"), ("ibp_train", "skilled")] + [
    ("kinds_compare", kind) for kind in COMPARE_KINDS
]
EPS = 1e-6
COORDS_PER_PARAM = 6


def _setup(workload, kind):
    config = parse_config_dict(config_doc(workload, seed=3, tiny=True)).replace(model_kind=kind)
    w = config.world
    world, tasks = generate_synthetic_benchmark(
        config.seed, w.num_tasks, w.num_true_skills, w.input_dim, w.examples_per_task,
        w.noise_sigma, (w.skills_per_task_min, w.skills_per_task_max),
        holdout_tasks=w.holdout_tasks, task_kind=w.task_kind,
    )
    train = [t for t in tasks if t.split == "train"]
    model = build_model_from_config(config, train, world)
    if config.parameterisation == "sparse" and kind != "hypernet":
        # Move phi as a warm-up would, then freeze: the step uses compose_sparse.
        for layer in model.layers:
            phi = layer.skills.phi.data
            phi += 0.01 * np.random.default_rng(0).standard_normal(phi.shape)
        model.freeze_sparse_masks()
    return config, model, train


def _step_loss(config, model, task_index, task, batch):
    reset_tape()
    tau = 0.7 if config.tau_final is not None else config.tau
    rng = np.random.default_rng(123)
    pred, relaxed = model.forward(task_index, tensor(task.x_train[batch]), train=True, rng=rng, tau=tau)
    loss = task_loss(pred, task.y_train[batch], task.kind)
    if config.ibp_strength > 0:
        for matrix in relaxed:
            loss = add(loss, ibp_regularizer(matrix, config.ibp_alpha, config.ibp_strength))
    return loss


@pytest.mark.parametrize("workload,kind", CASES)
def test_training_step_gradient_matches_finite_differences(workload, kind):
    config, model, train = _setup(workload, kind)
    # Odd rows of a mixed world are classification tasks: use one, for the logistic loss.
    task_index = 1 if config.world.task_kind == "mixed" else 0
    task = train[task_index]
    assert task.kind == ("classification" if task_index else "regression")
    batch = np.arange(config.batch_size) % task.x_train.shape[0]

    named = model.named_parameters()
    for p in named.values():
        p.grad = None
    backward(_step_loss(config, model, task_index, task, batch))
    pick = np.random.default_rng(7)
    checked = 0
    for name, p in named.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat, grad = p.data.reshape(-1), analytic.reshape(-1)
        for k in pick.choice(flat.size, size=min(COORDS_PER_PARAM, flat.size), replace=False):
            orig = flat[k]
            with no_grad():
                flat[k] = orig + EPS
                plus = _step_loss(config, model, task_index, task, batch).item()
                flat[k] = orig - EPS
                minus = _step_loss(config, model, task_index, task, batch).item()
            flat[k] = orig
            numeric = (plus - minus) / (2 * EPS)
            assert abs(grad[k] - numeric) <= 1e-6 + 1e-5 * max(abs(grad[k]), abs(numeric)), (
                f"{name}[{k}]: analytic {grad[k]} vs numeric {numeric}"
            )
            checked += abs(numeric) > 0
    assert checked > 0
