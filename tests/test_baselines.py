import numpy as np
import pytest

from skillmix import autodiff as ad
from skillmix.allocation import metric_discreteness, metric_sparsity, metric_usage
from skillmix.config import ExperimentConfig, WorldConfig
from skillmix.errors import TaskLookupError
from skillmix.model import HypernetLayer, HypernetModel, hypernet_generate
from skillmix.skills import DenseLayer, DenseSkills, LayerShape
from skillmix.synthetic import generate_synthetic_benchmark
from skillmix.trainer import build_model_from_config, resolve_fixed_allocation

import unfused
from drift import assert_arrays_close
from gradcheck import grad_check


@pytest.fixture(autouse=True)
def clean_tape():
    ad.reset_tape()
    yield
    ad.reset_tape()


# ---------------------------------------------------------------------------
# fixed allocations


def _world(config: ExperimentConfig):
    """The world and training tasks `config` describes."""
    w = config.world
    world, tasks = generate_synthetic_benchmark(
        config.seed, w.num_tasks, w.num_true_skills, w.input_dim, w.examples_per_task, w.noise_sigma,
        (w.skills_per_task_min, w.skills_per_task_max), holdout_tasks=w.holdout_tasks,
    )
    return world, [t for t in tasks if t.split == "train"]


def _fixed(kind: str, num_tasks: int) -> np.ndarray:
    world_config = WorldConfig(num_tasks=num_tasks, num_true_skills=2, skills_per_task_max=2, input_dim=4, examples_per_task=4)
    config = ExperimentConfig(model_kind=kind, world=world_config)
    world, tasks = _world(config)
    return resolve_fixed_allocation(config, tasks, world)


def test_private_is_identity():
    fixed = _fixed("private", 3)
    assert np.array_equal(fixed, np.eye(3, dtype=int))
    assert fixed.shape[1] == 3


def test_private_composes_base_plus_own_skill():
    rng = np.random.default_rng(0)
    layer = DenseLayer(LayerShape(3, 1), 3, rng)
    layer.skills = skills = DenseSkills(
        ad.tensor(rng.standard_normal((3, 4)), requires_grad=True),
        ad.tensor(rng.standard_normal(4), requires_grad=True),
    )
    row = _fixed("private", 3)[1]
    x = rng.standard_normal((2, 3))
    out = layer.forward(ad.tensor(x), ad.tensor((row / row.sum())[None]), 0)
    theta = skills.base.data + skills.phi.data[1]
    assert np.allclose(out.data, x @ theta[:3, None] + theta[3])


def test_private_usage_metric_is_uniform():
    assert metric_usage(_fixed("private", 5)) == pytest.approx(1.0)


def test_shared_is_single_ones_column():
    fixed = _fixed("shared", 4)
    assert fixed.shape == (4, 1)
    assert np.all(fixed == 1)
    assert metric_sparsity(fixed) == 1.0
    assert metric_discreteness(fixed) == 0.0


# ---------------------------------------------------------------------------
# hypernetwork


def _column(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).reshape(-1, 1)


def test_zero_initialised_generator_gives_zero_adapter():
    layer = HypernetLayer(LayerShape(6, 5), 4, 2, np.random.default_rng(0))
    a, b, _ = hypernet_generate(_column(np.random.default_rng(0).standard_normal(4)), layer)
    assert np.all(a == 0.0)
    assert a.shape == (5, 2) and b.shape == (2, 6)


def test_identical_embeddings_generate_identical_parameters():
    model = HypernetModel(2, 4, [LayerShape(3, 3)], 2, np.random.default_rng(1))
    layer = model.layers[0]
    layer.w2_a.data[:] = np.random.default_rng(2).standard_normal(layer.w2_a.shape)
    model.task_rows.base.data[1] = model.task_rows.base.data[0]
    a0, b0, _ = hypernet_generate(_column(model.task_rows.base.data[0]), layer)
    a1, b1, _ = hypernet_generate(_column(model.task_rows.base.data[1]), layer)
    assert np.array_equal(a0, a1)
    assert np.array_equal(b0, b1)


def test_unknown_task_raises_lookup_error():
    model = HypernetModel(2, 4, [LayerShape(3, 3)], 1, np.random.default_rng(0))
    with pytest.raises(TaskLookupError):
        model.forward(2, ad.tensor(np.ones((1, 3))))


def test_fresh_embedding_registration_extends_tasks():
    model = HypernetModel(2, 4, [LayerShape(3, 3)], 1, np.random.default_rng(0)).replicate(1)
    index = model.add_task_embedding(1)
    assert index == 2
    model.forward(2, ad.tensor(np.ones((1, 1, 3))))  # no longer raises


def test_generated_gradient_wrt_embedding_matches_finite_differences():
    layer = HypernetLayer(LayerShape(5, 3), 4, 2, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    layer.w2_a.data[:] = rng.standard_normal(layer.w2_a.shape)
    x = ad.tensor(rng.standard_normal((1, 5)))

    def f(embedding):
        return unfused.reduce_sum(layer.forward(x, embedding, 0))

    # relu kinks are measure-zero; nudge away from exact zeros
    start = ad.tensor(rng.standard_normal((1, 4)) + 0.05)
    assert grad_check(f, start) < 1e-4


def _hypernet_case(case):
    """A hypernet model with random generators, the task to run and its input: unstacked or stacked over [R]."""
    model = HypernetModel(3, 4, [LayerShape(5, 4), LayerShape(4, 2)], 2, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    for layer in model.layers:
        layer.w2_a.data[:] = rng.standard_normal(layer.w2_a.shape)
    if case == "base_row":
        return model, 1, rng.standard_normal((6, 5))
    replicas = 3 if case == "stacked" else 1
    if case != "unstacked_new_task":
        model = model.replicate(replicas)
    task = model.add_task_embedding(replicas)
    model.task_rows.new.data += 0.1 * rng.standard_normal(model.task_rows.new.shape)
    return model, task, rng.standard_normal((replicas, 6, 5))


@pytest.mark.parametrize("case", ["base_row", "unstacked_new_task", "stacked", "stacked_one_replica"])
@pytest.mark.parametrize("input_grad", [False, True])
def test_fused_hypernet_layers_equal_the_unfused_chain(case, input_grad):
    # Value and every input's gradient within the float tolerance: a base task's embedding
    # row, and a new task's embedding on generators unstacked or stacked over [R].
    model, task, x = _hypernet_case(case)
    named = model.named_parameters()
    results = []
    for forward in (model.forward, lambda t, h: unfused.hypernet_forward(model, t, h)):
        ad.reset_tape()
        for p in named.values():
            p.grad = None
        inp = ad.tensor(x, requires_grad=input_grad)
        out, _ = forward(task, inp)
        weights = ad.tensor(np.random.default_rng(10).standard_normal(out.shape))
        ad.backward(unfused.reduce_sum(unfused.mul(out, weights)))
        grads = {name: p.grad for name, p in named.items()}
        results.append((out.data, inp.grad, grads))
    (fused_out, fused_x, fused), (ref_out, ref_x, reference) = results
    assert_arrays_close(fused_out, ref_out)
    assert (fused_x is None) == (ref_x is None)
    if input_grad:
        assert_arrays_close(fused_x, ref_x)
    assert {name for name, g in fused.items() if g is not None} == {
        name for name, g in reference.items() if g is not None
    }
    for name, g in reference.items():
        if g is not None:
            assert_arrays_close(fused[name], g)


# ---------------------------------------------------------------------------
# baselines as special cases of composition


def _build(num_tasks: int, seed: int, **changes):
    """A model over `num_tasks` tasks of input size 4, hidden size 3, built from its config."""
    world_config = WorldConfig(num_tasks=num_tasks, num_true_skills=1, skills_per_task_max=1, input_dim=4, holdout_tasks=0)
    config = ExperimentConfig(seed=seed, world=world_config, hidden_dim=3, **changes)
    world, tasks = _world(config)
    return build_model_from_config(config, tasks, world)


def test_private_model_forward_equals_skilled_with_identity():
    x = ad.tensor(np.random.default_rng(5).standard_normal((6, 4)))
    private = _build(3, 42, model_kind="private")
    frozen = _build(3, 42, freeze_allocation="identity")
    for task in range(3):
        y_private, _ = private.forward(task, x)
        y_frozen, _ = frozen.forward(task, x)
        assert np.array_equal(y_private.data, y_frozen.data)


def test_shared_tasks_all_compose_identical_outputs():
    x = ad.tensor(np.random.default_rng(7).standard_normal((5, 4)))
    shared = _build(4, 44, model_kind="shared")
    outputs = [shared.forward(task, x)[0].data for task in range(4)]
    for other in outputs[1:]:
        assert np.array_equal(outputs[0], other)
