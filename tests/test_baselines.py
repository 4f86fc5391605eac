import json
from types import SimpleNamespace

import numpy as np
import pytest

from skillmix import autodiff as ad
from skillmix.allocation import metric_discreteness, metric_sparsity, metric_usage
from skillmix.baselines import allocation_expert, hypernet_generate, new_hypernet
from skillmix.config import ExperimentConfig, parse_config_dict
from skillmix.errors import ContractError, TaskLookupError
from skillmix.model import HypernetModel, LayerShape, build_model
from skillmix.skills import DenseSkills, mixed_affine
from skillmix.trainer import resolve_fixed_allocation

import unfused
from gradcheck import grad_check


@pytest.fixture(autouse=True)
def clean_tape():
    ad.reset_tape()
    yield
    ad.reset_tape()


# ---------------------------------------------------------------------------
# fixed allocations


def _fixed(kind: str, num_tasks: int) -> np.ndarray:
    tasks = [SimpleNamespace(id=f"t{i}") for i in range(num_tasks)]
    return resolve_fixed_allocation(ExperimentConfig(model_kind=kind), tasks, None)


def test_private_is_identity():
    fixed = _fixed("private", 3)
    assert np.array_equal(fixed, np.eye(3, dtype=int))
    assert fixed.shape[1] == 3


def test_private_composes_base_plus_own_skill():
    rng = np.random.default_rng(0)
    skills = DenseSkills(
        ad.tensor(rng.standard_normal((3, 4)), requires_grad=True),
        ad.tensor(rng.standard_normal(4), requires_grad=True),
    )
    row = _fixed("private", 3)[1]
    x = rng.standard_normal((2, 3))
    out = mixed_affine(ad.tensor(x), skills, ad.tensor(row / row.sum()), LayerShape(3, 1))
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


def test_expert_builds_listed_cells():
    table = {"nav": [0], "manipulate": [0, 1, 3], "speak": [2]}
    fixed = allocation_expert(table, 4, ["nav", "manipulate", "speak"])
    assert np.array_equal(
        fixed,
        np.array([[1, 0, 0, 0], [1, 1, 0, 1], [0, 0, 1, 0]]),
    )


def test_expert_rejects_empty_or_out_of_range():
    with pytest.raises(ContractError):
        allocation_expert({"a": []}, 2, ["a"])
    with pytest.raises(ContractError):
        allocation_expert({"a": [5]}, 2, ["a"])
    with pytest.raises(ContractError):
        allocation_expert({}, 2, ["missing"])


def test_expert_table_json_ingestion():
    text = json.dumps({"tasks": {"train_task_00": [0, 2], "train_task_01": [1]}, "num_skills": 3})
    world = {"num_tasks": 2, "num_true_skills": 2, "skills_per_task_max": 2}
    config = parse_config_dict({"model_kind": "expert", "expert_table": json.loads(text), "world": world})
    tasks = [SimpleNamespace(id="train_task_00"), SimpleNamespace(id="train_task_01")]
    fixed = resolve_fixed_allocation(config, tasks, None)
    assert np.array_equal(fixed, np.array([[1, 0, 1], [0, 1, 0]]))


def test_expert_passthrough_of_planted_truth():
    truth = np.array([[1, 0], [1, 1], [0, 1]])
    table = {f"t{i}": list(np.flatnonzero(truth[i])) for i in range(3)}
    fixed = allocation_expert(table, 2, ["t0", "t1", "t2"])
    assert np.array_equal(fixed, truth)


# ---------------------------------------------------------------------------
# hypernetwork


def _column(values) -> ad.Tensor:
    return ad.tensor(np.asarray(values, dtype=np.float64).reshape(-1, 1))


def test_zero_initialised_generator_gives_zero_adapter():
    hn = new_hypernet(4, out_dim=5, in_dim=6, rank=2, seed=0)
    a, b = hypernet_generate(_column(np.random.default_rng(0).standard_normal(4)), hn)
    assert np.all(a.data == 0.0)
    assert a.shape == (5, 2) and b.shape == (2, 6)


def test_identical_embeddings_generate_identical_parameters():
    model = HypernetModel(2, 4, [LayerShape(3, 3)], 2, np.random.default_rng(1))
    hn = model.layers[0].hypernet
    hn.w2_a.data[:] = np.random.default_rng(2).standard_normal(hn.w2_a.shape)
    model.embeddings.data[1] = model.embeddings.data[0]
    a0, b0 = hypernet_generate(_column(model.embeddings.data[0]), hn)
    a1, b1 = hypernet_generate(_column(model.embeddings.data[1]), hn)
    assert np.array_equal(a0.data, a1.data)
    assert np.array_equal(b0.data, b1.data)


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
    hn = new_hypernet(4, out_dim=3, in_dim=5, rank=2, seed=3)
    rng = np.random.default_rng(4)
    hn.w2_a.data[:] = rng.standard_normal(hn.w2_a.shape)
    x = rng.standard_normal(5)

    def f(embedding):
        a, b = hypernet_generate(ad.reshape(embedding, (4, 1)), hn)
        y = ad.matmul(a, ad.matmul(b, ad.reshape(ad.tensor(x), (5, 1))))
        return unfused.reduce_sum(y)

    # relu kinks are measure-zero; nudge away from exact zeros
    start = ad.tensor(rng.standard_normal((1, 4)) + 0.05)
    assert grad_check(f, start) < 1e-4


# ---------------------------------------------------------------------------
# baselines as special cases of composition


def test_private_model_forward_equals_skilled_with_identity():
    shapes = [LayerShape(4, 3), LayerShape(3, 1)]
    x = ad.tensor(np.random.default_rng(5).standard_normal((6, 4)))
    private = build_model("private", 3, 3, shapes, np.random.default_rng(42), fixed=_fixed("private", 3))
    frozen = build_model("skilled", 3, 3, shapes, np.random.default_rng(42), fixed=np.eye(3))
    for task in range(3):
        y_private, _ = private.forward(task, x)
        y_frozen, _ = frozen.forward(task, x)
        assert np.array_equal(y_private.data, y_frozen.data)


def test_shared_model_forward_equals_skilled_with_ones():
    shapes = [LayerShape(4, 3), LayerShape(3, 1)]
    x = ad.tensor(np.random.default_rng(6).standard_normal((5, 4)))
    shared = build_model("shared", 3, 1, shapes, np.random.default_rng(43), fixed=_fixed("shared", 3))
    frozen = build_model("skilled", 3, 1, shapes, np.random.default_rng(43), fixed=np.ones((3, 1)))
    for task in range(3):
        y_shared, _ = shared.forward(task, x)
        y_frozen, _ = frozen.forward(task, x)
        assert np.array_equal(y_shared.data, y_frozen.data)


def test_shared_tasks_all_compose_identical_outputs():
    shapes = [LayerShape(4, 3), LayerShape(3, 1)]
    x = ad.tensor(np.random.default_rng(7).standard_normal((5, 4)))
    shared = build_model("shared", 4, 1, shapes, np.random.default_rng(44), fixed=_fixed("shared", 4))
    outputs = [shared.forward(task, x)[0].data for task in range(4)]
    for other in outputs[1:]:
        assert np.array_equal(outputs[0], other)
