import json

import pytest

from skillmix.config import (
    ADAPT_MODES,
    ALLOCATION_MODES,
    MAX_FEW_SHOT,
    MODEL_KINDS,
    PARAMETERISATIONS,
    TASK_KINDS,
    ExperimentConfig,
    WorldConfig,
    config_hash,
    parse_config,
    parse_config_dict,
)
from skillmix.errors import ConfigError
from skillmix.synthetic import task_id


def rejected(doc: dict) -> str:
    with pytest.raises(ConfigError) as err:
        parse_config_dict(doc)
    return err.value.key


def test_empty_document_gives_the_defaults():
    assert parse_config_dict({}) == ExperimentConfig()


def test_unknown_keys_are_rejected():
    assert rejected({"stpes": 10}) == "stpes"
    assert rejected({"world": {"num_task": 4}}) == "world.num_task"


def test_boolean_is_not_an_integer():
    assert rejected({"steps": True}) == "steps"
    assert rejected({"world": {"num_tasks": False}}) == "world.num_tasks"
    assert rejected({"tau": True}) == "tau"
    assert rejected({"sweep_grid": [2, True]}) == "sweep_grid"


def test_wrong_types_are_rejected():
    assert rejected({"steps": 1.5}) == "steps"
    assert rejected({"model_kind": 3}) == "model_kind"
    assert rejected({"select_best_dev": 1}) == "select_best_dev"
    assert rejected({"world": []}) == "world"
    assert rejected({"output_dir": 5}) == "output_dir"


def test_integers_are_accepted_for_numbers():
    config = parse_config_dict({"tau": 2, "tau_final": 1, "world": {"noise_sigma": 0}})
    assert (config.tau, config.tau_final, config.world.noise_sigma) == (2.0, 1.0, 0.0)
    assert isinstance(config.tau, float) and isinstance(config.tau_final, float)


@pytest.mark.parametrize(
    "key,values",
    [
        ("parameterisation", PARAMETERISATIONS),
        ("allocation_mode", ALLOCATION_MODES),
        ("adapt_mode", ADAPT_MODES),
    ],
)
def test_every_enum_value_parses_and_others_are_rejected(key, values):
    for value in values:
        assert getattr(parse_config_dict({key: value}), key) == value
    assert rejected({key: "bogus"}) == key


def test_every_model_kind_parses():
    for kind in MODEL_KINDS:
        doc = {"model_kind": kind}
        if kind == "expert":
            doc["expert_table"] = "planted"
        assert parse_config_dict(doc).model_kind == kind
    assert rejected({"model_kind": "bogus"}) == "model_kind"


def test_every_task_kind_parses():
    for kind in TASK_KINDS:
        assert parse_config_dict({"world": {"task_kind": kind}}).world.task_kind == kind
    assert rejected({"world": {"task_kind": "ranking"}}) == "world.task_kind"


TWO_TASKS = {"num_tasks": 2, "num_true_skills": 2, "skills_per_task_max": 2}
FOUR_TASKS = {"num_tasks": 4, "num_true_skills": 2, "skills_per_task_max": 2}


@pytest.mark.parametrize("value", [None, "identity", "ones", [[1, 0], [0, 1]]])
def test_freeze_allocation_forms(value):
    config = parse_config_dict({"freeze_allocation": value, "world": TWO_TASKS})
    assert config.freeze_allocation == value


@pytest.mark.parametrize(
    "value",
    [
        "zeros",
        3,
        {"rows": 1},
        [[1, 0], [0, 1], [1, 1], [0, 0]],  # a task with no skill
        [[1, 0], [0, 1]],  # one row per training task
        [[2, 0], [0, 1], [1, 1], [1, 0]],
        [[1, 0], [0], [1, 1], [1, 0]],  # ragged
        [[True, False], [0, 1], [1, 1], [1, 0]],
        [[1.0, 0], [0, 1], [1, 1], [1, 0]],
    ],
)
def test_freeze_allocation_rejects_other_forms(value):
    assert rejected({"freeze_allocation": value, "world": FOUR_TASKS}) == "freeze_allocation"


PLANTED_IDS = [task_id("train", row) for row in range(4)]


@pytest.mark.parametrize("value", ["planted", {"tasks": {task_id("train", 0): [0]}, "num_skills": 1}])
def test_expert_table_forms(value):
    world = {"num_tasks": 1, "num_true_skills": 1, "skills_per_task_max": 1, "holdout_tasks": 0}
    config = parse_config_dict({"model_kind": "expert", "expert_table": value, "world": world})
    assert config.expert_table == value


@pytest.mark.parametrize(
    "value",
    [
        "learned",
        {"tasks": {}},
        {"num_skills": 2},
        [1],
        {"tasks": {name: [0] for name in PLANTED_IDS[:3]}, "num_skills": 2},  # a task missing
        {"tasks": {name: [0, 5] for name in PLANTED_IDS}, "num_skills": 2},  # skill 5 of 2
        {"tasks": {name: [0] for name in PLANTED_IDS}, "num_skills": "x"},
        {"tasks": {name: [] for name in PLANTED_IDS}, "num_skills": 2},
        {"tasks": {name: [True] for name in PLANTED_IDS}, "num_skills": 2},
        {"tasks": [[0]] * 4, "num_skills": 2},
        {"tasks": {name: [0] for name in PLANTED_IDS}, "num_skills": 1},  # fewer than the planted skills
    ],
)
def test_expert_table_rejects_other_forms(value):
    assert rejected({"expert_table": value, "world": FOUR_TASKS}) == "expert_table"


def test_expert_kind_needs_a_table():
    assert rejected({"model_kind": "expert"}) == "expert_table"


def test_k_shot_bound():
    assert parse_config_dict({"k_shot": MAX_FEW_SHOT}).k_shot == MAX_FEW_SHOT
    assert parse_config_dict({"k_shot": 0}).k_shot == 0
    assert rejected({"k_shot": MAX_FEW_SHOT + 1}) == "k_shot"
    assert rejected({"k_shot": -1}) == "k_shot"


@pytest.mark.parametrize(
    "doc,key",
    [
        ({"num_skills": 0}, "num_skills"),
        ({"sparsity": 1.0}, "sparsity"),
        ({"tau": 0}, "tau"),
        ({"tau_final": -1.0}, "tau_final"),
        ({"lr_z": 1e-4, "lr_phi": 1e-3}, "lr_z"),
        ({"loss_threshold_frac": 0.0}, "loss_threshold_frac"),
        ({"world": {"num_true_skills": 20}}, "world.num_true_skills"),
        ({"world": {"skills_per_task_min": 3, "skills_per_task_max": 2}}, "world.skills_per_task_min"),
        ({"world": {"holdout_tasks": -1}}, "world.holdout_tasks"),
        ({"sweep_grid": []}, "sweep_grid"),
        ({"sweep_grid": [0, 2]}, "sweep_grid"),
    ],
)
def test_out_of_range_values_are_rejected(doc, key):
    assert rejected(doc) == key


def test_sweep_grid_and_nullable_fields():
    config = parse_config_dict({"sweep_grid": [2, 8], "tau_final": None, "output_dir": None})
    assert config.sweep_grid == (2, 8)
    assert config.tau_final is None and config.output_dir is None
    assert rejected({"sweep_grid": "2,8"}) == "sweep_grid"


@pytest.mark.parametrize(
    "build,key",
    [
        (lambda: ExperimentConfig(num_skills=0), "num_skills"),
        (lambda: ExperimentConfig().replace(model_kind="bogus"), "model_kind"),
        (lambda: ExperimentConfig().replace(model_kind="expert"), "expert_table"),
        (lambda: WorldConfig(num_true_skills=2), "world.skills_per_task_min"),
    ],
    ids=["constructor", "replace", "replace_needs_table", "world"],
)
def test_a_config_is_checked_where_it_is_built(build, key):
    with pytest.raises(ConfigError) as err:
        build()
    assert err.value.key == key


def test_parse_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_config(bad)
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        parse_config(listed)


def test_file_round_trip_and_hash(tmp_path):
    config = ExperimentConfig(seed=4, world=WorldConfig(num_tasks=5), sweep_grid=(2, 3))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    loaded = parse_config(path)
    assert loaded == config
    assert config_hash(loaded) == config_hash(config)
    assert config_hash(config.replace(seed=5)) != config_hash(config)


def test_hash_and_summary_ignore_output_dir(tmp_path):
    from skillmix.experiment import run_experiment

    doc = {
        "world": {"num_tasks": 3, "num_true_skills": 2, "skills_per_task_max": 2, "input_dim": 4, "examples_per_task": 16, "holdout_tasks": 1},
        "hidden_dim": 4,
        "steps": 10,
        "eval_every": 5,
        "k_shot": 4,
        "adaptation_steps": 4,
        "adaptation_resamples": 1,
    }
    runs = []
    for name in ("a", "b"):
        config = parse_config_dict({**doc, "output_dir": str(tmp_path / name)})
        record = run_experiment(config)
        assert record.failure is None
        runs.append((config_hash(config), (record.run_dir / "summary.json").read_bytes()))
    assert runs[0] == runs[1]
    assert config_hash(ExperimentConfig(output_dir="elsewhere")) == config_hash(ExperimentConfig())
