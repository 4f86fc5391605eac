import json
import math

import pytest

from skillmix.config import (
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
from skillmix.experiment import run_grid
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
    assert rejected({"model_kind": True}) == "model_kind"


def test_wrong_types_are_rejected():
    assert rejected({"steps": 1.5}) == "steps"
    assert rejected({"model_kind": 3}) == "model_kind"
    assert rejected({"world": []}) == "world"


def test_integers_are_accepted_for_numbers():
    config = parse_config_dict({"tau": 2, "tau_final": 1, "world": {"noise_sigma": 0}})
    assert (config.tau, config.tau_final, config.world.noise_sigma) == (2.0, 1.0, 0.0)
    assert isinstance(config.tau, float) and isinstance(config.tau_final, float)


@pytest.mark.parametrize(
    "key,values",
    [
        ("parameterisation", PARAMETERISATIONS),
        ("allocation_mode", ALLOCATION_MODES),
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


@pytest.mark.parametrize("value", [None, "identity", [[1, 0], [0, 1]]])
def test_freeze_allocation_forms(value):
    config = parse_config_dict({"freeze_allocation": value, "world": TWO_TASKS})
    assert config.freeze_allocation == value


PLANTED_IDS = [task_id("train", row) for row in range(4)]
MATRIX_KEYS = ("freeze_allocation", "expert_table")
NOT_A_MATRIX = [
    "zeros",
    "ones",  # a single ones column is the shared kind
    3,
    {"rows": 1},
    {"tasks": {name: [0] for name in PLANTED_IDS}, "num_skills": 2},  # the id-keyed table of old
    [1],
    [[1, 0], [0, 1], [1, 1], [0, 0]],  # a task with no skill
    [[1, 0], [0, 1]],  # one row per training task
    [[2, 0], [0, 1], [1, 1], [1, 0]],
    [[1, 0], [0], [1, 1], [1, 0]],  # ragged
    [[True, False], [0, 1], [1, 1], [1, 0]],
    [[1.0, 0], [0, 1], [1, 1], [1, 0]],
]


@pytest.mark.parametrize(
    "key,value",
    [(key, value) for key in MATRIX_KEYS for value in NOT_A_MATRIX]
    + [
        ("freeze_allocation", "planted"),
        ("expert_table", "identity"),
        ("expert_table", [[1], [1], [1], [1]]),  # held-out tasks adapt on the world's 2 planted skills
    ],
)
def test_allocation_matrix_rejects_other_forms(key, value):
    with pytest.raises(ConfigError) as err:
        parse_config_dict({key: value, "world": FOUR_TASKS})
    assert err.value.key == key
    assert "or a 0/1 matrix" in str(err.value)  # the error lists the forms the key takes


@pytest.mark.parametrize("value", ["planted", [[0, 1]]])
def test_expert_table_forms(value):
    world = {"num_tasks": 1, "num_true_skills": 1, "skills_per_task_max": 1, "holdout_tasks": 0}
    config = parse_config_dict({"model_kind": "expert", "expert_table": value, "world": world})
    assert config.expert_table == value


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
        ({"world": {"num_true_skills": 20}}, "world.num_true_skills"),
        ({"world": {"skills_per_task_min": 3, "skills_per_task_max": 2}}, "world.skills_per_task_min"),
        # Every planted row all ones: no two skill columns can differ.
        ({"world": {"skills_per_task_min": 4, "skills_per_task_max": 4}}, "world.skills_per_task_min"),
        ({"world": TWO_TASKS | {"skills_per_task_min": 2}}, "world.skills_per_task_min"),
        ({"world": {"holdout_tasks": -1}}, "world.holdout_tasks"),
        (
            {"world": {"num_tasks": 1, "num_true_skills": 1, "skills_per_task_max": 1, "holdout_tasks": 1}},
            "world.holdout_tasks",
        ),
        ({"warmup_mask_steps": 0}, "warmup_mask_steps"),
        ({"parameterisation": "sparse", "steps": 50, "warmup_mask_steps": 51}, "warmup_mask_steps"),
        # numpy seeds its generators from non-negative integers only.
        ({"seed": -1}, "seed"),
        ({"world": {"input_dim": 0}}, "world.input_dim"),
        ({"adapt_z_only_steps": -1}, "adapt_z_only_steps"),
    ],
)
def test_out_of_range_values_are_rejected(doc, key):
    assert rejected(doc) == key


def test_edges_of_the_new_range_checks_are_accepted():
    two_tasks = {"num_tasks": 2, "num_true_skills": 1, "skills_per_task_max": 1, "holdout_tasks": 1}
    assert parse_config_dict({"world": two_tasks}).world.holdout_tasks == 1
    sparse = parse_config_dict({"parameterisation": "sparse", "steps": 50, "warmup_mask_steps": 50})
    assert sparse.warmup_mask_steps == 50
    near_all_ones = {"skills_per_task_min": 3, "skills_per_task_max": 4}
    assert parse_config_dict({"world": near_all_ones}).world.skills_per_task_min == 3
    # Without the sparse parameterisation there is no mask to freeze.
    assert parse_config_dict({"steps": 10}).warmup_mask_steps == 100
    assert parse_config_dict({"seed": 0, "world": {"input_dim": 1}, "adapt_z_only_steps": 0}).seed == 0


def test_nullable_field():
    assert parse_config_dict({"tau_final": None}).tau_final is None
    assert rejected({"tau_final": "none"}) == "tau_final"


# A config describes one run: its output root is the environment's, its sweep
# grid the sweep's, and the best dev state and the threshold fraction are fixed.
# `adapt_z_only_steps` alone sets the adaptation schedule.
@pytest.mark.parametrize("key,value", [("sweep_grid", [2, 4]), ("output_dir", "runs"),
                                       ("select_best_dev", True), ("loss_threshold_frac", 0.5),
                                       ("adapt_mode", "z_only")])
def test_fields_that_do_not_change_a_run_are_unknown_keys(key, value):
    with pytest.raises(ConfigError) as err:
        parse_config_dict({key: value})
    assert err.value.key == key and str(err.value).endswith("unknown key")


FLOAT_FIELDS = [
    "sparsity", "tau", "tau_final", "lr_z", "lr_phi", "ibp_alpha", "ibp_strength", "world.noise_sigma",
]


def test_float_fields_lists_every_float_field():
    floats = [f"{prefix}{name}" for cls, prefix in ((ExperimentConfig, ""), (WorldConfig, "world."))
              for name, kind in cls.__annotations__.items() if "float" in str(kind)]
    assert sorted(floats) == sorted(FLOAT_FIELDS)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400], ids=["NaN", "Infinity", "huge_integer"])
@pytest.mark.parametrize("key", FLOAT_FIELDS)
def test_non_finite_numbers_are_rejected(tmp_path, key, value):
    doc = {"world": {key.removeprefix("world."): value}} if key.startswith("world.") else {key: value}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))  # json writes the NaN and Infinity tokens Python's parser reads
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert err.value.key == key and str(err.value).endswith("must be a finite number")


def test_a_config_is_frozen_and_its_document_a_copy():
    config = parse_config_dict({"freeze_allocation": [[1, 0], [0, 1]], "world": TWO_TASKS})
    for target, name in ((config, "seed"), (config, "world"), (config.world, "num_tasks")):
        with pytest.raises(AttributeError):
            setattr(target, name, 1)
        with pytest.raises(AttributeError):
            delattr(target, name)
    doc = config.to_dict()
    doc["freeze_allocation"][0][0] = 0
    doc["world"]["num_tasks"] = 9
    assert config == parse_config_dict({"freeze_allocation": [[1, 0], [0, 1]], "world": TWO_TASKS})


@pytest.mark.parametrize(
    "build,key",
    [
        (lambda: ExperimentConfig(num_skills=0), "num_skills"),
        (lambda: ExperimentConfig().replace(model_kind="bogus"), "model_kind"),
        (lambda: ExperimentConfig().replace(model_kind="expert"), "expert_table"),
        (lambda: WorldConfig(num_true_skills=2), "world.skills_per_task_min"),
        (lambda: ExperimentConfig(tau=float("nan")), "tau"),
        (lambda: ExperimentConfig().replace(lr_z=float("inf")), "lr_z"),
        (lambda: WorldConfig().replace(noise_sigma=float("nan")), "world.noise_sigma"),
    ],
    ids=["constructor", "replace", "replace_needs_table", "world", "constructor_nan", "replace_inf", "world_replace_nan"],
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
    config = ExperimentConfig(seed=4, world=WorldConfig(num_tasks=5), tau_final=0.5)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    loaded = parse_config(path)
    assert loaded == config
    assert config_hash(loaded) == config_hash(config)
    assert config_hash(config.replace(seed=5)) != config_hash(config)


@pytest.mark.parametrize("key", MATRIX_KEYS)
def test_equal_configs_hash_alike_with_a_matrix_field(key):
    doc = {key: [[1, 0], [0, 1]], "world": TWO_TASKS}
    config = parse_config_dict(doc)
    assert hash(config) == hash(parse_config_dict(doc))
    assert len({config, parse_config_dict(doc), config.replace(seed=1)}) == 2
    # 1 == 1.0 in a float field, so the two records must hash alike.
    assert hash(config.replace(tau=1)) == hash(config.replace(tau=1.0))


def test_an_int_in_a_float_field_is_stored_as_a_float_and_hashes_alike():
    assert ExperimentConfig(tau=1) == ExperimentConfig(tau=1.0)
    assert config_hash(ExperimentConfig(tau=1)) == config_hash(ExperimentConfig(tau=1.0))
    assert type(ExperimentConfig().replace(lr_z=1).lr_z) is float
    world = ExperimentConfig(world=WorldConfig(noise_sigma=0))
    assert config_hash(world) == config_hash(ExperimentConfig(world=WorldConfig(noise_sigma=0.0)))
    assert ExperimentConfig(tau_final=None).tau_final is None
    parsed = parse_config_dict({"tau": 1, "world": {"noise_sigma": 0}})
    assert type(parsed.tau) is float and type(parsed.world.noise_sigma) is float
    assert parsed == ExperimentConfig(tau=1.0) and config_hash(parsed) == config_hash(ExperimentConfig(tau=1.0))


def test_negative_zero_is_stored_as_zero_and_hashes_alike():
    parsed = parse_config_dict({"world": {"noise_sigma": -0.0}, "ibp_strength": -0.0})
    assert math.copysign(1.0, parsed.ibp_strength) == math.copysign(1.0, parsed.world.noise_sigma) == 1.0
    assert config_hash(parsed) == config_hash(ExperimentConfig())
    with pytest.raises(ConfigError) as err:
        run_grid(ExperimentConfig(), {"world.noise_sigma": [0.0, -0.0]})
    assert str(err.value).endswith("two points are one config")


def test_a_run_directory_config_parses_back_to_the_hash_that_names_it(tmp_path, monkeypatch):
    from skillmix.experiment import OUTPUT_ROOT_ENV, run_dir_for, run_experiment

    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    doc = {
        "world": {"num_tasks": 3, "num_true_skills": 2, "skills_per_task_max": 2, "input_dim": 4, "examples_per_task": 16, "holdout_tasks": 1},
        "hidden_dim": 4,
        "steps": 10,
        "eval_every": 5,
        "k_shot": 4,
        "adaptation_steps": 4,
        "adaptation_resamples": 1,
        "tau": 1,  # an integer in a float field: config.json holds 1.0
        "freeze_allocation": [[1, 0], [0, 1], [1, 1]],
    }
    record = run_experiment(parse_config_dict(doc))
    assert record.failure is None
    loaded = parse_config(record.run_dir / "config.json")
    assert loaded == record.config
    assert record.run_dir.name == f"skilled-{config_hash(loaded)}"
    assert run_dir_for(loaded) == record.run_dir
