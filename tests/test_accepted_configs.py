"""Every config the parser accepts runs end to end: a search over the whole accepted space.

The strategy draws a JSON config document with every field of
`ExperimentConfig` and `WorldConfig`, each from its accepted range at tiny
sizes. A field's range follows its `__post_init__` rule; cross-field rules
(`lr_z >= lr_phi`, a sparse model's `warmup_mask_steps <= steps`, a
matrix's row count and columns, an expert model's table, the world's
skill ranges) are left to the parser, so the rejecting branch is searched
too. Each run writes under a fresh temporary output root. The property:
either `parse_config_dict` raises `ConfigError`, or `run_experiment`
returns with no failure marker, with warnings raised as errors
(`filterwarnings = ["error"]` in pyproject.toml).

Tier-1 draws one fixed set of configs (`derandomize=True`). The longer,
random search to run before a re-anchor is one command:

    PYTHONPATH=src python -m pytest tests/test_accepted_configs.py --hypothesis-profile=long

With `--hypothesis-show-statistics` either run reports how many configs
ran per model kind and which key rejected the rest.
Each failure it finds becomes an `@example` below and is mended in `src/`
or rejected by the parser; the strategy is not narrowed to hide it.
"""

import os
import tempfile
from unittest import mock

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from skillmix.config import (
    ALLOCATION_MODES,
    MAX_FEW_SHOT,
    MODEL_KINDS,
    PARAMETERISATIONS,
    TASK_KINDS,
    ExperimentConfig,
    WorldConfig,
    parse_config_dict,
)
from skillmix.errors import ConfigError
from skillmix.experiment import OUTPUT_ROOT_ENV, run_experiment

# The `long` profile (tests/conftest.py) sets the search's size, and draws worlds of
# up to 16 tasks, where the planted-block sampler needs its constructive fallback;
# tier-1 keeps this fixed search over worlds of up to 5 tasks.
LONG = settings.get_current_profile_name() == "long"
FUZZ = settings(deadline=None) if LONG else settings(max_examples=250, derandomize=True, deadline=None)


def _matrices(num_tasks: int):
    """0/1 matrices with one row per training task and no empty row: the accepted matrix form."""
    def rows(columns: int):
        # A row is a non-zero bit pattern over the columns.
        row = st.integers(1, 2**columns - 1).map(lambda bits: [(bits >> j) & 1 for j in range(columns)])
        return st.lists(row, min_size=num_tasks, max_size=num_tasks)

    return st.integers(1, 5).flatmap(rows)


def _positive(high: float):
    return st.floats(0.01, high)


@st.composite
def worlds(draw) -> dict:
    num_tasks = draw(st.integers(1, 16 if LONG else 5))
    num_true_skills = draw(st.integers(1, num_tasks))
    # With two or more skills, a minimum of all of them would plant all-ones rows.
    low = draw(st.integers(1, max(1, num_true_skills - 1)))
    return {
        "num_tasks": num_tasks,
        "num_true_skills": num_true_skills,
        "input_dim": draw(st.integers(1, 5)),
        "examples_per_task": draw(st.integers(1, 24)),
        "noise_sigma": draw(st.floats(0.0, 3.0)),
        "skills_per_task_min": low,
        "skills_per_task_max": draw(st.integers(low, num_true_skills)),
        "holdout_tasks": draw(st.integers(0, 3)),
        "task_kind": draw(st.sampled_from(TASK_KINDS)),
    }


@st.composite
def config_docs(draw) -> dict:
    world = draw(worlds())
    steps = draw(st.integers(0, 20))
    matrices = _matrices(world["num_tasks"])
    return {
        "seed": draw(st.integers(0, 2**64)),
        "world": world,
        "model_kind": draw(st.sampled_from(MODEL_KINDS)),
        "num_skills": draw(st.integers(1, 5)),
        "parameterisation": draw(st.sampled_from(PARAMETERISATIONS)),
        "sparsity": draw(st.floats(0.0, 1.0, exclude_max=True)),
        "rank": draw(st.integers(1, 3)),
        "hidden_dim": draw(st.integers(1, 5)),
        "allocation_mode": draw(st.sampled_from(ALLOCATION_MODES)),
        "freeze_allocation": draw(st.one_of(st.none(), st.just("identity"), matrices)),
        "tau": draw(_positive(50.0)),
        "tau_final": draw(st.one_of(st.none(), _positive(50.0))),
        "lr_z": draw(st.floats(1e-5, 1e3)),
        "lr_phi": draw(st.floats(1e-5, 1.0)),
        "ibp_alpha": draw(_positive(50.0)),
        "ibp_strength": draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3))),
        "steps": steps,
        "batch_size": draw(st.integers(1, 10)),
        "warmup_mask_steps": draw(st.integers(1, steps + 1)),
        "eval_every": draw(st.integers(1, 20)),
        "k_shot": draw(st.integers(0, MAX_FEW_SHOT)),
        "adaptation_steps": draw(st.integers(0, 12)),
        "adaptation_batch_size": draw(st.integers(1, 10)),
        "adaptation_resamples": draw(st.integers(1, 3)),
        "adapt_z_only_steps": draw(st.integers(0, 12)),
        "embedding_dim": draw(st.integers(1, 4)),
        "expert_table": draw(st.one_of(st.none(), st.just("planted"), matrices)),
    }


def _tiny(**changes) -> dict:
    """A small accepted document with every field; `world` changes merge into its world."""
    world = {**WorldConfig().to_dict(), "num_tasks": 4, "num_true_skills": 3, "input_dim": 3,
             "examples_per_task": 12, "holdout_tasks": 2}
    doc = {**ExperimentConfig().to_dict(), "num_skills": 3, "hidden_dim": 4, "rank": 2, "steps": 10,
           "batch_size": 4, "warmup_mask_steps": 5, "eval_every": 5, "k_shot": 4, "adaptation_steps": 6,
           "adapt_z_only_steps": 3, "adaptation_resamples": 2}
    return {**doc, **changes, "world": {**world, **changes.get("world", {})}}


MATRIX = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]


@FUZZ
@given(config_docs())
# Boundaries: nothing trained, nothing adapted, one skill, fixed matrices.
@example(_tiny(steps=0))
@example(_tiny(k_shot=0))
@example(_tiny(adaptation_steps=0))
@example(_tiny(num_skills=1, model_kind="hypernet"))
@example(_tiny(num_skills=1))
@example(_tiny(freeze_allocation=MATRIX, parameterisation="lowrank"))
@example(_tiny(model_kind="expert", expert_table=MATRIX, world={"task_kind": "mixed"}))
# Wide ranges: a fast, strongly regularised allocation collapses (usage 0.0 in
# both layers); the temperature at both ends of its range.
@example(_tiny(lr_z=1e3, ibp_strength=10.0))
@example(_tiny(tau=0.01, lr_z=1e3, ibp_strength=1e3))
@example(_tiny(tau=50.0, tau_final=0.01, ibp_alpha=50.0, ibp_strength=10.0))
# Found: numpy seeds only from non-negative integers and makes no array of
# negative size. The parser now rejects both, and a world of no input
# dimensions, whose tasks have nothing to learn from.
@example(_tiny(seed=-1))
@example(_tiny(world={"input_dim": 0}))
@example(_tiny(world={"input_dim": -1}))
# Found: a world of 16 tasks and 16 skills, one or fifteen a task, which 1000
# draws of the planted block almost never give distinct columns.
@example(_tiny(world={"num_tasks": 16, "num_true_skills": 16, "input_dim": 16, "examples_per_task": 8,
                      "skills_per_task_min": 1, "skills_per_task_max": 1}))
@example(_tiny(world={"num_tasks": 16, "num_true_skills": 16, "input_dim": 16, "examples_per_task": 8,
                      "skills_per_task_min": 15, "skills_per_task_max": 15}))
def test_an_accepted_config_runs_end_to_end(doc):
    assert set(doc) == set(ExperimentConfig._fields)
    assert set(doc["world"]) == set(WorldConfig._fields)
    try:
        config = parse_config_dict(doc)
    except ConfigError as err:
        event("rejected", err.key)
        return
    event("ran", config.model_kind)
    with tempfile.TemporaryDirectory() as root, mock.patch.dict(os.environ, {OUTPUT_ROOT_ENV: root}):
        record = run_experiment(config)
    assert record.failure is None, record.failure
