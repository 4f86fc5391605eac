"""Exit codes of the command line: 0 success, 1 configuration error, 2 run failure."""

import json
from pathlib import Path

import pytest

from skillmix.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUN, main
from skillmix.experiment import OUTPUT_ROOT_ENV

TINY = {
    "world": {"num_tasks": 4, "num_true_skills": 2, "input_dim": 4, "examples_per_task": 16,
              "skills_per_task_max": 2, "holdout_tasks": 1},
    "num_skills": 2,
    "hidden_dim": 4,
    "steps": 20,
    "batch_size": 8,
    "eval_every": 10,
    "k_shot": 4,
    "adaptation_steps": 4,
    "adapt_z_only_steps": 2,
    "adaptation_resamples": 1,
    "sweep_grid": [2, 3],
}


@pytest.fixture
def config_file(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "runs"))

    def write(doc=TINY, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return path

    return write


def test_run_succeeds(config_file, capsys):
    assert main(["run", str(config_file())]) == EXIT_OK
    run_dir = Path(capsys.readouterr().out.strip())
    assert json.loads((run_dir / "summary.json").read_text())["few_shot"]


def test_config_errors_exit_1(config_file, tmp_path, capsys):
    assert main(["run", str(config_file({"stpes": 3}))]) == EXIT_CONFIG
    assert "stpes" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    assert main(["sweep", str(config_file()), "--grid", "S=2,x"]) == EXIT_CONFIG


def test_existing_run_dir_with_no_overwrite_exits_2(config_file):
    path = config_file()
    assert main(["run", str(path)]) == EXIT_OK
    assert main(["run", str(path), "--no-overwrite"]) == EXIT_RUN


def test_a_bad_kind_in_compare_exits_1_before_any_run(config_file, tmp_path, capsys):
    assert main(["compare", str(config_file()), "--kinds", "shared,bogus"]) == EXIT_CONFIG
    assert "model_kind" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "command,doc,extra",
    [
        ("sweep", {**TINY, "sweep_grid": [0, 2]}, []),
        ("sweep", {**TINY, "sweep_grid": []}, []),
        ("sweep", TINY, ["--grid", "S=-1"]),
        ("sweep", TINY, ["--grid", "S="]),
        ("compare", TINY, ["--kinds", "skilled,expert,bogus"]),
    ],
    ids=["grid_has_0", "grid_empty", "flag_grid_negative", "flag_grid_empty", "expert_without_table"],
)
def test_a_bad_point_exits_1_before_any_run(config_file, tmp_path, command, doc, extra):
    assert main([command, str(config_file(doc)), *extra]) == EXIT_CONFIG
    assert not (tmp_path / "runs").exists()


def test_sweep_and_exports_succeed(config_file, tmp_path, capsys):
    assert main(["sweep", str(config_file()), "--grid", "S=2,3"]) == EXIT_OK
    runs = sorted((tmp_path / "runs").glob("skilled-S*"))
    assert len(runs) == 2
    out = tmp_path / "hierarchy.json"
    assert main(["export-hierarchy", str(runs[0] / "allocation_layer_0.json"), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())
    assert main(["emit-plots", *map(str, runs), "--out", str(tmp_path / "plots")]) == EXIT_OK
    assert (tmp_path / "plots" / "curves.csv").exists()


def test_emit_plots_without_a_summary_exits_2(tmp_path):
    assert main(["emit-plots", str(tmp_path)]) == EXIT_RUN
