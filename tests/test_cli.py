"""Exit codes of the command line: 0 success, 1 configuration error, 2 run failure."""

import csv
import json
from pathlib import Path
from unittest import mock

import pytest

from skillmix.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUN, main
from skillmix.config import parse_config
from skillmix.errors import ConfigError
from skillmix.experiment import OUTPUT_ROOT_ENV, run_grid

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
    assert main(["run", str(tmp_path)]) == EXIT_CONFIG  # a directory
    assert main(["run", str(config_file({**TINY, "freeze_allocation": "ones"}))]) == EXIT_CONFIG
    assert "freeze_allocation" in capsys.readouterr().err
    table = {"tasks": {f"train_task_0{row}": [0] for row in range(4)}, "num_skills": 2}
    assert main(["run", str(config_file({**TINY, "model_kind": "expert", "expert_table": table}))]) == EXIT_CONFIG
    assert "expert_table" in capsys.readouterr().err
    assert main(["sweep", str(config_file()), "--grid", "lr_z=0.2,x"]) == EXIT_CONFIG
    assert "lr_z" in capsys.readouterr().err
    all_ones = {"world": {"skills_per_task_min": 4, "skills_per_task_max": 4}}  # no two planted columns differ
    assert main(["run", str(config_file(all_ones))]) == EXIT_CONFIG
    assert "world.skills_per_task_min" in capsys.readouterr().err


def test_existing_run_dir_with_no_overwrite_exits_2(config_file):
    path = config_file()
    assert main(["run", str(path)]) == EXIT_OK
    assert main(["run", str(path), "--no-overwrite"]) == EXIT_RUN


def test_a_bad_kind_in_a_grid_exits_1_before_any_run(config_file, tmp_path, capsys):
    assert main(["sweep", str(config_file()), "--grid", "model_kind=shared,bogus"]) == EXIT_CONFIG
    assert "model_kind" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "grid,key",
    [
        (["num_skills=0,2"], "num_skills"),
        (["num_skills=-1"], "num_skills"),
        (["num_skills="], "grid"),
        (["num_skills=2,2"], "grid"),
        (["model_kind=skilled,expert,bogus"], "expert_table"),
        (["model_kind=,"], "model_kind"),
        (["model_kind=shared,shared"], "grid"),
        (["bogus=1,2"], "bogus"),
        (["world.bogus=1"], "world.bogus"),
        (["2,4"], "--grid"),
        (["=2,4"], "--grid"),
        (["seed=0,1", "--grid", "seed=2"], "--grid"),
        (["lr_z=1,1.0"], "grid"),
    ],
    ids=[
        "flag_grid_has_0", "flag_grid_negative", "flag_grid_empty", "flag_grid_repeats",
        "expert_without_table", "no_kinds", "kind_repeats",
        "unknown_field", "unknown_world_field", "no_field", "empty_field", "field_repeats", "equal_points",
    ],
)
def test_a_bad_point_exits_1_before_any_run(config_file, tmp_path, capsys, grid, key):
    assert main(["sweep", str(config_file()), "--grid", *grid]) == EXIT_CONFIG
    assert f"config key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "axes,key",
    [({}, "grid"), ({"num_skills": []}, "grid"), ({"num_skills": [0, 2]}, "num_skills"),
     ({"num_skills": [2, 4, 2]}, "grid"), ({"world.num_tasks": [4], "seed": [0, 1, 0]}, "grid")],
    ids=["no_axes", "empty_axis", "has_0", "repeats", "repeats_in_a_product"],
)
def test_run_grid_checks_its_axes_before_any_run(config_file, tmp_path, axes, key):
    """What `sweep --grid` exits 1 on: `run_grid`'s own check of the axes it is given."""
    with pytest.raises(ConfigError) as err:
        run_grid(parse_config(config_file()), axes)
    assert err.value.key == key
    assert not (tmp_path / "runs").exists()


def _table(root: Path) -> list[dict]:
    with open(root / "compare_table.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_sweep_and_exports_succeed(config_file, tmp_path, capsys):
    assert main(["sweep", str(config_file()), "--grid", "num_skills=2,3"]) == EXIT_OK
    runs = sorted((tmp_path / "runs").glob("skilled-*"))
    assert len(runs) == 2
    with open(tmp_path / "runs" / "sweep_metrics.csv", newline="") as fh:
        metrics = list(csv.DictReader(fh))
    assert list(metrics[0]) == ["model_kind", "seed", "num_skills", "run", "metric", "value"]
    assert {row["num_skills"] for row in metrics} == {"2", "3"}
    for num_skills in ("2", "3"):
        names = {row["metric"] for row in metrics if row["num_skills"] == num_skills}
        assert {"steps_to_threshold", "few_shot_median_loss", "usage_layer_0"} <= names
    table = _table(tmp_path / "runs")
    assert list(table[0]) == ["num_skills", "run_dir", "status"]
    assert [(row["num_skills"], row["status"]) for row in table] == [("2", "ok"), ("3", "ok")]
    # The plot data's `run` names the table's run directory.
    assert {row["run"] for row in metrics} == {Path(row["run_dir"]).name for row in table} == {r.name for r in runs}
    assert {p.name for p in (tmp_path / "runs").glob("*.csv")} == {"compare_table.csv", "curves.csv", "sweep_metrics.csv"}
    out = tmp_path / "hierarchy.json"
    assert main(["export-hierarchy", str(runs[0] / "allocation_layer_0.json"), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())
    assert main(["emit-plots", *map(str, runs), "--out", str(tmp_path / "plots")]) == EXIT_OK
    assert (tmp_path / "plots" / "curves.csv").exists()


def test_a_grid_sets_the_field_it_names(config_file, tmp_path, capsys):
    assert main(["sweep", str(config_file()), "--grid", "lr_z=0.2,0.4"]) == EXIT_OK
    configs = [json.loads((Path(row["run_dir"]) / "config.json").read_text()) for row in _table(tmp_path / "runs")]
    assert [(c["lr_z"], c["num_skills"]) for c in configs] == [(0.2, TINY["num_skills"]), (0.4, TINY["num_skills"])]
    assert len(list((tmp_path / "runs").glob("skilled-*"))) == 2
    assert capsys.readouterr().out.splitlines()[0].startswith("lr_z=0.2: ")


def _files(run_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in run_dir.iterdir() if p.name != "timing.json"}


def test_a_grid_point_is_byte_identical_to_a_lone_run(config_file, tmp_path, monkeypatch, capsys):
    grid = ["--grid", "world.examples_per_task=8,16", "--grid", "seed=0,1"]
    assert main(["sweep", str(config_file()), *grid]) == EXIT_OK
    table = _table(tmp_path / "runs")
    points = [(row["world.examples_per_task"], row["seed"]) for row in table]
    assert points == [("8", "0"), ("8", "1"), ("16", "0"), ("16", "1")]
    assert list(table[0]) == ["world.examples_per_task", "seed", "run_dir", "status"]
    assert capsys.readouterr().out.splitlines()[1].startswith("world.examples_per_task=8 seed=1: ")
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "lone"))
    for row, (examples, seed) in zip(table, points):
        doc = {**TINY, "seed": int(seed), "world": {**TINY["world"], "examples_per_task": int(examples)}}
        assert main(["run", str(config_file(doc, name=f"point-{examples}-{seed}.json"))]) == EXIT_OK
        lone = Path(capsys.readouterr().out.strip())
        assert lone.name == Path(row["run_dir"]).name
        assert _files(lone) == _files(Path(row["run_dir"]))


def test_a_grid_point_has_one_run_directory_whatever_the_grid(config_file, tmp_path):
    path = config_file()
    assert main(["sweep", str(path), "--grid", "num_skills=2,4"]) == EXIT_OK
    first = {row["num_skills"]: row["run_dir"] for row in _table(tmp_path / "runs")}
    assert main(["sweep", str(path), "--grid", "num_skills=4,8"]) == EXIT_OK
    assert {row["num_skills"]: row["run_dir"] for row in _table(tmp_path / "runs")}["4"] == first["4"]
    assert len(list((tmp_path / "runs").glob("skilled-*"))) == 3


def test_a_grid_with_no_overwrite_runs_nothing_when_a_point_exists(config_file, tmp_path):
    """Every point's run directory is checked before the first run, not only the point about to run."""
    assert main(["run", str(config_file({**TINY, "model_kind": "shared"}, name="shared.json"))]) == EXIT_OK
    before = sorted((tmp_path / "runs").iterdir())
    assert main(["sweep", str(config_file()), "--grid", "model_kind=skilled,shared", "--no-overwrite"]) == EXIT_RUN
    assert sorted((tmp_path / "runs").iterdir()) == before


def test_a_grid_whose_runs_all_fail_leaves_no_earlier_plot_data(config_file, tmp_path, capsys):
    assert main(["sweep", str(config_file()), "--grid", "num_skills=2,3"]) == EXIT_OK
    with mock.patch("skillmix.experiment.multitask_train", side_effect=FloatingPointError("diverged")):
        assert main(["sweep", str(config_file()), "--grid", "lr_z=0.5,0.7"]) == EXIT_RUN
    assert [row["status"] for row in _table(tmp_path / "runs")] == ["failed:multitask_train"] * 2
    for name in ("curves.csv", "sweep_metrics.csv"):
        assert len((tmp_path / "runs" / name).read_text().splitlines()) == 1  # the header alone


def test_sweep_needs_a_grid_and_compare_is_gone(config_file, capsys):
    for argv in (["sweep", str(config_file())], ["compare", str(config_file())]):
        assert main(argv) == EXIT_CONFIG
        assert "usage: skillmix" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_help_exits_0(argv, capsys):
    assert main(argv) == EXIT_OK
    assert "usage: skillmix" in capsys.readouterr().out


def test_export_hierarchy_hardens_saturated_logits(tmp_path):
    doc = {"tasks": ["a", "b"], "skills": 2, "layer": 0, "logits": [[1000.0, -1000.0], [-1000.0, 1000.0]]}
    path = tmp_path / "allocation_layer_0.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "hierarchy.json"
    assert main(["export-hierarchy", str(path), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text()) == {"01": ["b"], "10": ["a"]}


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"tasks": ["a"], "logits": None, "matrix": [[1, 0], [0, 1]]}),
        json.dumps({"tasks": ["a", "b", "c"], "logits": None, "matrix": [[1, 0], [0, 1]]}),
        json.dumps({"tasks": ["a", "b"], "logits": [[1.0, -1.0], [1.0]]}),
        json.dumps({"tasks": ["a", "b"], "logits": None, "matrix": [[1, 0], [1]]}),
        json.dumps({"logits": None, "matrix": [[1, 0]]}),
        "{not json",
    ],
    ids=["fewer-names", "more-names", "ragged-logits", "ragged-matrix", "no-tasks", "not-json"],
)
def test_export_hierarchy_rejects_a_bad_allocation_file(tmp_path, capsys, text):
    path = tmp_path / "allocation_layer_0.json"
    path.write_text(text)
    out = tmp_path / "hierarchy.json"
    assert main(["export-hierarchy", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert str(path) in capsys.readouterr().err
    assert not out.exists()


def test_emit_plots_without_a_summary_exits_2(tmp_path):
    assert main(["emit-plots", str(tmp_path)]) == EXIT_RUN


def _failed_run(root: Path, name: str, stage: str, history: bool) -> Path:
    """A hand-built run directory whose summary carries a failure marker at `stage`."""
    run = root / name
    run.mkdir()
    (run / "config.json").write_text(json.dumps({"model_kind": "skilled", "seed": 0, "num_skills": 2}))
    (run / "summary.json").write_text(json.dumps({"failure": {"stage": stage, "error": "ValueError: boom"}}))
    if history:
        (run / "history.csv").write_text("step,task_id,loss,reg_loss,tau\n0,task_0,1.0,0.0,1.0\n")
    return run


@pytest.mark.parametrize("stage,history", [("few_shot_adaptation", True), ("generate_world", False)])
def test_emit_plots_rejects_a_failed_run_before_writing_a_file(tmp_path, capsys, stage, history):
    run = _failed_run(tmp_path, "skilled-failed", stage, history)
    out = tmp_path / "plots"
    assert main(["emit-plots", str(run), "--out", str(out)]) == EXIT_RUN
    err = capsys.readouterr().err
    assert str(run) in err and stage in err
    assert not out.exists()
