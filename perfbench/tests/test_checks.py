"""Each correctness check passes on a real run and fails on a corrupted copy of it."""

import json
import shutil

import pytest

import checks
import run
from workloads import COMPARE_KINDS, config_doc, run_op


@pytest.fixture(scope="module")
def compare_op(tmp_path_factory):
    """One tiny kinds_compare operation: every model kind on a mixed world."""
    run.import_program()
    root = tmp_path_factory.mktemp("op")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config_doc("kinds_compare", seed=0, tiny=True)))
    captured = []
    with run.capture_trained(captured):
        result = run_op("kinds_compare", config_path, root / "runs")
    trained = {t.config.model_kind: t for t in captured}
    return root / "runs", {r.config.model_kind: (r.run_dir, trained[r.config.model_kind]) for r in result.records}


def test_clean_runs_pass_every_check(compare_op):
    output_root, runs = compare_op
    for run_dir, trained in runs.values():
        checks.check_run(run_dir, trained)
    checks.check_group_table(output_root, COMPARE_KINDS)


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _first_regression(summary):
    return next(r for r in summary["few_shot"].values() if "mse" in r["resamples"][0]["before"])


def _raise_after_loss(summary):
    record = _first_regression(summary)
    for resample in record["resamples"]:
        resample["after"]["loss"] = 2 * resample["before"]["loss"]


def _shift_accuracy(summary):
    summary["recovery"]["layer_0"]["cell_accuracy"] += 1e-6


def _first_group_key_changed(doc):
    key = next(iter(doc))
    doc[key + "0"] = doc.pop(key)


CORRUPTIONS = {
    "failure_marker": ("summary.json", lambda s: s.update(failure={"stage": "x", "error": "y"}),
                       checks.check_no_failure),
    "recovery_accuracy": ("summary.json", _shift_accuracy, checks.check_recovery),
    "recovery_permutation": (
        "summary.json",
        lambda s: s["recovery"]["layer_1"].update(best_permutation=[0] * 4),
        checks.check_recovery,
    ),
    "hierarchy_drops_a_task": ("hierarchy.json", lambda h: next(iter(h.values())).pop(),
                               checks.check_hierarchy),
    "hierarchy_wrong_group": ("hierarchy.json", _first_group_key_changed, checks.check_hierarchy),
    "threshold_missed": ("summary.json", lambda s: s.update(steps_to_threshold=10**6),
                         checks.check_threshold),
    "adaptation_raises_loss": ("summary.json", _raise_after_loss, checks.check_adaptation),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_check_fails_on_corrupted_run(compare_op, tmp_path, name):
    filename, corrupt, check = CORRUPTIONS[name]
    run_dir = shutil.copytree(compare_op[1]["skilled"][0], tmp_path / "run")
    check(run_dir)
    _edit_json(run_dir / filename, corrupt)
    with pytest.raises(checks.CheckFailed):
        check(run_dir)


@pytest.mark.parametrize("kind", COMPARE_KINDS)
def test_eval_loss_check_fails_on_corrupted_loss(compare_op, tmp_path, kind):
    source, trained = compare_op[1][kind]
    run_dir = shutil.copytree(source, tmp_path / "run")
    first = trained.tasks[0].id
    _edit_json(run_dir / "summary.json",
               lambda s: s["train_tasks"][first].update(loss=s["train_tasks"][first]["loss"] * (1 + 1e-8)))
    with pytest.raises(checks.CheckFailed):
        checks.check_eval_losses(run_dir, trained)


def test_eval_loss_check_fails_on_changed_parameters(compare_op):
    run_dir, trained = compare_op[1]["skilled"]
    phi = trained.model.named_parameters()["layer0.phi.0"].data
    saved = phi.copy()
    phi += 1e-4
    try:
        with pytest.raises(checks.CheckFailed):
            checks.check_eval_losses(run_dir, trained)
    finally:
        phi[...] = saved


def test_repeat_check_fails_on_changed_summary(compare_op):
    summary = (compare_op[1]["skilled"][0] / "summary.json").read_bytes()
    checks.check_repeat(summary, summary, "skilled")
    with pytest.raises(checks.CheckFailed):
        checks.check_repeat(summary, summary.replace(b"\n", b" \n", 1), "skilled")


def test_group_table_check_fails_on_a_failed_kind(compare_op, tmp_path):
    output_root = shutil.copytree(compare_op[0], tmp_path / "root")
    table = output_root / "compare_table.csv"
    table.write_text(table.read_text().replace(",ok", ",failed:multitask_train", 1))
    with pytest.raises(checks.CheckFailed):
        checks.check_group_table(output_root, COMPARE_KINDS)
