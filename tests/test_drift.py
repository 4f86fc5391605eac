"""The float comparator in `drift.py`: it passes a golden re-run and a 1-ulp change, and fails every other change."""

import copy
import json
import math

import numpy as np
import pytest

from skillmix.config import parse_config_dict
from skillmix.experiment import OUTPUT_ROOT_ENV, run_experiment

from drift import assert_arrays_close, summary_drift, summary_mismatches
from test_golden import CONFIGS, GOLDEN

NAME = "skilled_dense_per_layer"


def _golden():
    return json.loads((GOLDEN / f"{NAME}.json").read_text())


def _next_ulp(doc):
    """`doc` with every float moved one ulp up."""
    if isinstance(doc, float):
        return math.nextafter(doc, math.inf)
    if isinstance(doc, dict):
        return {key: _next_ulp(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_next_ulp(value) for value in doc]
    return doc


def test_a_golden_rerun_is_within_the_tolerance(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    record = run_experiment(parse_config_dict(CONFIGS[NAME]))
    rerun = json.loads((record.run_dir / "summary.json").read_text())
    assert summary_mismatches(_golden(), rerun) == []
    assert summary_drift(_golden(), rerun) == (0, 0.0, [])


def test_a_one_ulp_change_of_every_float_is_within_the_tolerance():
    golden = _golden()
    moved = _next_ulp(golden)
    assert summary_mismatches(golden, moved) == []
    count, largest, other = summary_drift(golden, moved)
    assert count > 20 and 0.0 < largest <= 2.0**-52 and other == []


def _float_moved(doc):
    doc["allocation_metrics"]["layer_0"]["usage"] *= 1.0 + 1e-9


def _int_changed(doc):
    doc["param_count"] += 1


def _list_int_changed(doc):
    doc["dev_evals"][1][0] += 1


def _string_changed(doc):
    doc["model_kind"] = "private"


def _key_missing(doc):
    del doc["recovery"]


def _key_added(doc):
    doc["few_shot"]["eval_task_06"]["extra"] = 0.0


def _int_became_float(doc):
    doc["param_count"] = float(doc["param_count"])


@pytest.mark.parametrize(
    "change",
    [_float_moved, _int_changed, _list_int_changed, _string_changed, _key_missing, _key_added, _int_became_float],
)
def test_any_other_change_fails(change):
    golden = _golden()
    changed = copy.deepcopy(golden)
    change(changed)
    assert len(summary_mismatches(golden, changed)) == 1


def test_the_drift_report_counts_the_moved_floats():
    golden = _golden()
    changed = copy.deepcopy(golden)
    _float_moved(changed)
    count, largest, other = summary_drift(golden, changed)
    assert count == 1 and 0.9e-9 < largest < 1.1e-9 and other == []
    _string_changed(changed)
    assert summary_drift(golden, changed)[2] == ["/model_kind"]


def test_arrays_pass_a_one_ulp_change_and_fail_a_larger_one_or_another_shape():
    a = np.random.default_rng(0).standard_normal((3, 4))
    assert_arrays_close(np.nextafter(a, np.inf), a)
    assert_arrays_close(np.zeros(3), np.zeros(3))
    moved = a.copy()
    moved[np.unravel_index(np.abs(a).argmax(), a.shape)] *= 1.0 + 1e-9
    with pytest.raises(AssertionError):
        assert_arrays_close(moved, a)
    with pytest.raises(AssertionError):
        assert_arrays_close(a.T, a)
    with pytest.raises(AssertionError):
        assert_arrays_close(np.full(3, np.nan), np.full(3, np.nan))
