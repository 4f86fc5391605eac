"""The benchmark's span tracer finds the functions it wraps.

`perfbench/spans.py` looks each traced name up where its callers find it
(a module or class attribute) and skips, without failing, one it cannot
find, so moving an import would silently zero a per-layer metric. The six
names below were already gone when this test was written; no other may go.
"""

import importlib.util
from pathlib import Path

import skillmix.trainer

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

KNOWN_STALE = {
    "skillmix.model:SkillModel.clone",
    "skillmix.model:HypernetModel.clone",
    "skillmix.model:SkillModel.snapshot",
    "skillmix.model:HypernetModel.snapshot",
    "skillmix.skills.compose_dense",
    "skillmix.skills.compose_sparse",
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_but_the_known_stale_ones():
    spans = _load_spans()
    evaluate = skillmix.trainer.evaluate
    tracer = spans.Tracer()
    tracer.install()
    try:
        missing = set(tracer.missing)
        assert skillmix.trainer.evaluate is not evaluate
    finally:
        tracer.uninstall()
    assert skillmix.trainer.evaluate is evaluate
    assert missing <= KNOWN_STALE, sorted(missing - KNOWN_STALE)
