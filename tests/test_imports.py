"""Start-up cost: `import skillmix` and config parsing load no numpy or scipy.

Parsing loads nothing but the package, `json` and `__future__` on top of
a bare interpreter; in particular no `dataclasses` (with `inspect` and
`ast`) and no `hashlib`.

Each check that looks at `sys.modules` runs in a fresh interpreter, since
this test process has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import skillmix

SRC = Path(__file__).resolve().parents[1] / "src"

# Prints which heavy modules the snippet above it left loaded.
REPORT = """
import json as _json, sys as _sys
print(_json.dumps(sorted(m for m in ("numpy", "scipy", "scipy.optimize") if m in _sys.modules)))
"""

EXPERT = {
    "model_kind": "expert",
    "world": {"num_tasks": 2, "num_true_skills": 2, "skills_per_task_max": 2, "holdout_tasks": 1},
    "expert_table": [[1, 0], [1, 1]],
}

TINY_PRIVATE = {
    "model_kind": "private",
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


# Prints the modules loaded since the snippet above it stored `bare = set(sys.modules)`.
REPORT_NEW = """
new = sorted(set(sys.modules) - bare)
import json as _json
print(_json.dumps(new))
"""


def loaded_after(code: str, *args, env=None, report: str = REPORT) -> list[str]:
    """Run `code` in a fresh interpreter with `src/` first on the path."""
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code + report, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def write(tmp_path: Path, doc: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_parsing_a_config_loads_neither_numpy_nor_scipy(tmp_path):
    code = "import sys, skillmix\nassert skillmix.parse_config(sys.argv[1]).model_kind == 'expert'\n"
    assert loaded_after(code, write(tmp_path, EXPERT)) == []


def test_parsing_a_config_loads_only_the_package_and_json(tmp_path):
    code = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import skillmix\n"
        "assert skillmix.parse_config(sys.argv[1]).model_kind == 'expert'\n"
    )
    new = loaded_after(code, write(tmp_path, EXPERT), report=REPORT_NEW)
    assert "skillmix.config" in new
    assert [m for m in new if m.split(".")[0] not in ("skillmix", "json", "_json", "__future__")] == []


def test_cli_help_and_a_bad_config_load_neither_numpy_nor_scipy(tmp_path):
    code = (
        "import sys\n"
        "from skillmix.cli import EXIT_CONFIG, main\n"
        "assert main(['run', sys.argv[1]]) == EXIT_CONFIG\n"
        "try:\n"
        "    main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
    )
    assert loaded_after(code, write(tmp_path, {"stpes": 3})) == []


def test_a_run_that_scores_no_recovery_leaves_scipy_optimize_unloaded(tmp_path):
    code = (
        "import sys, skillmix\n"
        "record = skillmix.run_experiment(skillmix.parse_config(sys.argv[1]))\n"
        "assert record.failure is None and 'recovery' not in record.summary\n"
    )
    env = {"SKILLMIX_OUTPUT_ROOT": str(tmp_path / "runs")}
    assert loaded_after(code, write(tmp_path, TINY_PRIVATE), env=env) == ["numpy", "scipy"]


def test_every_public_name_is_its_defining_modules_object():
    for name in skillmix.__all__:
        value = getattr(skillmix, name)
        assert value is getattr(sys.modules[value.__module__], name), name


def test_dir_lists_every_public_name_and_unknown_names_are_missing():
    assert set(skillmix.__all__) <= set(dir(skillmix))
    assert not hasattr(skillmix, "no_such_name")
