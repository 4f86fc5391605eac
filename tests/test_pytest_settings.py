"""The repository's pytest settings report a failing test as a failure.

`pyproject.toml` turns every warning into an error. A warning raised by
pytest's own plugins, not by the code under test, would then stop the
whole run with an INTERNALERROR and leave every later test unrun. The
check runs pytest under those settings in a fresh process, on one failing
test in an empty directory.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# On a failure, hypothesis's pytest plugin imports libcst to suggest a patch.
FAILING_GIVEN = (
    "from hypothesis import given, strategies as st\n"
    "\n"
    "@given(st.integers())\n"
    "def test_fails(n):\n"
    "    assert False\n"
)


def test_a_failing_hypothesis_test_is_one_failure_not_an_internal_error(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING_GIVEN)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output
    assert result.returncode == 1, output
    assert "1 failed" in output, output
