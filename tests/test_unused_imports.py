"""No module under src/ imports a name it never uses.

No linter is a test dependency, so this is the one check of its kind: it
walks each module's syntax tree and lists every imported name that no
expression of the module reads. The package's public names
(`skillmix.__all__`) count as used in `__init__`, and an import whose
lines carry `# noqa: F401` is skipped (an import kept for its side
effect or its timing).
"""

import ast
from pathlib import Path

import pytest

import skillmix

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "skillmix"


def unused_imports(source: str, exported=()) -> list[str]:
    """The imported names `source` never reads, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        # `import a.b` binds `a`; `import a as b` and `from a import c as b` bind `b`.
        imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read and name not in exported]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    exported = skillmix.__all__ if path.name == "__init__.py" else ()
    assert unused_imports(path.read_text(), exported) == []


def test_the_check_finds_a_leftover_import_and_honours_its_exemptions():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from typing import Sequence, Union\n"
        "import scipy.optimize  # noqa: F401\n"
        "from .config import parse_config\n"
        "def f(x: Sequence) -> str:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["js", "Union", "parse_config"]
    assert unused_imports(source, exported=["parse_config"]) == ["js", "Union"]
