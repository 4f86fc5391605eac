"""No module under src/ imports a name it never uses, and no private helper goes unread.

No linter is a test dependency, so these are the checks of their kind.
The first walks each module's syntax tree and lists every imported name
that no expression of the module reads. The package's public names
(`skillmix.__all__`) count as used in `__init__`, and an import whose
lines carry `# noqa: F401` is skipped (an import kept for its side
effect or its timing). The second lists every `_private` function or
method the package defines whose name no name or attribute read in the
package mentions (dunder methods are called by Python itself).
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


def unread_private_functions(sources: list[str]) -> list[str]:
    """The `_private` functions and methods the sources define but no `Name` or `Attribute` reads, in order."""
    trees = [ast.parse(source) for source in sources]
    defined, read = [], set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_") and not node.name.endswith("__"):
                defined.append(node.name)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return [name for name in defined if name not in read]


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


def test_every_private_function_is_read_somewhere_in_the_package():
    assert unread_private_functions([path.read_text() for path in sorted(PACKAGE.glob("*.py"))]) == []


def test_the_check_finds_an_orphaned_helper_across_modules():
    sources = [
        "def _used(x):\n    return x\n"
        "def _orphan(x):\n    return x\n"
        "class C:\n"
        "    def __init__(self):\n        self.f = _used\n"
        "    def _method(self):\n        return 1\n"
        "    def _dead_method(self):\n        return 2\n",
        "from .a import C\ndef g(c):\n    return c._method()\n",
    ]
    assert unread_private_functions(sources) == ["_orphan", "_dead_method"]
