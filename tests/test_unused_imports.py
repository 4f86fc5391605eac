"""No module under src/ imports a name it never uses, and no helper goes unread.

No linter is a test dependency, so these are the checks of their kind.
The first walks each module's syntax tree and lists every imported name
that no expression of the module reads. The package's public names
(`skillmix.__all__`) count as used in `__init__`, and an import whose
lines carry `# noqa: F401` is skipped (an import kept for its side
effect or its timing). The second lists every `_private` function or
method the package defines whose name no name or attribute read in the
package mentions (dunder methods are called by Python itself). The third
lists every public module-level function or class of the package that no
name, attribute or import alias in the package or the benchmark's code
(`perfbench/*.py`) reads and that `skillmix.__all__` does not export: a
public name only tests read.
"""

import ast
from pathlib import Path

import pytest

import skillmix

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "skillmix"
BENCHMARK = PACKAGE.parents[1] / "perfbench"

# The exact density `tests/test_priors.py` checks the regulariser against.
READ_BY_TESTS_ONLY = {"priors.ibp_log_prob"}


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


def unread_public_definitions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """`module.name` of each public module-level function or class in `modules` that no `Name`,
    `Attribute` or imported name in `readers` reads, in order."""
    read = set()
    for node in (node for source in readers for node in ast.walk(ast.parse(source))):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.split(".")[-1])
    return [
        f"{module}.{node.name}"
        for module, source in modules.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]


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


def test_every_public_function_or_class_is_read_outside_the_tests_or_exported():
    modules = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    readers = [*modules.values(), *(path.read_text() for path in sorted(BENCHMARK.glob("*.py")))]
    unread = unread_public_definitions(modules, readers)
    assert [name for name in unread if name.split(".")[1] not in skillmix.__all__ and name not in READ_BY_TESTS_ONLY] == []


def test_the_check_finds_a_public_function_only_tests_read():
    modules = {
        "a": "def used(x):\n    return x\ndef aliased():\n    pass\ndef left_behind():\n    pass\n"
        "def exported():\n    pass\nclass Orphan:\n    def method(self):\n        return used(1)\n"
        "def _private():\n    pass\n",
    }
    readers = [*modules.values(), "from a import aliased as b\nimport a\nb()\n"]
    assert unread_public_definitions(modules, readers) == ["a.left_behind", "a.exported", "a.Orphan"]
