"""Every name a module or a test file imports is used in it, and every
module is reachable as an attribute of the package.

The package's ``__init__`` re-exports names on purpose and is left out of
the unused-import check, and so is an import marked ``# noqa: F401``, one
made for its side effect.
"""

import ast
import importlib
from pathlib import Path

import pytest

import onepoint

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "onepoint").glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_name():
    assert unused_imports("from x import a, b\nimport c.d\nb()\n") == ["a (line 1)", "c (line 2)"]
    assert unused_imports("import a  # noqa: F401 - for its side effect\nimport b\n") == ["b (line 2)"]


@pytest.mark.parametrize(
    "path", MODULES + TEST_FILES, ids=lambda p: p.name if p in MODULES else f"tests/{p.name}"
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__main__.py"], ids=lambda p: p.name)
def test_package_attributes_are_its_modules(path):
    """No name the package exports shadows one of its own submodules."""
    module = importlib.import_module(f"onepoint.{path.stem}")
    assert getattr(onepoint, path.stem) is module


def test_import_as_binds_the_compactify_module():
    import onepoint.compactify as cp

    assert cp.CompactExtension is onepoint.CompactExtension
    assert callable(cp.compactify)
