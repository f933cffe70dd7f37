"""Only `intervals._frac` writes the slots of a `Fraction`.

Endpoints the engine computes are filled in from integers there, reduced and
with a positive denominator; a second writer could store a form that the
comparison kernel and `hash` read differently.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "onepoint"
MODULES = sorted(PACKAGE.glob("*.py"))
SLOTS = {"_numerator", "_denominator"}


def slot_writes(source: str) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of every store to a Fraction slot, by
    attribute assignment or by a setattr call naming the slot."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr in SLOTS
                and isinstance(child.ctx, (ast.Store, ast.Del))
            ):
                found.append((func, child.lineno))
            if isinstance(child, ast.Call):
                f = child.func
                setter = (isinstance(f, ast.Name) and f.id == "setattr") or (
                    isinstance(f, ast.Attribute) and f.attr == "__setattr__"
                )
                named = any(isinstance(a, ast.Constant) and a.value in SLOTS for a in child.args)
                if setter and named:
                    found.append((func, child.lineno))
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_the_check_sees_every_kind_of_write():
    source = (
        "x._numerator = 1\n"
        "def f(y):\n"
        "    y._denominator, z = 2, 3\n"
        "    setattr(y, '_numerator', 4)\n"
        "    object.__setattr__(y, '_denominator', 5)\n"
        "    return y._numerator\n"
    )
    assert slot_writes(source) == [(None, 1), ("f", 3), ("f", 4), ("f", 5)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_frac_writes_fraction_slots(path):
    writers = {func for func, _ in slot_writes(path.read_text())}
    assert writers == ({"_frac"} if path.name == "intervals.py" else set())
