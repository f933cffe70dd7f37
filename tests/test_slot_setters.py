"""A bound slot setter is called only while its object is being built.

The hot constructors write their slots through setters bound once at module
level (``_set_lo = Interval.lo.__set__``).  Such a setter skips
`Frozen.__setattr__`, so a call anywhere else could change a value after it
was built.  Every name bound from ``<Class>.<slot>.__set__`` in `src/` must be
called only inside an ``__init__`` on ``self``, or inside a ``_mk_*`` function
on a name that function bound from ``object.__new__(...)``, and used in no
other way.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "onepoint"
MODULES = sorted(PACKAGE.glob("*.py"))


def own_nodes(func):
    """The nodes of a function's body, not those of a function inside it."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def objects_built(func) -> set[str]:
    """The names a setter may write in `func`: ``self`` in an ``__init__``,
    a name bound from ``object.__new__(...)`` in a ``_mk_*`` builder."""
    name = getattr(func, "name", "")
    if name == "__init__":
        return {"self"}
    if not name.startswith("_mk_"):
        return set()
    built = set()
    for node in own_nodes(func):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            f = node.value.func
            new = isinstance(f, ast.Attribute) and f.attr == "__new__"
            if new and isinstance(f.value, ast.Name) and f.value.id == "object":
                built |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return built


def setter_names(tree) -> set[str]:
    """Names bound anywhere from an expression ``<Class>.<slot>.__set__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            v = node.value
            slot = isinstance(v, ast.Attribute) and isinstance(v.value, ast.Attribute)
            if slot and v.attr == "__set__":
                names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return names


def stray_uses(source: str) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of every read of a setter name that is not
    a call writing the object its builder is building."""
    tree = ast.parse(source)
    names = setter_names(tree)
    found, writes = [], set()

    def visit(node, func, built):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"), objects_built(child))
                continue
            if isinstance(child, ast.Call) and child.args:
                target = child.args[0]
                if isinstance(target, ast.Name) and target.id in built:
                    writes.add(id(child.func))
            if (
                isinstance(child, ast.Name)
                and child.id in names
                and isinstance(child.ctx, ast.Load)
                and id(child) not in writes
            ):
                found.append((func, child.lineno))
            visit(child, func, built)

    visit(tree, None, set())
    return found


def test_the_check_sees_every_stray_use():
    source = (
        "_set_x = Thing.x.__set__\n"
        "class Thing:\n"
        "    def __init__(self, x, other):\n"
        "        _set_x(self, x)\n"
        "        _set_x(other, 1)\n"
        "        _set_x(self, _set_x)\n"
        "    def move(self, x):\n"
        "        _set_x(self, x)\n"
        "def _mk_thing(x, old):\n"
        "    t = object.__new__(Thing)\n"
        "    _set_x(t, x)\n"
        "    _set_x(old, x)\n"
        "    return t\n"
        "def helper(t):\n"
        "    f = _set_x\n"
        "    return lambda: _set_x(t, 0)\n"
        "_set_x(T, 1)\n"
        "def __init__(t):\n"
        "    g(_set_x)\n"
        "def _mk_other(x):\n"
        "    def inner():\n"
        "        u = object.__new__(Thing)\n"
        "    _set_x(u, x)\n"
    )
    assert setter_names(ast.parse(source)) == {"_set_x"}
    want = [
        ("__init__", 5), ("__init__", 6), ("move", 8), ("_mk_thing", 12), ("helper", 15),
        ("<lambda>", 16), (None, 17), ("__init__", 19), ("_mk_other", 23),
    ]
    assert stray_uses(source) == want


def test_the_package_binds_setters_for_the_hot_constructors():
    bound = {p.name: setter_names(ast.parse(p.read_text())) for p in MODULES}
    assert bound["intervals.py"] == {
        "_set_lo", "_set_hi", "_set_lo_closed", "_set_hi_closed", "_set_pieces"
    }
    assert bound["space.py"] == {"_set_piece", "_set_index"}
    assert bound["connectify.py"] == {"_set_component", "_set_side", "_set_anchor", "_set_end"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_slot_setters_are_called_only_by_builders(path):
    assert stray_uses(path.read_text()) == []
