"""A bound slot setter is called only while its object is being built.

`Frozen` binds each class's slot setters once, as ``cls._setters``, and the
hot constructors name them at module level
(``_set_lo, _set_hi, ... = Interval._setters``).  Such a setter skips
`Frozen.__setattr__`, so a call anywhere else could change a value after it
was built.  Every name bound from ``<Class>._setters`` or
``<Class>.<slot>.__set__`` in `src/` must be called only inside an
``__init__`` on ``self``, or inside a ``_mk_*`` function on a name that
function bound from ``object.__new__(...)``, and used in no other way.  One
slot is filled on first read: the property named in FIRST_READS may call
that slot's setter, and no other, on ``self``.
Outside `frozen.py` the tuple ``<Class>._setters`` itself is read only as the
whole value of a module-level unpacking into names, so no setter reaches a
module unnamed.  No module writes a field through ``object.__setattr__``:
`Frozen` is the one place that knows how a field is written.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "onepoint"
MODULES = sorted(PACKAGE.glob("*.py"))


#: A property that fills a slot on first read, and that slot's setter.
FIRST_READS = {"filters": "_set_filters"}


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
    if name in FIRST_READS:
        getter = any(isinstance(d, ast.Name) and d.id == "property" for d in func.decorator_list)
        return {"self"} if getter else set()
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
    """Names bound anywhere from ``<Class>.<slot>.__set__``, or unpacked from
    ``<Class>._setters``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute):
            v = node.value
            if isinstance(v.value, ast.Attribute) and v.attr == "__set__":
                names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
            elif v.attr == "_setters":
                for t in node.targets:
                    if isinstance(t, (ast.Tuple, ast.List)):
                        names |= {e.id for e in t.elts if isinstance(e, ast.Name)}
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
                setter = child.func.id if isinstance(child.func, ast.Name) else None
                if (
                    isinstance(target, ast.Name)
                    and target.id in built
                    and FIRST_READS.get(func, setter) == setter
                ):
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
        "_set_y, _set_z = Thing._setters\n"
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
        "def _mk_pair(y, old):\n"
        "    t = object.__new__(Thing)\n"
        "    _set_y(t, y)\n"
        "    _set_z(old, y)\n"
        "    return t, _set_z\n"
        "_set_filters = Thing._filters.__set__\n"
        "class Lazy:\n"
        "    @property\n"
        "    def filters(self, other):\n"
        "        _set_filters(self, 1)\n"
        "        _set_x(self, 1)\n"
        "        _set_filters(other, 1)\n"
        "    def filters(self):\n"
        "        _set_filters(self, 1)\n"
        "    @property\n"
        "    def other(self):\n"
        "        _set_filters(self, 1)\n"
    )
    assert setter_names(ast.parse(source)) == {"_set_x", "_set_y", "_set_z", "_set_filters"}
    want = [
        ("__init__", 6), ("__init__", 7), ("move", 9), ("_mk_thing", 13), ("helper", 16),
        ("<lambda>", 17), (None, 18), ("__init__", 20), ("_mk_other", 24),
        ("_mk_pair", 28), ("_mk_pair", 29), ("filters", 35), ("filters", 36),
        ("filters", 38), ("other", 41),
    ]
    assert stray_uses(source) == want


def test_the_package_binds_setters_for_the_hot_constructors():
    bound = {p.name: setter_names(ast.parse(p.read_text())) for p in MODULES}
    assert bound["intervals.py"] == {
        "_set_lo", "_set_hi", "_set_lo_closed", "_set_hi_closed", "_set_text", "_set_pieces"
    }
    assert bound["space.py"] == {"_set_piece", "_set_index"}
    assert bound["connectify.py"] == {
        "_set_component", "_set_side", "_set_anchor", "_set_end", "_set_filters"
    }
    assert bound["finite.py"] == {"_set_size", "_set_opens"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_slot_setters_are_called_only_by_builders(path):
    assert stray_uses(path.read_text()) == []


def stray_setter_tuple_reads(source: str) -> list[int]:
    """The line of every use of ``<expr>._setters`` that is not the whole
    value of a module-level assignment to one tuple of names."""
    tree = ast.parse(source)
    unpacked = {
        id(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Tuple)
        and all(isinstance(e, ast.Name) for e in node.targets[0].elts)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "_setters"
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_setters" and id(node) not in unpacked
    )


def test_the_guard_sees_every_stray_setter_tuple_read():
    source = (
        "_set_lo, _set_hi = Interval._setters\n"
        "(_set_pieces,) = IntervalSet._setters\n"
        "Interval._setters[0](iv, 5)\n"
        "s = Interval._setters\n"
        "def build(self, lo):\n"
        "    set_lo, set_hi = type(self)._setters\n"
        "lo, hi = Interval._setters[:2]\n"
        "[lo, hi] = Interval._setters\n"
        "a, b = c, d = Interval._setters\n"
        "f(Interval._setters)\n"
    )
    assert stray_setter_tuple_reads(source) == [3, 4, 6, 7, 8, 9, 10]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "frozen.py"], ids=lambda p: p.name)
def test_setter_tuples_are_only_unpacked_into_names(path):
    assert stray_setter_tuple_reads(path.read_text()) == []


def object_setattr_calls(source: str) -> list[int]:
    """The line of every call ``object.__setattr__(...)``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    ]


def test_the_guard_sees_every_object_setattr_call():
    source = (
        "object.__setattr__(t, 'x', 1)\n"
        "class Thing(Frozen):\n"
        "    def __init__(self, x):\n"
        "        object.__setattr__(self, 'x', x)\n"
        "        super().__init__(x)\n"
        "        Frozen.__setattr__(self, 'x', x)\n"
        "def helper(t):\n"
        "    f = object.__setattr__\n"
        "    return lambda: object.__setattr__(t, 'x', 0)\n"
    )
    assert object_setattr_calls(source) == [1, 4, 9]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_writes_a_field_through_object_setattr(path):
    assert object_setattr_calls(path.read_text()) == []
