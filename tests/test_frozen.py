"""The value classes: one instance of each, with the `repr`, equality,
hashing and immutability every caller relies on, and a start-up that loads
none of the standard library's code-introspection modules."""

import copy
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from onepoint.compactify import CompactExtension, CompactRefused, TypeInf, finite_subcover
from onepoint.connectify import (
    ConnectednessCertificate,
    DensityCertificate,
    ExtClosedSet,
    FidelityCertificate,
    IsTrivial,
    NotClopenEvidence,
    OpenCheck,
    TypeI,
    TypeII,
    check_connectifiable,
    connectedness_certificate,
)
from onepoint.errors import NotACover
from onepoint.finite import FiniteSpace
from onepoint.frozen import Frozen
from onepoint.intervals import Interval, IntervalSet, parse_set as S
from onepoint.space import Space, components, local_connectedness_certificate

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402


def ext():
    return check_connectifiable(Space(S("(0,1) U [2,inf)"))).extension


def iv(lo, hi, lo_closed, hi_closed):
    return f"Interval(lo={lo}, hi={hi}, lo_closed={lo_closed}, hi_closed={hi_closed})"


F0, F1, F2, F3 = (f"Fraction({n}, 1)" for n in range(4))
I01 = iv(F0, F1, True, True)
C01 = f"Component(piece={iv(F0, F1, False, False)}, index=0)"
C2INF = f"Component(piece={iv(F2, 'inf', True, False)}, index=1)"
FLT0 = f"EscapeFilter(component={C01}, side=1, anchor=Fraction(1, 2), end={F1})"
FLT1 = f"EscapeFilter(component={C2INF}, side=1, anchor={F3}, end=inf)"
STEP0 = f"ConnectednessStep(component={C01}, tail=IntervalSet[[1/2,1)])"
STEP1 = f"ConnectednessStep(component={C2INF}, tail=IntervalSet[[3,inf)])"
TYPE_II = "TypeII(trace=IntervalSet[(1/2,1) U (3,inf)], tails=(0, 1))"
EXT = f"Extension(space=Space(ambient=IntervalSet[(0,1) U [2,inf)]), filters=({FLT0}, {FLT1}))"

# (build one instance, its repr): the strings are those the dataclass
# versions of these classes printed.
CASES = [
    (lambda: Interval(0, 1, True), iv(F0, F1, True, False)),
    (lambda: S("(0,1) U [2,inf)"), "IntervalSet[(0,1) U [2,inf)]"),
    (lambda: components(Space(S("[0,1]")))[0], f"Component(piece={I01}, index=0)"),
    (lambda: Space(S("(0,1)")), "Space(ambient=IntervalSet[(0,1)])"),
    (
        lambda: local_connectedness_certificate(Space(S("(0,1) U (1,2]"))),
        f"LocalConnectednessCertificate(entries=(({C01}, {iv(F0, F1, False, False)}), "
        f"(Component(piece={iv(F1, F2, False, True)}, index=1), {iv(F1, F3, False, False)})))",
    ),
    (lambda: ext().filters[0], FLT0),
    (ext, EXT),
    (lambda: TypeI(S("(0,1/2)")), "TypeI(trace=IntervalSet[(0,1/2)])"),
    (lambda: TypeII(S("(1/2,1) U (3,inf)"), (0, 1)), TYPE_II),
    (
        lambda: ExtClosedSet(True, S("[0,1/2]")),
        "ExtClosedSet(has_p=True, trace=IntervalSet[[0,1/2]])",
    ),
    (
        lambda: check_connectifiable(Space(S("(0,1)"))),
        "Connectifiable(extension=Extension(space=Space(ambient=IntervalSet[(0,1)]), "
        f"filters=({FLT0},)))",
    ),
    (
        lambda: check_connectifiable(Space(S("[0,1]"))),
        f"Refused(witness=Component(piece={I01}, index=0))",
    ),
    (
        lambda: OpenCheck("MissingTail", 1),
        "OpenCheck(reason='MissingTail', component=1, boundary=None)",
    ),
    (
        lambda: OpenCheck("TraceNotOpen", boundary=Fraction(1, 2)),
        "OpenCheck(reason='TraceNotOpen', component=None, boundary=Fraction(1, 2))",
    ),
    (
        lambda: DensityCertificate((TypeII(S("(1/2,1) U (3,inf)"), (0, 1)),)),
        f"DensityCertificate(neighborhoods=({TYPE_II},))",
    ),
    (
        lambda: FidelityCertificate((TypeI(S("(0,1/2)")),), (S("(0,1)"),)),
        "FidelityCertificate(extension_opens=(TypeI(trace=IntervalSet[(0,1/2)]),), "
        "base_opens=(IntervalSet[(0,1)],))",
    ),
    (
        lambda: connectedness_certificate(ext()),
        f"ConnectednessCertificate(steps=({STEP0}, {STEP1}))",
    ),
    (lambda: connectedness_certificate(ext()).steps[0], STEP0),
    (lambda: IsTrivial("empty"), "IsTrivial(which='empty')"),
    (
        lambda: NotClopenEvidence("set", OpenCheck("MissingTail", 0)),
        "NotClopenEvidence(side='set', "
        "check=OpenCheck(reason='MissingTail', component=0, boundary=None))",
    ),
    (
        lambda: CompactExtension(Space(S("(0,1)"))),
        "CompactExtension(space=Space(ambient=IntervalSet[(0,1)]))",
    ),
    (CompactRefused, "CompactRefused()"),
    (lambda: TypeInf(S("(5,inf)")), "TypeInf(trace=IntervalSet[(5,inf)])"),
    (
        lambda: FiniteSpace(2, frozenset({0, 1, 3})),
        "FiniteSpace(size=2, opens=frozenset({0, 1, 3}))",
    ),
]


def test_every_value_class_is_in_the_table():
    assert {type(build()) for build, _ in CASES} == set(Frozen.__subclasses__())
    assert len(Frozen.__subclasses__()) == 23


IDS = [text.split("(")[0].split("[")[0] for _, text in CASES]


@pytest.mark.parametrize("build, text", CASES, ids=IDS)
def test_value_semantics(build, text):
    a, b = build(), build()
    assert repr(a) == text
    assert a == b and not a != b and hash(a) == hash(b)
    assert a.__eq__(object()) is NotImplemented and a != text
    for name in type(a).__slots__ or ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == text
    with pytest.raises(TypeError):
        iter(a)
    assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a


def test_the_generic_constructor_takes_every_field_by_position():
    """A class on `Frozen`'s constructor is built from all its fields, in
    `__slots__` order, and refuses one field too few, one too many, and a
    keyword, with a `TypeError` that names the class and its fields."""
    generic = [build() for build, _ in CASES if type(build()).__init__ is Frozen.__init__]
    assert len(generic) == 15
    for value in generic:
        cls, fields = type(value), value.__getstate__()
        assert cls(*fields) == value
        shape = re.escape(f"{cls.__qualname__}({', '.join(cls.__slots__)})")
        for wrong in [fields[:-1], fields + (None,)] if fields else [(None,)]:
            with pytest.raises(TypeError, match=rf"^{shape} takes {len(fields)} field"):
                cls(*wrong)
        keyword = (cls.__slots__ or ("extra",))[-1]
        refusal = rf"^{shape} takes {len(fields)} fields? by position, got keyword {keyword}$"
        with pytest.raises(TypeError, match=refusal):
            cls(*fields[:-1], **{keyword: None})
    with pytest.raises(TypeError, match=r"^TypeII\(trace, tails\) takes 2 fields, 1 given$"):
        TypeII(S("(0,1)"))
    with pytest.raises(TypeError, match=r"^IsTrivial\(which\) takes 1 field, 0 given$"):
        IsTrivial()
    with pytest.raises(TypeError, match=r"^TypeI\(trace\) takes 1 field by position, got keyword trace$"):
        TypeI(trace=S("(0,1)"))


def test_equal_fields_in_different_classes_are_unequal():
    s = S("(0,1)")
    assert TypeI(s) != TypeInf(s) and TypeI(s) != Space(s)
    assert DensityCertificate(()) != ConnectednessCertificate(())


def test_one_field_classes_hash_with_equality():
    """Equal values built apart hash alike, so a set keeps one of them."""
    s, t = S("(0,1) U [2,3]"), IntervalSet((Interval(0, 1), Interval(2, 3, True, True)))
    assert s is not t and s == t and hash(s) == hash(t)
    assert len({s, t}) == 1 and len({TypeI(s), TypeI(t), TypeInf(s)}) == 2
    assert len({IsTrivial("empty"), IsTrivial("em" + "pty"), IsTrivial("whole")}) == 2


def test_messages_that_print_a_value_are_unchanged():
    ce = CompactExtension(Space(S("(0,1)")))
    for member, text in [
        (TypeI(S("(0,2)")), "TypeI(trace=IntervalSet[(0,2)])"),
        (TypeInf(S("(0,1/2)")), "TypeInf(trace=IntervalSet[(0,1/2)])"),
    ]:
        with pytest.raises(NotACover) as exc:
            finite_subcover(ce, [member])
        assert str(exc.value) == f"invalid cover member: {text}"


def test_import_loads_no_introspection_modules():
    """Importing the CLI and every benchmarked module pulls in none of
    `dataclasses`, `inspect`, `ast` or `dis` (about two thirds of the cold
    import time when the value classes were dataclasses)."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        + "; ".join(f"import onepoint.{n}" for n in ("cli", *run.MODULES))
        + "; print(' '.join(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=60,
    )
    added = set(out.stdout.split())
    assert {"onepoint.cli", "onepoint.finite"} <= added
    assert added.isdisjoint({"dataclasses", "inspect", "ast", "dis"})
