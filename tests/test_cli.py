import contextlib
import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onepoint import cli
from onepoint.finite import AXIOMS


def run_cli(*argv):
    lines = []
    code = cli.main(list(argv), emit=lines.append)
    return code, lines


def test_connectify_refused():
    code, lines = run_cli("connectify", "(0,1) U [2,3]")
    assert code == 3
    assert lines == ["Refused component=[2,3]"]


def test_connectify_accepted():
    code, lines = run_cli("connectify", "(0,1) U [5,inf)")
    assert code == 0
    assert lines[0] == "connectifiable components=2"
    assert lines[1] == "filter C#0=(0,1) dir=open_right(1) anchor=1/2"
    assert lines[2] == "filter C#1=[5,inf) dir=pos_inf anchor=6"


def test_components_verb():
    code, lines = run_cli("components", "(0,1] U (1,2)")
    assert code == 0 and lines == ["C#0=(0,2)"]


def test_check_verb():
    code, lines = run_cli("check", "(0,1) U [2,3]")
    assert code == 0
    assert "space_compact=false" in lines
    assert "C#1=[2,3] compact=true" in lines
    assert any(line.startswith("locally_connected=true") for line in lines)


def test_witness_hausdorff_golden():
    code, lines = run_cli("witness", "hausdorff", "[5,inf)", "p", "20")
    assert code == 0
    assert lines == ["U = II trace=(21,inf) tails=C#0:16", "V = I trace=(19,21)"]


def test_witness_normal_golden():
    code, lines = run_cli("witness", "normal", "[5,inf)", "p", "[5,7]")
    assert code == 0
    assert lines == ["U = II trace=(15/2,inf) tails=C#0:2", "V = I trace=[5,15/2)"]


# Twelve components: rays, bounded pieces open at either end or both, and
# two pairs that touch at an excluded point.
MIXED = (
    "(-inf,-7] U (-6,-5) U [-4,-3) U (-3,-2] U (-1,0) U (0,1/3) U [1/2,1) U (1,3/2]"
    " U (2,5/2) U [3,7/2) U (4,9/2] U [5,inf)"
)
NEAR_END = "46116860184273879039/18446744073709551616"  # 5/2 - 2^-64, inside (2,5/2)


def test_witness_hausdorff_golden_many_components():
    code, lines = run_cli("witness", "hausdorff", "--", MIXED, "p", NEAR_END)
    assert code == 0
    assert lines == [
        "U = II trace=(-inf,-7] U (-6,-5) U [-4,-3) U (-3,-2] U (-1,0) U (0,1/3) U [1/2,1)"
        " U (1,3/2] U (92233720368547758079/36893488147419103232,5/2) U [3,7/2) U (4,9/2]"
        " U [5,inf) tails=C#0:0,C#1:0,C#2:0,C#3:0,C#4:0,C#5:0,C#6:0,C#7:0,C#8:64,C#9:0,"
        "C#10:0,C#11:0",
        "V = I trace=(92233720368547758077/36893488147419103232,"
        "92233720368547758079/36893488147419103232)",
    ]
    code, lines = run_cli("witness", "hausdorff", "--", MIXED, "-11/2", "13/4")
    assert code == 0
    assert lines == [
        "U = I trace=(-inf,-7] U (-6,-5) U [-4,-3) U (-3,-2]",
        "V = I trace=(-1,0) U (0,1/3) U [1/2,1) U (1,3/2] U (2,5/2) U [3,7/2) U (4,9/2] U [5,inf)",
    ]


def test_witness_normal_golden_many_components():
    g = "[-4,-7/2] U [17/8,23058430092136939519/9223372036854775808] U [6,7]"  # to 5/2 - 2^-63
    code, lines = run_cli("witness", "normal", "--", MIXED, "p", g)
    assert code == 0
    assert lines == [
        "U = II trace=(-inf,-7] U (-6,-5) U (-27/8,-3) U (-3,-2] U (-1,0) U (0,1/3) U [1/2,1)"
        " U (1,3/2] U (92233720368547758077/36893488147419103232,5/2) U [3,7/2) U (4,9/2]"
        " U (15/2,inf) tails=C#0:0,C#1:0,C#2:1,C#3:0,C#4:0,C#5:0,C#6:0,C#7:0,C#8:62,C#9:0,"
        "C#10:0,C#11:2",
        "V = I trace=[-4,-27/8) U (2,92233720368547758077/36893488147419103232) U [5,15/2)",
    ]


def test_witness_normal_specs():
    code, lines = run_cli("witness", "normal", "[5,inf)", "p+[10,inf)", "[5,6]")
    assert code == 0 and lines[0].startswith("U = II")
    code, lines = run_cli("witness", "normal", "(-inf,inf)", "[0,1]", "[2,3]")
    assert code == 0
    assert lines == ["U = I trace=(-inf,3/2)", "V = I trace=(3/2,inf)"]


def test_witness_on_refused_space():
    code, lines = run_cli("witness", "hausdorff", "[0,1]", "p", "1/2")
    assert code == 3 and lines == ["Refused component=[0,1]"]


def test_a_refused_space_decides_a_witness_before_its_arguments(capsys):
    """The verdict comes first: on a refused space a witness request exits 3
    however malformed its points or closed specs, and on a connectifiable
    one the same malformed point is an input error."""
    for argv in (
        ("witness", "hausdorff", "[0,1]", "p", "garbage"),
        ("witness", "normal", "[0,1]", "bad", "]["),
    ):
        code, lines = run_cli(*argv)
        assert (code, lines, capsys.readouterr().err) == (3, ["Refused component=[0,1]"], "")
    code, lines = run_cli("witness", "hausdorff", "(0,1)", "p", "garbage")
    assert (code, lines) == (2, [])
    assert capsys.readouterr().err == "error: bad rational point: 'garbage'\n"


def test_a_witness_that_fails_its_own_verification_exits_1(monkeypatch, capsys):
    """Break what each witness builder calls, so that it returns two opens
    that meet: the request prints nothing and exits 1 naming its kind.  The
    verifiers themselves are left alone; the handler checks with them."""
    from onepoint import connectify

    def whole_line_twice(ext, z):
        x = ext.space.ambient
        return connectify.TypeII(x, (0,) * len(ext.filters)), connectify.TypeI(x)

    monkeypatch.setattr(connectify, "_hausdorff_from_p", whole_line_twice)
    code, lines = run_cli("witness", "hausdorff", "(0,1)", "p", "1/2")
    assert (code, lines) == (1, [])
    assert capsys.readouterr().err == (
        "internal invariant violation: hausdorff witness failed its own verification\n"
    )
    monkeypatch.setattr(connectify, "separate_disjoint_closed", lambda space, f, g: (space.ambient,) * 2)
    code, lines = run_cli("witness", "normal", "(0,1)", "[1/4,1/3]", "[1/2,3/4]")
    assert (code, lines) == (1, [])
    assert capsys.readouterr().err == (
        "internal invariant violation: normality witness failed its own verification\n"
    )


def test_compactify_verb():
    code, lines = run_cli("compactify", "[0,1]")
    assert code == 3 and lines[0].startswith("Refused space=[0,1]")
    code, lines = run_cli("compactify", "(0,1)")
    assert code == 0 and lines == ["compact_extension base=(0,1)"]


def test_finite_enumerate():
    code, lines = run_cli("finite", "enumerate", "3")
    assert code == 0 and lines == ["count=29"]


def test_finite_search():
    code, lines = run_cli("finite", "search", "{},{0},{0,1}", "T0")
    assert code == 0
    assert lines[0] == "found=3"
    assert len(lines) == 4
    code, lines = run_cli("finite", "search", "{},{0},{1},{0,1}", "T2")
    assert code == 0 and lines == ["found=0"]


def test_parse_errors_exit_2():
    code, _ = run_cli("connectify", "(0,1")
    assert code == 2
    code, _ = run_cli("witness", "hausdorff", "(0,1)", "q", "1/2")
    assert code == 2
    code, _ = run_cli("finite", "search", "{0}", "T2")
    assert code == 2
    code, _ = run_cli("connectify", "empty")
    assert code == 2


OVERSIZED = "1" + "0" * 4400  # past the 4300-digit limit of int and Fraction parsing


def test_oversized_endpoint_exits_2(capsys):
    code, lines = run_cli("connectify", f"(0,1) U [{OVERSIZED},inf)")
    assert code == 2 and lines == []
    assert capsys.readouterr().err.startswith("error: endpoint too long")


def test_oversized_point_exits_2(capsys):
    code, lines = run_cli("witness", "hausdorff", "(0,inf)", "p", OVERSIZED)
    assert code == 2 and lines == []
    assert capsys.readouterr().err.startswith("error: point too long")


def test_oversized_computed_endpoint_exits_2(capsys):
    # Both numbers parse, but the witness trace endpoint outgrows the digit limit.
    z = f"{'9' * 3000}/1{'0' * 3000}"
    code, lines = run_cli("witness", "hausdorff", "(0,1)", "p", z)
    assert code == 2 and lines == []
    assert capsys.readouterr().err == "error: a computed number has too many digits to print\n"


def test_huge_topology_literal_tokens_exit_2(capsys):
    run_cli("finite", "search", "{},{7}", "T0")
    small_err = capsys.readouterr().err
    for token in ("10000000000", OVERSIZED):
        code, lines = run_cli("finite", "search", f"{{}},{{{token}}}", "T0")
        assert code == 2 and lines == []
        assert capsys.readouterr().err == small_err == "error: finite spaces handle at most 6 points\n"


def test_bad_point_arguments_exit_2():
    code, _ = run_cli("witness", "hausdorff", "(0,1)", "p", "p")
    assert code == 2
    code, _ = run_cli("witness", "hausdorff", "(0,1)", "p", "5")
    assert code == 2


def test_whitespace_inside_a_numeral_is_squeezed():
    """Pinned, not endorsed: the part reader and the point reader both drop
    whitespace inside a numeral, so `[1 2,3 0]` reads as [12,30] and the
    point `1 2` as 12.  Refusing either would change an exit code."""
    assert run_cli("components", "[1 2,3 0]") == (0, ["C#0=[12,30]"])
    squeezed = run_cli("witness", "hausdorff", "(0,inf)", "p", "1 2")
    assert squeezed == (0, ["U = II trace=(13,inf) tails=C#0:13", "V = I trace=(11,13)"])
    assert run_cli("witness", "hausdorff", "(0,inf)", "p", "12") == squeezed


def test_cli_matches_library(capsys):
    # the CLI is a thin wrapper: its lines equal the library record output
    from onepoint import Space, check_connectifiable, parse_set
    from onepoint.records import fmt_verdict

    _, lines = run_cli("connectify", "(0,1) U (2,3)")
    assert lines == fmt_verdict(check_connectifiable(Space(parse_set("(0,1) U (2,3)"))))


def test_selftest_runs_and_is_deterministic():
    code1, lines1 = run_cli("--format", "records", "selftest")
    code2, lines2 = run_cli("--format", "records", "selftest")
    assert code1 == code2 == 0
    assert lines1 == lines2


def test_unexpected_exception_is_one_line_and_exit_1(monkeypatch, capsys):
    def broken(space):
        raise RuntimeError("lost\ntrack")

    # The table holds the handlers themselves, so break what one of them calls.
    monkeypatch.setattr(cli, "components", broken)
    code, lines = run_cli("components", "(0,1)")
    assert code == 1 and lines == []
    assert capsys.readouterr().err == "internal error: RuntimeError: lost track\n"


def test_every_bug_signal_exits_1_with_its_message(monkeypatch, capsys):
    from onepoint.errors import DensityFailure, FidelityFailure, InvalidExtension

    for error in (DensityFailure, FidelityFailure, InvalidExtension):
        assert issubclass(error, InvalidExtension)

        def broken(space, error=error):
            raise error("certificate failed its own verification")

        monkeypatch.setattr(cli, "components", broken)
        code, lines = run_cli("components", "(0,1)")
        assert code == 1 and lines == []
        err = capsys.readouterr().err
        assert err == "internal invariant violation: certificate failed its own verification\n"


def test_selftest_dichotomy_catches_a_wrong_verdict(monkeypatch):
    from onepoint import connectify, selftest

    assert selftest._check_dichotomy() == (True, "spaces=80 refused=19")

    def always_refused(space):
        return connectify.Refused(connectify.components(space)[-1])

    monkeypatch.setattr(connectify, "check_connectifiable", always_refused)
    ok, detail = selftest._check_dichotomy()
    assert not ok and detail.startswith("dichotomy-broken space=")


def test_engine_built_separation_failure_exits_1(monkeypatch, capsys):
    """normality_witness hands separate_disjoint_closed a set it built itself
    (F's slice with a filter tail); when that set meets G the engine is at
    fault, so the request exits 1, not 2 as for bad input."""
    from onepoint import connectify
    from onepoint.intervals import is_finite

    request = ("witness", "normal", "(0,1) U [5,7)", "p", "[1/4,3/4]")
    code, lines = run_cli(*request)
    assert code == 0 and lines[0].startswith("U = II trace=")
    assert capsys.readouterr().err == ""

    def every_near_end_included(flt, piece):
        near = piece.lo if flt.side > 0 else piece.hi
        return flt._index_past(near, True) if is_finite(near) else 0

    monkeypatch.setattr(connectify, "_least_tail", every_near_end_included)
    code, lines = run_cli(*request)
    assert code == 1 and lines == []
    assert capsys.readouterr().err == (
        "internal invariant violation: F with tail 1 in C#0=(0,1): [3/4,1) meets [1/4,3/4]\n"
    )
    # The same refusal on the user's own sets is still an input error.
    code, lines = run_cli("witness", "normal", "(0,1) U [5,7)", "[1/8,1/2]", "[1/4,3/4]")
    assert code == 2 and lines == []
    assert capsys.readouterr().err == "error: [1/8,1/2] meets [1/4,3/4]\n"


def test_non_topology_literals_exit_2(capsys):
    for literal in ("{},{0},{1},{0,1,2}", "{},{0,1},{1,2},{0,1,2}"):
        for axiom in ("connected", "T0"):
            code, lines = run_cli("finite", "search", literal, axiom)
            assert code == 2 and lines == []
            assert capsys.readouterr().err == (
                f"error: family is not closed under union/intersection: {literal!r}\n"
            )


def test_only_a_non_topology_reads_as_bad_literal(monkeypatch, capsys):
    """A family missing the empty or the full set is bad input (exit 2); any
    other exception while the literal's space is built is a bug (exit 1)."""
    from onepoint import finite

    for literal in ("{0}", "{},{0},{1}"):
        code, lines = run_cli("finite", "search", literal, "T0")
        assert code == 2 and lines == []
        assert capsys.readouterr().err == (
            f"error: not a topology: {literal!r}"
            " (a topology contains the empty set and the full set)\n"
        )

    def broken(self, size, opens):
        raise RuntimeError("engine bug")

    monkeypatch.setattr(finite.FiniteSpace, "__init__", broken)
    code, lines = run_cli("finite", "search", "{},{0}", "T0")
    assert code == 1 and lines == []
    assert capsys.readouterr().err == "internal error: RuntimeError: engine bug\n"


def outcome(argv, capsys):
    """How `main` ends (it returns a code, or argparse raises SystemExit), the
    emitted lines, and what went to stdout and stderr."""
    lines = []
    try:
        ended = ("returns", cli.main(list(argv), emit=lines.append))
    except SystemExit as exc:
        ended = ("exits", exc.code)
    out = capsys.readouterr()
    return ended, lines, out.out, out.err


USAGE = (
    "usage: onepoint [-h] [--format {text,records}]\n"
    "                {components,check,connectify,witness,compactify,finite,selftest}\n"
    "                ...\n"
)

# What argparse printed for requests the table hands it (Python 3.11's
# argparse, 80 columns).  `٣` is read by int() as 3.
FALLBACK = [
    (
        ["--help"],
        ("exits", 0),
        [],
        USAGE
        + "\n"
        "Decide and construct one-point connectifications and compactifications.\n"
        "\n"
        "positional arguments:\n"
        "  {components,check,connectify,witness,compactify,finite,selftest}\n"
        "    components          list the components of a space\n"
        "    check               compactness and local connectedness report\n"
        "    connectify          verdict plus escape filters\n"
        "    witness             separation witnesses in the extension\n"
        "    compactify          Alexandroff verdict\n"
        "    finite              finite-topology oracle\n"
        "    selftest            run the full invariant suite\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {text,records}\n"
        "                        records is the byte-stable machine format; text is the\n"
        "                        same stream\n",
        "",
    ),
    (
        ["witness", "--help"],
        ("exits", 0),
        [],
        "usage: onepoint witness [-h] {hausdorff,normal} ...\n"
        "\n"
        "positional arguments:\n"
        "  {hausdorff,normal}\n"
        "\n"
        "options:\n"
        "  -h, --help          show this help message and exit\n",
        "",
    ),
    (
        ["finite", "--help"],
        ("exits", 0),
        [],
        "usage: onepoint finite [-h] {enumerate,search} ...\n"
        "\n"
        "positional arguments:\n"
        "  {enumerate,search}\n"
        "\n"
        "options:\n"
        "  -h, --help          show this help message and exit\n",
        "",
    ),
    (
        ["finite", "search", "x", "T9"],
        ("exits", 2),
        [],
        "",
        "usage: onepoint finite search [-h]\n"
        "                              literal\n"
        "                              {T0,T1,T2,connected,locally_connected,normal-pairs}\n"
        "onepoint finite search: error: argument axiom: invalid choice: 'T9' (choose from"
        " 'T0', 'T1', 'T2', 'connected', 'locally_connected', 'normal-pairs')\n",
    ),
    (
        ["finite", "enumerate", "x"],
        ("exits", 2),
        [],
        "",
        "usage: onepoint finite enumerate [-h] n\n"
        "onepoint finite enumerate: error: argument n: invalid int value: 'x'\n",
    ),
    (
        ["witness", "hausdorff", "(0,1)", "p", "-1/2"],
        ("exits", 2),
        [],
        "",
        "usage: onepoint witness hausdorff [-h] set y z\n"
        "onepoint witness hausdorff: error: the following arguments are required: z\n",
    ),
    (
        ["components"],
        ("exits", 2),
        [],
        "",
        "usage: onepoint components [-h] set\n"
        "onepoint components: error: the following arguments are required: set\n",
    ),
    (
        ["--format", "bogus", "components", "(0,1)"],
        ("exits", 2),
        [],
        "",
        USAGE + "onepoint: error: argument --format: invalid choice: 'bogus'"
        " (choose from 'text', 'records')\n",
    ),
    (["--fo", "records", "components", "(0,1)"], ("returns", 0), ["C#0=(0,1)"], "", ""),
    (
        ["frobnicate"],
        ("exits", 2),
        [],
        "",
        USAGE + "onepoint: error: argument verb: invalid choice: 'frobnicate' (choose from"
        " 'components', 'check', 'connectify', 'witness', 'compactify', 'finite', 'selftest')\n",
    ),
    (["finite", "enumerate", "٣"], ("returns", 0), ["count=29"], "", ""),
]


@pytest.mark.parametrize("argv, ended, lines, out, err", FALLBACK, ids=[" ".join(c[0]) for c in FALLBACK])
def test_argparse_words_what_the_table_declines(argv, ended, lines, out, err, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert outcome(argv, capsys) == (ended, lines, out, err)


TRAILING_DASHES = [
    ["components", "--", "(0,1)", "--"],
    ["finite", "search", "--", "{},{0}", "--"],
    ["witness", "hausdorff", "--", "(0,1)", "p", "--"],
    ["--format", "records", "finite", "search", "--", "{},{0}", "--"],
]


@pytest.mark.parametrize("argv", TRAILING_DASHES, ids=" ".join)
def test_a_trailing_double_dash_is_an_unrecognized_argument(argv, capsys, monkeypatch):
    """Where a trailing `--` stands in for the last positional, argparse
    binds that positional to an empty list; the request is refused as
    argparse refuses a stray `--` (the first request), before a handler
    sees the list."""
    monkeypatch.setenv("COLUMNS", "80")
    err = USAGE + "onepoint: error: unrecognized arguments: --\n"
    assert outcome(argv, capsys) == (("exits", 2), [], "", err)


# One well-formed request of each of the nine shapes.
NINE = [
    ["components", "(0,1)"],
    ["check", "(0,1)"],
    ["connectify", "(0,1)"],
    ["witness", "hausdorff", "(0,1)", "p", "1/2"],
    ["witness", "normal", "(0,1)", "p", "[1/4,1/2]"],
    ["compactify", "(0,1)"],
    ["finite", "enumerate", "3"],
    ["finite", "search", "{},{0}", "T0"],
    ["selftest"],
]
WELL_FORMED = [
    [*fmt, *argv[:n], *dashes, *argv[n:]]
    for argv in NINE
    for n in [2 if argv[0] in ("witness", "finite") else 1]
    for fmt in ([], ["--format", "text"], ["--format", "records"])
    for dashes in ([], ["--"])
    if not (dashes and argv == ["selftest"])
]
TOKENS = [
    *sorted({word for argv in NINE for word in argv}),
    *AXIOMS,
    "--", "-", "-5", "-1/2", "-inf", "--format", "--format=records", "--fo", "-h",
    "", " 3", "+3", "3_0", "٣", "t0", "Connected", "NORMAL-PAIRS", "text", "records",
]


def argparse_request(argv):
    """`vars` of argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def assert_table_agrees(argv):
    read, want = cli._read(argv), argparse_request(argv)
    if read is None:
        return False
    assert want is not None, argv
    handler, request = read
    assert request == want, argv
    words = (want["verb"], want["kind"]) if "kind" in want else (want["verb"],)
    assert handler is cli._BY_WORDS[words][2]
    return True


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_the_table_reads_every_well_formed_request(argv):
    assert assert_table_agrees(argv)


# Requests argparse reads in its own way (or rejects) that the table leaves
# to it: a `--` where the table allows none, or a second one; an option
# written another way; a negative number argparse takes as a positional.
DECLINED = [
    ["selftest", "--"],
    ["components", "(0,1)", "--"],
    ["components", "--", "(0,1)", "--"],
    ["finite", "search", "--", "{},{0}", "--"],
    ["witness", "hausdorff", "--", "--", "p", "1"],
    ["--", "components", "(0,1)"],
    ["witness", "--", "hausdorff", "(0,1)", "p", "1"],
    ["finite", "enumerate", "-5"],
    ["--format=records", "components", "(0,1)"],
    ["--format", "text", "--format", "records", "components", "(0,1)"],
    ["components", "-h"],
    ["finite", "search", "{},{0}", "t0"],
    ["finite", "enumerate", "3.0"],
]


@pytest.mark.parametrize("argv", DECLINED, ids=" ".join)
def test_the_table_declines_what_it_does_not_read_exactly(argv):
    assert cli._read(argv) is None


@st.composite
def edited_requests(draw):
    """A well-formed request with up to three tokens inserted, replaced,
    dropped or duplicated anywhere."""
    argv = list(draw(st.sampled_from(WELL_FORMED)))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("insert", "replace", "drop", "duplicate")))
        if edit == "insert":
            argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(TOKENS)))
        elif argv:
            i = draw(st.integers(0, len(argv) - 1))
            if edit == "replace":
                argv[i] = draw(st.sampled_from(TOKENS))
            elif edit == "drop":
                del argv[i]
            else:
                argv.insert(i, argv[i])
    return argv


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(edited_requests())
def test_the_table_reads_as_argparse_or_declines(argv):
    """Against the installed argparse: a request the table reads is the one
    argparse reads, and one argparse rejects the table declines."""
    assert_table_agrees(argv)


def test_well_formed_requests_load_no_argparse():
    """A fresh interpreter answers one request of each shape without
    importing argparse or gettext, and the eight shapes before `selftest`
    without importing `selftest` or `sampling`; a malformed one imports
    argparse and exits 2."""
    assert NINE[-1] == ["selftest"]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from onepoint import cli\n"
        f"codes = [cli.main(argv, emit=[].append) for argv in {NINE[:-1]!r}]\n"
        "print(sorted({'onepoint.selftest', 'onepoint.sampling'} & set(sys.modules)))\n"
        f"codes.append(cli.main({NINE[-1]!r}, emit=[].append))\n"
        "print(codes, sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
        "try:\n"
        "    cli.main(['components'])\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, 'argparse' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, str(Path(__file__).resolve().parents[1] / "src")],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.splitlines() == ["[]", "[0, 0, 0, 0, 0, 0, 0, 0, 0] []", "2 True"]
    assert out.stderr.endswith("error: the following arguments are required: set\n")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_a_reader_that_stops_early_ends_the_process_by_sigpipe():
    """`onepoint components ... | head -1`: the output (about 140 KB) is far
    more than a pipe holds, so the process is still writing when the reader
    closes after one line.  It dies by SIGPIPE and says nothing, rather than
    exiting 1 with an internal error."""
    text = " U ".join(f"[{i},{i}]" for i in range(8000))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "onepoint", "components", text],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert proc.stdout.readline() == b"C#0=[0,0]\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b"" and code == -signal.SIGPIPE


# Requests whose verdict rests on the interpreter's integer-text digit limit:
# perfbench's two `oversized` requests, a 1,000-digit endpoint, and
# numerators of 4,300 and 4,301 digits, with their exit codes.
DIGIT_LIMIT_REQUESTS = [
    (["connectify", "(0,1) U [1" + "0" * 4400 + ",inf)"], 2),
    (["witness", "hausdorff", "(0,inf)", "p", "1" + "0" * 4400], 2),
    (["components", "(0,1" + "0" * 1000 + ")"], 0),
    (["components", "(0," + "1" * 4300 + ")"], 0),
    (["witness", "hausdorff", "(0," + "1" * 4300 + ")", "p", "1"], 0),
    (["components", "(0," + "1" * 4301 + ")"], 2),
    (["witness", "hausdorff", "(0," + "1" * 4301 + ")", "p", "1"], 2),
]


def test_the_environment_decides_no_verdict():
    """`console_main` pins the digit limit to the interpreter's default, so
    with the setting unset, at 0, at 640 and under `-X int_max_str_digits=0`
    each request prints the same bytes and exits the same.  One interpreter
    per setting runs every request through `console_main`, with a marker
    after each on both streams."""
    driver = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from onepoint import cli\n"
        "for argv in json.loads(sys.argv[2]):\n"
        "    sys.argv = ['onepoint', *argv]\n"
        "    try:\n"
        "        cli.console_main()\n"
        "    except SystemExit as exc:\n"
        "        print('exit', exc.code, flush=True)\n"
        "        print('end', file=sys.stderr, flush=True)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    requests = json.dumps([argv for argv, _ in DIGIT_LIMIT_REQUESTS])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    runs = []
    for setting, flags in ((None, []), ("0", []), ("640", []), (None, ["-X", "int_max_str_digits=0"])):
        run_env = env if setting is None else {**env, "PYTHONINTMAXSTRDIGITS": setting}
        out = subprocess.run(
            [sys.executable, *flags, "-c", driver, src, requests],
            capture_output=True, env=run_env, timeout=60,
        )
        runs.append((out.returncode, out.stdout, out.stderr))
    assert runs[0][0] == 0
    codes = [line.split()[1] for line in runs[0][1].decode().splitlines() if line.startswith("exit ")]
    assert codes == [str(code) for _, code in DIGIT_LIMIT_REQUESTS]
    assert all(run == runs[0] for run in runs[1:])
