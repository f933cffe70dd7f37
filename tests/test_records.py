from fractions import Fraction

import pytest

from onepoint import (
    EMPTY,
    Connectifiable,
    DensityCertificate,
    FidelityCertificate,
    InvalidExtension,
    P,
    Space,
    TypeI,
    check_connectifiable,
    clopen_falsifier,
    connectedness_certificate,
    density_check,
    hausdorff_witness,
    parse_set,
    subspace_fidelity,
    verify_density,
    verify_fidelity,
)
from onepoint.connectify import ConnectednessCertificate, ConnectednessStep
from onepoint.intervals import fmt_value, is_finite
from onepoint.records import (
    fmt_check,
    fmt_connectedness,
    fmt_density,
    fmt_falsifier_outcome,
    fmt_fidelity,
    fmt_filter,
    fmt_open,
    fmt_verdict,
    fmt_witness_pair,
)


def ext_of(text):
    verdict = check_connectifiable(Space(parse_set(text)))
    assert isinstance(verdict, Connectifiable)
    return verdict.extension


def test_witness_records_golden():
    ext = ext_of("[5,inf)")
    u, v = hausdorff_witness(ext, P, Fraction(20))
    assert fmt_witness_pair(u, v) == [
        "U = II trace=(21,inf) tails=C#0:16",
        "V = I trace=(19,21)",
    ]
    assert fmt_open(TypeI(EMPTY)) == "I trace=empty"


def test_fmt_open_prints_extension_opens_only():
    """No verb prints a compactification open, so one is refused rather than
    printed as a type-I open."""
    from onepoint.compactify import TypeInf

    with pytest.raises(AssertionError):
        fmt_open(TypeInf(parse_set("(5,inf)")))


def test_verdict_records_golden():
    assert fmt_verdict(check_connectifiable(Space(parse_set("(0,1) U [2,3]")))) == [
        "Refused component=[2,3]"
    ]
    lines = fmt_verdict(check_connectifiable(Space(parse_set("(0,1) U [5,inf)"))))
    assert lines[0] == "connectifiable components=2"


def test_certificate_records_stable():
    ext = ext_of("(0,1) U (2,3) U [5,inf)")
    cert = connectedness_certificate(ext)
    once = fmt_connectedness(ext, cert)
    again = fmt_connectedness(ext, connectedness_certificate(ext))
    assert once == again
    assert once[0] == "certificate connectedness components=3"
    assert once[-1] == "conclusion clopen-with-p=whole-extension"
    assert all("closed_in_component=true" in line for line in once[1:-1])

    d1 = fmt_density(density_check(ext, samples=10))
    d2 = fmt_density(density_check(ext, samples=10))
    assert d1 == d2 and d1[0] == "certificate density samples=10"
    assert all("nonempty=true" in line for line in d1[1:])

    f1 = fmt_fidelity(subspace_fidelity(ext, samples=5))
    f2 = fmt_fidelity(subspace_fidelity(ext, samples=5))
    assert f1 == f2 and len(f1) == 11


def test_sample_headers_count_the_steps(extensions):
    for seed, ext in enumerate(extensions[:40]):
        density = density_check(ext, 1 + seed % 4, seed)
        fidelity = subspace_fidelity(ext, 1 + seed % 3, seed)
        for cert in (density, DensityCertificate(density.neighborhoods[:1])):
            assert verify_density(ext, cert)
            lines = fmt_density(cert)
            assert lines[0] == f"certificate density samples={len(lines) - 1}"
        half = FidelityCertificate(fidelity.extension_opens[:1], fidelity.base_opens[:1])
        for cert in (fidelity, half):
            assert verify_fidelity(ext, cert)
            lines = fmt_fidelity(cert)
            downs = sum(" down " in line for line in lines)
            ups = sum(" up " in line for line in lines)
            assert downs == ups == len(lines) // 2
            assert lines[0] == f"certificate fidelity samples={downs}"


def test_filter_records_name_the_components_own_end(extensions):
    count = 0
    for ext in extensions:
        for f in ext.filters:
            piece = f.component.piece
            end, closed = (piece.hi, piece.hi_closed) if f.side > 0 else (piece.lo, piece.lo_closed)
            assert not closed
            if is_finite(end):
                way = f"{'open_right' if f.side > 0 else 'open_left'}({fmt_value(end)})"
            else:
                way = "pos_inf" if f.side > 0 else "neg_inf"
            assert fmt_filter(f) == f"filter {f.component} dir={way} anchor={fmt_value(f.anchor)}"
            count += 1
    assert count > 300


def test_falsifier_record_lines():
    ext = ext_of("(0,1)")
    trivial = clopen_falsifier(ext, TypeI(EMPTY))
    assert fmt_falsifier_outcome(trivial) == "trivial which=empty"
    out = clopen_falsifier(ext, TypeI(parse_set("(0,1/2)")))
    line = fmt_falsifier_outcome(out)
    assert line == "not-clopen side=complement reason=TraceNotOpen boundary=1/2"
    missing = clopen_falsifier(ext, TypeI(parse_set("(0,1)")))
    assert (
        fmt_falsifier_outcome(missing)
        == "not-clopen side=complement reason=MissingTail component=C#0"
    )


def test_check_records_shape():
    lines = fmt_check(Space(parse_set("(0,1) U [2,3]")))
    assert lines[0] == "space=(0,1) U [2,3]"
    assert "space_compact=false" in lines
    assert lines[-1] == "step 2 C#1=[2,3] window=(1,4) trace_matches=true"


CHECK_GOLDEN = {
    "(-inf,-2] U (-1,0) U [1,2)": [
        "space=(-inf,-2] U (-1,0) U [1,2)",
        "space_compact=false",
        "C#0=(-inf,-2] compact=false",
        "C#1=(-1,0) compact=false",
        "C#2=[1,2) compact=false",
        "locally_connected=true",
        "step 1 C#0=(-inf,-2] window=(-inf,-1) trace_matches=true",
        "step 2 C#1=(-1,0) window=(-2,1) trace_matches=true",
        "step 3 C#2=[1,2) window=(0,2) trace_matches=true",
    ],
    "(0,1) U (1,2] U [3,inf)": [
        "space=(0,1) U (1,2] U [3,inf)",
        "space_compact=false",
        "C#0=(0,1) compact=false",
        "C#1=(1,2] compact=false",
        "C#2=[3,inf) compact=false",
        "locally_connected=true",
        "step 1 C#0=(0,1) window=(0,1) trace_matches=true",
        "step 2 C#1=(1,2] window=(1,3) trace_matches=true",
        "step 3 C#2=[3,inf) window=(2,inf) trace_matches=true",
    ],
    "(-inf,0) U (0,1/2) U [3/4,inf)": [
        "space=(-inf,0) U (0,1/2) U [3/4,inf)",
        "space_compact=false",
        "C#0=(-inf,0) compact=false",
        "C#1=(0,1/2) compact=false",
        "C#2=[3/4,inf) compact=false",
        "locally_connected=true",
        "step 1 C#0=(-inf,0) window=(-inf,0) trace_matches=true",
        "step 2 C#1=(0,1/2) window=(0,3/4) trace_matches=true",
        "step 3 C#2=[3/4,inf) window=(1/2,inf) trace_matches=true",
    ],
    "[0,1] U [2,3]": [
        "space=[0,1] U [2,3]",
        "space_compact=true",
        "C#0=[0,1] compact=true",
        "C#1=[2,3] compact=true",
        "locally_connected=true",
        "step 1 C#0=[0,1] window=(-1,2) trace_matches=true",
        "step 2 C#1=[2,3] window=(1,4) trace_matches=true",
    ],
}

FLAGS = "nonempty=true subset=true closed_in_component=true single_interval=true"

CONNECTEDNESS_GOLDEN = {
    "(-inf,-2] U (-1,0) U [1,2)": [
        "certificate connectedness components=3",
        f"step 1 C#0=(-inf,-2] tail=(-inf,-3] {FLAGS}",
        f"step 2 C#1=(-1,0) tail=[-1/2,0) {FLAGS}",
        f"step 3 C#2=[1,2) tail=[3/2,2) {FLAGS}",
        "conclusion clopen-with-p=whole-extension",
    ],
    "(0,1) U (1,2] U [3,inf)": [
        "certificate connectedness components=3",
        f"step 1 C#0=(0,1) tail=[1/2,1) {FLAGS}",
        f"step 2 C#1=(1,2] tail=(1,3/2] {FLAGS}",
        f"step 3 C#2=[3,inf) tail=[4,inf) {FLAGS}",
        "conclusion clopen-with-p=whole-extension",
    ],
    "(-inf,0) U (0,1/2) U [3/4,inf)": [
        "certificate connectedness components=3",
        f"step 1 C#0=(-inf,0) tail=[-1,0) {FLAGS}",
        f"step 2 C#1=(0,1/2) tail=[1/4,1/2) {FLAGS}",
        f"step 3 C#2=[3/4,inf) tail=[7/4,inf) {FLAGS}",
        "conclusion clopen-with-p=whole-extension",
    ],
}


def test_check_records_golden():
    for text, lines in CHECK_GOLDEN.items():
        assert fmt_check(Space(parse_set(text))) == lines


def test_connectedness_records_golden():
    for text, lines in CONNECTEDNESS_GOLDEN.items():
        ext = ext_of(text)
        assert fmt_connectedness(ext, connectedness_certificate(ext)) == lines


def test_density_record_golden():
    assert fmt_density(density_check(ext_of("(0,1) U [5,inf)"), 4, 0)) == [
        "certificate density samples=4",
        "step 1 tails=C#0:24,C#1:26 trace=(29360127/33554432,1) U (251/8,inf) nonempty=true",
        "step 2 tails=C#0:31,C#1:25 trace=(1610612735/4294967296,1) U (30,inf) nonempty=true",
        "step 3 tails=C#0:9,C#1:19 trace=(767/1024,1) U (99/4,inf) nonempty=true",
        "step 4 tails=C#0:21,C#1:30 trace=(3145727/4194304,1) U (6,35/3) U (141/4,inf) nonempty=true",
    ]


def test_fidelity_record_golden():
    # Pins the draw order of random_ext_open and random_open_in.
    assert fmt_fidelity(subspace_fidelity(ext_of("(0,1) U [5,inf)"), 4, 0)) == [
        "certificate fidelity samples=4",
        "step 1 down I trace=(7167/8192,1)",
        "step 2 down II trace=(0,1) U (7,inf) tails=C#0:10,C#1:5",
        "step 3 down I trace=(0,1) U [5,inf)",
        "step 4 down I trace=empty",
        "step 5 up I trace=(2/5,1) U [5,37/3)",
        "step 6 up I trace=(0,1)",
        "step 7 up I trace=(0,1) U [5,inf)",
        "step 8 up I trace=[5,55/6)",
    ]


def test_connectedness_record_refuses_forged_certificate():
    ext = ext_of("(0,1) U [5,inf)")
    c0, c1 = (f.component for f in ext.filters)
    forged = ConnectednessCertificate(
        (ConnectednessStep(c0, parse_set("[1/4,1/3]")), ConnectednessStep(c1, parse_set("[7,8]")))
    )
    with pytest.raises(InvalidExtension):
        fmt_connectedness(ext, forged)
