"""Batch command-line front-end.

Thin by design: every verb parses its arguments, calls one library operation,
and prints the stable record lines.  Exit codes: 0 success, 1 internal
invariant violation or any other unexpected exception (a bug), 2 parse or
argument error, 3 mathematical refusal (the requested extension does not
exist).
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from . import connectify as cn
from . import finite as fin
from . import records
from . import selftest
from .compactify import CompactRefused
from .compactify import compactify as alexandroff_compactify
from .errors import InvalidExtension, OnePointError
from .intervals import parse_point, parse_set
from .space import Space, components


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="onepoint",
        description="Decide and construct one-point connectifications and compactifications.",
    )
    parser.add_argument(
        "--format",
        choices=("text", "records"),
        default="text",
        help="records is the byte-stable machine format; text is the same stream",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("components", help="list the components of a space")
    p.add_argument("set")

    p = sub.add_parser("check", help="compactness and local connectedness report")
    p.add_argument("set")

    p = sub.add_parser("connectify", help="verdict plus escape filters")
    p.add_argument("set")

    w = sub.add_parser("witness", help="separation witnesses in the extension")
    wsub = w.add_subparsers(dest="kind", required=True)
    wh = wsub.add_parser("hausdorff")
    wh.add_argument("set")
    wh.add_argument("y")
    wh.add_argument("z")
    wn = wsub.add_parser("normal")
    wn.add_argument("set")
    wn.add_argument("fspec")
    wn.add_argument("gspec")

    p = sub.add_parser("compactify", help="Alexandroff verdict")
    p.add_argument("set")

    f = sub.add_parser("finite", help="finite-topology oracle")
    fsub = f.add_subparsers(dest="kind", required=True)
    fe = fsub.add_parser("enumerate")
    fe.add_argument("n", type=int)
    fs = fsub.add_parser("search")
    fs.add_argument("literal")
    fs.add_argument("axiom", choices=fin.AXIOMS)

    sub.add_parser("selftest", help="run the full invariant suite")
    return parser


def _parse_ext_point(token: str):
    if token == "p":
        return cn.P
    return parse_point(token)


def _parse_closed_spec(token: str) -> cn.ExtClosedSet:
    flat = token.strip()
    if flat == "p":
        return cn.ExtClosedSet(True, parse_set("empty"))
    if flat.startswith("p+"):
        return cn.ExtClosedSet(True, parse_set(flat[2:]))
    return cn.ExtClosedSet(False, parse_set(flat))


def _require_extension(space: Space, emit) -> cn.Extension | None:
    verdict = cn.check_connectifiable(space)
    if isinstance(verdict, cn.Refused):
        for line in records.fmt_verdict(verdict):
            emit(line)
        return None
    return verdict.extension


def _cmd_components(args, emit) -> int:
    space = Space(parse_set(args.set))
    for c in components(space):
        emit(str(c))
    return 0


def _cmd_check(args, emit) -> int:
    for line in records.fmt_check(Space(parse_set(args.set))):
        emit(line)
    return 0


def _cmd_connectify(args, emit) -> int:
    verdict = cn.check_connectifiable(Space(parse_set(args.set)))
    for line in records.fmt_verdict(verdict):
        emit(line)
    return 3 if isinstance(verdict, cn.Refused) else 0


def _cmd_witness(args, emit) -> int:
    space = Space(parse_set(args.set))
    ext = _require_extension(space, emit)
    if ext is None:
        return 3
    if args.kind == "hausdorff":
        y, z = _parse_ext_point(args.y), _parse_ext_point(args.z)
        u, v = cn.hausdorff_witness(ext, y, z)
        if not cn.verify_hausdorff(ext, y, z, u, v):
            raise InvalidExtension("hausdorff witness failed its own verification")
    else:
        f, g = _parse_closed_spec(args.fspec), _parse_closed_spec(args.gspec)
        u, v = cn.normality_witness(ext, f, g)
        if not cn.verify_normality(ext, f, g, u, v):
            raise InvalidExtension("normality witness failed its own verification")
    for line in records.fmt_witness_pair(u, v):
        emit(line)
    return 0


def _cmd_compactify(args, emit) -> int:
    space = Space(parse_set(args.set))
    verdict = alexandroff_compactify(space)
    for line in records.fmt_compact_verdict(space, verdict):
        emit(line)
    return 3 if isinstance(verdict, CompactRefused) else 0


def _cmd_finite(args, emit) -> int:
    if args.kind == "enumerate":
        emit(f"count={fin.count_topologies(args.n, 'preorder')}")
        return 0
    base = fin.parse_topology_literal(args.literal)
    found = fin.search_one_point_connectifications(base, args.axiom)
    emit(f"found={len(found)}")
    for line in sorted(fin.topology_literal(t) for t in found):
        emit(line)
    return 0


def main(argv=None, emit=print) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "components":
            return _cmd_components(args, emit)
        if args.verb == "check":
            return _cmd_check(args, emit)
        if args.verb == "connectify":
            return _cmd_connectify(args, emit)
        if args.verb == "witness":
            return _cmd_witness(args, emit)
        if args.verb == "compactify":
            return _cmd_compactify(args, emit)
        if args.verb == "finite":
            return _cmd_finite(args, emit)
        return selftest.run(emit)
    except InvalidExtension as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 1
    except OnePointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # any other exception is a bug too, reported on one line
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
