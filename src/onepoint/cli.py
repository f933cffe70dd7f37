"""Batch command-line front-end.

Thin by design: each handler is a function of its request that calls one
library operation and returns the exit code with the stable record lines;
`main` alone prints them.  One table, `_SHAPES`, lists the nine request
shapes: a well-formed request is read from it directly, and argparse, built
from the same table, reads the rest and words usage, help and errors.

Exit codes: 0 success, 1 internal invariant violation or any other unexpected
exception (a bug), 2 parse or argument error, 3 mathematical refusal (the
requested extension does not exist).
"""

from __future__ import annotations

import sys
from functools import lru_cache

from . import connectify as cn
from . import finite as fin
from . import records
from .compactify import CompactRefused
from .compactify import compactify as alexandroff_compactify
from .errors import InvalidExtension, OnePointError
from .intervals import parse_point, parse_set
from .space import Space, components


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


def _space(request) -> Space:
    return Space(parse_set(request["set"]))


def _cmd_components(request):
    return 0, [str(c) for c in components(_space(request))]


def _cmd_check(request):
    return 0, records.fmt_check(_space(request))


def _cmd_connectify(request):
    verdict = cn.check_connectifiable(_space(request))
    return 3 if isinstance(verdict, cn.Refused) else 0, records.fmt_verdict(verdict)


# Per witness kind: the names of its two positionals after the set, how each
# is read, the builder, its verifier, and the name a failed verification gives.
_WITNESSES = {
    "hausdorff": (("y", "z"), _parse_ext_point, cn.hausdorff_witness, cn.verify_hausdorff, "hausdorff"),
    "normal": (
        ("fspec", "gspec"), _parse_closed_spec, cn.normality_witness, cn.verify_normality, "normality"
    ),
}


def _cmd_witness(request):
    verdict = cn.check_connectifiable(_space(request))
    if isinstance(verdict, cn.Refused):
        return 3, records.fmt_verdict(verdict)
    names, read, build, verify, name = _WITNESSES[request["kind"]]
    ext = verdict.extension
    a, b = (read(request[n]) for n in names)
    u, v = build(ext, a, b)
    if not verify(ext, a, b, u, v):
        raise InvalidExtension(f"{name} witness failed its own verification")
    return 0, records.fmt_witness_pair(u, v)


def _cmd_compactify(request):
    space = _space(request)
    verdict = alexandroff_compactify(space)
    return 3 if isinstance(verdict, CompactRefused) else 0, records.fmt_compact_verdict(space, verdict)


def _cmd_enumerate(request):
    return 0, [f"count={fin.count_topologies(request['n'], 'preorder')}"]


def _cmd_search(request):
    base = fin.parse_topology_literal(request["literal"])
    found = fin.search_one_point_connectifications(base, request["axiom"])
    return 0, [f"found={len(found)}", *sorted(fin.topology_literal(t) for t in found)]


def _cmd_selftest(request):
    from . import selftest  # and through it sampling: no other request loads them

    return selftest.run()


# The nine request shapes, in the order `--help` lists them: the command
# words, each positional's name with its `add_argument` options, and the
# handler.  `_read` reads a well-formed request from this table and
# `build_parser` builds argparse's grammar from it, so the two cannot drift.
_SET = (("set", {}),)
_SHAPES = (
    (("components",), _SET, _cmd_components),
    (("check",), _SET, _cmd_check),
    (("connectify",), _SET, _cmd_connectify),
    (("witness", "hausdorff"), (("set", {}), ("y", {}), ("z", {})), _cmd_witness),
    (("witness", "normal"), (("set", {}), ("fspec", {}), ("gspec", {})), _cmd_witness),
    (("compactify",), _SET, _cmd_compactify),
    (("finite", "enumerate"), (("n", {"type": int}),), _cmd_enumerate),
    (("finite", "search"), (("literal", {}), ("axiom", {"choices": fin.AXIOMS})), _cmd_search),
    (("selftest",), (), _cmd_selftest),
)
_BY_WORDS = {shape[0]: shape for shape in _SHAPES}
_HELP = {
    "components": "list the components of a space",
    "check": "compactness and local connectedness report",
    "connectify": "verdict plus escape filters",
    "witness": "separation witnesses in the extension",
    "compactify": "Alexandroff verdict",
    "finite": "finite-topology oracle",
    "selftest": "run the full invariant suite",
}
_FORMATS = ("text", "records")


def _read(argv):
    """(handler, request) for a request read exactly: the request is the dict
    `vars(build_parser().parse_args(argv))`.  None for anything else (an
    option other than a leading `--format text|records` or one `--` right
    after the command words, a wrong count, an unknown word, a failed
    conversion or choice), which is left to argparse."""
    request = {"format": "text"}
    i = 0
    if len(argv) > 1 and argv[0] == "--format" and argv[1] in _FORMATS:
        request["format"] = argv[1]
        i = 2
    shape = _BY_WORDS.get(tuple(argv[i : i + 1])) or _BY_WORDS.get(tuple(argv[i : i + 2]))
    if shape is None:
        return None
    words, positionals, handler = shape
    tokens = argv[i + len(words) :]
    if positionals and tokens and tokens[0] == "--":
        tokens = tokens[1:]
        if "--" in tokens:
            return None
    elif any(token.startswith("-") for token in tokens):
        return None
    if len(tokens) != len(positionals):
        return None
    request["verb"] = words[0]
    if len(words) > 1:
        request["kind"] = words[1]
    for (name, options), token in zip(positionals, tokens):
        if "type" in options:
            try:
                token = options["type"](token)
            except ValueError:
                return None
        if "choices" in options and token not in options["choices"]:
            return None
        request[name] = token
    return handler, request


@lru_cache(maxsize=None)
def build_parser():
    """The argparse grammar of `_SHAPES`, built on first use and shared by
    later calls.  It reads what `_read` declines and words usage, help and
    errors; argparse is imported only here."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="onepoint",
        description="Decide and construct one-point connectifications and compactifications.",
    )
    parser.add_argument(
        "--format",
        choices=_FORMATS,
        default="text",
        help="records is the byte-stable machine format; text is the same stream",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)
    kinds = {}
    for words, positionals, _ in _SHAPES:
        if len(words) == 1:
            sub = verbs.add_parser(words[0], help=_HELP[words[0]])
        else:
            if words[0] not in kinds:
                group = verbs.add_parser(words[0], help=_HELP[words[0]])
                kinds[words[0]] = group.add_subparsers(dest="kind", required=True)
            sub = kinds[words[0]].add_parser(words[1])
        for name, options in positionals:
            sub.add_argument(name, **options)
    return parser


def main(argv=None, emit=print) -> int:
    if argv is None:
        argv = sys.argv[1:]
    read = _read(argv)
    if read is None:
        parser = build_parser()
        request = vars(parser.parse_args(argv))
        if any(isinstance(value, list) for value in request.values()):
            # a trailing `--` in place of the last positional, which argparse binds as []
            parser.error("unrecognized arguments: --")
        words = (request["verb"], request["kind"]) if "kind" in request else (request["verb"],)
        read = _BY_WORDS[words][2], request
    handler, request = read
    try:
        code, lines = handler(request)
        for line in lines:
            emit(line)
        return code
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
    import signal

    # A reader that stops early (`onepoint selftest | head -1`) ends this
    # process by SIGPIPE, as it ends any other writer of a pipeline, and not
    # through a failed write that `main` would report as a bug.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    # Every "too long" refusal is the interpreter's integer-text digit limit:
    # pin it to its default, so that no setting of the environment
    # (PYTHONINTMAXSTRDIGITS, -X int_max_str_digits) changes a verdict.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
