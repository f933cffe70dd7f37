"""Reach audit: which functions under ``src/onepoint`` a run of the program enters.

    python tests/reach.py

The run is the seed-7 round of perfbench's ``corpus``, ``large`` and
``finite`` workloads and ``--format records selftest``, the same ops the
golden gate digests first (built and run through ``tests/golden.py``).  It
runs under ``sys.settrace``, which sees every Python call, so a function
counts as entered when one of its calls starts, import-time calls
included.  The functions are the ``def`` statements of the package's
source files, nested ones too; lambdas and comprehensions do not count.

It prints ``entered E/T functions`` and then each function never entered,
as ``module.qualname  file:line``.  A function that only tests call shows
up here; so does one that a change has cut off from every request.  Not
collected by pytest; it takes a few seconds.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "onepoint"


def defined_functions() -> dict[tuple[str, int, str], str]:
    """{(file, first line of its code object, name): module.qualname} for
    every ``def`` in the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        file = str(path)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # A decorated function's code object starts at its first decorator.
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    out[(file, first, child.name)] = f"{path.stem}.{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return out


def entered_during(run) -> set[tuple[str, int, str]]:
    """The (file, first line, name) of every code object under the package
    that started a call while ``run()`` ran."""
    root = str(PACKAGE)
    seen = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(root):
            seen.add((code.co_filename, code.co_firstlineno, code.co_name))
        return None  # no line events

    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
    return seen


def audited_run() -> None:
    sys.path[:0] = [str(PACKAGE.parent), str(HERE)]
    import golden  # imports onepoint.cli, so it is imported under the tracer

    m = golden.modules()
    golden.perfbench_rounds(m)
    golden.selftest_run(m)


def main() -> int:
    functions = defined_functions()
    seen = entered_during(audited_run)
    missed = sorted((name, key) for key, name in functions.items() if key not in seen)
    print(f"entered {len(functions) - len(missed)}/{len(functions)} functions")
    for name, (file, line, _) in missed:
        print(f"  {name}  {Path(file).relative_to(PACKAGE.parent.parent)}:{line}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
