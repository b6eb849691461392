"""Print every statement of the ``alphagate`` package that a pytest run never
executes.

    python3 tools/unexecuted.py SRC [PYTEST ARGS]

SRC is the directory that holds the ``alphagate`` package (``src`` in a
checkout). The tool runs pytest in this process with PYTEST ARGS (none runs
the configured test paths) under ``sys.settrace`` and ``threading.settrace``,
tracing lines only in ``SRC/alphagate``, and ``-o pythonpath=SRC`` puts SRC
first on ``sys.path``. It then prints ``file:line: statement`` for each
statement none of whose lines ran. A statement here is any statement of the
syntax tree except function and class definitions, imports, docstrings and
``global``/``nonlocal`` declarations, which run no line of their own; a
compound statement counts as run when its header or its first body
statement ran.

Lines that run only in a child process are not seen: on a full run of
``tests`` the one statement left is the ``__main__`` call at the end of
``cli.py``, which only the tests that start the CLI as a subprocess reach.
Tracing took the full suite from 54 s to 87 s on a 2-vCPU Xeon. The exit
status is pytest's if it failed, else 1 if any statement is listed, else 0.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

_SILENT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Global,
           ast.Nonlocal)


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _header(node: ast.stmt) -> range:
    """The lines of ``node`` that are its own: all of a simple statement, the
    lines above the first body statement of a compound one."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(node.lineno, max(body[0].lineno, node.lineno + 1))
    return range(node.lineno, node.end_lineno + 1)


def unexecuted(path: Path, ran: set[int]) -> list[ast.stmt]:
    """The statements of the file at ``path`` none of whose own lines is in
    ``ran``, in source order."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    missed: list[ast.stmt] = []

    def executed(node: ast.stmt) -> bool:
        body = getattr(node, "body", None)
        if any(line in ran for line in _header(node)):
            return True
        return isinstance(body, list) and bool(body) and executed(body[0])

    for parent in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(parent, field, None)
            if not isinstance(block, list):  # a lambda's or a conditional expression's body
                continue
            for node in block:
                if not isinstance(node, _SILENT) and not _is_docstring(node, parent) and not executed(node):
                    missed.append(node)
    return sorted(missed, key=lambda node: node.lineno)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    package = src / "alphagate"
    if not package.is_dir():
        print(f"{package}: no alphagate package there", file=sys.stderr)
        return 2
    prefix = str(package) + os.sep
    hits: dict[str, set[int]] = {}

    def local(frame, event, _arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, _event, _arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set())
        return local

    import pytest

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-o", f"pythonpath={src}", *argv[1:]])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    listed = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for node in unexecuted(path, hits.get(str(path), set())):
            print(f"{path.relative_to(src)}:{node.lineno}: {source[node.lineno - 1].strip()}")
            listed += 1
    print(f"{listed} statements never executed", file=sys.stderr)
    return int(status) or (1 if listed else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
