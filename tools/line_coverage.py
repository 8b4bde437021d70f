"""The statements of src/tdr that the tier-1 tests never run.

    python3 tools/line_coverage.py

Runs the test suite (tests/) in this process under sys.settrace, tracing
only frames whose code lives in src/tdr, then prints each statement of
src/tdr/*.py that never ran, as path:line and its first line of source.
A statement is any ast statement except a def or class line, an import
and a docstring; a compound statement counts as run when a line of its
header runs.  Nothing is printed for a file whose statements all ran.

Two limits: tests that run tdr in a child process (`python -m tdr`, the
import-time checks) are not traced, so what only they reach is listed as
never run; and tracing slows the suite several times over, so the tests
that bound wall time may fail under it.  The listing is printed whatever
the tests' outcome.
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "tdr")


def statements(path):
    """{first line: (last line that counts, first line of its source)} of
    every statement listed above."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    out = {}
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.stmt) or isinstance(node, (
                ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                ast.Import, ast.ImportFrom)):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        # a simple statement spans its lines; a compound one, its header
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if body else node.end_lineno
        out[node.lineno] = (max(end, node.lineno), lines[node.lineno - 1].strip())
    return out


def main():
    ran = set()   # (path, line)

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(SRC) else None

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"pytest exit code {int(code)}; statements never run:")
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        for line, (end, text) in sorted(statements(path).items()):
            if not any((path, i) in ran for i in range(line, end + 1)):
                print(f"src/tdr/{name}:{line}: {text}")


if __name__ == "__main__":
    main()
