"""Print each executable line of src/semspace that the test suite never runs.

No coverage package is needed: this runs pytest in-process under
`sys.settrace`, tracing only frames whose code lives in src/semspace, and
compares the lines that ran with the line table of every code object in
those files. Lines under an `if __name__ == "__main__":` guard are left out,
since the suite never runs a module as a script.

    PYTHONPATH=src python tests/untested_lines.py [pytest args...]

With no arguments it runs the tier-1 suite: `tests` and `perfbench/tests`.
It exits 1 when some line never ran, else with pytest's own exit code. Its
file name does not match `test_*.py`, so pytest never collects it.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "semspace"


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def _main_guard_lines(tree: ast.Module) -> set[int]:
    return {line for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
            for line in range(node.lineno, node.end_lineno + 1)}


def executable_lines(path: Path) -> set[int]:
    """The lines of `path` that its compiled code can run, less any `__main__` guard."""
    source = path.read_text(encoding="utf-8")
    code = compile(source, str(path), "exec")
    lines = {line for c in _code_objects(code) for _, _, line in c.co_lines() if line}
    return lines - _main_guard_lines(ast.parse(source))


def run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with `args` under the tracer; its exit code and the lines run, by file."""
    prefix = str(SRC) + "/"
    ran: dict[str, set[int]] = {}

    def tracer(frame, event, arg):  # called at each new frame: trace it line by line, or not at all
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = ran.setdefault(filename, set())
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main(argv: list[str]) -> int:
    status, ran = run(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), str(ROOT / "perfbench" / "tests")])
    missed = 0
    for path in sorted(SRC.glob("*.py")):
        never = sorted(executable_lines(path) - ran.get(str(path), set()))
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno in never:
            print(f"{path.relative_to(ROOT)}:{lineno}: {lines[lineno - 1].strip()}")
        missed += len(never)
    print(f"{missed} executable line(s) in src/semspace never ran", file=sys.stderr)
    return 1 if missed else status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
