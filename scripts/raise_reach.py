"""Report which `raise` lines of the library a pytest run reaches.

Usage, from the root of the repository (some tests read files relative
to it while they are collected):
    python3 scripts/raise_reach.py                        # the whole suite
    python3 scripts/raise_reach.py tests/test_lattice.py  # any pytest arguments

Runs pytest in this process with the given arguments (default `tests`),
plus `-p no:cacheprovider`.  A `sys.settrace` hook, installed only while a
test is set up or called, watches the `raise` statements of the library
modules and nothing else.  Prints `reached R of T`, then each raise that
no test reached as `file:line: source`.  The exit status is 0 whether or
not tests fail, since tracing slows tests that assert their own run time;
it is pytest's own status when pytest could not run the tests at all.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "indres"
MODULES = ("groupcore", "chartab", "classfun", "blocks", "lattice",
           "correspondence", "catalog", "cli")

sys.path.insert(0, str(ROOT / "src"))


def raise_lines(path):
    """The line numbers of the `raise` statements in a source file."""
    return {node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise)}


class RaiseTracer:
    """A pytest plugin that records which of the given raise lines run."""

    def __init__(self, paths):
        self.targets = {str(p): raise_lines(p) for p in paths}
        self.reached = set()  # (file, line)
        self._pending = {}  # code object -> its raise lines not yet reached

    def _call(self, frame, event, arg):
        code = frame.f_code
        pending = self._pending.get(code)
        if pending is None:
            targets = self.targets.get(code.co_filename, ())
            pending = self._pending[code] = {line for *_, line in code.co_lines()
                                             if line in targets}
        return self._line if pending else None

    def _line(self, frame, event, arg):
        if event == "line":
            pending = self._pending[frame.f_code]
            if frame.f_lineno in pending:
                pending.discard(frame.f_lineno)
                self.reached.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def _traced(self):
        sys.settrace(self._call)
        try:
            return (yield)
        finally:
            sys.settrace(None)

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_setup(self, item):
        return (yield from self._traced())

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_call(self, item):
        return (yield from self._traced())


def main(argv):
    tracer = RaiseTracer(SRC / f"{m}.py" for m in MODULES)
    status = pytest.main((argv or ["tests"]) + ["-p", "no:cacheprovider"],
                         plugins=[tracer])
    if status not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        return status
    total = sum(len(lines) for lines in tracer.targets.values())
    print(f"reached {len(tracer.reached)} of {total}")
    for path, lines in tracer.targets.items():
        source = Path(path).read_text().splitlines()
        rel = os.path.relpath(path, ROOT)
        for line in sorted(lines):
            if (path, line) not in tracer.reached:
                print(f"{rel}:{line}: {source[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
