"""No module imports a name it never uses.

A name counts as used when the module reads it anywhere: as a bare name,
as the root of an attribute chain, or as the parameter of a function,
which is how pytest hands a test an imported fixture.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src/indres", "tests", "scripts")
    for path in (ROOT / folder).glob("*.py")
)


def _imported(tree):
    """(name bound, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _used(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    return names


def test_every_folder_has_modules():
    assert {Path(m).parent.as_posix() for m in MODULES} == {"src/indres", "tests", "scripts"}


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = ast.parse((ROOT / module).read_text())
    used = _used(tree)
    assert [(name, line) for name, line in _imported(tree) if name not in used] == []
