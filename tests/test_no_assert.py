"""Library guarantees survive `python -O`: checked modules hold no `assert`.

Nor do they raise AssertionError by hand: a failed check raises
IntegrityError, which the CLI reports as a one-line error with exit 2.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "indres"
CHECKED = ("groupcore", "chartab", "classfun", "blocks", "lattice",
           "correspondence", "cli", "oracles", "catalog")
EXEMPT = ("__init__",)


def test_every_module_is_checked_or_exempt():
    assert {p.stem for p in SRC.glob("*.py")} == set(CHECKED) | set(EXEMPT)


def _is_assert(node):
    """An `assert` statement, or a `raise AssertionError` written by hand."""
    if isinstance(node, ast.Assert):
        return True
    exc = node.exc if isinstance(node, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


@pytest.mark.parametrize("module", CHECKED)
def test_no_assert_statements(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    lines = [node.lineno for node in ast.walk(tree) if _is_assert(node)]
    assert lines == []
