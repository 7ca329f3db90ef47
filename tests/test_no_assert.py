"""Library guarantees survive `python -O`: checked modules hold no `assert`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "indres"
CHECKED = ("groupcore", "chartab", "classfun", "blocks", "lattice",
           "correspondence", "cli")
# oracles.py holds test references; catalog.py self-checks fixed builders
EXEMPT = ("__init__", "oracles", "catalog")


def test_every_module_is_checked_or_exempt():
    assert {p.stem for p in SRC.glob("*.py")} == set(CHECKED) | set(EXEMPT)


@pytest.mark.parametrize("module", CHECKED)
def test_no_assert_statements(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []
