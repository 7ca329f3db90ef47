"""The library modules hold what the command line runs.

`groupcore`, `chartab`, `classfun`, `blocks`, `lattice` and
`correspondence` are the library; exact references, brute-force
recomputations and theorem checks live in `oracles`, which no library
module imports.  The first test runs a fixed set of commands in process
under `sys.setprofile` and fails on any function of a library module that
none of them entered, unless `ALLOWED` names it, or its class, with the
reason it stays.  The commands build their own groups and the module-level
caches are cleared first, so no data that another test left behind stands
in for a call.
"""

import ast
import inspect
import json
import sys
import types
from pathlib import Path

import pytest
from click.testing import CliRunner

from indres import (blocks, chartab, classfun, cli, correspondence, groupcore,
                    lattice)
from indres.catalog import build

LIBRARY = (groupcore, chartab, classfun, blocks, lattice, correspondence)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# a function's or a class's qualified name -> why no command has to enter it
ALLOWED = {
    "groupcore._memo": "a decorator: it runs at import, before any command",
    "groupcore.PermGroup.__repr__": "names a group in tracebacks and test reports",
    "chartab.Cyclotomic": "kept whole: its ring operations are the oracles' and "
                          "the tests' arithmetic, and it alone owns the canonical form",
    "classfun.VirtualCharacter.__add__": "tests build sums of characters",
    "classfun.VirtualCharacter.__eq__": "tests compare virtual characters",
    "classfun.VirtualCharacter.__mul__": "tests scale virtual characters",
    "classfun.VirtualCharacter.__repr__": "names a character in assertion messages",
    "classfun.VirtualCharacter.conjugate": "scripts/make_fixture.py builds the witness",
    "classfun.VirtualCharacter.degree": "tests check induced and product degrees",
    "classfun.outer_product": "scripts/make_fixture.py builds the witness",
    "lattice.IntLattice.__eq__": "tests and the theorem checks compare lattices",
    "lattice.IntLattice.__repr__": "names a lattice in tracebacks and test reports",
}


def _functions(module):
    """The qualified names of the functions that a module's source defines;
    class bodies run at import, and comprehensions and lambdas belong to
    the function around them."""
    path = module.__file__
    stack = [compile(Path(path).read_text(), path, "exec")]
    names = set()
    while stack:
        code = stack.pop()
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                stack.append(const)
                if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                    names.add(const.co_qualname)
    return names


def _s4_omega_witness():
    """omega on the principal 2-block pair of S4, whose intersection set
    has a nontrivial maximum, so property (G) builds the product lattice."""
    inst = correspondence.make_instance(build("S4"), 2)
    assert not correspondence._s_is_trivial(inst)
    b = blocks.block_partition(inst.tG, 2)[0]
    e = correspondence.correspondent_of(inst, b)
    omega = correspondence.omega_character(inst, b, e)
    return {"format": "virtual-character", "space": "product", "p": 2,
            "block_chars": sorted(b.char_indices),
            "correspondent_chars": sorted(e.char_indices),
            "coeffs": list(omega.coeffs)}


def _commands(tmp_path):
    """(exit code, arguments) of each traced command, with its input files."""
    table, P, H = (tmp_path / f for f in ("s4_table.json", "p.json", "h.json"))
    # <(1 2 3 4), (1 3)> in its overgroup S4, as 1-based images
    P.write_text(json.dumps({"format": "perm-group", "degree": 4,
                             "generators": [[2, 3, 4, 1], [3, 2, 1, 4]]}))
    H.write_text(json.dumps({"format": "perm-group", "degree": 4,
                             "generators": [[2, 1, 3, 4], [2, 3, 4, 1]]}))
    omega = tmp_path / "omega.json"
    omega.write_text(json.dumps(_s4_omega_witness()))
    return [
        (0, ["table", "S4", "-o", str(table)]),
        (0, ["verify", "S4", "-p", "2", "--table-g", str(table)]),
        (0, ["blocks", "A5", "-p", "2", "-o", str(tmp_path / "blocks.json")]),
        (0, ["quotients", "S5", "-p", "2"]),
        (0, ["verify", "S4", "-p", "2", "--subgroup-mode", f"explicit:{P}",
             "--h-mode", f"explicit:{H}"]),
        (1, ["verify", str(FIXTURES / "fixture_group.json"), "-p", "2",
             "--subgroup-mode", "block:1", "--props", "irc,wirc,pres,pind,g",
             "--witness", str(FIXTURES / "fixture_witness.json")]),
        (0, ["verify", "S4", "-p", "2", "--subgroup-mode", "block:0",
             "--props", "g", "--witness", str(omega)]),
        (0, ["paper-table", "small"]),
        (0, ["oracle", "brute-classes", "S4"]),
        (0, ["oracle", "brute-table", "S3"]),
        (0, ["oracle", "subgroup-lattice", "S4", "-p", "2"]),
    ]


def _allowed_by(entry, name):
    return name == entry or name.startswith(entry + ".")


def test_every_library_function_is_run_by_a_command(tmp_path, monkeypatch):
    commands = _commands(tmp_path)
    rows = cli.rows_for_suite("small")
    monkeypatch.setattr(cli, "rows_for_suite",
                        lambda suite: [r for r in rows if r["group"] == rows[0]["group"]])
    for module in LIBRARY:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    runner, entered, results = CliRunner(), set(), []

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for _, args in commands:
            results.append(runner.invoke(cli.main, args, catch_exceptions=False))
    finally:
        sys.setprofile(None)
    assert [r.exit_code for r in results] == [code for code, _ in commands]
    unreached = []
    for module in LIBRARY:
        ran = {c.co_qualname for c in entered if c.co_filename == module.__file__}
        prefix = module.__name__.rsplit(".", 1)[1]
        unreached += [f"{prefix}.{q}" for q in sorted(_functions(module) - ran)]
    assert [u for u in unreached if not any(_allowed_by(a, u) for a in ALLOWED)] == []
    # every entry still allows something, and the list stays short
    assert [a for a in ALLOWED if not any(_allowed_by(a, u) for u in unreached)] == []
    assert len(ALLOWED) <= 12


@pytest.mark.parametrize("module", LIBRARY, ids=lambda m: m.__name__)
def test_no_library_module_imports_the_oracles(module):
    imported = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert [n for n in imported if n.rsplit(".", 1)[-1] == "oracles"] == []
