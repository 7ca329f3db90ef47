"""Command line behavior: exit codes, report stability, input validation."""

import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import reduce
from pathlib import Path
from unittest.mock import patch

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import indres
from conftest import (permute_columns, shared_group, shuffle_columns, switch_values,
                      value_switches)
from indres import chartab, cli, correspondence
from indres.blocks import block_partition
from indres.catalog import BUILDERS, build, cyclic
from indres.classfun import VirtualCharacter, p_singular_classes
from indres.cli import JobSpec, build_instance, main
from indres.correspondence import (check_property_G_with_witness, correspondent_of,
                                   omega_character, pair_table, table_for)
from indres.groupcore import (MAX_DEGREE, MILLER_RABIN_BOUND, BudgetExceeded, PermGroup,
                              group_from_generators, prime_factors, product_group)
from indres.oracles import value_at

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def shared_groups(monkeypatch):
    """Runs load their groups through `conftest.shared_group`, so the runs on
    the order-1000 fixture group share its tables."""
    monkeypatch.setattr(cli, "load_group", shared_group)


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def test_table_command(runner):
    r = invoke(runner, "table", "S4")
    assert r.exit_code == 0
    assert "order 24" in r.output
    assert "degrees [1, 1, 2, 3, 3]" in r.output


def test_table_budget_zero_is_a_budget(runner):
    r = runner.invoke(main, ["table", "S4", "--budget-order", "0"])
    assert (r.exit_code, r.stderr) == (2, "error: order 24 exceeds class budget 0\n")


def test_table_int64_guard_is_one_line_exit_2(runner, monkeypatch):
    """A table prime too large for int64 sums is refused up front."""
    monkeypatch.setattr(chartab, "_prime_above", lambda bound, m: 3037000501)
    r = runner.invoke(main, ["table", "S4"])
    _assert_one_line_error(r)
    assert "overflow 64-bit integers" in r.stderr


def test_table_unknown_group(runner):
    r = runner.invoke(main, ["table", "nosuch"])
    assert r.exit_code == 2


def test_blocks_command(runner):
    r = invoke(runner, "blocks", "S5", "-p", "2")
    assert r.exit_code == 0
    lines = [ln for ln in r.output.splitlines() if ln.startswith("block")]
    assert len(lines) == 2


def test_quotients_command(runner):
    r = invoke(runner, "quotients", "S4", "-p", "2")
    assert r.exit_code == 0
    assert "Q1 = Z^2" in r.output
    assert "Q2 = Z^2" in r.output


def test_verify_all_hold(runner, tmp_path):
    out = tmp_path / "report.json"
    r = invoke(runner, "verify", "S4", "-p", "2", "-o", str(out))
    assert r.exit_code == 0
    report = json.loads(out.read_text())
    assert all(v["holds"] for v in report["verdicts"].values())
    assert report["ml_counts"]["equal"] is True
    # big integers travel as decimal strings
    assert report["instance"]["order"] == "24"


def test_verify_report_unchanged_under_python_O(runner, tmp_path):
    # the integrity checks are raises, not asserts, so -O must not alter a run
    plain, optimized = tmp_path / "plain.json", tmp_path / "optimized.json"
    assert invoke(runner, "verify", "S4", "-p", "2", "-o", str(plain)).exit_code == 0
    src = str(Path(indres.__file__).resolve().parent.parent)
    r = subprocess.run(
        [sys.executable, "-O", "-m", "indres.cli",
         "verify", "S4", "-p", "2", "-o", str(optimized)],
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    assert optimized.read_bytes() == plain.read_bytes()


def test_cli_import_leaves_sympy_out():
    # sympy is a test-only reference; the library must not pay for its import
    src = str(Path(indres.__file__).resolve().parent.parent)
    r = subprocess.run(
        [sys.executable, "-c", "import sys, indres.cli; print('sympy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=300,
    )
    assert (r.returncode, r.stdout) == (0, "False\n"), r.stderr


def test_verify_reports_are_byte_stable(runner, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    invoke(runner, "verify", "A5", "-p", "2", "-o", str(a))
    invoke(runner, "verify", "A5", "-p", "2", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_verify_subset_of_properties(runner):
    r = invoke(runner, "verify", "S4", "-p", "2", "--props", "pres,pind")
    assert r.exit_code == 0


def test_verify_in_counts(runner):
    r = invoke(runner, "verify", "S4", "-p", "2", "--props", "in")
    assert r.exit_code == 0


def test_verify_bad_property_name(runner):
    r = runner.invoke(main, ["verify", "S4", "-p", "2", "--props", "bogus"])
    assert (r.exit_code, r.stderr) == (2, "error: unknown property 'bogus'\n")


@pytest.mark.parametrize("props", ["", ",", " , "])
def test_verify_empty_props_exits_2(runner, props):
    # checking nothing must not pass for "all hold"
    r = invoke(runner, "verify", "S4", "-p", "2", "--props", props)
    assert (r.exit_code, r.stderr) == (2, "error: --props names no property\n")


def test_overgroup_without_the_normalizer_exits_2(runner, tmp_path):
    # H = P = <(1 2 3)> in S4, whose normalizer S3 is larger
    path = tmp_path / "c3.json"
    path.write_text(json.dumps({"format": "perm-group", "degree": 4,
                                "generators": [[2, 3, 1, 4]]}))
    r = invoke(runner, "verify", "S4", "-p", "3", "--subgroup-mode", f"explicit:{path}",
               "--h-mode", f"explicit:{path}")
    assert (r.exit_code, r.stderr) == (2, "error: H does not contain the normalizer of P\n")


def test_group_json_input(runner, tmp_path):
    path = tmp_path / "s3.json"
    path.write_text(
        json.dumps(
            {
                "format": "perm-group",
                "degree": 3,
                "order": "6",
                "generators": [[2, 1, 3], [2, 3, 1]],
            }
        )
    )
    r = invoke(runner, "verify", str(path), "-p", "2")
    assert r.exit_code == 0


def test_group_json_wrong_order_aborts(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "format": "perm-group",
                "degree": 3,
                "order": "12",
                "generators": [[2, 1, 3], [2, 3, 1]],
            }
        )
    )
    r = runner.invoke(main, ["verify", str(path), "-p", "2"])
    assert r.exit_code == 2
    assert r.stderr.endswith("declared order 12 but the generators produce a group of order 6\n")


def test_external_table_reconciles(runner, tmp_path):
    table_path = tmp_path / "s4table.json"
    r = invoke(runner, "table", "S4", "-o", str(table_path))
    assert r.exit_code == 0
    r2 = invoke(
        runner, "verify", "S4", "-p", "2", "--table-g", str(table_path)
    )
    assert r2.exit_code == 0
    # a column-shuffled table is re-indexed onto the group's classes, so the
    # report is the one the computed table gives
    data = permute_columns(json.loads(table_path.read_text()), [0, 3, 1, 4, 2])
    table_path.write_text(json.dumps(data))
    reports = []
    for i, extra in enumerate([[], ["--table-g", str(table_path)]]):
        out = tmp_path / f"report{i}.json"
        r = invoke(runner, "verify", "S4", "-p", "2", "-o", str(out), *extra)
        assert r.exit_code == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def _verify_run(runner, tmp_path, args):
    """The exit code and the -o bytes of `verify` with `args`."""
    out = tmp_path / "report.json"
    r = invoke(runner, "verify", *args, "-o", str(out))
    return r.exit_code, out.read_bytes()


@pytest.mark.parametrize("name, a, b", [("C2xA4", 1, 3), ("S6", 1, 7), ("Q8", 2, 3)])
def test_swapped_classes_load_as_the_computed_table(runner, tmp_path, shared_groups,
                                                    name, a, b):
    """Two stored classes swapped, power maps remapped, load at every prime
    as the group's own table.  C2xA4's classes 1 and 3, and S6's 1 and 7,
    agree in order, size and power maps, so only the values tell them
    apart; Q8's classes 2 and 3 are two of its three classes of order 4."""
    table = tmp_path / "table.json"
    assert invoke(runner, "table", name, "-o", str(table)).exit_code == 0
    data = json.loads(table.read_text())
    perm = list(range(len(data["classes"])))
    perm[a], perm[b] = b, a
    table.write_text(json.dumps(permute_columns(data, perm)))
    for p in prime_factors(shared_group(name).order()):
        args = [name, "-p", str(p)]
        assert (_verify_run(runner, tmp_path, args)
                == _verify_run(runner, tmp_path, args + ["--table-g", str(table)]))


@st.composite
def _edited_tables(draw, data):
    """Stored table data with one or two drawn edits, and their names: a
    column shuffle, a row shuffle, one value changed, one power-map target
    moved within range, or a switch of two values in two rows and two
    columns (`conftest.value_switches`)."""
    data = json.loads(json.dumps(data))
    k = len(data["classes"])
    edits = draw(st.lists(st.sampled_from(["columns", "rows", "value", "powermap",
                                           "switch"]), min_size=1, max_size=2))
    for edit in edits:
        if edit == "columns":
            shuffle_columns(data, draw(st.integers(0, 2**16)))
        elif edit == "rows":
            data["irreducibles"] = [data["irreducibles"][r]
                                    for r in draw(st.permutations(range(k)))]
        elif edit == "value":
            values = [v for row in data["irreducibles"] for v in row]
            new = draw(st.one_of(st.sampled_from(values), st.integers(-3, 3).map(
                lambda n: {"modulus": 1, "terms": [[0, n]] if n else []})))
            data["irreducibles"][draw(st.integers(0, k - 1))][draw(st.integers(0, k - 1))] = new
        elif edit == "powermap":
            pm = data["classes"][draw(st.integers(0, k - 1))]["powermap"]
            pm[draw(st.sampled_from(sorted(pm)))] = draw(st.integers(0, k - 1))
        else:
            switch_values(data, draw(st.sampled_from(value_switches(data))))
    return edits, data


_FUZZ_BASE = {}


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(["S4", "C2xA4"]), draw=st.data())
def test_table_file_fuzz_exit_codes(tmp_path_factory, name, draw):
    """Edited stored tables of S4 and C2xA4 either load as the group's own
    table, and `verify -p 2` writes the report of the run without the file,
    or exit 2 with one line; a shuffle of rows or columns always loads."""
    where = tmp_path_factory.mktemp("table")
    runner = CliRunner()
    with patch.object(cli, "load_group", shared_group):
        if name not in _FUZZ_BASE:
            data = chartab.table_to_json(table_for(shared_group(name)))
            _FUZZ_BASE[name] = data, _verify_run(runner, where, [name, "-p", "2"])
        data, expect = _FUZZ_BASE[name]
        edits, edited = draw.draw(_edited_tables(data))
        path = where / "table.json"
        path.write_text(json.dumps(edited))
        r = invoke(runner, "verify", name, "-p", "2", "--table-g", str(path),
                   "-o", str(where / "report.json"))
    if set(edits) <= {"columns", "rows"} or r.exit_code != 2:
        assert (r.exit_code, (where / "report.json").read_bytes()) == expect
    else:
        _assert_one_line_error(r)


@pytest.mark.parametrize("spec", [
    JobSpec("S4", 2),
    JobSpec(str(FIXTURES / "fixture_group.json"), 2, subgroup_mode="block:1",
            properties=("irc", "wirc", "pres", "pind", "g"),
            witness=str(FIXTURES / "fixture_witness.json")),
], ids=["S4", "fixture-block-1"])
def test_stored_tables_add_no_table_build_or_proof(tmp_path, monkeypatch, spec):
    """A run with --table-g and --table-h builds as many tables, and proves
    as many, as the same run without them, and reports the same: each file
    is checked against the group's own table, which the run builds anyway."""
    inst, _ = build_instance(spec, cli.load_group(spec.group))
    files = {"table_g": str(tmp_path / "g.json"), "table_h": str(tmp_path / "h.json")}
    chartab.save_table(inst.tG, files["table_g"])
    chartab.save_table(inst.tH, files["table_h"])
    counts = Counter()
    real_init, real_verify = chartab.CharTable.__init__, chartab.verify_table
    monkeypatch.setattr(chartab.CharTable, "__init__",
                        lambda *a, **kw: counts.update(["tables"]) or real_init(*a, **kw))
    monkeypatch.setattr(chartab, "verify_table",
                        lambda t: counts.update(["proofs"]) or real_verify(t))
    runs = []
    for extra in ({}, files):
        counts.clear()
        runs.append((cli.run_verify(replace(spec, **extra)), dict(counts)))
    assert runs[0] == runs[1]
    assert runs[0][1]["proofs"] >= 2


def test_oracle_subgroup_lattice(runner):
    r = invoke(runner, "oracle", "subgroup-lattice", "S3", "-p", "2")
    assert r.exit_code == 0
    assert "HNF equal" in r.output


@pytest.mark.parametrize(
    "name", [n for n in sorted(BUILDERS) if build(n).order() <= 2500])
def test_oracle_brute_classes(runner, name):
    r = invoke(runner, "oracle", "brute-classes", name)
    assert r.exit_code == 0
    assert r.output.endswith(" match\n")


def test_oracle_brute_table(runner):
    r = invoke(runner, "oracle", "brute-table", "S3")
    assert r.exit_code == 0


def test_oracle_budget_exceeded_is_usage_error(runner):
    r = runner.invoke(
        main, ["oracle", "brute-classes", "S4", "--budget-classes", "10"]
    )
    assert r.exit_code == 2


def test_paper_table_small_suite(runner, monkeypatch):
    # each group is built once for its consecutive rows: 17 groups, 27 rows
    built = []
    monkeypatch.setattr(cli, "build", lambda name: built.append(name) or build(name))
    r = invoke(runner, "paper-table", "small")
    assert r.exit_code == 0
    assert "27 of 27 rows match" in r.output
    assert len(built) == len(set(built)) == 17


def test_fixture_witness_run_passes(runner, tmp_path, shared_groups):
    out = tmp_path / "fxg.json"
    r = runner.invoke(
        main,
        [
            "verify",
            str(FIXTURES / "fixture_group.json"),
            "-p",
            "2",
            "--subgroup-mode",
            "block:1",
            "--props",
            "wirc,pres,pind,g",
            "--witness",
            str(FIXTURES / "fixture_witness.json"),
            "-o",
            str(out),
        ],
    )
    assert r.exit_code == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["g"]["holds"] is True
    assert all(v["holds"] for v in report["verdicts"].values())


def test_fixture_block_irc_fails_with_certificate(runner, tmp_path, shared_groups):
    out = tmp_path / "fx.json"
    r = runner.invoke(
        main,
        [
            "verify",
            str(FIXTURES / "fixture_group.json"),
            "-p",
            "2",
            "--subgroup-mode",
            "block:1",
            "--props",
            "irc",
            "-o",
            str(out),
        ],
    )
    assert r.exit_code == 1
    report = json.loads(out.read_text())
    v = report["verdicts"]["irc"]
    assert v["holds"] is False
    assert "matching" in v["certificate"]


def test_property_g_with_no_intersection_maxima_uses_the_zero_lattice(runner, tmp_path):
    """A4 at p = 2 has H = G, so the intersection family is empty and
    I(G x H, diag P, {}) = {0}.  The witness omega - (1 + chi_3) x
    conj(1 + chi_3) differs from omega by a character that vanishes on the
    2-singular classes (1 + chi_3 is induced from C3), so a vanishing test
    would pass it; it is not omega, so property (G) fails."""
    inst, _ = build_instance(JobSpec("A4", 2), shared_group("A4"))
    assert inst.s_maxima == []
    b = block_partition(inst.tG, 2)[0]
    e = correspondent_of(inst, b)
    coeffs = list(omega_character(inst, b, e).coeffs)
    dualH = inst.tH.dual_map()
    for i in (0, inst.tG.degrees.index(3)):
        for j in (0, inst.tH.degrees.index(3)):
            coeffs[i * inst.tH.k + dualH[j]] -= 1
    wit, out = tmp_path / "witness.json", tmp_path / "a4.json"
    wit.write_text(json.dumps({"format": "virtual-character", "space": "product",
                               "coeffs": coeffs, "block_chars": b.char_indices,
                               "correspondent_chars": e.char_indices}))
    r = invoke(runner, "verify", "A4", "-p", "2", "--props", "g", "--witness", str(wit),
               "-o", str(out))
    assert r.exit_code == 1
    assert json.loads(out.read_text())["verdicts"]["g"]["holds"] is False


def _assert_one_line_error(r):
    assert r.exit_code == 2
    assert "Traceback" not in r.stderr
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_witness_naming_no_block_exits_2(runner, tmp_path, shared_groups):
    wit = json.loads((FIXTURES / "fixture_witness.json").read_text())
    wit["block_chars"] = [999]
    path = tmp_path / "bad_witness.json"
    path.write_text(json.dumps(wit))
    r = invoke(
        runner,
        "verify",
        str(FIXTURES / "fixture_group.json"),
        "-p",
        "2",
        "--subgroup-mode",
        "block:1",
        "--props",
        "irc,g",
        "--witness",
        str(path),
    )
    _assert_one_line_error(r)
    assert r.stderr == "error: witness block_chars name no block of G\n"


NOT_A_PERMUTATION = {"format": "perm-group", "degree": 3, "generators": [[1, 1, 3]]}
# order 10! = 3628800, above the default class budget of 10^6
OVER_BUDGET_S10 = {"format": "perm-group", "degree": 10, "order": "3628800",
                   "generators": [[2, 3, 4, 5, 6, 7, 8, 9, 10, 1], [2, 1]]}
# C10 on the 10 points of S10
C10 = {"format": "perm-group", "degree": 10, "generators": OVER_BUDGET_S10["generators"][:1]}
# one transposition on 33000 points: past what an int16 element row holds
OVER_DEGREE = {"format": "perm-group", "degree": 33000, "generators": [[2, 1]]}
# a generator padded to 10^9 points would take gigabytes
HUGE_DEGREE = {"format": "perm-group", "degree": 10**9, "generators": [[2, 1]]}


@pytest.mark.parametrize(
    "args",
    [
        ["table", "GROUP"],
        ["blocks", "GROUP", "-p", "2"],
        ["quotients", "GROUP", "-p", "2"],
        ["verify", "GROUP", "-p", "2"],
        ["oracle", "brute-classes", "GROUP"],
        ["oracle", "brute-table", "GROUP"],
        ["oracle", "subgroup-lattice", "GROUP", "-p", "2"],
        ["verify", "C10", "-p", "2", "--h-mode", "explicit:GROUP"],
    ],
    ids=["table", "blocks", "quotients", "verify", "oracle", "oracle-brute-table",
         "oracle-subgroup-lattice", "explicit-overgroup"],
)
def test_malformed_group_file_exits_2(runner, tmp_path, args):
    """Each file is refused before anything of its degree is allocated, also
    where it names the overgroup of a group on as many points as S10."""
    path = tmp_path / "bad.json"
    c10 = tmp_path / "c10.json"
    c10.write_text(json.dumps(C10))
    args = [a.replace("GROUP", str(path)).replace("C10", str(c10)) for a in args]
    for group, message in (
            (NOT_A_PERMUTATION, "generator is not a permutation of 1..n"),
            (OVER_BUDGET_S10, "order 3628800 exceeds class budget 1000000"),
            (OVER_DEGREE, f"group degree must be from 1 to {MAX_DEGREE}, got 33000"),
            (HUGE_DEGREE, f"group degree must be from 1 to {MAX_DEGREE}, got 1000000000")):
        path.write_text(json.dumps(group))
        tracemalloc.start()
        try:
            r = invoke(runner, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _assert_one_line_error(r)
        assert message in r.stderr
        assert peak < 2**20


def test_over_budget_group_is_refused_before_enumeration(tmp_path, monkeypatch):
    path = tmp_path / "s10.json"
    path.write_text(json.dumps(OVER_BUDGET_S10))
    built = []
    monkeypatch.setattr(cli, "group_from_generators",
                        lambda data: built.append(group_from_generators(data)) or built[-1])
    with pytest.raises(BudgetExceeded, match="order 3628800 exceeds class budget 1000000"):
        cli.load_group(str(path))
    assert not any(key[0] == "_element_matrix" for key in built[0]._cache)


# A10 = <(1 2 3), (2 3 ... 10)>, of order 1814400
A10 = {"format": "perm-group", "degree": 10, "order": "1814400",
       "generators": [[2, 3, 1], [1, 3, 4, 5, 6, 7, 8, 9, 10, 2]]}


def test_load_group_budget(tmp_path):
    """`load_group` admits a group up to its budget, catalog and file alike,
    and refuses one above it with the order in the message."""
    path = tmp_path / "a10.json"
    path.write_text(json.dumps(A10))
    assert cli.load_group(str(path), 2_000_000).order() == 1814400
    with pytest.raises(BudgetExceeded, match="^order 1814400 exceeds class budget 1000000$"):
        cli.load_group(str(path))
    assert cli.load_group("M11", 7920).order() == 7920
    with pytest.raises(BudgetExceeded, match="^order 7920 exceeds class budget 7919$"):
        cli.load_group("M11", 7919)



def _table_args(runner, tmp_path, edit, group="S4"):
    """`verify GROUP -p 2` arguments with a --table-g file that `indres table
    GROUP -o` wrote and `edit` (data -> data) changed."""
    path = tmp_path / "table.json"
    assert invoke(runner, "table", group, "-o", str(path)).exit_code == 0
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return ["verify", group, "-p", "2", "--table-g", str(path)]


def _zero_row(data):
    zero = {"modulus": data["exponent"], "terms": []}
    data["irreducibles"].append([zero] * len(data["classes"]))
    return data


def _short_row(data):
    # drop a trailing zero value, so row orthogonality alone still holds
    next(row for row in data["irreducibles"] if not row[-1]["terms"]).pop()
    return data


def _missing_row(data):
    data["irreducibles"].pop()
    return data


@pytest.mark.parametrize("edit", [_zero_row, _short_row, _missing_row],
                         ids=["extra-zero-row", "short-row", "missing-row"])
def test_non_square_table_exits_2(runner, tmp_path, edit):
    r = invoke(runner, *_table_args(runner, tmp_path, edit))
    _assert_one_line_error(r)
    assert r.stderr == "error: table over 5 classes is not square\n"


_NOT_THE_TABLE = "error: the stored table is not the group's character table\n"


def _plus_one_at_trivial_row(data):
    # S4's trivial row is integral, so the table stays Galois stable, but
    # the stored row is no row of S4's table
    v = data["irreducibles"][1][1]
    terms = dict(v["terms"])
    terms[0] = terms.get(0, 0) + 1
    v["terms"] = sorted(terms.items())
    return data


def test_tampered_table_exits_2(runner, tmp_path):
    r = invoke(runner, *_table_args(runner, tmp_path, _plus_one_at_trivial_row))
    assert (r.exit_code, r.stderr) == (2, _NOT_THE_TABLE)


def _huge_value_at_trivial_row(data):
    # an integral value of size 10^13 is no value of S4's table; a proof of
    # the stored table on its own would need a prime above 24 * 10^26
    data["irreducibles"][1][1]["terms"] = [[0, 10**13]]
    return data


def test_table_value_past_the_prime_bound_exits_2(runner, tmp_path):
    r = invoke(runner, *_table_args(runner, tmp_path, _huge_value_at_trivial_row))
    assert (r.exit_code, r.stderr) == (2, _NOT_THE_TABLE)


def _zero_at_modulus_5(data):
    # 5 does not divide S4's exponent 12
    next(v for row in data["irreducibles"] for v in row if not v["terms"])["modulus"] = 5
    return data


def _value_at_modulus_30030(data):
    # Z[zeta_30030] has degree 5760: building it would exhaust memory
    data["irreducibles"][1][1] = {"modulus": 30030, "terms": [[1, 1]]}
    return data


def _bare_int_value(data):
    data["irreducibles"][1][1] = 5
    return data


def _empty_class(data):
    data["classes"][1]["size"] = 0
    return data


def _power_map_target(target):
    def edit(data):
        data["classes"][1]["powermap"]["2"] = target
        return data
    return edit


def _repeated_exponent(data):
    # 5 + 1 would read as the value 1 if the later term replaced the earlier
    one = {"modulus": data["exponent"], "terms": [[0, 1]]}
    row = next(row for row in data["irreducibles"] if one in row[1:])
    row[row.index(one, 1)] = {**one, "terms": [[0, 5], [0, 1]]}
    return data


def _group_args(tmp_path, data):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(data))
    return ["verify", str(path), "-p", "2"]


def _witness_list_args(tmp_path):
    path = tmp_path / "witness.json"
    wit = json.loads((FIXTURES / "fixture_witness.json").read_text())
    path.write_text(json.dumps(list(wit.values())))
    return ["verify", str(FIXTURES / "fixture_group.json"), "-p", "2",
            "--subgroup-mode", "block:1", "--props", "irc,g",
            "--witness", str(path)]


def _witness_coeff_args(tmp_path, old, new):
    """`verify` of the fixture's property (G) with the first witness
    coefficient equal to `old` replaced by `new`."""
    path = tmp_path / "witness.json"
    wit = json.loads((FIXTURES / "fixture_witness.json").read_text())
    wit["coeffs"][wit["coeffs"].index(old)] = new
    path.write_text(json.dumps(wit))
    return ["verify", str(FIXTURES / "fixture_group.json"), "-p", "2",
            "--subgroup-mode", "block:1", "--props", "g", "--witness", str(path)]


S4_GENS = [[2, 1, 3, 4], [2, 3, 4, 1]]


def _size_three_float(data):
    next(c for c in data["classes"] if c["size"] == 3)["size"] = 3.0
    return data


def _explicit_c3_args(tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(json.dumps({"format": "perm-group", "degree": 4,
                                "generators": [[2, 3, 1, 4]]}))
    return ["verify", "S4", "-p", "2", "--subgroup-mode", f"explicit:{path}"]


_MODULUS = "a value's modulus does not divide the table exponent"


@pytest.mark.parametrize(
    "make_args, message",
    [
        (lambda r, t: _table_args(r, t, lambda d: list(d.values())),
         "malformed table data: "),
        (lambda r, t: _table_args(r, t, _bare_int_value),
         "malformed table data: "),
        (lambda r, t: _table_args(r, t, _empty_class),
         "the stored table is not the group's character table"),
        (lambda r, t: _table_args(r, t, _power_map_target(99)),
         "a power map names a class out of range"),
        # S4 has 5 classes: -5 would index class 0, the true square class
        (lambda r, t: _table_args(r, t, _power_map_target(-5)),
         "a power map names a class out of range"),
        (lambda r, t: _group_args(t, {"format": "perm-group", "degree": 3,
                                      "generators": 5}),
         "malformed group data: "),
        (lambda r, t: _group_args(t, [[2, 1, 3], [2, 3, 1]]),
         "group.json: not a perm-group file"),
        (lambda r, t: _group_args(t, {"format": "perm-group", "degree": 3,
                                      "generators": [[2, 1, 3]], "order": [2]}),
         "order must be a JSON integer, got [2]"),
        (lambda r, t: _group_args(t, {"format": "perm-group", "degree": 0,
                                      "generators": []}),
         f"group degree must be from 1 to {MAX_DEGREE}, got 0"),
        (lambda r, t: _group_args(t, {"format": "perm-group", "degree": -3,
                                      "generators": []}),
         f"group degree must be from 1 to {MAX_DEGREE}, got -3"),
        (lambda r, t: _witness_list_args(t),
         "malformed witness data: "),
        (lambda r, t: _explicit_c3_args(t), "explicit p-subgroup has order 3, not a power of 2"),
        (lambda r, t: _witness_coeff_args(t, -1, -1.4),
         "witness coefficient must be a JSON integer, got -1.4"),
        (lambda r, t: _witness_coeff_args(t, -1, True),
         "witness coefficient must be a JSON integer, got True"),
        (lambda r, t: _group_args(t, {"format": "perm-group", "degree": 4,
                                      "generators": S4_GENS, "order": 24.9}),
         "order must be a JSON integer, got 24.9"),
        (lambda r, t: _group_args(t, {"format": "perm-group", "degree": 4.7,
                                      "generators": S4_GENS}),
         "group degree must be a JSON integer, got 4.7"),
        (lambda r, t: _table_args(r, t, _size_three_float),
         "class size must be a JSON integer, got 3.0"),
        (lambda r, t: _table_args(r, t, _zero_at_modulus_5), _MODULUS),
        (lambda r, t: _table_args(r, t, lambda d: {**d, "exponent": 0}),
         "table exponent 0, not the group's 12"),
        (lambda r, t: _table_args(r, t, _value_at_modulus_30030, "S3"), _MODULUS),
        (lambda r, t: _table_args(r, t, lambda d: {**d, "exponent": 30030}, "S3"),
         "table exponent 30030, not the group's 6"),
        (lambda r, t: _table_args(r, t, lambda d: {**d, "order": "48"}),
         "table order 48, not the group's 24"),
        (lambda r, t: _table_args(r, t, _repeated_exponent), "a value repeats an exponent"),
        (lambda r, t: _table_args(r, t, lambda d: {**d, "order": "\u00b2"}),
         "table order must be a JSON integer, got '\u00b2'"),
        (lambda r, t: _group_args(t, {"format": "perm-group", "degree": 4,
                                      "generators": S4_GENS, "order": "\u00b2"}),
         "order must be a JSON integer, got '\u00b2'"),
    ],
    ids=["table-list", "table-bare-int", "table-empty-class",
         "table-power-map-99", "table-power-map-negative",
         "group-generators-int", "group-list", "group-order-list",
         "group-degree-0", "group-degree-negative",
         "witness-list", "explicit-p-subgroup-c3",
         "witness-float-coeff", "witness-bool-coeff", "group-order-float",
         "group-degree-float", "table-float-size", "table-value-modulus-5",
         "table-exponent-0", "table-value-modulus-30030", "table-exponent-30030",
         "table-order-48", "table-repeated-exponent", "table-order-superscript",
         "group-order-superscript"],
)
def test_wrong_json_shape_exits_2(runner, tmp_path, make_args, message, shared_groups):
    """Each file is refused with the message of its own fault; a wrong JSON
    shape is named by its kind of data, since the rest is Python's text."""
    r = invoke(runner, *make_args(runner, tmp_path))
    _assert_one_line_error(r)
    assert message in r.stderr


@pytest.mark.parametrize("kind", ["table", "group"])
def test_superscript_order_is_not_a_json_integer(runner, tmp_path, kind):
    """"\u00b2" is a digit to `str.isdigit` but no decimal to `int`."""
    if kind == "table":
        args = _table_args(runner, tmp_path, lambda d: {**d, "order": "\u00b2"})
    else:
        args = _group_args(tmp_path, {"format": "perm-group", "degree": 4,
                                      "generators": S4_GENS, "order": "\u00b2"})
    r = invoke(runner, *args)
    assert r.exit_code == 2
    assert r.stderr.endswith("order must be a JSON integer, got '\u00b2'\n")


def _long_generator_args(tmp_path):
    return _group_args(tmp_path, {"format": "perm-group", "degree": 3,
                                  "generators": [[2, 1, 3, 4]]})


def _p_outside_h_args(tmp_path):
    # P = <(1 2)> and H = <(1 2 3 4)> in S4
    P, H = tmp_path / "p.json", tmp_path / "h.json"
    P.write_text(json.dumps({"format": "perm-group", "degree": 4, "generators": [[2, 1, 3, 4]]}))
    H.write_text(json.dumps({"format": "perm-group", "degree": 4, "generators": [[2, 3, 4, 1]]}))
    return ["verify", "S4", "-p", "2", "--subgroup-mode", f"explicit:{P}",
            "--h-mode", f"explicit:{H}"]


def _class_function_witness_args(tmp_path):
    path = tmp_path / "witness.json"
    path.write_text(json.dumps({"format": "virtual-character", "space": "G", "p": 2,
                                "coeffs": [1, 0, 0, 0, 0]}))
    return ["verify", "S4", "-p", "2", "--props", "g", "--witness", str(path)]


@pytest.mark.parametrize(
    "make_args, message",
    [
        (lambda t: ["verify", "S4", "-p", "2", "--subgroup-mode", "bogus"],
         "unknown subgroup mode 'bogus'"),
        (lambda t: ["verify", "S4", "-p", "2", "--h-mode", "bogus"],
         "unknown overgroup mode 'bogus'"),
        (lambda t: ["oracle", "subgroup-lattice", "S4"], "subgroup-lattice needs -p"),
        (_long_generator_args, "generator degree exceeds the group degree"),
        # C1 names the trivial defect group; no cyclic group has order 0
        (lambda t: ["verify", "S4", "-p", "2", "--subgroup-mode", "block:C0"],
         "cannot parse group shape 'C0'"),
        (_p_outside_h_args, "the p-subgroup must lie in the overgroup"),
        (lambda t: ["verify", "S4", "-p", "2", "--props", "g"], "property g needs --witness"),
        (_class_function_witness_args, "witness file is not a product virtual character"),
    ],
    ids=["subgroup-mode-bogus", "h-mode-bogus", "subgroup-lattice-without-p",
         "generator-longer-than-degree", "block-shape-C0", "p-outside-h",
         "g-without-witness", "witness-not-a-product"],
)
def test_unknown_modes_and_bad_arguments_exit_2(runner, tmp_path, make_args, message):
    r = invoke(runner, *make_args(tmp_path))
    _assert_one_line_error(r)
    assert r.stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "module, name, value, args, message",
    [
        # Brauer's first main theorem gives every block with defect group P a
        # correspondent in H >= N_G(P), so only a broken search finds none
        (cli, "correspondent_of", lambda inst, b: None,
         ["--subgroup-mode", "block:0"], "the chosen block has no correspondent"),
        (correspondence, "degree_congruences_hold", lambda inst, w: False,
         ["--props", "irc"], "witness of irc breaks the degree congruences"),
    ],
    ids=["no-correspondent", "degree-congruences"],
)
def test_failed_proof_steps_exit_2(runner, monkeypatch, module, name, value, args, message):
    monkeypatch.setattr(module, name, value)
    r = invoke(runner, "verify", "S4", "-p", "2", *args)
    _assert_one_line_error(r)
    assert r.stderr == f"error: {message}\n"


_UNDECIDED = (f"cannot decide whether {MILLER_RABIN_BOUND} is prime: at or above "
              f"the Miller-Rabin bound {MILLER_RABIN_BOUND}")


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify", "S4", "-p", "1"], "-p must be a prime, got 1"),
        (["verify", "S4", "-p", "0"], "-p must be a prime, got 0"),
        (["blocks", "S4", "-p", "4"], "-p must be a prime, got 4"),
        (["verify", "S4", "-p", "4"], "-p must be a prime, got 4"),
        (["quotients", "S4", "-p", "6"], "-p must be a prime, got 6"),
        (["oracle", "subgroup-lattice", "S4", "-p", "4"], "-p must be a prime, got 4"),
        # the least composite that passes all 13 Miller-Rabin bases
        (["verify", "S4", "-p", str(MILLER_RABIN_BOUND)], _UNDECIDED),
    ],
    ids=["verify-1", "verify-0", "blocks-4", "verify-4", "quotients-6", "oracle-4",
         "verify-miller-rabin-bound"],
)
def test_non_prime_p_exits_2(runner, args, message):
    r = invoke(runner, *args)
    assert (r.exit_code, r.stderr) == (2, f"error: {message}\n")


@pytest.mark.parametrize(
    "args",
    [
        ["blocks", "S4", "-p", "7"],
        ["verify", "S4", "-p", "5"],
        ["quotients", "S4", "-p", "5"],
        # 2^61 - 1: a primitive-element scan over F_p would not finish
        ["blocks", "S4", "-p", "2305843009213693951"],
    ],
    ids=["blocks-7", "verify-5", "quotients-5", "blocks-mersenne-61"],
)
def test_prime_not_dividing_order_exits_2(runner, args):
    r = invoke(runner, *args)
    assert (r.exit_code, r.stderr) == (
        2, f"error: p = {args[-1]} does not divide the group order 24\n")


@pytest.mark.parametrize("token", ["C2xC", "C", "Cx", "\u00b2"])
def test_block_shape_without_an_order_exits_2(runner, token):
    r = invoke(runner, "verify", "S4", "-p", "2", "--subgroup-mode", f"block:{token}")
    assert (r.exit_code, r.stderr) == (2, f"error: cannot parse group shape {token!r}\n")


@pytest.mark.parametrize("group", ["S4", "Q8"])
def test_block_shape_of_the_same_order_and_exponent_exits_2(runner, group):
    """The one 2-block of S4 has defect group D8, and that of Q8 is Q8:
    each has the order and exponent of C2 x C4, but neither is abelian."""
    r = invoke(runner, "verify", group, "-p", "2", "--subgroup-mode", "block:C2xC4")
    assert (r.exit_code, r.stderr) == (
        2, "error: no block with defect group of shape C2xC4\n")


@pytest.mark.parametrize("token, matches", [
    ("C2xC4", True), ("C4xC2", True), ("C8", False), ("C2xC2xC2", False)])
def test_block_shape_names_its_abelian_group(token, matches):
    """C2 x C4 is its own one 2-block's defect group: both orders of its
    factors name it, and the other abelian groups of order 8 do not."""
    table = table_for(PermGroup(6, [(1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 5, 2)]))
    if matches:
        assert cli._pick_block(table, 2, token).index == 0
    else:
        with pytest.raises(ValueError, match="^no block with defect group of shape"):
            cli._pick_block(table, 2, token)


def test_pind_on_sl2_13_builds_one_table_per_maximal_subgroup(runner, monkeypatch):
    """`verify SL2_13 -p 2 --props pind` builds 15 tables: G, N_G(P) and
    the containment-maximal qualifying subgroups of the two sides."""
    orders = []
    build_table = correspondence.character_table
    monkeypatch.setattr(correspondence, "character_table",
                        lambda group: orders.append(group.order()) or build_table(group))
    r = invoke(runner, "verify", "SL2_13", "-p", "2", "--props", "pind")
    assert (r.exit_code, len(orders)) == (0, 15)


@pytest.mark.parametrize("h_block", [1, 2])
def test_witness_naming_a_non_correspondent_pair_exits_2(runner, tmp_path, h_block,
                                                         shared_groups):
    """G block 1 of the fixture corresponds to H block 0; a witness on G
    block 1 and another H block is about no pair that (G) speaks of."""
    wit = json.loads((FIXTURES / "fixture_witness.json").read_text())
    wit["coeffs"] = [0] * len(wit["coeffs"])
    wit["correspondent_chars"] = [h_block + 5 * t for t in range(5)]
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(wit))
    r = invoke(runner, "verify", str(FIXTURES / "fixture_group.json"), "-p", "2",
               "--subgroup-mode", "block:1", "--props", "g", "--witness", str(path))
    assert (r.exit_code, r.stderr) == (
        2, "error: witness correspondent_chars do not name the correspondent "
           "of the block_chars block\n")


_WITNESS = json.loads((FIXTURES / "fixture_witness.json").read_text())


@pytest.mark.parametrize(
    "witness",
    [None, "missing", {k: v for k, v in _WITNESS.items() if k != "coeffs"},
     {**_WITNESS, "format": "perm-group"}],
    ids=["no-witness", "missing-path", "no-coeffs", "wrong-format"])
def test_witness_is_read_before_the_group_is_built(runner, tmp_path, monkeypatch,
                                                    witness):
    built = []
    real = cli.build_instance
    monkeypatch.setattr(cli, "build_instance",
                        lambda spec, G: built.append(spec) or real(spec, G))
    args = ["verify", "M12", "-p", "2", "--props", "irc,g"]
    if witness is not None:
        path = tmp_path / "witness.json"
        if witness != "missing":
            path.write_text(json.dumps(witness))
        args += ["--witness", str(path)]
    _assert_one_line_error(runner.invoke(main, args))
    assert built == []


def _missing_key_args(runner, tmp_path, kind, key):
    """Arguments reading a group, table or witness file that lacks `key`."""
    def drop(data):
        where = {"powermap": lambda: data["classes"][0],
                 "terms": lambda: data["irreducibles"][0][0]}.get(key, lambda: data)
        del where()[key]
        return data

    if kind == "group":
        return _group_args(tmp_path, drop({"format": "perm-group", "degree": 4,
                                           "generators": S4_GENS}))
    if kind == "table":
        return _table_args(runner, tmp_path, drop)
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(drop(json.loads((FIXTURES / "fixture_witness.json")
                                               .read_text()))))
    return ["verify", str(FIXTURES / "fixture_group.json"), "-p", "2",
            "--subgroup-mode", "block:1", "--props", "g", "--witness", str(path)]


@pytest.mark.parametrize(
    "kind, key",
    [("group", "degree"), ("group", "generators"), ("table", "order"),
     ("table", "exponent"), ("table", "classes"), ("table", "irreducibles"),
     ("table", "powermap"), ("table", "terms"), ("witness", "coeffs")],
)
def test_missing_key_names_the_key(runner, tmp_path, kind, key, shared_groups):
    r = invoke(runner, *_missing_key_args(runner, tmp_path, kind, key))
    assert (r.exit_code, r.stderr) == (
        2, f"error: malformed {kind} data: missing key '{key}'\n")


def _perm_group_file(path, degree, gens):
    """Write a perm-group file of the given 1-based generators; return its path."""
    path.write_text(json.dumps({"format": "perm-group", "degree": degree,
                                "generators": gens}))
    return str(path)


def test_class_reconciliation_gives_up_at_its_step_bound(runner, tmp_path):
    """C2^6 has 64 classes of size 1 and order 2 but one, and values +-1.
    Switching two values in two rows and two columns keeps every row's and
    every column's multiset, so the search that would show no bijection
    matches could run for millions of steps; it stops at the bound."""
    G = reduce(product_group, [cyclic(2)] * 6)
    group = _perm_group_file(tmp_path / "c2_6.json", G.degree,
                             [[x + 1 for x in g] for g in G.generators])
    table = tmp_path / "table.json"
    assert invoke(runner, "table", group, "-o", str(table)).exit_code == 0
    data = json.loads(table.read_text())
    table.write_text(json.dumps(switch_values(data, value_switches(data)[0])))
    start = time.perf_counter()
    r = invoke(runner, "verify", group, "-p", "2", "--table-g", str(table))
    assert time.perf_counter() - start < 5
    assert (r.exit_code, r.stderr) == (2, "error: class reconciliation gave up after "
                                          f"{chartab._RECONCILE_STEPS} candidate checks\n")


def test_explicit_p_subgroup_outside_the_group_exits_2(runner, tmp_path):
    # <(1 2)> is a 2-group, but (1 2) is odd, so it is not inside A4
    path = _perm_group_file(tmp_path / "c2.json", 4, [[2, 1, 3, 4]])
    r = invoke(runner, "verify", "A4", "-p", "2", "--subgroup-mode", f"explicit:{path}")
    assert (r.exit_code, r.stderr) == (
        2, "error: explicit p-subgroup is not inside the group\n")


def test_explicit_overgroup_of_the_group_order_outside_it_exits_2(runner, tmp_path):
    # G = <(1 2 3), (1 2)(4 5)> and H = <(1 2 3), (1 2)> both have order 6
    # and contain the Sylow 3-subgroup <(1 2 3)>, but (1 2) is not in G
    g = _perm_group_file(tmp_path / "g.json", 5, [[2, 3, 1, 4, 5], [2, 1, 3, 5, 4]])
    h = _perm_group_file(tmp_path / "h.json", 5, [[2, 3, 1, 4, 5], [2, 1, 3, 4, 5]])
    r = invoke(runner, "verify", g, "-p", "3", "--h-mode", f"explicit:{h}")
    assert (r.exit_code, r.stderr) == (
        2, "error: explicit overgroup is not inside the group\n")


@pytest.mark.parametrize("degree", [3, 5])
@pytest.mark.parametrize("option, what", [("--subgroup-mode", "p-subgroup"),
                                          ("--h-mode", "overgroup")])
def test_explicit_subgroup_of_another_degree_exits_2(runner, tmp_path, degree,
                                                     option, what):
    # <(1 2)> written on 3 or on 5 points, for S4 on 4
    swap = [2, 1] + list(range(3, degree + 1))
    path = _perm_group_file(tmp_path / "c2.json", degree, [swap])
    r = invoke(runner, "verify", "S4", "-p", "2", option, f"explicit:{path}")
    assert (r.exit_code, r.stderr) == (
        2, f"error: {path}: explicit {what} has degree {degree}, "
           f"but the group has degree 4\n")


# S8 at p = 3 has two per-block pieces, D8xC3 at p = 2 three whose Q1 and
# Q2 differ; the digests pin the bytes of each report
@pytest.mark.parametrize("name, p, blocks, digest", [
    ("S8", 3, ["block 0: Q1 = Z^2, Q2 = Z^2", "block 1: Q1 = Z^2, Q2 = Z^2"],
     "7cdcba613624bb678ba257b94fdc8554c9509eb95fc4b68d572b468646bf639e"),
    ("D8xC3", 2, [f"block {i}: Q1 = Z^5, Q2 = Z^4" for i in range(3)],
     "aae10f6e21f1eb1eb7b5158328404e1221e2741de207c96e56ca4e8cd81d9644"),
])
def test_quotients_report_bytes(runner, tmp_path, name, p, blocks, digest):
    out = tmp_path / "q.json"
    r = invoke(runner, "quotients", name, "-p", str(p), "-o", str(out))
    assert r.exit_code == 0
    assert r.output.splitlines()[2:] == blocks
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# S9 and A9 at p = 2 build G-side lattices whose maxima have orbits of 945
# to 3780 conjugates, a scale that no suite and no benchmark workload
# reaches; the digests pin the bytes of each report
@pytest.mark.parametrize("name, digest", [
    ("S9", "e714a0259180be2ced1e0926fb76f9aebb3ff260d898ccc9e9b1b5282c650885"),
    ("A9", "ae2081c56637af34b5fe4062b4ea56c34168d817e8ca34f61c5df0c1745c5889"),
])
def test_verify_report_bytes_at_scale(runner, tmp_path, name, digest):
    out = tmp_path / "v.json"
    r = invoke(runner, "verify", name, "-p", "2", "-o", str(out))
    assert r.exit_code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name, p", [("S4", 2), ("S5", 2), ("M11", 3), ("SL2_11", 5)])
def test_block_index_token_picks_that_block(runner, name, p):
    tG = table_for(shared_group(name))
    blks = block_partition(tG, p)
    for i, b in enumerate(blks):
        assert b.index == i
        assert cli._pick_block(tG, p, str(i)) is b
    r = invoke(runner, "verify", name, "-p", str(p), "--subgroup-mode",
               f"block:{len(blks)}")
    assert (r.exit_code, r.stderr) == (2, f"error: no block with index {len(blks)}\n")


_PERM4 = st.permutations([1, 2, 3, 4])


def _is_even(images):
    inversions = sum(a > b for i, a in enumerate(images) for b in images[i + 1:])
    return inversions % 2 == 0


def _is_power_of(n, p):
    while n % p == 0:
        n //= p
    return n == 1


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(["S4", "A4"]), p=st.sampled_from([2, 3]),
       p_gens=st.lists(_PERM4, min_size=1, max_size=2),
       h_gens=st.lists(_PERM4, min_size=1, max_size=2))
def test_explicit_subgroups_fuzz_exit_codes(tmp_path_factory, name, p, p_gens, h_gens):
    """Random explicit P and H on S4 and A4 end in exit 0, 1 or 2, and a
    group not inside G always gets the `not inside the group` line."""
    where = tmp_path_factory.mktemp("fuzz")
    P = _perm_group_file(where / "p.json", 4, p_gens)
    H = _perm_group_file(where / "h.json", 4, h_gens)
    r = invoke(CliRunner(), "verify", name, "-p", str(p), "--subgroup-mode",
               f"explicit:{P}", "--h-mode", f"explicit:{H}")
    assert r.exit_code in (0, 1, 2)
    if r.exit_code == 2:
        _assert_one_line_error(r)
    inside = lambda gens: name == "S4" or all(map(_is_even, gens))
    p_order = PermGroup(4, [[x - 1 for x in g] for g in p_gens]).order()
    if not inside(p_gens):
        assert r.stderr == "error: explicit p-subgroup is not inside the group\n"
    elif not _is_power_of(p_order, p):
        assert r.stderr == (f"error: explicit p-subgroup has order {p_order}, "
                            f"not a power of {p}\n")
    elif not inside(h_gens):
        assert r.stderr == "error: explicit overgroup is not inside the group\n"


# The smallest witness case: S3 at p = 2, its principal block (characters 0
# and 1) and that of N_G(P) = C2; mu has 3 x 2 coefficients, of which the
# last two lie outside the block pair.
_S3_WITNESS = {"format": "virtual-character", "space": "product", "p": 2,
               "block_chars": [0, 1], "correspondent_chars": [0, 1]}
_HUGE = st.one_of(st.sampled_from([-10**30, 10**30]), st.integers(-10**30, 10**30))
_COEFF = st.one_of(st.integers(-2, 2), _HUGE)
_JUNK = st.one_of(st.floats(), st.booleans(), st.none(), st.text(max_size=2),
                  st.lists(st.integers(-2, 2), max_size=2))


def _exact_witness_verdict(coeffs):
    """Property (G) of the S3 witness with vanishing decided from exact
    cyclotomic values; None where the witness must exit 2."""
    inst, (b, e) = build_instance(JobSpec(group="S3", p=2, subgroup_mode="block:0"),
                                  shared_group("S3"))
    mu = VirtualCharacter(pair_table(inst), coeffs)

    def exact(chi, p):
        return all(value_at(chi, j).is_zero() for j in p_singular_classes(chi.table, p))

    with patch.object(correspondence, "vanishes_on_p_singular", exact):
        try:
            return check_property_G_with_witness(inst, b, e, mu)
        except ValueError:
            return None


@settings(max_examples=150, deadline=None)
@given(coeffs=st.one_of(
    # omega, and omega plus a multiple of (1 + sgn) x (the regular character
    # of C2), which vanishes on the 2-singular classes
    _HUGE.map(lambda t: [1 + t, t, t, 1 + t, 0, 0]),
    st.lists(_COEFF, min_size=4, max_size=4).map(lambda c: c + [0, 0]),
    st.lists(_COEFF, max_size=9),
    st.lists(st.one_of(_COEFF, _JUNK), min_size=6, max_size=6)))
def test_witness_fuzz_exit_codes(tmp_path_factory, coeffs):
    """Random S3 witnesses of any length, with non-integers and with
    coefficients up to 10^30, end in exit 0, 1 or 2 (one line, no
    traceback); a well-formed one exits with the verdict that the exact
    evaluator gives."""
    path = tmp_path_factory.mktemp("witness") / "w.json"
    path.write_text(json.dumps({**_S3_WITNESS, "coeffs": coeffs}))
    r = invoke(CliRunner(), "verify", "S3", "-p", "2", "--subgroup-mode", "block:0",
               "--props", "g", "--witness", str(path))
    assert r.exit_code in (0, 1, 2)
    if r.exit_code == 2:
        _assert_one_line_error(r)
    if len(coeffs) == 6 and all(type(c) is int for c in coeffs):
        expect = _exact_witness_verdict(coeffs)
        assert r.exit_code == {True: 0, False: 1, None: 2}[expect]
