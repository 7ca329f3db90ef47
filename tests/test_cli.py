"""Command line behavior: exit codes, report stability, input validation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import indres
from conftest import shared_group
from indres import chartab, cli
from indres.catalog import build
from indres.cli import main
from indres.groupcore import MILLER_RABIN_BOUND, BudgetExceeded

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
    """A Dixon prime too large for int64 sums is refused up front."""
    monkeypatch.setattr(chartab, "_dixon_prime", lambda order, m, k: 3037000501)
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
    assert r.exit_code == 2


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
    data = json.loads(table_path.read_text())
    perm = [0, 3, 1, 4, 2]
    inv = [perm.index(j) for j in range(len(perm))]
    data["classes"] = [
        {**data["classes"][j],
         "powermap": {q: inv[i] for q, i in data["classes"][j]["powermap"].items()}}
        for j in perm
    ]
    data["irreducibles"] = [[row[j] for j in perm] for row in data["irreducibles"]]
    table_path.write_text(json.dumps(data))
    reports = []
    for i, extra in enumerate([[], ["--table-g", str(table_path)]]):
        out = tmp_path / f"report{i}.json"
        r = invoke(runner, "verify", "S4", "-p", "2", "-o", str(out), *extra)
        assert r.exit_code == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_oracle_subgroup_lattice(runner):
    r = invoke(runner, "oracle", "subgroup-lattice", "S3", "-p", "2")
    assert r.exit_code == 0
    assert "HNF equal" in r.output


def test_oracle_brute_classes(runner):
    r = invoke(runner, "oracle", "brute-classes", "Q8")
    assert r.exit_code == 0


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
    assert "block_chars" in r.stderr


NOT_A_PERMUTATION = {"format": "perm-group", "degree": 3, "generators": [[1, 1, 3]]}
# order 10! = 3628800, above the default class budget of 10^6
OVER_BUDGET_S10 = {"format": "perm-group", "degree": 10, "order": "3628800",
                   "generators": [[2, 3, 4, 5, 6, 7, 8, 9, 10, 1], [2, 1]]}
# one transposition on 33000 points: past what an int16 element row holds
OVER_DEGREE = {"format": "perm-group", "degree": 33000, "generators": [[2, 1]]}


@pytest.mark.parametrize(
    "args",
    [
        ["table", "GROUP"],
        ["blocks", "GROUP", "-p", "2"],
        ["quotients", "GROUP", "-p", "2"],
        ["verify", "GROUP", "-p", "2"],
        ["oracle", "brute-classes", "GROUP"],
    ],
    ids=["table", "blocks", "quotients", "verify", "oracle"],
)
def test_malformed_group_file_exits_2(runner, tmp_path, args):
    path = tmp_path / "bad.json"
    for group in (NOT_A_PERMUTATION, OVER_BUDGET_S10, OVER_DEGREE):
        path.write_text(json.dumps(group))
        r = invoke(runner, *(str(path) if a == "GROUP" else a for a in args))
        _assert_one_line_error(r)


def test_over_budget_group_is_refused_before_enumeration(tmp_path):
    path = tmp_path / "s10.json"
    path.write_text(json.dumps(OVER_BUDGET_S10))
    G = cli.load_group(str(path))
    with pytest.raises(BudgetExceeded, match="exceeds class budget"):
        cli.build_instance(cli.JobSpec(str(path), 2), G)
    assert not any(key[0] == "_element_matrix" for key in G._cache)



def _s4_table_args(runner, tmp_path, edit):
    """`verify S4` arguments with a --table-g file that `indres table S4 -o`
    wrote and `edit` (data -> data) changed."""
    path = tmp_path / "s4table.json"
    assert invoke(runner, "table", "S4", "-o", str(path)).exit_code == 0
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return ["verify", "S4", "-p", "2", "--table-g", str(path)]


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
    _assert_one_line_error(invoke(runner, *_s4_table_args(runner, tmp_path, edit)))


def _plus_one_at_trivial_row(data):
    # S4's trivial row is integral, so the table stays Galois stable; only
    # the orthogonality proof can catch the change
    v = data["irreducibles"][1][1]
    terms = dict(v["terms"])
    terms[0] = terms.get(0, 0) + 1
    v["terms"] = sorted(terms.items())
    return data


def test_tampered_table_exits_2(runner, tmp_path):
    r = invoke(runner, *_s4_table_args(runner, tmp_path, _plus_one_at_trivial_row))
    _assert_one_line_error(r)
    assert "row orthogonality fails" in r.stderr


def _huge_value_at_trivial_row(data):
    # an integral value of size 10^13 passes every check before the
    # orthogonality proof, whose prime must then exceed 24 * 10^26
    data["irreducibles"][1][1]["terms"] = [[0, 10**13]]
    return data


def test_table_value_past_the_prime_bound_exits_2(runner, tmp_path):
    r = invoke(runner, *_s4_table_args(runner, tmp_path, _huge_value_at_trivial_row))
    _assert_one_line_error(r)
    assert "Miller-Rabin bound" in r.stderr


def _zero_at_modulus_5(data):
    # 5 does not divide S4's exponent 12
    next(v for row in data["irreducibles"] for v in row if not v["terms"])["modulus"] = 5
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


@pytest.mark.parametrize(
    "make_args",
    [
        lambda r, t: _s4_table_args(r, t, lambda d: list(d.values())),
        lambda r, t: _s4_table_args(r, t, _bare_int_value),
        lambda r, t: _s4_table_args(r, t, _empty_class),
        lambda r, t: _s4_table_args(r, t, _power_map_target(99)),
        # S4 has 5 classes: -5 would index class 0, the true square class
        lambda r, t: _s4_table_args(r, t, _power_map_target(-5)),
        lambda r, t: _group_args(t, {"format": "perm-group", "degree": 3,
                                     "generators": 5}),
        lambda r, t: _group_args(t, [[2, 1, 3], [2, 3, 1]]),
        lambda r, t: _group_args(t, {"format": "perm-group", "degree": 3,
                                     "generators": [[2, 1, 3]], "order": [2]}),
        lambda r, t: _group_args(t, {"format": "perm-group", "degree": 0,
                                     "generators": []}),
        lambda r, t: _group_args(t, {"format": "perm-group", "degree": -3,
                                     "generators": []}),
        lambda r, t: _witness_list_args(t),
        lambda r, t: _explicit_c3_args(t),
        lambda r, t: _witness_coeff_args(t, -1, -1.4),
        lambda r, t: _witness_coeff_args(t, -1, True),
        lambda r, t: _group_args(t, {"format": "perm-group", "degree": 4,
                                     "generators": S4_GENS, "order": 24.9}),
        lambda r, t: _group_args(t, {"format": "perm-group", "degree": 4.7,
                                     "generators": S4_GENS}),
        lambda r, t: _s4_table_args(r, t, _size_three_float),
        lambda r, t: _s4_table_args(r, t, _zero_at_modulus_5),
        lambda r, t: _s4_table_args(r, t, lambda d: {**d, "exponent": 0}),
    ],
    ids=["table-list", "table-bare-int", "table-empty-class",
         "table-power-map-99", "table-power-map-negative",
         "group-generators-int", "group-list", "group-order-list",
         "group-degree-0", "group-degree-negative",
         "witness-list", "explicit-p-subgroup-c3",
         "witness-float-coeff", "witness-bool-coeff", "group-order-float",
         "group-degree-float", "table-float-size", "table-value-modulus-5",
         "table-exponent-0"],
)
def test_wrong_json_shape_exits_2(runner, tmp_path, make_args, shared_groups):
    _assert_one_line_error(invoke(runner, *make_args(runner, tmp_path)))


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


@pytest.mark.parametrize("token", ["C2xC", "C", "Cx"])
def test_block_shape_without_an_order_exits_2(runner, token):
    r = invoke(runner, "verify", "S4", "-p", "2", "--subgroup-mode", f"block:{token}")
    assert (r.exit_code, r.stderr) == (2, f"error: cannot parse group shape {token!r}\n")


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
        return _s4_table_args(runner, tmp_path, drop)
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
