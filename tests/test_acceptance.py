"""The shipped guarantees, one test per numbered criterion.

Every test prints one `ACCEPTANCE n: PASS/FAIL (...)` line; conftest lifts
the lines into the terminal summary so a log scan shows all verdicts.
Instances are cached at module level because later criteria quantify over
"every instance of criteria 1-4".  Groups come from `conftest.shared_group`,
so the rows and criteria that revisit a group share its derived data.
"""

import json
import time
from pathlib import Path

import conftest
from conftest import shared_group
from indres.blocks import block_partition, defect_group
from indres.catalog import REFERENCE_ROWS
from indres.chartab import character_table, table_from_json, table_to_json, verify_table
from indres.classfun import VirtualCharacter
from indres.cli import JobSpec, _pick_block, build_instance
from indres.correspondence import (
    block_splitting_holds,
    brauer_completeness_check,
    build_induced_lattice,
    check_property,
    check_property_G_with_witness,
    correspondent_of,
    degree_congruences_hold,
    make_instance,
    pair_table,
    quotients_q1_q2,
    table_for,
    theorem26_selftest,
)
from indres.groupcore import prime_factors
from indres.oracles import definition_lattice
from test_blocks import partitions_at_each_prime

ROOT = Path(__file__).resolve().parent.parent

_ROWS = {}
_FIXTURE = {}
_MATCHINGS = []


def _line(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    return ok


def _shape(q):
    return (q.free_rank, tuple(q.torsion))


def suite_row(row):
    """Evaluate one reference row, retaining the instance for later criteria."""
    key = (row["group"], row["p"], row["mode"])
    if key in _ROWS:
        return _ROWS[key]
    t0 = time.perf_counter()
    name, p = row["group"], row["p"]
    G = shared_group(name)
    if row["mode"] == "sylow":
        inst = make_instance(G, p, name=name)
        block_pair = None
    else:
        token = row["mode"].split(":", 1)[1]
        tG = table_for(G)
        b = _pick_block(tG, p, token)
        P = defect_group(tG, b, p)
        inst = make_instance(G, p, P=P, tG=tG, name=name)
        block_pair = (b, correspondent_of(inst, b))
    q1, q2, per_block = quotients_q1_q2(inst)
    if block_pair is not None:
        entry = next(pb for pb in per_block if pb[0] == block_pair[0].index)
        q1, q2 = entry[1], entry[2]
    verdict = check_property(inst, "irc", block_pair=block_pair)
    if verdict.witness:
        _MATCHINGS.append((key + ("irc",), inst, verdict.witness))
    ok = (
        _shape(q1) == row["q1"]
        and verdict.holds == row["irc"]
        and _shape(q2) == row["q2"]
    )
    if row["pieces"] is not None:
        got_pieces = (
            [_shape(a) for _, a, _ in per_block],
            [_shape(c) for _, _, c in per_block],
        )
        ok = ok and got_pieces == row["pieces"]
    out = {
        "row": row,
        "inst": inst,
        "block_pair": block_pair,
        "ok": ok,
        "got": (_shape(q1), verdict.holds, _shape(q2)),
        "seconds": time.perf_counter() - t0,
    }
    _ROWS[key] = out
    return out


def rows_for_criterion(n):
    small = [r for r in REFERENCE_ROWS if r["suite"] == "small"]
    if n == 1:
        return [r for r in small if r["table"] == 1]
    if n == 2:
        return [r for r in small if r["table"] == 3]
    if n == 3:
        return [
            r
            for r in small
            if r["table"] == 2
            and not (r["group"] == "M12" and r["p"] == 2 and r["mode"] == "sylow")
        ]
    raise ValueError(n)


def _run_table_criterion(n, limit_seconds):
    t0 = time.perf_counter()
    entries = [suite_row(r) for r in rows_for_criterion(n)]
    elapsed = time.perf_counter() - t0
    bad = [
        f"{e['row']['group']}/{e['row']['p']}[{e['row']['mode']}]"
        for e in entries
        if not e["ok"]
    ]
    ok = not bad and elapsed < limit_seconds
    detail = f"{len(entries)} rows, {elapsed:.1f}s of {limit_seconds:.0f}s"
    if bad:
        detail += f", mismatches: {bad}"
    assert _line(n, ok, detail), detail


def fixture_results():
    """Both fixture runs: the failing bijection and the passing witness."""
    if _FIXTURE:
        return _FIXTURE
    t0 = time.perf_counter()
    spec = JobSpec(
        group=str(ROOT / "fixtures" / "fixture_group.json"),
        p=2,
        subgroup_mode="block:1",
    )
    inst, block_pair = build_instance(spec, shared_group(spec.group))
    verdicts = {
        w: check_property(inst, w, block_pair=block_pair)
        for w in ("irc", "wirc", "pres", "pind")
    }
    for w, v in verdicts.items():
        if v.witness:
            _MATCHINGS.append((("fixture", 2, w), inst, v.witness))
    wit = json.loads((ROOT / "fixtures" / "fixture_witness.json").read_text())
    prod = pair_table(inst)
    mu = VirtualCharacter(prod, tuple(int(c) for c in wit["coeffs"]))
    b = next(
        bb
        for bb in block_partition(inst.tG, 2)
        if sorted(bb.char_indices) == sorted(wit["block_chars"])
    )
    e = next(
        ee
        for ee in block_partition(inst.tH, 2)
        if sorted(ee.char_indices) == sorted(wit["correspondent_chars"])
    )
    witness_ok = check_property_G_with_witness(inst, b, e, mu)
    _FIXTURE.update(
        inst=inst,
        block_pair=block_pair,
        verdicts=verdicts,
        witness_ok=witness_ok,
        seconds=time.perf_counter() - t0,
    )
    return _FIXTURE


def test_criterion_1_table_one_rows():
    _run_table_criterion(1, 300.0)


def test_criterion_2_table_three_rows():
    _run_table_criterion(2, 900.0)


def test_criterion_3_table_two_rows():
    _run_table_criterion(3, 1800.0)


def test_criterion_4_fixture_block():
    fx = fixture_results()
    checks = {
        "irc fails": fx["verdicts"]["irc"].holds is False,
        "wirc": fx["verdicts"]["wirc"].holds,
        "pres": fx["verdicts"]["pres"].holds,
        "pind": fx["verdicts"]["pind"].holds,
        "witness": fx["witness_ok"],
        "time": fx["seconds"] < 60.0,
    }
    ok = all(checks.values())
    detail = f"block irc fails + witness passes, {fx['seconds']:.1f}s of 60s"
    if not ok:
        detail += f", failed: {[k for k, v in checks.items() if not v]}"
    assert _line(4, ok, detail), detail


def test_criterion_5_universal_weak_properties():
    entries = [suite_row(r) for n in (1, 2, 3) for r in rows_for_criterion(n)]
    bad = []
    for e in entries:
        for w in ("pres", "pind", "wirc"):
            v = check_property(e["inst"], w, block_pair=e["block_pair"])
            if v.witness:
                _MATCHINGS.append(
                    ((e["row"]["group"], e["row"]["p"], w), e["inst"], v.witness)
                )
            if not v.holds:
                bad.append(f"{e['row']['group']}/{e['row']['p']}:{w}")
    fx = fixture_results()
    for w in ("pres", "pind", "wirc"):
        if not fx["verdicts"][w].holds:
            bad.append(f"fixture:{w}")
    ok = not bad
    detail = f"pres/pind/wirc on {len(entries) + 1} instances"
    if bad:
        detail += f", failures: {bad}"
    assert _line(5, ok, detail), detail


def test_criterion_6_theorem_checks():
    completeness = {
        name: brauer_completeness_check(shared_group(name))
        for name in ("S3", "S4", "A5", "Q8", "D8", "SL2_3")
    }
    entries = [suite_row(r) for n in (1, 2, 3) for r in rows_for_criterion(n)]
    instances = [(e["row"]["group"], e["inst"]) for e in entries]
    instances.append(("fixture", fixture_results()["inst"]))
    selftests = {}
    for label, inst in instances:
        selftests[label] = (
            theorem26_selftest(inst)
            and block_splitting_holds(inst, "G")
            and block_splitting_holds(inst, "H")
        )
    congruences = all(
        degree_congruences_hold(inst, witness)
        for _, inst, witness in _MATCHINGS
    )
    invariance = True
    for name in ("S4", "A5", "SL2_11"):
        t = table_for(shared_group(name))
        for p in prime_factors(t.group_order):
            base = {frozenset(b.char_indices) for b in block_partition(t, p)}
            if any(part != base for part in partitions_at_each_prime(t, p)):
                invariance = False
    parts = {
        "completeness": all(completeness.values()),
        "selftests": all(selftests.values()),
        "congruences": congruences and len(_MATCHINGS) > 0,
        "invariance": invariance,
    }
    ok = all(parts.values())
    detail = (
        f"completeness x{len(completeness)}, selftests x{len(selftests)}, "
        f"congruences x{len(_MATCHINGS)}, blocks at every prime above p x3"
    )
    if not ok:
        detail += f", failed: {[k for k, v in parts.items() if not v]}"
    assert _line(6, ok, detail), detail


ORACLE_INSTANCES = [
    ("S3", 2),
    ("S3", 3),
    ("S4", 2),
    ("S4", 3),
    ("A4", 2),
    ("A4", 3),
    ("A5", 2),
    ("D8", 2),
    ("Q8", 2),
    ("D12", 2),
    ("D12", 3),
    ("C2xC2", 2),
    ("SL2_3", 2),
    ("SL2_3", 3),
    ("D8xC3", 2),
    ("D8xC3", 3),
    ("C2xA4", 2),
    ("S3xS3", 2),
    ("S3xS3", 3),
]


def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()
    bad = []
    for name, p in ORACLE_INSTANCES:
        inst = make_instance(shared_group(name), p, name=name)
        for side in ("G", "H"):
            fast = build_induced_lattice(inst, side)
            slow = definition_lattice(inst, side)
            if fast.canonical() != slow.canonical():
                bad.append(f"{name}/{p}/{side}")
    elapsed = time.perf_counter() - t0
    groups = {name for name, _ in ORACLE_INSTANCES}
    ok = (
        not bad
        and elapsed < 600.0
        and len(groups) >= 10
        and {"S4", "D8xC3", "SL2_3", "C2xA4"} <= groups
        and all(shared_group(name).order() <= 200 for name in groups)
    )
    detail = (
        f"{len(ORACLE_INSTANCES)} instances over {len(groups)} groups, "
        f"{elapsed:.1f}s of 600s"
    )
    if bad:
        detail += f", disagreements: {bad}"
    assert _line(7, ok, detail), detail


TABLE_CORPUS = [
    "S3",
    "S4",
    "S5",
    "S6",
    "A4",
    "A5",
    "A6",
    "C2xC2",
    "D8",
    "D12",
    "Q8",
    "SL2_3",
    "SL2_5",
    "SL2_11",
    "D8xC3",
    "C2xA4",
    "S3xS3",
]


def test_criterion_8_table_layer():
    bad = []
    for name in TABLE_CORPUS:
        G = shared_group(name)
        assert G.order() <= 2000
        t = table_for(G)
        try:
            verify_table(t)
        except Exception:
            bad.append(f"{name}: orthogonality")
            continue
        if sum(d * d for d in t.degrees) != t.group_order:
            bad.append(f"{name}: degree sum")
            continue
        data = table_to_json(t)
        back = table_from_json(data, G)
        same = (
            back.degrees == t.degrees
            and back.exponent == t.exponent
            and back.group_order == t.group_order
            and all(
                back.irreducibles[i][j] == t.irreducibles[i][j]
                for i in range(t.k)
                for j in range(t.k)
            )
            and [(c.rep_order, c.size, c.power_map) for c in back.classes]
            == [(c.rep_order, c.size, c.power_map) for c in t.classes]
        )
        if not same:
            bad.append(f"{name}: round trip")
        if json.dumps(data, sort_keys=True) != json.dumps(
            table_to_json(back), sort_keys=True
        ):
            bad.append(f"{name}: reserialization")
    ok = not bad
    detail = f"{len(TABLE_CORPUS)} groups of order <= 2000"
    if bad:
        detail += f", failures: {bad}"
    assert _line(8, ok, detail), detail


def test_remaining_reference_row_m12_sylow():
    """The one published row outside criteria 1-3; keeps the reference
    suite covered end to end."""
    row = next(
        r
        for r in REFERENCE_ROWS
        if r["group"] == "M12" and r["p"] == 2 and r["mode"] == "sylow"
    )
    assert suite_row(row)["ok"]
