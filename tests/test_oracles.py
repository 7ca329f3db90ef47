"""Brute-force reference paths must agree with the fast implementations."""

import pytest
from hypothesis import given, settings

from conftest import small_perm_groups
from indres.catalog import build, special_linear2
from indres.chartab import character_table
from indres.correspondence import build_induced_lattice, make_instance
from indres.groupcore import BudgetExceeded, _mul, prime_factors
from indres.oracles import (
    _linear_characters,
    all_subgroups,
    brute_character_table,
    brute_conjugacy_classes,
    compare_with_table,
    definition_lattice,
)


@pytest.mark.parametrize(
    "name,count",
    [
        ("S3", 6),
        ("C2xC2", 5),
        ("Q8", 6),
        ("A4", 10),
        ("S4", 30),
    ],
)
def test_all_subgroups_counts(name, count):
    G = build(name)
    subs = all_subgroups(G)
    assert len(subs) == count
    orders = [S.order() for S in subs]
    assert orders == sorted(orders)
    assert orders[0] == 1 and orders[-1] == G.order()
    assert all(G.order() % o == 0 for o in orders)


def test_all_subgroups_budget():
    with pytest.raises(BudgetExceeded):
        all_subgroups(build("SL2_11"), budget_order=200)


@pytest.mark.parametrize(
    "name,sizes",
    [
        ("Q8", [1, 1, 2, 2, 2]),
        ("S4", [1, 3, 6, 6, 8]),
        ("A4", [1, 3, 4, 4]),
    ],
)
def test_brute_classes_sizes(name, sizes):
    classes = brute_conjugacy_classes(build(name))
    assert sorted(len(c) for c in classes) == sorted(sizes)


def test_brute_classes_agree_with_fast():
    groups = [build(n) for n in ("S4", "Q8", "D12", "SL2_3", "A5")]
    for G in groups + [special_linear2(7)]:
        brute = {frozenset(c) for c in brute_conjugacy_classes(G)}
        ids = G.class_ids()
        fast = {}
        for row, cid in zip(G.elements(), ids):
            fast.setdefault(int(cid), set()).add(tuple(int(x) for x in row))
        assert brute == {frozenset(v) for v in fast.values()}


def test_brute_classes_budget():
    with pytest.raises(BudgetExceeded):
        brute_conjugacy_classes(build("S4"), budget_order=10)


@pytest.mark.parametrize(
    "name,count",
    [("S3", 2), ("Q8", 4), ("A4", 3), ("C2xC2", 4), ("SL2_3", 3)],
)
def test_linear_character_counts(name, count):
    G = build(name)
    t = character_table(G)
    m = t.exponent
    linears = _linear_characters(G, m)
    assert len(linears) == count
    ident = tuple(range(G.degree))
    elems = sorted(tuple(int(x) for x in row) for row in G.elements())
    for chi in linears:
        assert chi[ident].as_int() == 1
        # multiplicative on a sample of products
        for a in elems[:4]:
            for b in elems[-4:]:
                assert chi[_mul(a, b)] == chi[a] * chi[b]


@pytest.mark.parametrize("name", ["S3", "D8", "Q8", "A4"])
def test_brute_table_matches(name):
    G = build(name)
    assert compare_with_table(G, character_table(G))


def test_brute_table_standalone_shape():
    G = build("S3")
    classes, rows = brute_character_table(G)
    assert len(classes) == 3
    assert len(rows) == 3
    idclass = next(i for i, c in enumerate(classes) if len(c) == 1)
    degs = sorted(r[idclass].as_int() for r in rows)
    assert degs == [1, 1, 2]


@pytest.mark.parametrize("name,p", [("S3", 2), ("S4", 2), ("A4", 2), ("S4", 3)])
def test_definition_lattice_matches_fast_path(name, p):
    """The subgroup-enumeration reading of the induced lattice equals the
    qualifying-family construction, on both sides of the instance."""
    inst = make_instance(build(name), p, name=name)
    for side in ("G", "H"):
        fast = build_induced_lattice(inst, side)
        slow = definition_lattice(inst, side)
        assert fast.canonical() == slow.canonical()


# The oracles take about a second from order 24 on, so the draws stop at 16.
@given(small_perm_groups().filter(lambda G: G.order() <= 16))
@settings(max_examples=30, deadline=None)
def test_table_and_g_side_lattice_match_the_oracles_on_random_groups(G):
    """On random groups of order at most 16: the character table matches
    the brute-force table, and at every prime the G-side induced lattice
    matches its regeneration from the defining condition."""
    assert compare_with_table(G, character_table(G))
    for p in prime_factors(G.order()):
        inst = make_instance(G, p)
        assert build_induced_lattice(inst, "G").canonical() == (
            definition_lattice(inst, "G").canonical()), p


def test_definition_lattice_budget():
    inst = make_instance(build("S4"), 2, name="S4")
    with pytest.raises(BudgetExceeded):
        definition_lattice(inst, "G", budget_order=10)
