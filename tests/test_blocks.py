"""p-block partitions, defect groups, and the Brauer correspondence."""

import dataclasses
import json
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indres import blocks
from indres.catalog import build, special_linear2
from indres.chartab import Cyclotomic, IntegrityError, character_table
from indres.blocks import (
    Block,
    ModularReduction,
    block_partition,
    defect_group,
    _least_irreducible,
    omega_values,
    some_defect_group_inside,
)
from indres.correspondence import correspondent_of, make_instance, table_for
from indres.groupcore import (_transporter_mask, group_from_generators,
                              prime_factors, sylow_subgroup, v_p)


def degrees_by_block(table, p, **kw):
    return sorted(
        (b.defect, sorted(table.degrees[i] for i in b.char_indices))
        for b in block_partition(table, p, **kw)
    )


def test_s4_single_2_block():
    t = character_table(build("S4"))
    blocks = block_partition(t, 2)
    assert len(blocks) == 1
    assert blocks[0].defect == 3
    assert blocks[0].principal
    assert sorted(blocks[0].char_indices) == [0, 1, 2, 3, 4]


def test_s5_2_blocks_frozen():
    t = character_table(build("S5"))
    assert degrees_by_block(t, 2) == [
        (1, [4, 4]),
        (3, [1, 1, 5, 5, 6]),
    ]


def test_a5_2_blocks_frozen():
    t = character_table(build("A5"))
    assert degrees_by_block(t, 2) == [
        (0, [4]),
        (2, [1, 3, 3, 5]),
    ]


def test_sl2_3_at_3_frozen():
    t = character_table(build("SL2_3"))
    assert degrees_by_block(t, 3) == [
        (0, [3]),
        (1, [1, 1, 1]),
        (1, [2, 2, 2]),
    ]


def test_exactly_one_principal_block():
    for name, p in [("S4", 2), ("S5", 2), ("A5", 2), ("SL2_3", 3), ("S4", 3)]:
        blocks = block_partition(character_table(build(name)), p)
        assert sum(1 for b in blocks if b.principal) == 1


def test_blocks_partition_the_rows():
    t = character_table(build("S6"))
    for p in (2, 3, 5):
        blocks = block_partition(t, p)
        seen = sorted(i for b in blocks for i in b.char_indices)
        assert seen == list(range(t.k))


def test_defect_formula():
    # block defect is max over its rows of v_p(|G|) - v_p(deg)
    for name, p in [("S5", 2), ("S6", 3), ("A5", 2), ("SL2_3", 2)]:
        t = character_table(build(name))
        a = v_p(t.group_order, p)
        for b in block_partition(t, p):
            assert b.defect == max(
                a - v_p(t.degrees[i], p) for i in b.char_indices
            )


def test_defect_zero_blocks_are_singletons():
    t = character_table(build("A5"))
    for b in block_partition(t, 2):
        if b.defect == 0:
            assert len(b.char_indices) == 1


def test_height_zero_rows():
    t = character_table(build("S4"))
    b = block_partition(t, 2)[0]
    assert sorted(b.height_zero(t, 2)) == [0, 1, 3, 4]
    assert sorted(t.degrees[i] for i in b.height_zero(t, 2)) == [1, 1, 3, 3]


def test_defect_group_orders():
    G = build("S5")
    t = character_table(G)
    orders = sorted(
        defect_group(t, b, 2).order() for b in block_partition(t, 2)
    )
    assert orders == [2, 8]


def test_defect_group_rejects_wrong_defect():
    t = character_table(build("A5"))
    b = next(b for b in block_partition(t, 2) if b.principal)
    # the memo keys by the block's value: a block equal to the cached one
    # but for its defect must not be served the cached group
    assert defect_group(t, b, 2).order() == 4
    with pytest.raises(IntegrityError):
        defect_group(t, dataclasses.replace(b, defect=b.defect - 1), 2)


def test_principal_defect_group_is_sylow():
    for name, p in [("S4", 2), ("A5", 2), ("SL2_3", 3)]:
        G = build(name)
        t = character_table(G)
        principal = next(b for b in block_partition(t, p) if b.principal)
        D = defect_group(t, principal, p)
        P = sylow_subgroup(G, p)
        assert D.order() == P.order()


def test_some_defect_group_inside():
    G = build("S5")
    t = character_table(G)
    P = sylow_subgroup(G, 2)
    for b in block_partition(t, 2):
        # a Sylow subgroup contains a conjugate of every defect group
        assert some_defect_group_inside(t, b, 2, P)
    # a proper subgroup of order 2 cannot hold the defect-3 block's group
    C2 = next(
        S for S in [G.subgroup([g]) for g in sylow_subgroup(G, 2).generators]
        if S.order() == 2
    )
    big = next(b for b in block_partition(t, 2) if b.defect == 3)
    assert not some_defect_group_inside(t, big, 2, C2)


def test_omega_values_are_algebraic_integers():
    """Central character values lie in the cyclotomic integers: the scaled
    division inside omega_values only succeeds when they do."""
    t = character_table(build("A5"))
    for i in range(t.k):
        vals = omega_values(t, i)
        assert len(vals) == t.k
        assert vals[0].as_int() == 1


@pytest.mark.parametrize(
    "name,p,alternatives",
    [("S4", 2, (1,)), ("A5", 2, (1, 2)), ("SL2_3", 3, (1,))],
)
def test_partition_invariant_under_reduction_choice(name, p, alternatives):
    """Different splitting-field embeddings give the same block partition.

    How many embeddings exist depends on the p-regular exponent, so each
    case lists the nonzero alternatives it actually has.
    """
    t = character_table(build(name))
    base = {frozenset(b.char_indices) for b in block_partition(t, p)}
    for alternative in alternatives:
        other = {
            frozenset(b.char_indices)
            for b in block_partition(t, p, alternative=alternative)
        }
        assert other == base


def test_brauer_correspondent_a5():
    inst = make_instance(build("A5"), 2, name="A5")
    blocks = block_partition(inst.tG, 2)
    principal = next(b for b in blocks if b.principal)
    e = correspondent_of(inst, principal)
    assert e is not None
    assert e.principal
    assert e.defect == 2
    # the defect-zero block has no correspondent with defect group P
    small = next(b for b in blocks if b.defect == 0)
    assert correspondent_of(inst, small) is None


def test_brauer_correspondent_preserves_defect():
    for name, p in [("S4", 2), ("S5", 2), ("M11", 3)]:
        inst = make_instance(build(name), p, name=name)
        for b in block_partition(inst.tG, p):
            e = correspondent_of(inst, b)
            if e is not None:
                assert e.defect == b.defect == v_p(inst.P.order(), p)


DEFECT_GROUPS = {
    "S4": lambda: build("S4"),
    "A5": lambda: build("A5"),
    "SL2_7": lambda: special_linear2(7),
    "M11": lambda: build("M11"),
    "fixture": lambda: group_from_generators(json.loads(
        (Path(__file__).resolve().parent.parent / "fixtures"
         / "fixture_group.json").read_text())),
}


@pytest.mark.parametrize("name", list(DEFECT_GROUPS))
def test_first_hit_defect_search_matches_full_mask(name):
    t = table_for(DEFECT_GROUPS[name]())
    G = t.group
    for p in prime_factors(G.order()):
        S = sylow_subgroup(G, p)
        # the Sylow subgroup holds every defect group; a cyclic subgroup of
        # it misses the larger ones
        for P in (S, G.subgroup(S.generators[:1])):
            for b in block_partition(t, p):
                D = defect_group(t, b, p)
                full = bool(_transporter_mask(G, D, P).any())
                assert some_defect_group_inside(t, b, p, P) == full


def test_one_reduction_per_table_and_prime(monkeypatch):
    built = []

    class Counting(ModularReduction):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(blocks, "ModularReduction", Counting)
    t = character_table(build("S4"))
    for _ in range(3):
        block_partition(t, 2)
        block_partition(t, 3)
    block_partition(t, 2, alternative=0)
    assert built == [(2, t.exponent, 0), (3, t.exponent, 0)]


# Every block as (row indices, central character read through
# FpField.encode).  The values depend on the ideal the reduction picks (the
# least irreducible polynomial and the alternative-th least root image), so
# they pin it.  At A5, p = 3 the two alternatives swap two defect-zero blocks.
CENTRAL_CHARACTERS = {
    ("S5", 2, 0): [((0, 1, 4, 5, 6), (1, 0, 1, 0, 0, 0, 0)),
                   ((2, 3), (1, 1, 0, 1, 0, 0, 1))],
    ("S5", 2, 1): [((0, 1, 4, 5, 6), (1, 0, 1, 0, 0, 0, 0)),
                   ((2, 3), (1, 1, 0, 1, 0, 0, 1))],
    ("S5", 3, 0): [((0, 3, 5), (1, 2, 0, 2, 0, 0, 1)),
                   ((1, 2, 4), (1, 1, 0, 2, 0, 0, 2)),
                   ((6,), (1, 0, 1, 0, 0, 1, 0))],
    ("S5", 3, 1): [((0, 3, 5), (1, 2, 0, 2, 0, 0, 1)),
                   ((1, 2, 4), (1, 1, 0, 2, 0, 0, 2)),
                   ((6,), (1, 0, 1, 0, 0, 1, 0))],
    ("SL2_3", 2, 0): [((0, 1, 2, 3, 4, 5, 6), (1, 1, 0, 0, 0, 0, 0))],
    ("SL2_3", 2, 1): [((0, 1, 2, 3, 4, 5, 6), (1, 1, 0, 0, 0, 0, 0))],
    ("SL2_3", 3, 0): [((0, 1, 2), (1, 1, 1, 1, 0, 1, 1)),
                      ((3, 4, 5), (1, 2, 1, 1, 0, 2, 2)),
                      ((6,), (1, 1, 0, 0, 1, 0, 0))],
    ("SL2_3", 3, 1): [((0, 1, 2), (1, 1, 1, 1, 0, 1, 1)),
                      ((3, 4, 5), (1, 2, 1, 1, 0, 2, 2)),
                      ((6,), (1, 1, 0, 0, 1, 0, 0))],
    ("A5", 3, 0): [((0, 3, 4), (1, 0, 2, 0, 0)),
                   ((1,), (1, 1, 0, 77, 44)),
                   ((2,), (1, 1, 0, 44, 77))],
    ("A5", 3, 1): [((0, 3, 4), (1, 0, 2, 0, 0)),
                   ((1,), (1, 1, 0, 44, 77)),
                   ((2,), (1, 1, 0, 77, 44))],
}


@pytest.mark.parametrize("name,p,alternative", list(CENTRAL_CHARACTERS))
def test_central_characters_frozen(name, p, alternative):
    t = character_table(build(name))
    F = ModularReduction(p, t.exponent, alternative).field
    got = [
        (b.char_indices, tuple(F.encode(x) for x in b.central_character))
        for b in block_partition(t, p, alternative=alternative)
    ]
    assert got == CENTRAL_CHARACTERS[name, p, alternative]


# (p, m) with m' > 1 and fields of degree 1 to 4
REDUCTIONS = {
    (p, m): ModularReduction(p, m)
    for p, m in [(2, 20), (2, 12), (3, 24), (3, 20), (5, 12), (5, 60)]
}


@st.composite
def reduction_and_values(draw):
    p, m = draw(st.sampled_from(sorted(REDUCTIONS)))
    values = []
    for _ in range(2):
        terms = draw(st.lists(
            st.tuples(st.integers(0, m - 1), st.integers(-7, 7)), max_size=5))
        value = Cyclotomic(m)
        for e, c in terms:
            value = value + Cyclotomic.zeta(m, e, c)
        values.append(value)
    return REDUCTIONS[p, m], values


@given(reduction_and_values())
@settings(max_examples=150, deadline=None)
def test_reduce_is_a_ring_homomorphism(case):
    red, (a, b) = case
    F = red.field
    assert red.reduce(a * b) == F.mul(red.reduce(a), red.reduce(b))
    assert red.reduce(a + b) == tuple(
        (x + y) % red.p for x, y in zip(red.reduce(a), red.reduce(b)))
    assert red.reduce(Cyclotomic.from_int(red.m, 1)) == F.one


@pytest.mark.parametrize("p,m,q", [(2, 20, 16), (3, 24, 9)])
def test_root_image_is_the_ith_least_element_of_order_m_prime(p, m, q):
    red = ModularReduction(p, m)
    F = red.field
    assert p**F.d == q

    def order(x):
        n, y = 1, x
        while y != F.one:
            y, n = F.mul(y, x), n + 1
        return n

    m_prime = red.m_prime
    of_order = [enc for enc in range(1, q) if order(F.decode(enc)) == m_prime]
    assert len(of_order) == sum(gcd(k, m_prime) == 1 for k in range(m_prime))
    for i, enc in enumerate(of_order):
        assert F.encode(ModularReduction(p, m, i).rho_powers[1]) == enc
    with pytest.raises(ValueError):
        ModularReduction(p, m, len(of_order))


@pytest.mark.parametrize("p,top", [(2, 12), (3, 7), (5, 5), (7, 4), (11, 3), (13, 3)])
def test_least_irreducible_matches_sympy(p, top):
    # sympy is an independent reference, used by the tests only
    import sympy

    x = sympy.symbols("x")

    def irreducible(digits):
        return sympy.Poly([1] + digits[::-1], x, modulus=p).is_irreducible

    for d in range(1, top + 1):
        got = _least_irreducible(p, d)
        assert len(got) == d and irreducible(got), (p, d)
        # every smaller encoding of the non-leading coefficients is reducible
        enc = sum(c * p**i for i, c in enumerate(got))
        assert not any(irreducible([e // p**i % p for i in range(d)]) for e in range(enc))


def test_reduction_factors_only_m_prime(monkeypatch):
    # the root of unity comes from the factors of m' = 101, never from
    # those of 2^100 - 1
    seen = []

    def recording(n):
        seen.append(n)
        return prime_factors(n)

    monkeypatch.setattr(blocks, "prime_factors", recording)
    red = ModularReduction(2, 101)
    assert red.d == 100 and max(seen) == 101
    rho = red.rho_powers[1]
    assert rho != red.field.one and red.field.pow(rho, 101) == red.field.one
