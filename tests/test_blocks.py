"""p-block partitions, defect groups, and the Brauer correspondence."""

import dataclasses
import json
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
    brauer_correspondent,
    defect_group,
    omega_values,
    some_defect_group_inside,
)
from indres.classfun import class_fusion
from indres.correspondence import (blocks_with_defect_group_P, correspondent_of,
                                   make_instance, table_for)
from indres.groupcore import (BudgetExceeded, _transporter_mask,
                              group_from_generators, p_prime_part,
                              prime_factors, sylow_subgroup, v_p)
from indres.oracles import brute_block_partition

from conftest import shared_group


def degrees_by_block(table, p):
    return sorted(
        (b.defect, sorted(table.degrees[i] for i in b.char_indices))
        for b in block_partition(table, p)
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


def residue_maps(m, p):
    """Z[zeta_m] -> F_p[x]/(f), one map for each prime above p.

    Independent of `ModularReduction`: sympy factors Phi_m' mod p into the
    f, and zeta_m goes to x^kappa, kappa the inverse of m/m' mod m'.
    """
    import sympy

    x = sympy.symbols("x")
    m_prime = p_prime_part(m, p)
    kappa = pow(m // m_prime, -1, m_prime)
    phi = sympy.Poly(sympy.cyclotomic_poly(m_prime, x), x, modulus=p)
    maps = []
    for f, _ in phi.factor_list()[1]:
        f = [int(c) % p for c in reversed(f.all_coeffs())]  # monic, constant first
        # x^e mod f for e < m', constant first: x * g = shifted g - lead * f
        images = [[1] + [0] * (len(f) - 2)]
        for _ in range(m_prime - 1):
            g = images[-1]
            images.append([(a - g[-1] * b) % p for a, b in zip([0] + g[:-1], f)])

        def image(v, images=images):
            acc = [0] * len(images[0])
            for e, c in v.terms.items():
                img = images[e * (m // v.modulus) * kappa % m_prime]
                acc = [a + c * b for a, b in zip(acc, img)]
            return tuple(a % p for a in acc)

        maps.append(image)
    return maps


def partitions_at_each_prime(table, p):
    """The block partition at each prime above p, one residue field apiece."""
    omegas = [omega_values(table, i) for i in range(table.k)]
    out = []
    for image in residue_maps(table.exponent, p):
        signature = {}
        for i, om in enumerate(omegas):
            signature.setdefault(tuple(map(image, om)), []).append(i)
        out.append({frozenset(c) for c in signature.values()})
    return out


# Every prime of each group; 14 of the 20 (group, p) have two or more
# primes above p.
BLOCK_CASES = [
    (name, p)
    for name, primes in [("S4", (2, 3)), ("A5", (2, 3, 5)), ("S5", (2, 3, 5)),
                         ("SL2_3", (2, 3)), ("SL2_7", (2, 3, 7)),
                         ("A6", (2, 3, 5)), ("M11", (2, 3, 5, 11))]
    for p in primes
]


def block_case_group(name):
    return special_linear2(7) if name == "SL2_7" else shared_group(name)


def test_block_cases_cover_every_prime_and_several_primes_above_p():
    several = 0
    for name in dict(BLOCK_CASES):
        t = table_for(block_case_group(name))
        assert [p for n, p in BLOCK_CASES if n == name] == prime_factors(t.group_order)
        several += sum(len(partitions_at_each_prime(t, p)) > 1
                       for n, p in BLOCK_CASES if n == name)
    assert several == 14


@pytest.mark.parametrize("name,p", BLOCK_CASES)
def test_partition_is_the_one_at_every_prime_above_p(name, p):
    t = table_for(block_case_group(name))
    base = {frozenset(b.char_indices) for b in block_partition(t, p)}
    per_prime = partitions_at_each_prime(t, p)
    assert per_prime and all(part == base for part in per_prime)


@pytest.mark.parametrize("name,p", BLOCK_CASES)
def test_defect_is_met_by_a_nonzero_class_at_every_prime_above_p(name, p):
    """At each prime, the least p-part of a centralizer over the classes
    where a block's central character is nonzero is p^defect (min-max)."""
    t = table_for(block_case_group(name))
    for image in residue_maps(t.exponent, p):
        for b in block_partition(t, p):
            omega = omega_values(t, b.char_indices[0])
            assert b.defect == min(
                v_p(c.centralizer_order, p)
                for c, v in zip(t.classes, omega) if any(image(v)))


@pytest.mark.parametrize("name,p", [("S5", 2), ("A6", 2), ("A6", 3), ("SL2_7", 2),
                                    ("SL2_7", 3), ("M11", 2), ("M11", 3)])
def test_correspondents_are_the_ones_at_every_prime_above_p(name, p):
    """Brauer's e^G, found at each prime apart, is the library's."""
    inst = make_instance(block_case_group(name), p, name=name)
    tG, tH = inst.tG, inst.tH
    blocksG = block_partition(tG, p)
    fused = class_fusion(tG, tH)
    red = ModularReduction(p, tG.exponent)
    for e in blocks_with_defect_group_P(inst, "H"):
        lam = omega_values(tH, e.char_indices[0])
        at_each = set()
        for image in residue_maps(tG.exponent, p):
            induced = [[0] * len(image(lam[0])) for _ in range(tG.k)]
            for j, v in enumerate(lam):
                induced[fused[j]] = [a + c for a, c in zip(induced[fused[j]], image(v))]
            induced = [tuple(a % p for a in acc) for acc in induced]
            at_each.add(tuple(
                b.char_indices for b in blocksG
                if list(map(image, omega_values(tG, b.char_indices[0]))) == induced))
        eG = brauer_correspondent(tH, e, tG, blocksG, red)
        assert at_each == {(eG.char_indices,) if eG else ()}


@pytest.mark.parametrize("name,p", BLOCK_CASES)
def test_partition_matches_the_block_oracle(name, p):
    t = table_for(block_case_group(name))
    assert ([b.char_indices for b in block_partition(t, p)]
            == brute_block_partition(t, p))


def test_block_oracle_budget():
    t = table_for(block_case_group("S4"))
    with pytest.raises(BudgetExceeded, match="block oracle"):
        brute_block_partition(t, 2, budget_classes=4)


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
    assert built == [(2, t.exponent), (3, t.exponent)]


# Every block as (row indices, central character), each image in
# F_p[x]/(Phi_m') read as the base-p number of its coefficients, constant
# term lowest.
CENTRAL_CHARACTERS = {
    ("S5", 2): [((0, 1, 4, 5, 6), (1, 0, 1, 0, 0, 0, 0)),
                ((2, 3), (1, 1, 0, 1, 0, 0, 1))],
    ("S5", 3): [((0, 3, 5), (1, 2, 0, 2, 0, 0, 1)),
                ((1, 2, 4), (1, 1, 0, 2, 0, 0, 2)),
                ((6,), (1, 0, 1, 0, 0, 1, 0))],
    ("SL2_3", 2): [((0, 1, 2, 3, 4, 5, 6), (1, 1, 0, 0, 0, 0, 0))],
    ("SL2_3", 3): [((0, 1, 2), (1, 1, 1, 1, 0, 1, 1)),
                   ((3, 4, 5), (1, 2, 1, 1, 0, 2, 2)),
                   ((6,), (1, 1, 0, 0, 1, 0, 0))],
    ("A5", 3): [((0, 3, 4), (1, 0, 2, 0, 0)),
                ((1,), (1, 1, 0, 45, 64)),
                ((2,), (1, 1, 0, 64, 45))],
}


@pytest.mark.parametrize("name,p,call", [(name, p, call)
                                          for name, p in CENTRAL_CHARACTERS
                                          for call in (0, 1)])
def test_central_characters_frozen(name, p, call):
    """Call 0 builds the reduction; call 1 reuses the one kept on the table."""
    t = character_table(build(name))
    for _ in range(call + 1):
        partition = block_partition(t, p)
    got = [
        (b.char_indices,
         tuple(sum(c * p**i for i, c in enumerate(x)) for x in b.central_character))
        for b in partition
    ]
    assert got == CENTRAL_CHARACTERS[name, p]


# (p, m) with m' > 1; Phi_m' mod p is irreducible or has 2 factors
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
    """Products agree with multiplication in F_p[x]/(Phi_m'), done by sympy."""
    import sympy

    red, (a, b) = case
    p, d = red.p, red.d
    x = sympy.symbols("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(red.m_prime, x), x, modulus=p)
    assert phi.degree() == d

    def poly(image):
        return sympy.Poly(list(reversed(image)), x, modulus=p)

    product = (poly(red.reduce(a)) * poly(red.reduce(b))).rem(phi)
    coeffs = [int(c) % p for c in reversed(product.all_coeffs())]
    assert red.reduce(a * b) == tuple(coeffs + [0] * (d - len(coeffs)))
    assert red.reduce(a + b) == tuple(
        (u + v) % p for u, v in zip(red.reduce(a), red.reduce(b)))
    one = (1,) + (0,) * (d - 1)
    assert red.reduce(Cyclotomic.from_int(red.m, 1)) == one
    # a root of unity of p-power order maps to 1
    assert red.reduce(Cyclotomic.zeta(red.m, red.m_prime)) == one
