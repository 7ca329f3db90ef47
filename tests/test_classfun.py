"""Virtual characters: induction, restriction, fusion, products, counts."""

import gc
import random
import weakref
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import sympy

from indres.blocks import block_partition, defect_group
from indres.catalog import build, perm_from_cycles, special_linear2
from indres.chartab import (
    Cyclotomic,
    IntegrityError,
    _dixon_prime,
    _shadow,
    character_table,
    inner_product,
)
from indres.classfun import (
    VirtualCharacter,
    class_fusion,
    from_values,
    induce,
    inner,
    irr,
    ml_counts,
    outer_product,
    p_singular_classes,
    product_table,
    regular,
    restrict,
    restriction_matrix,
    trivial,
    trivial_index,
    vanishes_on,
)
from indres.correspondence import (
    make_instance,
    pair_table,
    product_induced_lattice,
    table_for,
)
from indres.groupcore import (
    centralizer,
    normalizer,
    p_prime_part,
    prime_factors,
    product_group,
    qualifying_elementary_subgroups,
    sylow_subgroup,
    _perm_power,
)


@pytest.fixture(scope="module")
def s4():
    return character_table(build("S4"))


@pytest.fixture(scope="module")
def s4_s3():
    """S4 with the point stabilizer of 4, a copy of S3."""
    G = build("S4")
    sub = G.subgroup(
        [perm_from_cycles([(1, 2)], 4), perm_from_cycles([(1, 2, 3)], 4)]
    )
    return character_table(G), character_table(sub)


coeffs5 = st.lists(
    st.integers(min_value=-4, max_value=4), min_size=5, max_size=5
)


@given(coeffs5, coeffs5)
def test_inner_product_is_bilinear_symmetric(a, b):
    t = character_table(build("S4"))
    va, vb = VirtualCharacter(t, a), VirtualCharacter(t, b)
    assert inner(va, vb) == inner(vb, va)
    assert inner(va + vb, vb) == inner(va, vb) + inner(vb, vb)
    assert inner(va, va) == sum(x * x for x in a)


def test_trivial_and_regular(s4):
    one = trivial(s4)
    assert one.degree() == 1
    assert all(v.as_int() == 1 for v in one.values())
    reg = regular(s4)
    assert list(reg.coeffs) == s4.degrees
    vals = reg.values()
    assert vals[0].as_int() == s4.group_order
    assert all(v.is_zero() for v in vals[1:])


def test_from_values_round_trip(s4):
    chi = irr(s4, 3) + 2 * irr(s4, 0)
    assert from_values(s4, chi.values()) == chi


def test_from_values_rejects_non_member(s4):
    vals = trivial(s4).values()
    vals[1] = vals[1] + 1
    with pytest.raises(ValueError):
        from_values(s4, vals)


def test_frobenius_reciprocity(s4_s3):
    big, small = s4_s3
    for i in range(big.k):
        for j in range(small.k):
            chi, phi = irr(big, i), irr(small, j)
            assert inner(induce(phi, big), chi) == inner(phi, restrict(chi, small))


def test_induced_degree(s4_s3):
    big, small = s4_s3
    index = big.group_order // small.group_order
    for j in range(small.k):
        assert induce(irr(small, j), big).degree() == index * small.degrees[j]


def test_induction_in_stages(s4_s3):
    big, small = s4_s3
    C2 = small.group.subgroup([perm_from_cycles([(1, 2)], 4)])
    tc = character_table(C2)
    for j in range(tc.k):
        phi = irr(tc, j)
        direct = induce(phi, big)
        staged = induce(induce(phi, small), big)
        assert direct == staged


def test_restriction_matrix_consistency(s4_s3):
    big, small = s4_s3
    M = restriction_matrix(big, small)
    for i in range(big.k):
        assert restrict(irr(big, i), small).coeffs == tuple(M[i])


def _exact_restriction(big, small):
    """Reference: R_ij as exact inner products in Z[zeta] of fused values."""
    fused = class_fusion(big, small)
    return [
        [
            inner_product(small, [row[f] for f in fused], psi).as_int()
            for psi in small.irreducibles
        ]
        for row in big.irreducibles
    ]


@pytest.mark.parametrize(
    "group,p",
    [(build("S4"), 2), (build("A5"), 2), (build("C2xA4"), 3), (special_linear2(7), 2)],
    ids=["S4-2", "A5-2", "C2xA4-3", "SL2_7-2"],
)
def test_restriction_matrix_matches_exact_reference(group, p):
    # every (big, small) pair the induced lattices meet on both sides
    inst = make_instance(group, p)
    pairs = [(inst.tG, inst.tH)]
    for table in (inst.tG, inst.tH):
        subs = qualifying_elementary_subgroups(table.group, inst.p, inst.s_maxima)
        pairs += [(table, table_for(E)) for E in subs]
    assert len(pairs) > 1
    for big, small in pairs:
        assert restriction_matrix(big, small) == _exact_restriction(big, small)


def test_restriction_matrix_rejects_swapped_rows(s4_s3):
    big, _ = s4_s3
    G = build("S4")
    small = character_table(
        G.subgroup([perm_from_cycles([(1, 2)], 4), perm_from_cycles([(1, 2, 3)], 4)])
    )
    rows = small.irreducibles
    assert small.degrees[1] != small.degrees[2]
    rows[1], rows[2] = rows[2], rows[1]  # degrees left as they were
    with pytest.raises(IntegrityError):
        restriction_matrix(big, small)


def test_class_fusion_s3_in_s4(s4_s3):
    big, small = s4_s3
    fusion = class_fusion(big, small)
    assert len(fusion) == small.k
    # identity goes to identity; a transposition lands in the size-6 class
    assert fusion[0] == 0
    transp = next(
        j for j in range(small.k) if small.classes[j].rep_order == 2
    )
    target = fusion[transp]
    assert big.classes[target].rep_order == 2
    assert big.classes[target].size == 6


def test_pointwise_products_decompose_with_nonnegative_coeffs(s4):
    for i in range(s4.k):
        for j in range(s4.k):
            a, b = irr(s4, i), irr(s4, j)
            prod = from_values(s4, [x * y.rebase(x.modulus)
                                    for x, y in zip(a.values(), b.values())])
            assert all(c >= 0 for c in prod.coeffs)
            assert prod.degree() == s4.degrees[i] * s4.degrees[j]


def test_conjugate_swaps_inverse_values(s4):
    for i in range(s4.k):
        chi = irr(s4, i)
        bar = chi.conjugate()
        for j in range(s4.k):
            assert bar.value_at(j) == chi.value_at(j).conjugate()


def test_p_prime_part():
    assert p_prime_part(48, 2) == 3
    assert p_prime_part(45, 3) == 5
    assert p_prime_part(7, 7) == 1


def test_ml_counts_frozen(s4):
    # degrees 1,1,2,3,3: at p=3 the 3-regular degrees 1,1,2 all lie in
    # the residue class +-1, at p=2 the four odd degrees do
    assert ml_counts(s4, 3) == {1: 3}
    assert ml_counts(s4, 2) == {1: 4}


def test_ml_counts_folding():
    t = character_table(build("A5"))
    # degrees 1,3,3,4,5 at p=5: coprime degrees 1,3,3,4 give residues
    # 1,3,3,4 and the fold min(l, 5-l) sends them to l=1 (1,4) and l=2 (3,3)
    assert ml_counts(t, 5) == {1: 2, 2: 2}


def test_p_singular_and_vanishing():
    t = character_table(build("S3"))
    sing = p_singular_classes(t, 2)
    assert [t.classes[j].rep_order for j in sing] == [2]
    # 1 + sgn is induced from the rotation subgroup, so it dies on the
    # transpositions
    linear = [i for i, d in enumerate(t.degrees) if d == 1]
    sgn = next(i for i in linear if not all(v.as_int() == 1 for v in t.irreducibles[i]))
    triv = trivial_index(t)
    v = irr(t, triv) + irr(t, sgn)
    assert vanishes_on(v, sing)
    assert not vanishes_on(trivial(t), sing)


def test_product_table_s3xs3():
    tA = character_table(build("S3"))
    prod = product_table(tA, tA)
    assert prod.k == 9
    assert sorted(prod.degrees) == sorted(
        da * db for da in tA.degrees for db in tA.degrees
    )
    assert prod.group_order == 36
    assert sum(d * d for d in prod.degrees) == 36
    assert prod.irreducibles is None and prod.group is None


def test_product_table_rejects_tampered_degrees():
    t = character_table(build("S3"))
    t.degrees = [1, 1, 3]
    with pytest.raises(IntegrityError):
        product_table(t, t)


def _tensor_rows(tA, tB):
    """Reference: the explicit rows of the product table, in pair order."""
    M = lcm(tA.exponent, tB.exponent)
    A = [[v.rebase(M) for v in row] for row in tA.irreducibles]
    B = [[v.rebase(M) for v in row] for row in tB.irreducibles]
    return [[va * vb for va in ra for vb in rb] for ra in A for rb in B]


def _s4_pair_at_2():
    inst = make_instance(build("S4"), 2)
    return inst.tG, inst.tH


PRODUCT_PAIRS = {
    "S3xS3": lambda: (character_table(build("S3")),) * 2,
    "S4xN(P)-2": _s4_pair_at_2,  # exponents 12 and 4: values need rebasing
}


def _field_of(table):
    """(M, l, w) as restriction_matrix picks them for a table and a subgroup."""
    M = table.exponent
    l = _dixon_prime(table.group_order, M, table.k)
    return M, l, pow(sympy.primitive_root(l), (l - 1) // M, l)


@pytest.fixture(scope="module", params=list(PRODUCT_PAIRS))
def product_and_reference(request):
    tA, tB = PRODUCT_PAIRS[request.param]()
    return product_table(tA, tB), _tensor_rows(tA, tB)


def test_product_dual_map_conjugates_tensor_rows(product_and_reference):
    prod, rows = product_and_reference
    keys = [[v.sort_key() for v in row] for row in rows]
    for i, j in enumerate(prod.dual_map()):
        assert [v.conjugate().sort_key() for v in rows[i]] == keys[j]


@pytest.mark.parametrize("name", list(PRODUCT_PAIRS))
def test_product_power_maps_are_classes_of_powers(name):
    tA, tB = PRODUCT_PAIRS[name]()
    prod = product_table(tA, tB)
    G = product_group(tA.group, tB.group)
    for c in prod.classes:
        for q in prime_factors(prod.group_order):
            target = prod.classes[c.power_map[q]].representative
            assert G.class_of(_perm_power(c.representative, q)) == G.class_of(target)


def test_product_values_match_tensor_rows(product_and_reference):
    prod, rows = product_and_reference
    rng = random.Random(7)
    chars = [irr(prod, t) for t in (0, prod.k - 1)]
    while len(chars) < 6:
        coeffs = [rng.choice((-2, -1, 0, 0, 1, 3)) for _ in range(prod.k)]
        if min(coeffs) < 0 < max(coeffs):
            chars.append(VirtualCharacter(prod, coeffs))
    for chi in chars:
        for j in range(prod.k):
            expect = sum(
                (row[j] * c for c, row in zip(chi.coeffs, rows) if c),
                start=Cyclotomic(prod.exponent),
            )
            assert chi.value_at(j) == expect


def test_product_shadow_is_image_of_tensor_rows(product_and_reference):
    prod, rows = product_and_reference
    M, l, w = _field_of(prod)
    for root in (w, pow(w, -1, l)):
        expect = [
            [
                sum(c * pow(root, e * (M // v.modulus), l) for e, c in v.terms.items())
                % l
                for v in row
            ]
            for row in rows
        ]
        assert _shadow(prod, M, l, root) == expect


def test_outer_product_values():
    tA = character_table(build("S3"))
    prod = product_table(tA, tA)
    chi = irr(tA, 2)
    op = outer_product(chi, chi, prod)
    assert op.degree() == 4
    assert inner(op, op) == 1


def test_outer_product_bilinear():
    tA = character_table(build("S3"))
    prod = product_table(tA, tA)
    a, b = irr(tA, 0), irr(tA, 1)
    lhs = outer_product(a + b, a, prod)
    rhs = outer_product(a, a, prod) + outer_product(b, a, prod)
    assert lhs == rhs


def test_virtual_character_table_mismatch_raises(s4):
    t3 = character_table(build("S3"))
    with pytest.raises(ValueError):
        trivial(s4) + trivial(t3)


def test_dropped_tables_are_freed():
    # derived data is memoized on the tables themselves, so no module-level
    # cache keeps a table alive once its last caller lets go of it
    G = build("S4")
    tG = character_table(G)
    tH = character_table(normalizer(G, sylow_subgroup(G, 2)))
    restriction_matrix(tG, tH)
    defect_group(tG, block_partition(tG, 2)[0], 2)
    prod = product_table(tG, tH)
    _shadow(prod, *_field_of(prod))
    vanishes_on(irr(prod, 1).conjugate(), p_singular_classes(prod, 2))
    # centralizers, Sylow subgroups and `table_for` tables are memoized on
    # the group
    C = centralizer(G, G.class_data()[1].representative)
    P = sylow_subgroup(G, 3)
    inst = make_instance(G, 2)
    refs = [weakref.ref(x) for x in (tG, tH, prod, G, C, P, inst.tG, inst.tH)]
    del G, tG, tH, prod, C, P, inst
    gc.collect()
    assert [r() for r in refs] == [None] * 8


def test_product_table_dies_with_its_instance():
    # the subgroup tables it induces from hold its fusions and restrictions,
    # and they live on subgroups of the product group, which dies with it
    inst = make_instance(build("S3"), 2)
    prod = pair_table(inst)
    product_induced_lattice(inst)
    refs = [weakref.ref(inst), weakref.ref(prod)]
    del inst, prod
    gc.collect()
    assert [r() for r in refs] == [None, None]
