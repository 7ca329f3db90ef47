"""Virtual characters: induction, restriction, fusion, products, counts."""

import gc
import random
import weakref
from collections import Counter
from dataclasses import replace
from math import isqrt, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st
import sympy

from conftest import distinct_qualifying_family, shared_group
from indres.blocks import block_partition, defect_group
from indres.catalog import BUILDERS, build, perm_from_cycles, special_linear2
from indres.chartab import (
    CharTable,
    Cyclotomic,
    IntegrityError,
    _prime_above,
    _root_of_unity,
    _shadow,
    character_table,
)
from indres.classfun import (
    VirtualCharacter,
    class_fusion,
    induce,
    irr,
    ml_counts,
    outer_product,
    p_singular_classes,
    product_table,
    restriction_matrix,
    trivial_index,
    vanishes_on_p_singular,
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
    qualifying_elementary_subgroups,
    sylow_subgroup,
)
from indres.oracles import (ValueDomainError, from_values, inner_product, restrict, value_at,
                            values_of)


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


def inner(a, b):
    """<a, b> for virtual characters over one table, whose rows are orthonormal."""
    assert a.table is b.table
    return sum(x * y for x, y in zip(a.coeffs, b.coeffs))


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
    one = irr(s4, trivial_index(s4))
    assert one.degree() == 1
    assert all(v.as_int() == 1 for v in values_of(one))
    reg = VirtualCharacter(s4, s4.degrees)
    assert list(reg.coeffs) == s4.degrees
    vals = values_of(reg)
    assert vals[0].as_int() == s4.group_order
    assert all(v.is_zero() for v in vals[1:])


def test_from_values_round_trip(s4):
    chi = irr(s4, 3) + 2 * irr(s4, 0)
    assert from_values(s4, values_of(chi)) == chi


def test_from_values_rejects_non_member(s4):
    vals = values_of(irr(s4, trivial_index(s4)))
    vals[1] = vals[1] + 1
    with pytest.raises(ValueError, match="not divisible by"):
        from_values(s4, vals)


def test_from_values_rejects_a_coefficient_off_the_integers(s4):
    # |G| zeta_m at the identity class pairs to chi(1) zeta_m with each row
    vals = [Cyclotomic.zeta(s4.exponent, 1, s4.group_order)] + [0] * (s4.k - 1)
    with pytest.raises(ValueDomainError, match="not a rational integer"):
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
            inner_product(small.class_sizes(), small.group_order,
                          [row[f] for f in fused], psi).as_int()
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


def _loop_restriction(big, small):
    """restriction_matrix as one F_l sum per entry, the checks row by row:
    R, or the message of the first check that fails."""
    fused = class_fusion(big, small)
    M = lcm(big.exponent, small.exponent)
    l = _prime_above(isqrt(4 * big.group_order), M)
    w = _root_of_unity(l, M)

    def image(v, root):
        return sum(c * pow(root, e * (M // v.modulus), l) for e, c in v.terms.items()) % l

    wbar = pow(w, -1, l)
    inv_order = pow(small.group_order, -1, l)
    conj = [[image(v, wbar) * s % l for v, s in zip(row, small.class_sizes())]
            for row in small.irreducibles]
    R = []
    for row, deg in zip(big.irreducibles, big.degrees):
        avals = [image(row[f], w) for f in fused]
        Ri = [sum(a * c for a, c in zip(avals, crow)) * inv_order % l for crow in conj]
        if any(r > deg for r in Ri):
            return "restriction multiplicity exceeds the degree"
        if sum(r * d for r, d in zip(Ri, small.degrees)) != deg:
            return "restricted degrees do not sum to the degree"
        R.append(Ri)
    for j, d in enumerate(small.degrees):
        if sum(Ri[j] * deg for Ri, deg in zip(R, big.degrees)) * small.group_order != (
                big.group_order * d):
            return "induced degree is not [G:H] psi(1)"
    return R


def _restriction_or_message(big, small):
    try:
        return restriction_matrix(big, small)
    except IntegrityError as exc:
        return str(exc)


SMALL_CATALOG = sorted(n for n in BUILDERS if build(n).order() <= 2000)


def test_restriction_matrix_matches_the_entry_loop():
    """The one matrix product gives the per-entry loop's R on every
    (G or N_G(P), qualifying elementary subgroup) pair of the catalog
    groups of order <= 2000, at every prime; the subgroups are the whole
    distinct family, before containment-maximal pruning."""
    pairs = 0
    for name in SMALL_CATALOG:
        G = shared_group(name)
        for p in prime_factors(G.order()):
            inst = make_instance(G, p, name=name)
            for big in (inst.tG, inst.tH):
                for E in distinct_qualifying_family(big.group, p, inst.s_maxima):
                    small = table_for(E)
                    assert restriction_matrix(big, small) == _loop_restriction(big, small)
                    pairs += 1
    assert pairs > 200


def _copy_table(t, group_order=None):
    return CharTable(group_order=group_order or t.group_order, exponent=t.exponent,
                     classes=t.classes, irreducibles=[list(r) for r in t.irreducibles],
                     degrees=list(t.degrees), group=t.group)


def test_tampered_restriction_fails_the_loop_check_first(s4_s3):
    """On tampered tables the first failing check, in the loop's order, is
    the one that raises."""
    big, small = s4_s3
    m = big.exponent
    rng = random.Random(3)
    messages = Counter()
    for _ in range(60):
        tb, ts = _copy_table(big), _copy_table(small)
        for _ in range(rng.randint(1, 3)):
            t = rng.choice((tb, ts))
            i, j = rng.randrange(t.k), rng.randrange(t.k)
            t.irreducibles[i][j] = t.irreducibles[i][j] + Cyclotomic.from_int(
                t.exponent, rng.choice((-2, -1, 1, 3)))
        if rng.random() < 0.3:
            i = rng.randrange(tb.k)
            tb.degrees[i] += 1
            tb.irreducibles[i][0] = Cyclotomic.from_int(m, tb.degrees[i])
        got = _restriction_or_message(tb, ts)
        assert got == _loop_restriction(tb, ts)
        messages[got if isinstance(got, str) else "R"] += 1
    # a wrong |G| passes every row and fails only the induced degrees
    tb = _copy_table(big, group_order=2 * big.group_order)
    got = _restriction_or_message(tb, small)
    assert got == _loop_restriction(tb, small) == "induced degree is not [G:H] psi(1)"
    assert len(messages) == 3, messages


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
                                    for x, y in zip(values_of(a), values_of(b))])
            assert all(c >= 0 for c in prod.coeffs)
            assert prod.degree() == s4.degrees[i] * s4.degrees[j]


def test_conjugate_swaps_inverse_values(s4):
    for i in range(s4.k):
        chi = irr(s4, i)
        bar = chi.conjugate()
        for j in range(s4.k):
            assert value_at(bar, j) == value_at(chi, j).conjugate()


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
    assert vanishes_on_p_singular(v, 2)
    assert not vanishes_on_p_singular(irr(t, triv), 2)


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
    with pytest.raises(IntegrityError, match="product degree squares do not sum to the order"):
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
    l = _prime_above(isqrt(4 * table.group_order), M)
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
            assert value_at(chi, j) == expect


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
        assert _shadow(prod, M, l, root).tolist() == expect


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
    with pytest.raises(ValueError, match="coefficient count does not match the table"):
        VirtualCharacter(s4, [1, 0])
    t3 = character_table(build("S3"))
    with pytest.raises(ValueError, match="virtual characters live over different tables"):
        irr(s4, trivial_index(s4)) + irr(t3, trivial_index(t3))


def test_a_table_without_its_trivial_row_is_refused():
    t = character_table(build("S3"))
    i = trivial_index(t)
    sign = next(r for j, r in enumerate(t.irreducibles) if j != i and t.degrees[j] == 1)
    rows = [sign if j == i else r for j, r in enumerate(t.irreducibles)]
    with pytest.raises(ValueError, match="table has no trivial row; it is not a character table"):
        trivial_index(replace(t, irreducibles=rows, _cache={}))


def test_fusion_refuses_a_class_outside_the_big_group():
    big = character_table(build("A4"))
    small = character_table(build("S4").subgroup([perm_from_cycles([(1, 2)], 4)]))
    with pytest.raises(ValueError, match="class representative does not lie in the big group"):
        class_fusion(big, small)


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
    vanishes_on_p_singular(irr(prod, 1).conjugate(), 2)
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
