"""Arithmetic on image tuples, stabilizer chains, and the intersection set."""

import json
import tracemalloc
from math import isqrt, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indres import groupcore
from indres.catalog import (BUILDERS, _group, alternating, build, cyclic, perm_from_cycles,
                            rows_for_suite, special_linear2, symmetric)
from indres.chartab import _class_matrices, _prime_above, character_table, table_to_json
from indres.groupcore import (
    MAX_DEGREE,
    MILLER_RABIN_BOUND,
    BudgetExceeded,
    IntegrityError,
    PermGroup,
    conjugacy_classes,
    centralizer,
    group_from_generators,
    intersection_set_maxima,
    is_prime,
    least_primitive_root,
    normalizer,
    p_prime_part,
    prime_factors,
    product_group,
    qualifying_elementary_subgroups,
    split_product_images,
    sylow_subgroup,
    v_p,
    _conjugate_orbit,
    _conjugation_perms,
    _index_set,
    _inv,
    _maximal_sets,
    _mul,
    _perm_order,
    _qualifying_copies,
    _subgroup_of_rows,
)
from indres.oracles import _conj, _perm_power, all_subgroups

from conftest import (all_pairs_maximal_sets, copy_sets, distinct_qualifying_family,
                      frozenset_orbit, full_transporter_mask, inverse_rows,
                      pairwise_copies, shared_group, small_perm_groups)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

perms6 = st.permutations(range(6)).map(tuple)
E6 = tuple(range(6))


@given(perms6, perms6, perms6)
def test_permutation_group_axioms(a, b, c):
    assert _mul(_mul(a, b), c) == _mul(a, _mul(b, c))
    assert _mul(a, E6) == a and _mul(E6, a) == a
    assert _mul(a, _inv(a)) == E6


@given(perms6)
def test_order_matches_iteration(a):
    n = _perm_order(a)
    assert _perm_power(a, n) == E6
    assert all(_perm_power(a, k) != E6 for k in range(1, n))


@given(perms6, perms6)
def test_conjugate_is_homomorphism_in_x(g, x):
    assert _conj(g, x) == _mul(_mul(g, x), _inv(g))


@given(perms6, st.integers(min_value=-6, max_value=6))
def test_power_agrees_with_repeated_product(a, k):
    expected = E6
    base = a if k >= 0 else _inv(a)
    for _ in range(abs(k)):
        expected = _mul(expected, base)
    # a negative power reduces modulo the order
    assert _perm_power(a, k) == expected


def test_cycle_notation_round_trip():
    g = perm_from_cycles([(1, 2, 3), (4, 5)], 6)
    assert g == (1, 2, 0, 4, 3, 5)
    assert _perm_order(g) == 6


@pytest.mark.parametrize(
    "name,order",
    [
        ("S3", 6),
        ("S4", 24),
        ("A5", 60),
        ("Q8", 8),
        ("D8", 8),
        ("SL2_3", 24),
        ("M11", 7920),
        ("C2xA4", 24),
    ],
)
def test_catalog_orders(name, order):
    assert build(name).order() == order


def test_catalog_refuses_what_it_cannot_build():
    with pytest.raises(ValueError, match="no builder named 'S2'"):
        build("S2")
    with pytest.raises(ValueError, match="unknown suite 'large'"):
        rows_for_suite("large")
    with pytest.raises(ValueError, match="need n >= 2"):
        symmetric(1)
    with pytest.raises(ValueError, match="need n >= 3"):
        alternating(2)
    # a generating set that falls short of its group
    with pytest.raises(IntegrityError, match="built a group of order 2, expected 6"):
        _group(3, [[1, 0, 2]], 6)


def test_product_past_the_largest_degree_is_refused():
    """Two groups of degree 20000 each fit an element row; their product
    on 40000 points does not."""
    A = PermGroup(20000)
    with pytest.raises(IntegrityError, match="exceeds the largest supported degree"):
        product_group(A, A)


def test_product_order_is_checked(monkeypatch):
    A = build("S3")
    monkeypatch.setattr(A, "order", lambda: 5)
    with pytest.raises(IntegrityError,
                       match="product order differs from the product of the orders"):
        product_group(A, cyclic(2))


def test_non_members_are_refused():
    A4 = build("A4")
    transposition = (1, 0, 2, 3)
    with pytest.raises(KeyError, match="element is not in the group"):
        A4.class_of(transposition)
    with pytest.raises(IntegrityError, match="a computed element lies outside its group"):
        groupcore._member_indices(A4, np.array([transposition], dtype=groupcore.DTYPE))


def test_sylow_ascent_without_an_extension_is_caught(monkeypatch):
    monkeypatch.setattr(groupcore, "_first_hit", lambda G, hits: -1)
    with pytest.raises(IntegrityError, match="normalizer ascent found no p-extension"):
        sylow_subgroup(build("S3"), 2)


@given(st.lists(perms6, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_chain_order_matches_brute_closure(gens):
    G = PermGroup(6, gens)
    closure = {E6}
    frontier = list(closure)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = _mul(x, g)
                if y not in closure:
                    closure.add(y)
                    new.append(y)
        frontier = new
    assert G.order() == len(closure)
    assert all(x in G for x in closure)


def test_mul_composes_at_every_degree():
    """b first, then a, as image tuples, down to degrees 0 and 1."""
    for n in range(5):
        for a in [tuple(range(n)), tuple(reversed(range(n)))]:
            for b in [tuple(range(n)), tuple(range(1, n)) + tuple(range(min(n, 1)))]:
                got = _mul(a, b)
                assert type(got) is tuple and got == tuple(a[x] for x in b)


@pytest.mark.parametrize("name", ["S4", "M11", "SL2_3", "C2xA4"])
def test_chain_inverses_match_their_transversals(name, monkeypatch):
    """Every cached inverse that the Schreier-Sims closure can read is the
    inverse of its level's current transversal element, so no entry
    outlives a rebuilt transversal; the cache is dropped with the build."""
    strip = groupcore._strip

    def checked(levels, g):
        for lvl in levels:
            for pt, u in lvl.inverses.items():
                assert u == _inv(lvl.transversal[pt]), (lvl.base, pt)
        return strip(levels, g)

    monkeypatch.setattr(groupcore, "_strip", checked)
    G = build(name)
    levels = G._chain()
    assert all(not lvl.inverses for lvl in levels)
    assert all(tuple(g) in G for g in G.elements()[::97])


def test_membership_and_element_listing():
    S4 = build("S4")
    assert perm_from_cycles([(1, 2, 3, 4)], 4) in S4
    assert len(S4.elements()) == 24
    A4 = S4.subgroup(
        [perm_from_cycles([(1, 2, 3)], 4), perm_from_cycles([(1, 2), (3, 4)], 4)]
    )
    assert A4.order() == 12
    assert A4.is_subgroup_of(S4)
    assert perm_from_cycles([(1, 2)], 4) not in A4


def test_conjugacy_classes_s4():
    # classes come out sorted by (element order, size)
    data = conjugacy_classes(build("S4"))
    assert [(c.rep_order, c.size) for c in data] == [
        (1, 1),
        (2, 3),
        (2, 6),
        (3, 8),
        (4, 6),
    ]
    assert sum(c.size for c in data) == 24


def test_class_of_consistency():
    G = build("A5")
    data = conjugacy_classes(G)
    for i, c in enumerate(data):
        assert G.class_of(c.representative) == i


def test_centralizer_orbit_stabilizer():
    G = build("S5")
    for c in conjugacy_classes(G):
        C = centralizer(G, c.representative)
        assert C.order() * c.size == G.order()


def test_sylow_and_normalizer():
    S4 = build("S4")
    P2 = sylow_subgroup(S4, 2)
    assert P2.order() == 8
    assert normalizer(S4, P2).order() == 8
    P3 = sylow_subgroup(S4, 3)
    assert P3.order() == 3
    assert normalizer(S4, P3).order() == 6
    S6 = build("S6")
    assert sylow_subgroup(S6, 2).order() == 16
    assert sylow_subgroup(S6, 3).order() == 9


def test_vp_and_prime_factors():
    assert v_p(48, 2) == 4
    assert v_p(48, 3) == 1
    assert v_p(1, 7) == 0
    assert prime_factors(360) == [2, 3, 5]
    for n, p in [(8, 1), (8, 0), (8, -2), (0, 2)]:
        with pytest.raises(ValueError, match=f"v_p needs n != 0 and p >= 2, got n = {n}, p = {p}"):
            v_p(n, p)
        with pytest.raises(ValueError):
            p_prime_part(n, p)


# sympy is an independent reference for the number theory, used by the
# tests only
def test_is_prime_matches_sympy_below_200000():
    import sympy

    assert [n for n in range(200000) if is_prime(n)] == [
        n for n in range(200000) if sympy.isprime(n)]


def _chernick_carmichael_numbers(k_from, count):
    # (6k + 1)(12k + 1)(18k + 1) is a Carmichael number when all three
    # factors are prime
    import sympy

    out, k = [], k_from
    while len(out) < count:
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(map(sympy.isprime, factors)):
            out.append(prod(factors))
        k += 1
    return out


def test_is_prime_matches_sympy_on_pseudoprimes_and_large_primes():
    import sympy

    pseudoprimes = [
        3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
        3825123056546413051,  # ... to the first 9 prime bases
        318665857834031151167461,  # ... to the first 12 prime bases
    ]
    carmichael = (_chernick_carmichael_numbers(1, 10)
                  + _chernick_carmichael_numbers(10**5, 3)
                  + _chernick_carmichael_numbers(10**7, 3))
    large = [2**31 - 1, 2**61 - 1, 2**67 - 1, sympy.prevprime(MILLER_RABIN_BOUND)]
    large += [sympy.nextprime(10**k) for k in range(10, 25)]
    large += [sympy.nextprime(10**11) * sympy.nextprime(10**12)]
    for n in pseudoprimes + carmichael + large:
        assert n < MILLER_RABIN_BOUND
        assert is_prime(n) == sympy.isprime(n), n
    assert not any(map(is_prime, pseudoprimes + carmichael))


def test_is_prime_refuses_the_miller_rabin_bound():
    import sympy

    # the bound is the least composite that passes all 13 bases
    assert not sympy.isprime(MILLER_RABIN_BOUND)
    for n in (MILLER_RABIN_BOUND, MILLER_RABIN_BOUND + 2, 2**89 - 1):
        with pytest.raises(IntegrityError, match="Miller-Rabin bound"):
            is_prime(n)


def test_least_primitive_root_matches_sympy():
    import sympy

    for q in sympy.primerange(3, 1000):
        for e in (1, 2, 3):
            assert least_primitive_root(q, e) == sympy.primitive_root(q**e), (q, e)


def test_intersection_set_maxima_s4():
    """With H = N_G(P) of index 3 the overlap set is generated by one
    conjugate intersection of order 4."""
    G = build("S4")
    P = sylow_subgroup(G, 2)
    H = normalizer(G, P)
    sm = intersection_set_maxima(G, P, H)
    assert sorted(S.order() for S in sm) == [4]
    for S in sm:
        assert S.is_subgroup_of(P)


def test_intersection_set_maxima_s5():
    G = build("S5")
    P = sylow_subgroup(G, 2)
    H = normalizer(G, P)
    assert H.order() == 8
    sm = intersection_set_maxima(G, P, H)
    assert sorted(S.order() for S in sm) == [2, 2, 4]


def test_intersection_set_empty_when_h_is_g():
    G = build("S4")
    P = sylow_subgroup(G, 2)
    assert intersection_set_maxima(G, P, G) == []


def test_index_sets_are_downward_closed_markers():
    # every maximal overlap really arises as P meet some outside conjugate
    G = build("A5")
    P = sylow_subgroup(G, 2)
    H = normalizer(G, P)
    sm = intersection_set_maxima(G, P, H)
    for S in sm:
        ks = _index_set(P, S.elements())
        assert len(ks) == S.order()
        assert ks <= set(range(P.order()))
        assert S.rows_in(P.elements()[sorted(ks)]).all()


def _coset_loop_maxima(G, P, H):
    """Maximal sets P ∩ tPt^{-1}, as indices in P, over one t per coset
    tN of N = N_G(P) with t ∉ H: a direct reference for the orbit algebra
    of `intersection_set_maxima`."""
    N = normalizer(G, P)
    E = G.elements()
    Einv = inverse_rows(E)
    NE, PE = N.elements(), P.elements()
    in_H = H.rows_in(E)
    visited = np.zeros(len(E), dtype=bool)
    seen = set()
    for i in range(len(E)):
        if visited[i]:
            continue
        visited[G.index_of(E[i][NE])] = True
        if not in_H[i]:
            idx = P.index_of(E[i][PE[:, Einv[i]]])
            seen.add(frozenset(idx[idx >= 0].tolist()))
    return _maximal_sets(seen)


def _overgroups(G, P):
    """N_G(P), and ⟨N_G(P), g⟩ for the first generator g of G that gives a
    proper overgroup of N_G(P) inside G, if one does."""
    N = normalizer(G, P)
    overs = (PermGroup(G.degree, N.generators + (g,)) for g in G.generators)
    overgroup = next((K for K in overs if N.order() < K.order() < G.order()), None)
    return [N] if overgroup is None else [N, overgroup]


@pytest.mark.parametrize(
    "name", ["S4", "S5", "S6", "S7", "A6", "A7", "A8", "M11", "SL2_11", "SL2_13",
             "SL3_3", "PSU3_3", "C2xA4", "D12", "S3xS3"]
)
def test_intersection_set_maxima_match_the_coset_loop(name):
    """At every prime, with each H of `_overgroups`."""
    G = build(name)
    for p in prime_factors(G.order()):
        P = sylow_subgroup(G, p)
        for H in _overgroups(G, P):
            got = [_index_set(P, S.elements()) for S in intersection_set_maxima(G, P, H)]
            assert got == _coset_loop_maxima(G, P, H), (p, H.order())


@pytest.mark.parametrize("H_gens", [[(1, 2, 0, 3)], [(1, 0, 2, 3), (0, 1, 3, 2)]],
                         ids=["H-misses-normalizer", "H-misses-P"])
def test_intersection_set_maxima_rejects_h_without_the_normalizer(H_gens):
    """P = ⟨(0 1 2)⟩ in S4 has N_G(P) ≅ S3: neither ⟨(0 1 2)⟩, which holds P
    but not N_G(P), nor ⟨(0 1), (2 3)⟩, which misses P itself, contains it."""
    G = build("S4")
    P = PermGroup(4, [(1, 2, 0, 3)])
    with pytest.raises(ValueError, match="^H does not contain the normalizer of P$"):
        intersection_set_maxima(G, P, PermGroup(4, H_gens))


@pytest.mark.parametrize(
    "name", ["S4", "S5", "A5", "SL2_3", "SL2_5", "C2xA4", "D8xC3", "S3xS3", "M11"]
)
def test_maximal_qualifying_psubgroups_match_brute_force(name):
    """For T = Sylow_p(C(c)), c a p'-element ≠ 1, the maximal sets T ∩ c'
    are the containment-maximal qualifying members of all subgroups of T,
    at every prime and on both sides (G and N_G(P))."""
    G = build(name)
    for p in prime_factors(G.order()):
        P = sylow_subgroup(G, p)
        H = normalizer(G, P)
        s_maxima = intersection_set_maxima(G, P, H)
        for side in (G, H):
            copies = copy_sets(_qualifying_copies(side, s_maxima))
            for c in side.class_data():
                if c.rep_order == 1 or c.rep_order % p == 0:
                    continue
                T = sylow_subgroup(centralizer(side, c.representative), p)
                subs = [_index_set(side, S.elements()) for S in all_subgroups(T)]
                good = [F for F in subs if any(F <= K for K in copies)]
                brute = [F for F in good if not any(F < K for K in good)]
                got = _maximal_sets(_index_set(side, T.elements()) & K for K in copies)
                assert got == sorted(brute, key=lambda s: (-len(s), sorted(s)))


@pytest.mark.parametrize(
    "name", [n for n, make in BUILDERS.items() if make().order() <= 100000]
)
def test_qualifying_copies_are_the_pairwise_maximal_conjugates(name):
    """On G and on N_G(P), at every prime, the copies taken as whole orbits
    of the maxima are the maximal conjugates found pair by pair."""
    G = build(name)
    for p in prime_factors(G.order()):
        P = sylow_subgroup(G, p)
        N = normalizer(G, P)
        s_maxima = intersection_set_maxima(G, P, N)
        for side in (G, N):
            assert copy_sets(_qualifying_copies(side, s_maxima)) == pairwise_copies(
                side, s_maxima), (p, side.order())


@pytest.mark.parametrize(
    "name", [n for n, make in BUILDERS.items() if make().order() <= 100000]
)
def test_conjugate_orbit_matches_the_frozenset_walk(name):
    """On G and on N_G(P), at every prime, the orbit of P's index set has
    sorted, distinct int32 rows, and as sets they are the orbit that the
    breadth-first frozenset walk finds."""
    G = shared_group(name)
    for p in prime_factors(G.order()):
        P = sylow_subgroup(G, p)
        for side in (G, normalizer(G, P)):
            members = _index_set(side, P.elements())
            orbit = _conjugate_orbit(side, sorted(members))
            assert orbit.dtype == np.int32
            assert (np.diff(orbit, axis=1) > 0).all()
            rows = {frozenset(row) for row in orbit.tolist()}
            assert len(rows) == len(orbit)
            assert rows == frozenset_orbit(side, members), (p, side.order())


@pytest.mark.parametrize("name, h_cycles", [
    ("S6", [[(1, 2, 3, 4)], [(1, 2)], [(5, 6)]]),
    ("A6", [[(1, 2, 3, 4), (5, 6)], [(1, 2), (5, 6)]]),
], ids=["S6-S4xS2", "A6-S4"])
def test_qualifying_copies_drop_maxima_conjugate_into_larger_ones(name, h_cycles):
    """At p = 2 with H = S4 x S2 in S6, or its even part in A6, the two
    smaller maxima each have a conjugate inside the largest, on G and on
    H: their orbits are no copies, as in the pairwise form.  No catalog
    case with H = N_G(P) drops a maximum."""
    G = build(name)
    H = PermGroup(6, [perm_from_cycles(c, 6) for c in h_cycles])
    P = sylow_subgroup(H, 2)
    s_maxima = intersection_set_maxima(G, P, H)
    largest = s_maxima[0].order()
    assert [S.order() for S in s_maxima] == [largest, largest // 2, largest // 2]
    for side in (G, H):
        copies = copy_sets(_qualifying_copies(side, s_maxima))
        assert copies == pairwise_copies(side, s_maxima)
        assert [_index_set(side, S.elements()) in copies for S in s_maxima] == [
            True, False, False]
        got = qualifying_elementary_subgroups(side, 2, s_maxima)
        assert [_index_set(side, S.elements()) for S in got] == (
            _elementwise_family_sets(side, 2, s_maxima))


@given(small_perm_groups())
@settings(max_examples=200, deadline=None)
def test_orbit_rules_match_the_direct_loops_on_random_groups(G):
    """On random small groups, at every prime and with each H of
    `_overgroups`: the intersection-set maxima match the coset loop, and on
    G and on H the copies match the pairwise maximal conjugates."""
    for p in prime_factors(G.order()):
        P = sylow_subgroup(G, p)
        for H in _overgroups(G, P):
            s_maxima = intersection_set_maxima(G, P, H)
            got = [_index_set(P, S.elements()) for S in s_maxima]
            assert got == _coset_loop_maxima(G, P, H), (p, H.order())
            for side in (G, H):
                assert copy_sets(_qualifying_copies(side, s_maxima)) == pairwise_copies(
                    side, s_maxima), (p, H.order(), side.order())


@st.composite
def set_families(draw):
    """Sets over six points (so many share a size), a subset of each drawn
    set (nested pairs), and repeats, in a drawn order."""
    base = draw(st.lists(st.frozensets(st.integers(0, 5)), max_size=12))
    nested = [frozenset(draw(st.lists(st.sampled_from(sorted(s)), unique=True)))
              for s in base if s]
    family = base + nested
    if family:
        family += draw(st.lists(st.sampled_from(family), max_size=6))
    return draw(st.permutations(family))


@given(set_families())
@settings(max_examples=200, deadline=None)
def test_maximal_sets_match_the_all_pairs_loop(family):
    assert _maximal_sets(iter(family)) == all_pairs_maximal_sets(family)


def _brauer_family_sets(group):
    """The containment-maximal element sets of ⟨c⟩ x Sylow_ℓ(C(c)) over
    every prime ℓ dividing the order and every class of ℓ'-elements c, in
    `_maximal_sets` order: the elementary family of Brauer's induction
    theorem, built directly and then pruned."""
    sets = set()
    for ell in prime_factors(group.order()):
        for c in group.class_data():
            if c.rep_order % ell == 0:
                continue
            rep = c.representative
            S = sylow_subgroup(centralizer(group, rep), ell)
            sets.add(_index_set(group, PermGroup(group.degree, [rep, *S.generators]).elements()))
    return _maximal_sets(sets)


@pytest.mark.parametrize(
    "name", [n for n, make in BUILDERS.items() if make().order() <= 20000]
)
def test_sylow_maximum_gives_brauer_family(name):
    """With the Sylow p-subgroup as the one maximum every p-subgroup
    qualifies, and the qualifying family is the containment-maximal
    members of Brauer's, at every prime."""
    G = build(name)
    want = _brauer_family_sets(G)
    for p in prime_factors(G.order()):
        got = qualifying_elementary_subgroups(G, p, [sylow_subgroup(G, p)])
        assert [_index_set(G, E.elements()) for E in got] == want


def _elementwise_family_sets(group, p, maxima):
    """The containment-maximal element sets of `distinct_qualifying_family`,
    in `_maximal_sets` order: the family that
    `qualifying_elementary_subgroups` returns, built with an element test."""
    return _maximal_sets(_index_set(group, S.elements())
                         for S in distinct_qualifying_family(group, p, maxima))


@pytest.mark.parametrize(
    "name", [n for n, make in BUILDERS.items() if make().order() <= 5040]
)
def test_qualifying_family_matches_the_elementwise_test(name):
    """On G and on N_G(P), at every prime, with the intersection-set maxima:
    testing the p-part of each class by class gives the family that the
    element test over the pairwise copies gives."""
    G = build(name)
    for p in prime_factors(G.order()):
        P = sylow_subgroup(G, p)
        N = normalizer(G, P)
        s_maxima = intersection_set_maxima(G, P, N)
        for side in (G, N):
            got = qualifying_elementary_subgroups(side, p, s_maxima)
            assert [_index_set(side, S.elements()) for S in got] == (
                _elementwise_family_sets(side, p, s_maxima)), (p, side.order())


@pytest.mark.parametrize(
    "name", [n for n, make in BUILDERS.items() if make().order() <= 20000]
)
def test_qualifying_family_is_an_antichain(name):
    """No member's element set lies inside another's, on G and on N_G(P),
    at every prime, with the intersection-set maxima and with the Sylow
    subgroup as the one maximum."""
    G = build(name)
    for p in prime_factors(G.order()):
        P = sylow_subgroup(G, p)
        N = normalizer(G, P)
        for side, maxima in ((G, intersection_set_maxima(G, P, N)), (N, [P]), (G, [P])):
            sets = [_index_set(side, S.elements())
                    for S in qualifying_elementary_subgroups(side, p, maxima)]
            assert not [(a, b) for a in sets for b in sets if a is not b and a <= b], (
                p, side.order())


def test_product_group_and_splitting():
    A = build("S3")
    B = build("S3")
    AB = product_group(A, B)
    assert AB.order() == 36
    assert AB.degree == A.degree + B.degree
    for g in AB.generators:
        left, right = split_product_images(g, A.degree)
        assert A.contains_images(left)
        assert B.contains_images(right)


def test_group_from_generators_one_based():
    data = {"degree": 3, "generators": [[2, 1, 3], [2, 3, 1]]}
    G = group_from_generators(data)
    assert G.order() == 6


def test_group_degree_is_the_degree_key():
    # a key other than "degree" does not change the points acted on
    data = {"format": "perm-group", "degree": 3, "ambient": 6,
            "generators": [[2, 1, 3], [2, 3, 1]]}
    G = group_from_generators(data)
    assert (G.degree, G.order()) == (3, 6)


def test_generators_and_representatives_are_int_tuples():
    G = PermGroup(4, [np.array([1, 0, 2, 3])])
    assert G.generators == ((1, 0, 2, 3),)
    S4 = build("S4")
    for g in [*G.generators, *S4.generators,
              *(c.representative for c in conjugacy_classes(S4))]:
        assert type(g) is tuple and all(type(x) is int for x in g)
    rep = conjugacy_classes(S4)[2].representative
    assert centralizer(S4, np.asarray(rep)) is centralizer(S4, rep)


def test_group_from_generators_rejects_garbage():
    with pytest.raises(ValueError):
        group_from_generators({"degree": 3, "generators": [[1, 1, 2]]})


def test_subgroup_of_rows_rejects_unclosed_rows():
    for rows in (
        [(0, 1, 2, 3), (1, 2, 0, 3)],  # the identity and a 3-cycle alone
        # (01) and (23) generate a group of order 4 before the last row, a
        # 4-cycle outside it
        [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 2, 3, 0)],
    ):
        with pytest.raises(IntegrityError,
                           match="rows are not closed under the group operation"):
            _subgroup_of_rows(4, rows)


def test_subgroup_of_rows_rejects_duplicate_rows():
    # three rows but only two elements: the 3-cycle generates C3 before the
    # repeat, so a count of rows alone matches the order
    with pytest.raises(IntegrityError, match="rows repeat an element"):
        _subgroup_of_rows(3, [(0, 1, 2), (1, 2, 0), (1, 2, 0)])


# index_of: S4..M11 have small degree; the fixture group has degree 125 and
# SL2_17 degree 288, past where int16 bytes order and lex order part ways
INDEX_GROUPS = {
    "S4": lambda: build("S4"),
    "A5": lambda: build("A5"),
    "SL2_7": lambda: special_linear2(7),
    "M11": lambda: build("M11"),
    "fixture": lambda: group_from_generators(
        json.loads((FIXTURES / "fixture_group.json").read_text())
    ),
    "SL2_17": lambda: build("SL2_17"),
}


@pytest.fixture(scope="module", params=list(INDEX_GROUPS))
def indexed_group(request):
    return INDEX_GROUPS[request.param]()


POWER_GROUPS = {
    **{name: INDEX_GROUPS[name] for name in ("S4", "A5", "SL2_7", "M11", "fixture")},
    "S3xA4": lambda: product_group(build("S3"), build("A4")),  # intransitive
}


@pytest.mark.parametrize("name", list(POWER_GROUPS))
def test_power_classes_are_the_classes_of_powers(name):
    G = POWER_GROUPS[name]()
    primes = prime_factors(G.order())
    stored = table_to_json(character_table(G))["classes"]
    for c, pc, s in zip(G.class_data(), G.power_classes(), stored, strict=True):
        rep = c.representative
        assert list(pc) == [G.class_of(_perm_power(rep, t)) for t in range(c.rep_order)]
        assert s["powermap"] == {str(q): G.class_of(_perm_power(rep, q)) for q in primes}


def test_index_of_elements_is_arange(indexed_group):
    G = indexed_group
    assert np.array_equal(G.index_of(G.elements()), np.arange(G.order()))


def _gather_index_of(G, M):
    """`index_of` with every level gathering all base columns of the
    stripped rows in one 2-D fancy index."""
    E, row_of_rank = G._element_matrix()
    M = np.asarray(M, dtype=E.dtype)
    levels = G._chain()
    B = M[:, [lvl.base for lvl in levels]]
    rank = np.zeros(len(M), dtype=np.intp)
    for i, lvl in enumerate(levels):
        pts = sorted(lvl.transversal)
        pos = np.zeros(G.degree, dtype=np.intp)
        pos[pts] = np.arange(len(pts))
        uinv = np.array([_inv(lvl.transversal[pt]) for pt in pts], dtype=E.dtype)
        r = pos[B[:, i]]
        rank = rank * len(uinv) + r
        B = uinv[r[:, None], B]
    idx = row_of_rank[rank]
    return np.where(np.all(E[idx] == M, axis=1), idx, -1)


def test_index_of_matches_the_full_gather(indexed_group):
    G = indexed_group
    E = G.elements()
    rng = np.random.default_rng(0)
    members = E[rng.permutation(len(E))]
    # each member with the images of two of its points swapped
    rows = np.arange(len(E))
    a = rng.integers(0, G.degree, len(E))
    b = (a + rng.integers(1, G.degree, len(E))) % G.degree
    near = members.copy()
    near[rows, a], near[rows, b] = members[rows, b], members[rows, a]
    empty = np.empty((0, G.degree), dtype=E.dtype)
    for M in (members, near, empty):
        assert np.array_equal(G.index_of(M), _gather_index_of(G, M))


def test_index_of_without_chain_levels():
    G = PermGroup(3, [])
    M = [(0, 1, 2), (1, 0, 2), (2, 0, 1), (0, 2, 1)]
    assert G.index_of(M).tolist() == [0, -1, -1, -1]
    assert np.array_equal(G.index_of(M), _gather_index_of(G, M))


def test_blocked_index_of_matches_one_block(indexed_group, monkeypatch):
    """`index_of` in blocks of 7 rows gives the whole-input answer, for
    members and for members with the images of two points swapped."""
    G = indexed_group
    E = G.elements()
    rng = np.random.default_rng(1)
    members = E[rng.permutation(len(E))[:500]]
    near = members.copy()
    near[:, [0, 1]] = near[:, [1, 0]]
    whole = [G.index_of(M) for M in (members, near)]
    monkeypatch.setattr(groupcore, "_INDEX_BLOCK", 7)
    for M, want in zip((members, near), whole):
        assert np.array_equal(G.index_of(M), want)
    assert (whole[0] >= 0).all()


def test_element_index_bound_is_refused_before_allocation():
    """S13 has order 13! > 2**31 - 1: its element indices would not fit
    int32, so the element matrix is refused without being built (or
    memoized); building it would take about 160 GB."""
    G = PermGroup(13, [(1, 0, *range(2, 13)), (*range(1, 13), 0)])
    assert G.order() == prod(range(1, 14)) > np.iinfo(np.int32).max
    with pytest.raises(BudgetExceeded, match="exceeds the element index bound"):
        G.elements()
    assert not any(key[0] == "_element_matrix" for key in G._cache)


def test_whole_group_index_arrays_are_at_most_32_bit():
    """Arrays kept over every element of a group hold int32 indices (or
    narrower), not intp: each has |G| entries and lives as long as the
    group, so its width is peak memory on the large groups (M12, S9)."""
    G = shared_group("M11")
    arrays = [G._element_matrix()[1], *_conjugation_perms(G), G.class_ids(),
              G.index_of(G.elements())]
    assert [a.dtype.itemsize <= 4 for a in arrays] == [True] * len(arrays)


def test_whole_group_sweeps_stay_below_the_element_matrix():
    """On M12 with its classes built, the normalizer of a Sylow 2-subgroup
    and the class matrices each allocate less, at their traced peak, than
    the element matrix itself: both sweep G in bounded blocks, and neither
    keeps a matrix of inverses."""
    G = build("M12")
    G.class_data()
    P = sylow_subgroup(G, 2)
    p = _prime_above(isqrt(4 * G.order()), G.exponent())
    peaks = []
    for sweep in (lambda: normalizer(G, P), lambda: list(_class_matrices(G, p))):
        tracemalloc.start()
        try:
            sweep()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < G.elements().nbytes, (peaks, G.elements().nbytes)


def test_flat_rank_index_fits_int32():
    # `_rank_tables` indexes its flat inverse transversals by
    # pos * degree + x < MAX_DEGREE ** 2 in int32
    assert MAX_DEGREE ** 2 <= 2 ** 31


def test_elements_are_lex_sorted(indexed_group):
    E = indexed_group.elements().astype(np.int64)
    diff = E[1:] != E[:-1]
    first = diff.argmax(axis=1)  # first column where neighbours differ
    rows = np.arange(len(first))
    assert diff.any(axis=1).all()
    assert (E[rows, first] < E[rows + 1, first]).all()


@st.composite
def member_or_not(draw, G):
    """A random permutation, a member, or a member with two points swapped."""
    E = G.elements()
    kind = draw(st.sampled_from(["random", "member", "near"]))
    if kind == "random":
        return tuple(draw(st.permutations(range(G.degree))))
    row = [int(x) for x in E[draw(st.integers(0, len(E) - 1))]]
    if kind == "near":
        a, b = draw(st.lists(st.integers(0, G.degree - 1), min_size=2,
                             max_size=2, unique=True))
        row[a], row[b] = row[b], row[a]
    return tuple(row)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_index_of_agrees_with_contains_images(indexed_group, data):
    G = indexed_group
    row = data.draw(member_or_not(G))
    i = int(G.index_of([row])[0])
    assert (i >= 0) == G.contains_images(row)
    if i >= 0:
        assert tuple(int(x) for x in G.elements()[i]) == row


# Sylow subgroups, centralizers and normalizers are memoized on their group,
# and the Sylow ascent stops scanning at its first hit
SYLOW_GROUPS = ["S4", "A5", "SL2_7", "M11", "fixture"]


def _full_scan_sylow(G, p):
    """The normalizer ascent with every step masking all of G's elements
    before it takes the first hit."""
    E = G.elements()
    Einv = inverse_rows(E)
    S = PermGroup(G.degree, [])
    while S.order() < p ** v_p(G.order(), p):
        mask = np.ones(len(E), dtype=bool)
        for k in S.generators:
            ka = np.asarray(k, dtype=E.dtype)
            mask &= S.rows_in(np.take_along_axis(E, ka[Einv], axis=1))
        candidates = E[mask]
        power = candidates
        for _ in range(p - 1):
            power = np.take_along_axis(candidates, power, axis=1)
        hit = ~S.rows_in(candidates) & S.rows_in(power)
        S = PermGroup(G.degree, S.generators + (candidates[hit.argmax()],))
    return S


@pytest.mark.parametrize("block", [5, groupcore._SCAN_BLOCK])
@pytest.mark.parametrize("name", SYLOW_GROUPS)
def test_first_hit_ascent_matches_full_scan(name, block, monkeypatch):
    # a block of 5 rows makes the scan cross many block boundaries
    monkeypatch.setattr(groupcore, "_SCAN_BLOCK", block)
    G = INDEX_GROUPS[name]()
    for p in prime_factors(G.order()):
        assert sylow_subgroup(G, p).generators == _full_scan_sylow(G, p).generators


def test_sylow_subgroup_is_memoized():
    G = build("A5")
    assert sylow_subgroup(G, 2) is sylow_subgroup(G, 2)
    assert sylow_subgroup(G, 3) is not sylow_subgroup(G, 2)
    # the normalizer is memoized by the images of the subgroup's generators
    P = sylow_subgroup(G, 2)
    N = normalizer(G, P)
    assert normalizer(G, P) is N
    assert normalizer(G, PermGroup(G.degree, P.generators)) is N
    assert N.order() == 12


def test_centralizer_is_memoized_by_images():
    G = build("A5")
    x = conjugacy_classes(G)[1].representative
    C = centralizer(G, x)
    assert centralizer(G, x) is C
    assert centralizer(G, list(x)) is C


def test_centralizer_of_a_central_element_is_the_group():
    G = special_linear2(7)
    minus_one = next(c.representative for c in conjugacy_classes(G)
                     if c.size == 1 and c.rep_order == 2)
    assert centralizer(G, minus_one) is G
    assert centralizer(G, tuple(range(G.degree))) is G


def _commuting_rows(G, x):
    return {g for g in map(tuple, G.elements().tolist()) if _mul(g, x) == _mul(x, g)}


# M11 and the fixture group have chain bases other than their first points
@pytest.mark.parametrize("name", ["S4", "A5", "SL2_7", "M11", "fixture"])
def test_centralizer_elements_are_the_commuting_rows(name):
    G = INDEX_GROUPS[name]()
    for c in conjugacy_classes(G):
        x = c.representative
        got = set(map(tuple, centralizer(G, x).elements().tolist()))
        assert got == _commuting_rows(G, x)


def test_centralizer_of_an_outside_permutation_compares_full_rows():
    """The transposition (4 5) lies outside M11, so a g agreeing with it on
    M11's base points need not commute with it: 3024 rows pass there, and
    the 144 commuting ones are left by the full-row compare."""
    G = build("M11")
    x = perm_from_cycles([(5, 6)], 11)
    assert x not in G
    got = set(map(tuple, centralizer(G, x).elements().tolist()))
    assert got == _commuting_rows(G, x)
    assert len(got) == 144


def _unblocked_conjugation_perms(G):
    """`_conjugation_perms` with each generator's map located by one
    `index_of` over every element."""
    E = G.elements()
    gens = [np.asarray(s, dtype=E.dtype) for s in G.generators]
    return [G.index_of(s[E[:, np.argsort(s)]]) for s in gens]


@pytest.mark.parametrize("name, block", [
    *(pytest.param(n, None, id=n) for n in sorted(n for n in BUILDERS
                                                  if build(n).order() <= 100_000)),
    *(pytest.param(n, 7, id=f"{n}-block7") for n in ("S4", "D8xC3", "SL2_5", "A6")),
])
def test_normalizer_matches_the_full_mask(name, block, monkeypatch):
    """N_G(P) at every prime, and the conjugation maps of G's generators,
    match references that sweep all of G at once; with `block` set, on a
    new copy of G whose sweeps run in blocks of that many rows."""
    if block is not None:
        monkeypatch.setattr(groupcore, "_INDEX_BLOCK", block)
    G = shared_group(name) if block is None else build(name)
    assert [a.tolist() for a in _conjugation_perms(G)] == \
        [a.tolist() for a in _unblocked_conjugation_perms(G)]
    for p in prime_factors(G.order()):
        P = sylow_subgroup(G, p)
        want = _subgroup_of_rows(G.degree, G.elements()[full_transporter_mask(G, P, P)])
        assert normalizer(G, P).generators == want.generators, p
