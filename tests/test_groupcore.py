"""Arithmetic on image tuples, stabilizer chains, and the intersection set."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indres import groupcore
from indres.catalog import BUILDERS, build, perm_from_cycles, special_linear2
from indres.chartab import character_table
from indres.groupcore import (
    BudgetExceeded,
    IntegrityError,
    PermGroup,
    conjugacy_classes,
    centralizer,
    group_from_generators,
    intersection_set_maxima,
    normalizer,
    prime_factors,
    product_group,
    qualifying_elementary_subgroups,
    split_product_images,
    sylow_subgroup,
    v_p,
    _index_set,
    _conj,
    _inv,
    _maximal_sets,
    _mul,
    _perm_order,
    _perm_power,
    _qualifying_copies,
    _subgroup_of_rows,
)
from indres.oracles import all_subgroups

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
        with pytest.raises(ValueError):
            v_p(n, p)


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
            copies = _qualifying_copies(side, s_maxima)
            for c in side.class_data():
                if c.rep_order == 1 or c.rep_order % p == 0:
                    continue
                T = sylow_subgroup(centralizer(side, c.representative), p)
                subs = [_index_set(side, S.elements()) for S in all_subgroups(T)]
                good = [F for F in subs if any(F <= K for K in copies)]
                brute = [F for F in good if not any(F < K for K in good)]
                got = _maximal_sets(_index_set(side, T.elements()) & K for K in copies)
                assert got == sorted(brute, key=lambda s: (-len(s), sorted(s)))


def _brauer_family_sets(group):
    """Element sets of ⟨c⟩ x Sylow_ℓ(C(c)) for every prime ℓ dividing the
    order and every class of ℓ'-elements c, ordered by size and then by
    sorted members: the elementary family of Brauer's induction theorem,
    built directly."""
    sets = set()
    for ell in prime_factors(group.order()):
        for c in group.class_data():
            if c.rep_order % ell == 0:
                continue
            rep = c.representative
            S = sylow_subgroup(centralizer(group, rep), ell)
            sets.add(_index_set(group, PermGroup(group.degree, [rep, *S.generators]).elements()))
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


@pytest.mark.parametrize(
    "name", [n for n, make in BUILDERS.items() if make().order() <= 20000]
)
def test_sylow_maximum_gives_brauer_family(name):
    """With the Sylow p-subgroup as the one maximum every p-subgroup
    qualifies, and the qualifying family is Brauer's, at every prime."""
    G = build(name)
    want = _brauer_family_sets(G)
    for p in prime_factors(G.order()):
        got = qualifying_elementary_subgroups(G, p, [sylow_subgroup(G, p)])
        assert [_index_set(G, E.elements()) for E in got] == want


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


def test_conjugacy_budget_enforced():
    with pytest.raises(BudgetExceeded):
        conjugacy_classes(build("M11"), budget_order=100)


def test_class_budget_does_not_depend_on_call_history():
    G = build("S4")
    conjugacy_classes(G)
    with pytest.raises(BudgetExceeded):
        conjugacy_classes(G, budget_order=10)
    with pytest.raises(BudgetExceeded):
        character_table(G, budget_order=10)


def test_subgroup_of_rows_rejects_unclosed_rows():
    for rows in (
        [(0, 1, 2, 3), (1, 2, 0, 3)],  # the identity and a 3-cycle alone
        # (01) and (23) generate a group of order 4 before the last row, a
        # 4-cycle outside it
        [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 2, 3, 0)],
    ):
        with pytest.raises(IntegrityError):
            _subgroup_of_rows(4, rows)


def test_subgroup_of_rows_rejects_duplicate_rows():
    # three rows but only two elements: the 3-cycle generates C3 before the
    # repeat, so a count of rows alone matches the order
    with pytest.raises(IntegrityError):
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
    for c, pc in zip(G.class_data(), G.power_classes()):
        rep = c.representative
        assert list(pc) == [G.class_of(_perm_power(rep, t)) for t in range(c.rep_order)]
        assert c.power_map == {q: G.class_of(_perm_power(rep, q)) for q in primes}


def test_index_of_elements_is_arange(indexed_group):
    G = indexed_group
    assert np.array_equal(G.index_of(G.elements()), np.arange(G.order()))


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
    E, Einv = G.elements(), G.inverses()
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


@pytest.mark.parametrize("name", ["S4", "A5", "SL2_7"])
def test_centralizer_elements_are_the_commuting_rows(name):
    G = INDEX_GROUPS[name]()
    rows = [tuple(int(v) for v in r) for r in G.elements()]
    for c in conjugacy_classes(G):
        x = c.representative
        commuting = {g for g in rows if _mul(g, x) == _mul(x, g)}
        got = {tuple(int(v) for v in r) for r in centralizer(G, x).elements()}
        assert got == commuting
