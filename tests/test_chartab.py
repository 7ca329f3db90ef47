"""Exact cyclotomic arithmetic and character table construction."""

import json
from math import gcd

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from indres.catalog import build, special_linear2
from indres.chartab import (
    CharTable,
    Cyclotomic,
    IntegrityError,
    _class_matrices,
    _common_eigenvectors,
    _cyclotomic_coeffs,
    _dixon_prime,
    _prime_above,
    _unit_generators,
    character_table,
    inner_product,
    load_table,
    save_table,
    table_from_json,
    table_to_json,
    verify_table,
)
from indres.groupcore import MILLER_RABIN_BOUND


def cyc(modulus, pairs):
    c = Cyclotomic(modulus)
    for e, n in pairs:
        c = c + Cyclotomic.zeta(modulus, e) * n
    return c


moduli = st.sampled_from([1, 2, 3, 4, 6, 8, 12])


@st.composite
def cyclotomics(draw, modulus=None):
    m = modulus if modulus is not None else draw(moduli)
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=m - 1),
                st.integers(min_value=-5, max_value=5),
            ),
            max_size=4,
        )
    )
    return cyc(m, pairs)


@given(st.data(), moduli)
def test_ring_axioms(data, m):
    a = data.draw(cyclotomics(m))
    b = data.draw(cyclotomics(m))
    c = data.draw(cyclotomics(m))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(st.data(), moduli)
def test_conjugation_is_an_involution(data, m):
    a = data.draw(cyclotomics(m))
    assert a.conjugate().conjugate() == a


@given(st.data(), moduli)
def test_sort_key_separates_exactly(data, m):
    a = data.draw(cyclotomics(m))
    b = data.draw(cyclotomics(m))
    assert (a.sort_key() == b.sort_key()) == (a == b)


@given(st.integers(min_value=-40, max_value=40), moduli)
def test_integer_embedding(n, m):
    c = Cyclotomic.from_int(m, n)
    assert c.is_integer()
    assert c.as_int() == n


def test_rebase_preserves_value():
    # a primitive 3rd root written in the 12th cyclotomic field
    w3 = Cyclotomic.zeta(3, 1)
    w12 = w3.rebase(12)
    assert w12.modulus == 12
    assert w12 * w12 * w12 == Cyclotomic.from_int(12, 1)


def test_exact_div():
    c = Cyclotomic.from_int(6, 12)
    assert c.exact_div(4).as_int() == 3
    with pytest.raises(ValueError):
        Cyclotomic.from_int(6, 8).exact_div(12)


def test_root_relations():
    # 1 + w + w^2 = 0 for a primitive cube root
    w = Cyclotomic.zeta(3, 1)
    one = Cyclotomic.from_int(3, 1)
    assert one + w + w * w == Cyclotomic(3)
    i = Cyclotomic.zeta(4, 1)
    assert i * i == Cyclotomic.from_int(4, -1)


def test_cyclotomic_coeffs_match_sympy():
    x = sympy.symbols("x")
    for m in range(1, 400):
        expect = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert _cyclotomic_coeffs(m) == [int(c) for c in expect], m


def test_dixon_prime_conditions():
    for order, exponent, k in [(24, 12, 5), (60, 30, 5), (720, 60, 11)]:
        p = _dixon_prime(order, exponent, k)
        assert p % exponent == 1
        assert p * p > 4 * order
        assert p > k


def test_prime_above_refuses_the_miller_rabin_bound():
    assert _prime_above(10**6, 12) == next(
        l for l in range(10**6 + 1, 2 * 10**6) if l % 12 == 1 and sympy.isprime(l))
    with pytest.raises(IntegrityError, match="Miller-Rabin bound"):
        _prime_above(MILLER_RABIN_BOUND - 1, 12)


def test_unit_generators_generate_all_units():
    for m in range(1, 401):
        gens = _unit_generators(m)
        seen = {1 % m}
        frontier = list(seen)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = x * g % m
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        assert seen == {a for a in range(m) if gcd(a, m) == 1}, m


@pytest.mark.parametrize(
    "name,degrees",
    [
        ("S3", [1, 1, 2]),
        ("S4", [1, 1, 2, 3, 3]),
        ("A4", [1, 1, 1, 3]),
        ("A5", [1, 3, 3, 4, 5]),
        ("Q8", [1, 1, 1, 1, 2]),
        ("D8", [1, 1, 1, 1, 2]),
        ("SL2_3", [1, 1, 1, 2, 2, 2, 3]),
    ],
)
def test_degree_vectors(name, degrees):
    assert character_table(build(name)).degrees == degrees


def test_s3_values():
    t = character_table(build("S3"))
    # classes are ordered id, transpositions, 3-cycles; the two linear rows
    # come out with the sign character first (row sort is value-based)
    assert [v.as_int() for v in t.irreducibles[2]] == [2, 0, -1]
    assert [v.as_int() for v in t.irreducibles[0]] == [1, -1, 1]
    assert [v.as_int() for v in t.irreducibles[1]] == [1, 1, 1]


def test_q8_center_value():
    t = character_table(build("Q8"))
    two_dim = t.irreducibles[4]
    central = [j for j in range(t.k) if t.classes[j].size == 1 and j != 0]
    assert len(central) == 1
    assert two_dim[central[0]].as_int() == -2


def test_a5_golden_ratio_entries():
    """The two degree 3 rows carry (1 +- sqrt 5)/2 on the 5-cycles; exact
    arithmetic sees that through sum and product of the pair of values."""
    t = character_table(build("A5"))
    five = [j for j in range(t.k) if t.classes[j].rep_order == 5]
    assert len(five) == 2
    rows = [i for i, d in enumerate(t.degrees) if d == 3]
    one = Cyclotomic.from_int(t.exponent, 1)
    for i in rows:
        a, b = t.irreducibles[i][five[0]], t.irreducibles[i][five[1]]
        assert a + b == one
        assert a * b == Cyclotomic.from_int(t.exponent, -1)
        assert not a.is_integer()


def test_orthogonality_is_verified():
    verify_table(character_table(build("S5")))


def test_row_inner_products():
    t = character_table(build("S4"))
    for i in range(t.k):
        for j in range(t.k):
            ip = inner_product(t, t.irreducibles[i], t.irreducibles[j])
            assert ip == (1 if i == j else 0)


def _with_rows(t, rows):
    return CharTable(
        group_order=t.group_order,
        exponent=t.exponent,
        classes=t.classes,
        irreducibles=rows,
        degrees=list(t.degrees),
        group=t.group,
    )


def test_verify_catches_tampering():
    t = character_table(build("S3"))
    bad = _with_rows(t, [list(r) for r in t.irreducibles])
    bad.irreducibles[2][1] = Cyclotomic.from_int(t.exponent, 1)
    with pytest.raises(IntegrityError):
        verify_table(bad)
    short = _with_rows(t, [list(r) for r in t.irreducibles])
    short.irreducibles[2].pop()
    with pytest.raises(IntegrityError, match="not square"):
        verify_table(short)


@pytest.mark.parametrize("name", ["A5", "M11"])
def test_every_single_entry_tampering_is_caught(name):
    """+1 or +zeta_m at any entry off the identity class breaks the table."""
    t = character_table(build(name))
    m = t.exponent
    for i in range(t.k):
        for j in range(1, t.k):
            for delta in (Cyclotomic.from_int(m, 1), Cyclotomic.zeta(m)):
                rows = [list(r) for r in t.irreducibles]
                rows[i][j] = rows[i][j] + delta
                with pytest.raises(IntegrityError):
                    verify_table(_with_rows(t, rows))


def test_repeated_row_is_caught():
    """S3 with its sign row replaced by the trivial row: the rows must be
    distinct for the Galois action to permute them."""
    t = character_table(build("S3"))
    rows = [list(t.irreducibles[1]), list(t.irreducibles[1]), list(t.irreducibles[2])]
    with pytest.raises(IntegrityError, match="repeats a row"):
        verify_table(_with_rows(t, rows))


def test_value_outside_the_table_field_is_caught():
    t = character_table(build("S3"))
    rows = [list(r) for r in t.irreducibles]
    rows[2][2] = Cyclotomic.from_int(2 * t.exponent, -1)
    with pytest.raises(IntegrityError, match="cyclotomic field"):
        verify_table(_with_rows(t, rows))


def test_table_building_multiplies_no_cyclotomics(monkeypatch):
    def refuse(self, other):
        raise AssertionError("a cyclotomic product was computed")

    monkeypatch.setattr(Cyclotomic, "__mul__", refuse)
    monkeypatch.setattr(Cyclotomic, "__rmul__", refuse)
    verify_table(character_table(build("M11")))


def _full_class_matrices(G, p):
    """A_i[j][l] = #{g in C_i : g^-1 z_l in C_j} mod p from one sweep over
    every g in G, for the non-identity classes, smallest class first."""
    classes = G.class_data()
    k = len(classes)
    E, Einv, ids = G.elements(), G.inverses(), G.class_ids()
    A = np.zeros((k, k, k), dtype=np.int64)
    for l, c in enumerate(classes):
        lands = G.index_of(Einv[:, np.asarray(c.representative, dtype=E.dtype)])
        np.add.at(A, (ids, ids[lands], l), 1)
    return [A[i] % p for i in sorted(range(1, k), key=lambda i: classes[i].size)]


@pytest.mark.parametrize("name", ["S4", "M11", "SL2_13"])
def test_class_matrices_match_a_full_build(name):
    G = build(name)
    k = len(G.class_data())
    p = _dixon_prime(G.order(), G.exponent(), k)
    got = list(_class_matrices(G, p))
    expect = _full_class_matrices(G, p)
    assert len(got) == len(expect) == k - 1
    for A, B in zip(got, expect):
        assert np.array_equal(A, B)


def test_common_eigenvectors_stop_before_the_next_matrix():
    def mats():
        yield np.diag([0, 1, 2])
        raise AssertionError("a matrix was drawn after the split was complete")

    vecs = _common_eigenvectors(mats(), 3, 7)
    assert sorted(tuple(int(x) for x in v) for v in vecs) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def _assert_columns_orthogonal(table):
    """Column orthogonality, sum_r X[r][i] conj(X[r][j]) = |C_G(x_i)| [i = j],
    checked entry by entry.  `verify_table` proves it from squareness and
    row orthogonality instead; this keeps the identity pinned on its own."""
    k, rows = table.k, table.irreducibles
    sizes = table.class_sizes()
    for i in range(k):
        for j in range(i, k):
            acc = Cyclotomic(table.exponent)
            for r in range(k):
                acc = acc + rows[r][i] * rows[r][j].conjugate()
            assert acc == (table.group_order // sizes[i] if i == j else 0), (i, j)


@pytest.mark.parametrize("name", ["S4", "A5", "SL2_7", "M11"])
def test_columns_are_orthogonal(name):
    G = special_linear2(7) if name == "SL2_7" else build(name)
    _assert_columns_orthogonal(character_table(G))


def test_columns_of_a_loaded_table_are_orthogonal():
    G = build("SL2_3")
    loaded = table_from_json(table_to_json(character_table(G)), group=G)
    _assert_columns_orthogonal(loaded)


def test_sum_of_degree_squares():
    for name in ["S4", "A5", "SL2_3", "D8xC3"]:
        t = character_table(build(name))
        assert sum(d * d for d in t.degrees) == t.group_order


@pytest.mark.parametrize("name", ["S4", "SL2_3", "Q8"])
def test_json_round_trip_lossless(name):
    G = build(name)
    t = character_table(G)
    data = table_to_json(t)
    back = table_from_json(data, group=G)
    assert back.degrees == t.degrees
    assert back.exponent == t.exponent
    assert all(
        back.irreducibles[i][j] == t.irreducibles[i][j]
        for i in range(t.k)
        for j in range(t.k)
    )


def test_json_orders_are_decimal_strings():
    data = table_to_json(character_table(build("S4")))
    assert data["order"] == "24"
    # serialization is byte stable
    s1 = json.dumps(data, sort_keys=True, indent=2)
    s2 = json.dumps(table_to_json(character_table(build("S4"))), sort_keys=True, indent=2)
    assert s1 == s2


def test_save_load_file(tmp_path):
    G = build("A4")
    t = character_table(G)
    path = tmp_path / "a4.json"
    save_table(t, str(path))
    back = load_table(str(path), group=G)
    assert back.degrees == t.degrees
    assert back.group is G


def test_load_reconciles_class_order(tmp_path):
    """A stored table with its columns shuffled is reindexed against the
    group's own class order on load."""
    G = build("S3")
    t = character_table(G)
    data = table_to_json(t)
    perm = [0, 2, 1]
    inv = [perm.index(j) for j in range(3)]
    data["classes"] = [
        {**data["classes"][j], "powermap": {
            q: inv[i] for q, i in data["classes"][j]["powermap"].items()
        }}
        for j in perm
    ]
    data["irreducibles"] = [[row[j] for j in perm] for row in data["irreducibles"]]
    back = table_from_json(data, group=G)
    for i in range(t.k):
        assert [v.sort_key() for v in back.irreducibles[i]] == [
            v.sort_key() for v in t.irreducibles[i]
        ]


def test_load_rebases_values_to_the_exponent():
    """A value stored over a divisor of the exponent loads as the same
    element of the table's field; one over a non-divisor is refused."""
    G = build("S4")
    t = character_table(G)
    data = table_to_json(t)
    for row in data["irreducibles"]:
        for v in row:
            if all(e == 0 for e, _ in v["terms"]):
                v["modulus"] = 1
    back = table_from_json(data, group=G)
    assert all(v.modulus == t.exponent for row in back.irreducibles for v in row)
    assert [[v.sort_key() for v in row] for row in back.irreducibles] == [
        [v.sort_key() for v in row] for row in t.irreducibles
    ]
    zero = next(v for row in data["irreducibles"] for v in row if not v["terms"])
    zero["modulus"] = 5
    with pytest.raises(IntegrityError, match="does not divide"):
        table_from_json(data, group=G)
