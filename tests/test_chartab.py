"""Exact cyclotomic arithmetic and character table construction."""

import json
from math import gcd

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from indres.catalog import build, cyclic, special_linear2
from indres.chartab import (
    _ROOT_BLOCK,
    CharTable,
    Cyclotomic,
    IntegrityError,
    _check_int64,
    _class_matrices,
    _common_eigenvectors,
    _cyclotomic_coeffs,
    _dixon_prime,
    _inverse_dft,
    _nullspace_mod,
    _poly_roots_mod,
    _prime_above,
    _root_of_unity,
    _rref_mod,
    _unit_generators,
    character_table,
    inner_product,
    load_table,
    save_table,
    table_from_json,
    table_to_json,
    verify_table,
)
from indres.groupcore import (MILLER_RABIN_BOUND, BudgetExceeded, PermGroup,
                              _perm_power, conjugacy_classes, product_group)


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


# Scalar F_p kernels, one row operation or one point at a time: the
# array kernels of `chartab` must agree with them exactly.

def _scalar_rref(M, p):
    M = M % p
    rows, cols = M.shape
    r = 0
    pivots = []
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if M[i, c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        M[[r, pivot]] = M[[pivot, r]]
        M[r] = (M[r] * pow(int(M[r, c]), -1, p)) % p
        for i in range(rows):
            if i != r and M[i, c]:
                M[i] = (M[i] - M[i, c] * M[r]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return M[:r], pivots


def _scalar_nullspace(M, p):
    R, pivots = _scalar_rref(M.copy(), p)
    cols = M.shape[1]
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = np.zeros(cols, dtype=np.int64)
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-R[r, f]) % p
        basis.append(v)
    return basis


def _scalar_roots(coeffs, p):
    roots = []
    for x in range(p):
        acc = 0
        for c in coeffs:
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
            if len(roots) == len(coeffs) - 1:
                break
    return roots


def _scalar_lift(block, z, p):
    """mult[r][j] = (1/n) sum_t block[r][t] z^(-jt) mod p, entry by entry."""
    n = len(block[0])
    n_inv = pow(n, -1, p)
    out = []
    for row in block:
        mult = []
        for j in range(n):
            acc = 0
            zj = pow(z, (-j) % (p - 1), p)
            zjk = 1
            for t in range(n):
                acc = (acc + row[t] * zjk) % p
                zjk = (zjk * zj) % p
            mult.append(acc * n_inv % p)
        out.append(mult)
    return out


# 65537 and 1000003 lie above 2^16, so a product of two residues overflows
# int32; at 2^31 - 1 a product of two residues nearly fills int64.
KERNEL_PRIMES = [2, 7, 1093, 65537, 1000003, 2**31 - 1]


def _random_matrices(rng, p):
    """Full-rank, rank-deficient, wide, tall and zero matrices mod p."""
    for rows, cols in [(1, 1), (3, 3), (4, 7), (7, 4), (9, 9)]:
        yield rng.integers(0, p, (rows, cols), dtype=np.int64)
        rank = max(1, min(rows, cols) - 2)
        left = rng.integers(0, p, (rows, rank), dtype=np.int64)
        right = rng.integers(0, p, (rank, cols), dtype=np.int64)
        yield (left.astype(object) @ right % p).astype(np.int64)
        yield np.zeros((rows, cols), dtype=np.int64)
    yield np.diag([0, 1, 0, 1]).astype(np.int64)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_rref_and_nullspace_match_the_scalar_loops(p):
    rng = np.random.default_rng(p)
    for M in _random_matrices(rng, p):
        R, pivots = _rref_mod(M, p)
        R0, pivots0 = _scalar_rref(M.copy(), p)
        assert pivots == pivots0 and np.array_equal(R, R0)
        ker = _nullspace_mod(M, p)
        ker0 = _scalar_nullspace(M, p)
        assert len(ker) == len(ker0) == M.shape[1] - len(pivots)
        assert all(np.array_equal(v, v0) for v, v0 in zip(ker, ker0))
        assert not (M.astype(object) @ ker.T.astype(object) % p).any()


@pytest.mark.parametrize("p", [2, 7, 1093, 65537])
def test_poly_roots_match_the_scalar_scan(p):
    rng = np.random.default_rng(p)
    for d in (1, 2, 3, 5):
        for _ in range(4):
            # a random monic polynomial, and one that splits with a repeat
            coeffs = [1] + rng.integers(0, p, d).tolist()
            assert _poly_roots_mod(coeffs, p) == _scalar_roots(coeffs, p)
            roots = rng.integers(0, p, d).tolist()
            roots[-1] = roots[0]
            split = [1]
            for r in roots:
                split = [(a - r * b) % p for a, b in zip(split + [0], [0] + split)]
            assert _poly_roots_mod(split, p) == _scalar_roots(split, p) == sorted(set(roots))


def test_poly_roots_span_blocks_and_stop_at_the_last_root():
    p = 1000003
    roots = [5, _ROOT_BLOCK - 1, _ROOT_BLOCK, 3 * _ROOT_BLOCK + 7]
    coeffs = [1]
    for r in roots:
        coeffs = [(a - r * b) % p for a, b in zip(coeffs + [0], [0] + coeffs)]
    assert _poly_roots_mod(coeffs, p) == roots
    assert _poly_roots_mod([1, 0, 1], 3) == []  # x^2 + 1 has no root mod 3


@pytest.mark.parametrize("n", [1, 2, 3, 6, 12, 53])
def test_inverse_dft_lift_matches_the_scalar_transform(n):
    rng = np.random.default_rng(n)
    for bound in (2, 2**16, 2**28):
        p = _prime_above(max(bound, n), n)
        _check_int64(n, p)
        z = _root_of_unity(p, n)
        block = rng.integers(0, p, (5, n), dtype=np.int64)
        got = block @ _inverse_dft(n, z, p) % p
        assert got.tolist() == _scalar_lift(block.tolist(), z, p)


@pytest.mark.parametrize("l,m", [(2, 1), (3, 1), (3, 2), (7, 3), (7, 6), (13, 4),
                                 (13, 12), (61, 60), (2521, 2520)])
def test_root_of_unity_has_order_exactly_m(l, m):
    w = _root_of_unity(l, m)
    assert pow(w, m, l) == 1
    assert all(pow(w, e, l) != 1 for e in range(1, m))


def test_int64_guard():
    _check_int64(15, 2641)
    _check_int64(1, 3037000500)  # 3037000499^2 < 2^63
    with pytest.raises(BudgetExceeded, match="overflow 64-bit"):
        _check_int64(1, 3037000501)
    with pytest.raises(BudgetExceeded, match="overflow 64-bit"):
        _check_int64(10**6, 22_000_001)


def _row_set(table):
    return {tuple(v.sort_key() for v in row) for row in table.irreducibles}


def _exponents(g, n):
    """The exponent b < n of each element g^b of <g>, by image tuple."""
    return {_perm_power(g, b): b for b in range(n)}


def test_cyclic_table_has_the_closed_form():
    """chi_a(g^b) = zeta^(ab) on C_106, a 53-cycle times a disjoint
    transposition: 106 classes, each of one element."""
    g = tuple(list(range(1, 53)) + [0] + [54, 53])
    G = PermGroup(55, [g])
    t = character_table(G)
    assert (t.group_order, t.k, t.exponent) == (106, 106, 106)
    b = _exponents(g, 106)
    bs = [b[c.representative] for c in t.classes]
    expect = {tuple(Cyclotomic.zeta(106, a * bi).sort_key() for bi in bs)
              for a in range(106)}
    assert _row_set(t) == expect


def test_product_of_cyclic_groups_has_the_closed_form():
    """chi_(a,c)(g^x h^y) = zeta_m^(a x m/n1 + c y m/n2) on C_12 x C_10."""
    n1, n2 = 12, 10
    G = product_group(cyclic(n1), cyclic(n2))
    t = character_table(G)
    m = t.exponent
    assert (t.k, m) == (n1 * n2, 60)
    g, h = G.generators
    xs, ys = _exponents(g, n1), _exponents(h, n2)
    coords = []
    for c in t.classes:
        rep = c.representative
        coords.append((xs[rep[:n1] + tuple(range(n1, n1 + n2))],
                       ys[tuple(range(n1)) + rep[n1:]]))
    expect = {
        tuple(Cyclotomic.zeta(m, a * x * (m // n1) + c * y * (m // n2)).sort_key()
              for x, y in coords)
        for a in range(n1) for c in range(n2)
    }
    assert _row_set(t) == expect


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


def _permute_columns(data, perm):
    """Stored table data whose class i is the class perm[i] of `data`."""
    inv = [perm.index(j) for j in range(len(perm))]
    data["classes"] = [
        {**data["classes"][j], "powermap": {
            q: inv[i] for q, i in data["classes"][j]["powermap"].items()
        }}
        for j in perm
    ]
    data["irreducibles"] = [[row[j] for j in perm] for row in data["irreducibles"]]
    return data


def test_load_reconciles_class_order(tmp_path):
    """A stored table with its columns shuffled is reindexed against the
    group's own class order on load."""
    G = build("S3")
    t = character_table(G)
    back = table_from_json(_permute_columns(table_to_json(t), [0, 2, 1]), G)
    for i in range(t.k):
        assert [v.sort_key() for v in back.irreducibles[i]] == [
            v.sort_key() for v in t.irreducibles[i]
        ]
    assert back.group is G
    assert back.classes is conjugacy_classes(G)
    assert back.dual_map() == t.dual_map()


def test_load_of_a_table_twisted_by_an_automorphism_is_the_computed_table():
    """A5's two classes of 5-elements agree in order, size and power maps,
    so a stored table with those columns swapped loads onto the group's
    classes unswapped; its rows are put back in the canonical order, which
    makes it the computed table."""
    G = build("A5")
    t = character_table(G)
    assert [c.rep_order for c in t.classes] == [1, 2, 3, 5, 5]
    back = table_from_json(_permute_columns(table_to_json(t), [0, 1, 2, 4, 3]), G)
    assert back.degrees == t.degrees
    assert [[v.sort_key() for v in row] for row in back.irreducibles] == [
        [v.sort_key() for v in row] for row in t.irreducibles
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
