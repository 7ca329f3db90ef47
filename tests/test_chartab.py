"""Exact cyclotomic arithmetic and character table construction."""

import json
import random
import re
from dataclasses import replace
from functools import reduce
from math import gcd, isqrt

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from conftest import inverse_rows, permute_columns, shared_group, shuffle_columns
from indres import chartab
from indres.catalog import BUILDERS, build, cyclic, special_linear2
from indres.chartab import (
    _ROOT_BLOCK,
    CharTable,
    Cyclotomic,
    IntegrityError,
    _charpoly_mod,
    _check_int64,
    _class_matrices,
    _common_eigenvectors,
    _cyclotomic_coeffs,
    _dot,
    _inverse_dft,
    _mod_dtype,
    _nullspace_mod,
    _phi_reduction,
    _poly_roots_mod,
    _prime_above,
    _root_of_unity,
    _rref_mod,
    _unit_generators,
    character_table,
    load_table,
    reconcile_classes,
    save_table,
    table_from_json,
    table_to_json,
    verify_table,
)
from indres.correspondence import table_for
from indres.groupcore import MILLER_RABIN_BOUND, BudgetExceeded, PermGroup, product_group
from indres.oracles import _perm_power, compare_with_table, inner_product


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


def _eager_reduction_rows(m):
    """Every row x^e mod Phi_m, d <= e < m, each from the one before: the
    reference for the rows `_phi_reduction` builds on demand."""
    coeffs = _cyclotomic_coeffs(m)
    d = len(coeffs) - 1
    tail = [-c for c in coeffs[:-1]]
    rows, cur = {}, list(tail)
    for e in range(d, m):
        rows[e] = tuple(cur)
        lead = cur[-1]
        cur = [0] + cur[:-1]
        for i in range(d):
            cur[i] += lead * tail[i]
    return rows


@pytest.mark.parametrize("ms", [range(1, 301), range(301, 601), [1092, 1320]],
                         ids=["m-to-300", "m-to-600", "m-1092-1320"])
def test_lazy_reduction_rows_match_the_eager_rows(ms):
    """Rows are looked up in a shuffled order, so most are built from a
    stored row below them rather than from x^d; only the rows looked up
    are stored."""
    rng = random.Random(0)
    for m in ms:
        want = _eager_reduction_rows(m)
        d, rows = _phi_reduction.__wrapped__(m)
        assert d == len(_cyclotomic_coeffs(m)) - 1
        order = list(want)
        rng.shuffle(order)
        asked = order[:len(order) // 3]
        assert [rows[e] for e in asked] == [want[e] for e in asked], m
        assert sorted(rows) == sorted(asked), m
        assert {e: rows[e] for e in order} == want, m
        for e in (d - 1, m):
            with pytest.raises(KeyError):
                rows[e]


def test_cyclotomic_coeffs_match_sympy():
    x = sympy.symbols("x")
    for m in range(1, 400):
        expect = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert _cyclotomic_coeffs(m) == [int(c) for c in expect], m


def _table_prime(G, monkeypatch):
    """The prime that `character_table(G)` works modulo, as `_check_int64`
    is handed it."""
    seen = []
    monkeypatch.setattr(chartab, "_check_int64", lambda n, p: seen.append(p))
    character_table(G)
    return seen[0]


def _c2_power(r):
    G = cyclic(2)
    for _ in range(r - 1):
        G = product_group(G, cyclic(2))
    return G


def test_dixon_prime_conditions(monkeypatch):
    """The table prime is the least p ≡ 1 (mod m) with p^2 > 4|G|; the class
    count plays no part, so C2^4 (k = 16) takes p = 11 and C2^6 (k = 64)
    p = 17."""
    primes = []
    for G in [build("S4"), build("A5"), build("S6"), _c2_power(4), _c2_power(6)]:
        order, m = G.order(), G.exponent()
        p = _table_prime(G, monkeypatch)
        assert p % m == 1
        assert p * p > 4 * order
        assert not any(sympy.isprime(q) and q * q > 4 * order for q in range(1, p, m))
        primes.append(p)
    assert primes[-2:] == [11, 17]


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
            ip = inner_product(t.class_sizes(), t.group_order,
                               t.irreducibles[i], t.irreducibles[j])
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
    with pytest.raises(IntegrityError, match="table over 3 classes is not square"):
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


def _loop_orthogonality(t):
    """The first (i, j), row-major, with sum_C |C| chi_i(C) conj chi_j(C) !=
    |G| delta_ij in F_l, one entry at a time, l and w as `verify_table`
    picks them; None when every entry vanishes."""
    m = t.exponent
    norm = max(sum(map(abs, v.terms.values())) for row in t.irreducibles for v in row)
    l = _prime_above(t.group_order * (1 + norm * norm), m)
    w = _root_of_unity(l, m)

    def image(v, root):
        return sum(c * pow(root, e, l) for e, c in v.terms.items()) % l

    wbar = pow(w, -1, l)
    for i, xi in enumerate(t.irreducibles):
        for j, yj in enumerate(t.irreducibles):
            total = sum(c.size * image(x, w) * image(y, wbar)
                        for c, x, y in zip(t.classes, xi, yj))
            if (total - (t.group_order if i == j else 0)) % l:
                return i, j
    return None


def _orthogonality_failure(t):
    try:
        verify_table(t)
    except IntegrityError as exc:
        found = re.fullmatch(r"row orthogonality fails at \((\d+),(\d+)\)", str(exc))
        return tuple(map(int, found.groups())) if found else str(exc)
    return None


@pytest.mark.parametrize("name", ["S5", "S6", "M11"])
def test_orthogonality_product_reports_the_loop_first_failure(name):
    """One k x k product finds the same first failing (i, j) as the entry
    loop.  Seeded tamperings add integers to one to three entries of the
    rational rows, which keeps the table Galois stable; one of them is
    10^10, so the prime passes 2^63 and the product runs on Python ints."""
    t = character_table(build(name))
    rational = [i for i, row in enumerate(t.irreducibles) if all(v.is_integer() for v in row)]
    rng = random.Random(5)
    assert _orthogonality_failure(t) is None and _loop_orthogonality(t) is None
    firsts = set()
    for trial in range(40):
        rows = [list(r) for r in t.irreducibles]
        for _ in range(rng.randint(1, 3)):
            i, j = rng.choice(rational), rng.randrange(1, t.k)
            delta = 10**10 if trial == 0 else rng.choice((-2, -1, 1, 2))
            rows[i][j] = rows[i][j] + Cyclotomic.from_int(t.exponent, delta)
        bad = _with_rows(t, rows)
        got = _orthogonality_failure(bad)
        if got is not None:
            assert got == _loop_orthogonality(bad)
            firsts.add(got)
    assert len(firsts) > 3, firsts


def test_mod_dtype_switches_at_the_int64_bound():
    """int64 exactly while n (l - 1)^2 < 2^63, and the product is exact on
    both sides of the bound."""
    l = 2**30 + 1  # (l - 1)^2 = 2^60
    for n, dtype in ((7, np.int64), (8, object)):
        assert (n * (l - 1) ** 2 < 2**63) == (dtype is np.int64)
        assert _mod_dtype(n, l) is dtype
        A = np.full((2, n), l - 1, dtype=np.int64)
        got = _dot(A, A.T, l)
        assert got.dtype == dtype
        assert got.tolist() == [[n * (l - 1) ** 2] * 2] * 2
    with pytest.raises(BudgetExceeded):
        _check_int64(8, l)
    _check_int64(7, l)


def test_repeated_row_is_caught():
    """S3 with its sign row replaced by the trivial row: the rows must be
    distinct for the Galois action to permute them."""
    t = character_table(build("S3"))
    rows = [list(t.irreducibles[1]), list(t.irreducibles[1]), list(t.irreducibles[2])]
    with pytest.raises(IntegrityError, match="table repeats a row"):
        verify_table(_with_rows(t, rows))


def test_value_outside_the_table_field_is_caught():
    t = character_table(build("S3"))
    rows = [list(r) for r in t.irreducibles]
    rows[2][2] = Cyclotomic.from_int(2 * t.exponent, -1)
    with pytest.raises(IntegrityError,
                       match="a value does not lie in the table's cyclotomic field"):
        verify_table(_with_rows(t, rows))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda t: {"degrees": [1, 1, 3]}, "degree squares do not sum to the group order"),
        (lambda t: {"classes": [replace(c, size=c.size + 1) for c in t.classes]},
         "class sizes do not sum to the group order"),
        # the same degrees, so their squares still sum to 6
        (lambda t: {"degrees": [1, 2, 1]}, "identity-class value disagrees with the degree"),
    ],
    ids=["degree-squares", "class-sizes", "identity-column"],
)
def test_verify_checks_degrees_class_sizes_and_the_identity_column(edit, message):
    t = character_table(build("S3"))
    with pytest.raises(IntegrityError, match=message):
        verify_table(replace(t, **edit(t), _cache={}))


def test_a_row_without_its_galois_conjugate_is_caught():
    """C3 with zeta_3 + 1 in place of zeta_3 in one row: the rows stay
    distinct, but no row is the image of that one under zeta -> zeta^2."""
    t = character_table(cyclic(3))
    rows = [list(r) for r in t.irreducibles]
    i = next(i for i, r in enumerate(rows) if not r[1].is_integer())
    rows[i][1] = rows[i][1] + 1
    with pytest.raises(IntegrityError, match="table is not Galois stable"):
        verify_table(_with_rows(t, rows))


def test_table_building_multiplies_no_cyclotomics(monkeypatch):
    def refuse(self, other):
        raise AssertionError("a cyclotomic product was computed")

    monkeypatch.setattr(Cyclotomic, "__mul__", refuse)
    monkeypatch.setattr(Cyclotomic, "__rmul__", refuse)
    verify_table(character_table(build("M11")))


def test_table_whose_prime_is_below_the_class_count_matches_the_oracle():
    """C2^4 is built modulo p = 11 (`test_dixon_prime_conditions`), below its
    k = 16 classes, and its table is the brute-force one."""
    G = _c2_power(4)
    t = character_table(G)
    assert t.k == 16
    assert compare_with_table(G, t)


def _full_class_matrices(G, p):
    """A_i[j][l] = #{g in C_i : g^-1 z_l in C_j} mod p from one sweep over
    every g in G, for the non-identity classes, smallest class first."""
    classes = G.class_data()
    k = len(classes)
    E, ids = G.elements(), G.class_ids()
    Einv = inverse_rows(E)
    A = np.zeros((k, k, k), dtype=np.int64)
    for l, c in enumerate(classes):
        lands = G.index_of(Einv[:, np.asarray(c.representative, dtype=E.dtype)])
        np.add.at(A, (ids, ids[lands], l), 1)
    return [A[i] % p for i in sorted(range(1, k), key=lambda i: classes[i].size)]


@pytest.mark.parametrize("name", ["S4", "M11", "SL2_13"])
def test_class_matrices_match_a_full_build(name):
    G = build(name)
    k = len(G.class_data())
    p = _prime_above(isqrt(4 * G.order()), G.exponent())
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


def test_class_matrices_that_do_not_split_are_caught():
    # a scalar matrix splits nothing, and no matrix follows it
    with pytest.raises(IntegrityError, match="class matrices do not split into k eigenvectors"):
        _common_eigenvectors(iter([np.eye(3, dtype=np.int64)]), 3, 7)


@pytest.mark.parametrize(
    "helper, edit, message",
    [
        ("_common_eigenvectors",
         lambda vecs, mats, k, p: [np.concatenate(([0], v[1:])) for v in vecs],
         "eigenvector vanishes on the identity class"),
        # the sum of two eigenvectors is no eigenvector: its trace gives no degree
        ("_common_eigenvectors",
         lambda vecs, mats, k, p: [vecs[0], (vecs[1] + vecs[2]) % p, vecs[2]],
         "degree recovery failed"),
        # -chi(1) mod p exceeds chi(1) at the identity class
        ("_inverse_dft", lambda F, n, z, p: (p - 1) * np.eye(n, dtype=np.int64),
         "multiplicity lift out of range"),
        ("_inverse_dft", lambda F, n, z, p: 0 * F,
         "root-of-unity multiplicities do not sum to degree"),
    ],
    ids=["vanishing-eigenvector", "no-degree", "lift-out-of-range", "lift-short"],
)
def test_table_build_checks_each_step(monkeypatch, helper, edit, message):
    """S3's table built with one intermediate of the Dixon split or of the
    lift corrupted: the check that reads it refuses the build."""
    real = getattr(chartab, helper)
    monkeypatch.setattr(chartab, helper, lambda *args: edit(real(*args), *args))
    with pytest.raises(IntegrityError, match=message):
        character_table(build("S3"))


def test_dual_map_checks_the_rows_it_finds(monkeypatch):
    t = character_table(build("S3"))
    keys = list(t.row_index())
    monkeypatch.setattr(t, "row_index", lambda: {})
    with pytest.raises(IntegrityError, match="conjugate row missing from table"):
        t.dual_map()
    monkeypatch.setattr(t, "row_index", lambda: dict.fromkeys(keys, 0))
    with pytest.raises(IntegrityError, match="row conjugation is not an involution"):
        t.dual_map()


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


def _newton_charpoly(R, p):
    """The characteristic polynomial mod p from the traces of d matrix
    powers and Newton's identities, which divide by 1..d: only for p > d."""
    d = len(R)
    traces = []
    Rk = np.eye(d, dtype=np.int64)
    for _ in range(d):
        Rk = (Rk @ R) % p
        traces.append(int(np.trace(Rk)) % p)
    # e_0 = 1; j e_j = sum_{i=1}^{j} (-1)^{i-1} e_{j-i} t_i
    e = [1]
    for j in range(1, d + 1):
        s = sum((-1) ** (i - 1) * e[j - i] * traces[i - 1] for i in range(1, j + 1))
        e.append(s * pow(j, -1, p) % p)
    return [(-1) ** j * e[j] % p for j in range(d + 1)]


def _charpoly_matrices(rng, d, bound):
    """A dense, a sparse and a block-diagonal d x d matrix with entries in
    [0, bound); the last has zero subdiagonal entries between its blocks."""
    dense = rng.integers(0, bound, (d, d), dtype=np.int64)
    sparse = dense * (rng.random((d, d)) < 0.15)
    block = np.zeros((d, d), dtype=np.int64)
    lo = 0
    while lo < d:
        hi = min(d, lo + int(rng.integers(1, 5)))
        block[lo:hi, lo:hi] = rng.integers(0, bound, (hi - lo, hi - lo))
        lo = hi
    return {"dense": dense, "sparse": sparse, "block": block}


@pytest.mark.parametrize("kind", ["dense", "sparse", "block"])
def test_charpoly_matches_newtons_identities_above_d(kind):
    rng = np.random.default_rng(len(kind))
    for d in range(1, 41):
        for p in (sympy.nextprime(d), 1321, 2111, 1000003):
            R = _charpoly_matrices(rng, d, p)[kind]
            assert _charpoly_mod(R, p) == _newton_charpoly(R, p), (d, p)


@pytest.mark.parametrize("kind", ["dense", "sparse", "block"])
def test_charpoly_matches_sympy_for_every_prime(kind):
    """Against sympy's charpoly over Z reduced mod p, for primes at and
    below d as well, where Newton's identities would divide by zero."""
    rng = np.random.default_rng(10 + len(kind))
    for d in range(1, 9):
        for _ in range(3):
            R = _charpoly_matrices(rng, d, 9)[kind]
            exact = sympy.Matrix(R.tolist()).charpoly().all_coeffs()
            for p in (2, 3, 5, 7, 11, 13, 1321):
                assert _charpoly_mod(R, p) == [int(c) % p for c in exact], (d, p)


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
    with pytest.raises(BudgetExceeded,
                       match="overflow 64-bit integers; the table is out of reach"):
        _check_int64(1, 3037000501)
    with pytest.raises(BudgetExceeded, match="overflow 64-bit"):
        _check_int64(10**6, 22_000_001)


def _row_set(table):
    return {tuple(v.sort_key() for v in row) for row in table.irreducibles}


def _exponents(g, n):
    """The exponent b < n of each element g^b of <g>, by image tuple."""
    return {_perm_power(g, b): b for b in range(n)}


def _assert_cyclic_closed_form(G, g):
    """chi_a(g^b) = zeta^(ab) on G = <g> of order n: n classes, each of one
    element."""
    n = G.order()
    t = character_table(G)
    assert (t.group_order, t.k, t.exponent) == (n, n, n)
    b = _exponents(g, n)
    bs = [b[c.representative] for c in t.classes]
    expect = {tuple(Cyclotomic.zeta(n, a * bi).sort_key() for bi in bs)
              for a in range(n)}
    assert _row_set(t) == expect


# C_106 on 55 points: a 53-cycle times a disjoint transposition
C106 = tuple(list(range(1, 53)) + [0] + [54, 53])


def test_cyclic_table_has_the_closed_form():
    """The closed form on C_106, a 53-cycle times a disjoint transposition."""
    _assert_cyclic_closed_form(PermGroup(55, [C106]), C106)


@pytest.mark.parametrize("n", [255, 256, 257])
def test_cyclic_groups_on_the_row_width_boundary(n):
    """Element rows are uint8 on at most 256 points and int16 beyond.  On
    C_n, each width locates every element at its own row and refuses a
    row with the images of its two highest points swapped; C_106 moved
    onto the highest 55 of n points has the closed-form table.  (C_n's own
    table, with n classes, takes seconds to split.)"""
    width = np.uint8 if n <= 256 else np.int16
    G = cyclic(n)
    E = G.elements()
    assert E.dtype == width
    assert np.array_equal(G.index_of(E), np.arange(n))
    swapped = E.copy()
    swapped[:, [n - 2, n - 1]] = E[:, [n - 1, n - 2]]
    assert (G.index_of(swapped) == -1).all()
    shift = n - len(C106)
    g = tuple(range(shift)) + tuple(x + shift for x in C106)
    top = PermGroup(n, [g])
    assert top.elements().dtype == width
    _assert_cyclic_closed_form(top, g)


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
    t = character_table(G)
    loaded = table_from_json(table_to_json(t), t)
    assert loaded is t
    _assert_columns_orthogonal(loaded)


def test_sum_of_degree_squares():
    for name in ["S4", "A5", "SL2_3", "D8xC3"]:
        t = character_table(build(name))
        assert sum(d * d for d in t.degrees) == t.group_order


@pytest.mark.parametrize("name", ["S4", "SL2_3", "Q8"])
def test_json_round_trip_lossless(name):
    G = build(name)
    t = character_table(G)
    assert table_from_json(json.loads(json.dumps(table_to_json(t))), t) is t


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
    assert load_table(str(path), t) is t


def test_load_reconciles_class_order(tmp_path):
    """A stored table with its columns shuffled is matched with the group's
    own classes: stored class i is the group's class perm[i]."""
    G = build("S3")
    t = character_table(G)
    data = permute_columns(table_to_json(t), [0, 2, 1])
    stored = [(c["size"], c["rep_order"], {int(q): i for q, i in c["powermap"].items()})
              for c in data["classes"]]
    rows = [[Cyclotomic.from_json(v, t.exponent) for v in row] for row in data["irreducibles"]]
    assert reconcile_classes(stored, rows, t) == [0, 2, 1]
    assert table_from_json(data, t) is t


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ["S5", "SL2_13", "PSU3_3", "SL2_19"])
def test_a_column_shuffle_loads_as_the_computed_table(name, seed):
    """Seeded shuffles of these tables match the group's own table."""
    t = table_for(shared_group(name))
    data = json.loads(json.dumps(table_to_json(t)))
    assert table_from_json(shuffle_columns(data, seed), t) is t


_MANY_EQUAL_CLASSES = {
    "C2^4": [2] * 4, "C3^3": [3] * 3, "C4xC4": [4, 4], "C6xC6": [6, 6],
    "C2xC2xS3": [2, 2, "S3"], "C2xS4": [2, "S4"], "C3xA4": [3, "A4"],
    "C2xC2xA4": [2, 2, "A4"],
}


@pytest.mark.parametrize("name", sorted(_MANY_EQUAL_CLASSES) + sorted(BUILDERS))
def test_shuffles_load_well_inside_the_step_bound(name, monkeypatch):
    """Seeded shuffles of groups with many classes of one size, and of every
    catalog group, match the group's own table in at most 1000 candidate
    checks (the most any of them needs is under 200)."""
    if name in BUILDERS:
        t = table_for(shared_group(name))
    else:
        factors = [cyclic(f) if isinstance(f, int) else build(f)
                   for f in _MANY_EQUAL_CLASSES[name]]
        t = character_table(reduce(product_group, factors))
    monkeypatch.setattr(chartab, "_RECONCILE_STEPS", 1000)
    data = table_to_json(t)
    for seed in range(4):
        assert table_from_json(shuffle_columns(json.loads(json.dumps(data)), seed), t) is t


def test_two_values_swapped_in_a_column_are_refused_before_any_search(monkeypatch):
    """Each row's multiset of (class size, value) pairs is compared before
    the search makes its first candidate check."""
    t = table_for(shared_group("S4"))
    data = table_to_json(t)
    col = [row[1] for row in data["irreducibles"]]
    a = next(r for r in range(t.k) if col[r] != col[0])
    for row in (0, a):
        data["irreducibles"][row][1] = col[a] if row == 0 else col[0]
    monkeypatch.setattr(chartab, "_RECONCILE_STEPS", 0)
    with pytest.raises(IntegrityError, match="^the stored table is not the group's "
                                             "character table$"):
        table_from_json(data, t)


def test_load_of_a_table_twisted_by_an_automorphism_is_the_computed_table():
    """A5's two classes of 5-elements agree in order, size and power maps,
    and an outer automorphism swaps them and two rows alike, so a stored
    table with those columns swapped stores the computed table."""
    G = build("A5")
    t = character_table(G)
    assert [c.rep_order for c in t.classes] == [1, 2, 3, 5, 5]
    assert table_from_json(permute_columns(table_to_json(t), [0, 1, 2, 4, 3]), t) is t


def test_load_rebases_values_to_the_exponent():
    """A value stored over a divisor of the exponent is the same element of
    the table's field; one over a non-divisor is refused."""
    G = build("S4")
    t = character_table(G)
    data = table_to_json(t)
    for row in data["irreducibles"]:
        for v in row:
            if all(e == 0 for e, _ in v["terms"]):
                v["modulus"] = 1
    assert table_from_json(data, t) is t
    zero = next(v for row in data["irreducibles"] for v in row if not v["terms"])
    zero["modulus"] = 5
    with pytest.raises(IntegrityError, match="does not divide"):
        table_from_json(data, t)
