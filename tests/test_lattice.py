"""Integer lattices: Hermite forms, Smith invariants, quotient shapes."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from indres import lattice
from indres.groupcore import IntegrityError
from indres.lattice import (
    IntLattice,
    QuotientShape,
    coordinate_lattice,
    coordinate_restrict,
    express_in_basis,
    lattice_sum,
    quotient_shape,
    smith_invariants,
    _xgcd,
)

small_vectors = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=4, max_size=4
)
vector_lists = st.lists(small_vectors, min_size=0, max_size=6)


def test_canonical_frozen_example():
    L = IntLattice(2, [[2, 0], [1, 1]])
    assert L.canonical() == ((1, 1), (0, 2))
    assert L.rank == 2


def test_insert_is_idempotent():
    L = IntLattice(3, [[1, 2, 3], [0, 1, 1]])
    before = L.canonical()
    L.insert([1, 2, 3])
    L.insert([2, 5, 7])  # already the sum of the two generators
    assert L.canonical() == before


def test_contains():
    L = IntLattice(2, [[2, 0], [0, 3]])
    assert L.contains([4, 3])
    assert L.contains([0, 0])
    assert not L.contains([1, 0])
    assert not L.contains([2, 1])


@given(vector_lists)
@settings(max_examples=60)
def test_spanning_vectors_are_members(vs):
    L = IntLattice(4, vs)
    for v in vs:
        assert L.contains(v)


@given(vector_lists, small_vectors, small_vectors)
@settings(max_examples=60)
def test_membership_closed_under_combinations(vs, a, b):
    L = IntLattice(4, vs)
    if len(vs) >= 2:
        combo = [3 * x - 2 * y for x, y in zip(vs[0], vs[-1])]
        assert L.contains(combo)
    # canonical basis rows are members and regenerate the lattice
    M = IntLattice(4, L.canonical())
    assert M == L


@given(vector_lists)
@settings(max_examples=60)
def test_canonical_is_hermite_normal(vs):
    rows = IntLattice(4, vs).canonical()
    pivots = []
    for r in rows:
        c = next(j for j, x in enumerate(r) if x)
        assert r[c] > 0
        pivots.append(c)
        for other in rows:
            if other is not r:
                assert 0 <= other[c] < r[c] or other[c] == 0 or other is r
    assert pivots == sorted(pivots)


@st.composite
def lattice_cases(draw):
    """A dimension n <= 6, up to 6 generators in Z^n, a vector, and one
    integer combination of the generators."""
    n = draw(st.integers(min_value=1, max_value=6))
    vec = st.lists(st.integers(min_value=-12, max_value=12), min_size=n, max_size=n)
    gens = draw(st.lists(vec, max_size=6))
    weights = draw(st.lists(st.integers(min_value=-5, max_value=5),
                            min_size=len(gens), max_size=len(gens)))
    return n, gens, draw(vec), weights


@given(lattice_cases())
@settings(max_examples=200)
def test_residue_is_a_canonical_coset_representative(case):
    n, gens, v, weights = case
    L = IntLattice(n, gens)
    r = L.residue(v)
    shift = [sum(w * g[j] for w, g in zip(weights, gens)) for j in range(n)]
    assert L.residue([x + y for x, y in zip(v, shift)]) == r
    assert L.residue(r) == r
    assert L.contains(v) == (not any(r))
    assert L.contains([x - y for x, y in zip(v, r)])
    for row in L.canonical():
        c = next(j for j, x in enumerate(row) if x)
        assert 0 <= r[c] < row[c]


def test_residue_frozen_example():
    L = IntLattice(2, [[2, 0], [1, 1]])  # canonical ((1, 1), (0, 2))
    assert L.residue([5, 4]) == (0, 1)
    assert L.residue([-1, 0]) == (0, 1)
    assert L.residue([3, 3]) == (0, 0)


def test_express_in_basis_round_trip():
    L = IntLattice(3, [[2, 1, 0], [0, 3, 1]])
    v = [4, 5, 1]  # 2*(2,1,0) + 1*(0,3,1)
    assert L.contains(v)
    coords = express_in_basis(L, v)
    rows = L.canonical()
    rebuilt = [
        sum(c * r[j] for c, r in zip(coords, rows)) for j in range(3)
    ]
    assert rebuilt == v
    with pytest.raises(ValueError, match="vector is not in the lattice"):
        express_in_basis(L, [1, 0, 0])


def test_lattice_sum_contains_both():
    A = IntLattice(3, [[2, 0, 0]])
    B = IntLattice(3, [[0, 0, 5]])
    S = lattice_sum(A, B)
    assert all(S.contains(r) for r in A.canonical() + B.canonical())
    assert S.rank == 2


def test_coordinate_lattice_and_restrict():
    C = coordinate_lattice(4, [1, 3])
    assert C.rank == 2
    assert C.contains([0, 7, 0, -2])
    assert not C.contains([1, 0, 0, 0])
    # restriction keeps exactly the members supported on the kept coords,
    # still inside the same ambient space
    L = IntLattice(4, [[1, 2, 0, 4], [0, 2, 0, 1]])
    R = coordinate_restrict(L, [0, 3])
    assert R.dim == 4
    assert R.canonical() == ((1, 0, 0, 3),)
    for r in R.canonical():
        assert L.contains(r)
        assert r[1] == 0 and r[2] == 0


def test_smith_invariants_frozen():
    assert smith_invariants([[2, 0], [0, 3]]) == [1, 6]
    assert smith_invariants([[2, 0], [0, 2]]) == [2, 2]
    assert smith_invariants([[0, 0], [0, 0]]) == []
    assert smith_invariants([[6]]) == [6]
    assert smith_invariants([[1, 0, 0], [0, 4, 0]]) == [1, 4]


@given(vector_lists)
@settings(max_examples=40)
def test_smith_divisibility_chain(vs):
    inv = smith_invariants(vs)
    assert all(d > 0 for d in inv)
    for a, b in zip(inv, inv[1:]):
        assert b % a == 0


def test_quotient_shape_frozen():
    Z2 = IntLattice(2, [[1, 0], [0, 1]])
    assert quotient_shape(Z2, IntLattice(2, [[2, 0], [0, 3]])) == QuotientShape(0, (6,))
    assert quotient_shape(Z2, IntLattice(2, [[1, 0]])) == QuotientShape(1, ())
    assert quotient_shape(Z2, Z2) == QuotientShape(0, ())
    assert quotient_shape(Z2, IntLattice(2)) == QuotientShape(2, ())


def test_quotient_shape_strings():
    assert str(QuotientShape(2, ())) == "Z^2"
    assert str(QuotientShape(1, ())) == "Z"
    assert str(QuotientShape(0, (2,))) == "Z/2"
    assert str(QuotientShape(1, (3,))) == "Z (+) Z/3"
    assert str(QuotientShape(0, ())) == "0"


@given(vector_lists)
@settings(max_examples=40)
def test_quotient_free_rank(vs):
    ambient = IntLattice(4, [[1 if i == j else 0 for j in range(4)] for i in range(4)])
    sub = IntLattice(4, vs)
    q = quotient_shape(ambient, sub)
    assert q.free_rank == 4 - sub.rank


def test_quotient_requires_containment():
    A = IntLattice(2, [[2, 0], [0, 2]])
    B = IntLattice(2, [[1, 1]])
    with pytest.raises(ValueError, match="vector is not in the lattice"):
        quotient_shape(A, B)


def test_non_positive_smith_invariants_are_refused(monkeypatch):
    monkeypatch.setattr(lattice, "smith_invariants", lambda rows: [0])
    Z2 = IntLattice(2, [[1, 0], [0, 1]])
    with pytest.raises(IntegrityError, match="Smith invariants of a sublattice must be positive"):
        quotient_shape(Z2, Z2)


# -- against the unbounded elimination and the classical Smith elimination ----

def _unbounded_hermite(dim, vectors):
    """Hermite basis by gcd echelon elimination that never reduces the rows
    it stores, then positive pivots and above-pivot reduction."""
    def pivot(row):
        return next((j for j, x in enumerate(row) if x), None)

    rows = []
    for vector in vectors:
        v = [int(x) for x in vector]
        i = 0
        while (c := pivot(v)) is not None:
            while i < len(rows) and pivot(rows[i]) < c:
                i += 1
            if i == len(rows) or pivot(rows[i]) > c:
                rows.insert(i, [-x for x in v] if v[c] < 0 else v)
                break
            r = rows[i]
            g, a, b = _xgcd(r[c], v[c])
            if g != abs(r[c]):
                rows[i] = [a * x + b * y for x, y in zip(r, v)]
                v = [(r[c] // g) * y - (v[c] // g) * x for x, y in zip(r, v)]
            else:
                q = v[c] // r[c]
                v = [y - q * x for x, y in zip(r, v)]
            i += 1
    rows = [[-x for x in r] if r[pivot(r)] < 0 else r for r in rows]
    for i in range(len(rows)):
        c = pivot(rows[i])
        for j in range(i):
            q = rows[j][c] // rows[i][c]
            rows[j] = [x - q * y for x, y in zip(rows[j], rows[i])]
    return tuple(tuple(r) for r in rows)


def _classical_smith(matrix):
    """Smith invariants by least-entry pivoting: clear the pivot's row and
    column, absorb a non-divisible entry of the rest, recurse."""
    M = [list(map(int, row)) for row in matrix]
    if not M or not M[0]:
        return []
    rows, cols = len(M), len(M[0])
    out = []
    t = 0
    while t < min(rows, cols):
        entries = [(abs(M[i][j]), i, j) for i in range(t, rows)
                   for j in range(t, cols) if M[i][j]]
        if not entries:
            break
        _, pr, pc = min(entries)
        M[t], M[pr] = M[pr], M[t]
        for row in M:
            row[t], row[pc] = row[pc], row[t]
        if M[t][t] < 0:
            M[t] = [-x for x in M[t]]
        p = M[t][t]
        for i in range(t + 1, rows):
            q = M[i][t] // p
            M[i] = [x - q * y for x, y in zip(M[i], M[t])]
        for j in range(t + 1, cols):
            q = M[t][j] // p
            for row in M:
                row[j] -= q * row[t]
        if any(M[i][t] for i in range(t + 1, rows)) or any(M[t][t + 1:]):
            continue
        bad = next((i for i in range(t + 1, rows)
                    if any(x % p for x in M[i][t + 1:])), None)
        if bad is not None:
            M[t] = [x + y for x, y in zip(M[t], M[bad])]
            continue
        out.append(p)
        t += 1
    return out


def _sparse_matrix(seed, n=30):
    rng = random.Random(seed)
    return [[rng.randint(-2, 2) if rng.random() < 0.3 else 0 for _ in range(n)]
            for _ in range(n)]


@pytest.mark.parametrize("seed", range(1, 13))
def test_stored_rows_stay_bounded(seed):
    """The unbounded elimination stores entries of 526 to 48,051 bits on
    these matrices; reducing each stored row keeps them small."""
    M = _sparse_matrix(seed)
    L = IntLattice(30, M)
    assert max(abs(x).bit_length() for r in L._rows for x in r) < 256
    assert L.canonical() == _unbounded_hermite(30, M)


@st.composite
def integer_matrices(draw):
    """Up to 8x8, entries up to 10^4 in size and often 0; the rows after
    the first `base` are integer combinations of those, so many matrices
    are rank-deficient."""
    cols = draw(st.integers(min_value=1, max_value=8))
    base = draw(st.integers(min_value=1, max_value=8))
    entry = st.one_of(st.just(0), st.integers(min_value=-10**4, max_value=10**4))
    row = st.lists(entry, min_size=cols, max_size=cols)
    M = draw(st.lists(row, min_size=base, max_size=base))
    weights = st.lists(st.integers(min_value=-3, max_value=3),
                       min_size=base, max_size=base)
    for w in draw(st.lists(weights, max_size=8 - base)):
        M.append([sum(a * r[j] for a, r in zip(w, M)) for j in range(cols)])
    return M


@given(integer_matrices())
@settings(max_examples=150, deadline=None)
def test_smith_invariants_match_references(M):
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    inv = smith_invariants(M)
    assert inv == _classical_smith(M)
    assert inv == [abs(int(d)) for d in invariant_factors(Matrix(M), domain=ZZ) if d]
