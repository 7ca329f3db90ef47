"""Integer lattices: Hermite forms, Smith invariants, quotient shapes."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from indres.lattice import (
    IntLattice,
    QuotientShape,
    coordinate_lattice,
    coordinate_restrict,
    express_in_basis,
    lattice_sum,
    quotient_shape,
    smith_invariants,
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
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
        quotient_shape(A, B)
