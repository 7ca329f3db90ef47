"""Exact integer lattices (subgroups of Z^n) with Hermite canonical bases.

The working representation is a row-echelon basis over Z maintained by gcd
elimination as vectors are inserted.  Its pivots are positive, and each row
is reduced into [0, pivot) at the pivots of the rows after it whenever it is
stored or changed, so entries stay bounded instead of growing with every
elimination step.  The canonical form (every entry above a pivot reduced
into [0, pivot)) is produced on demand and is what equality, reports
and Smith invariants use.  Reducing a vector at the pivots
of that form gives the canonical representative of its coset, its residue:
membership is a zero residue, and two vectors are congruent modulo the
lattice exactly when their residues are equal.  Everything is
arbitrary-precision integer arithmetic on small dense rows; the ambient
dimension here is the number of irreducible characters, so quadratic row
operations are cheap.
"""

from dataclasses import dataclass
from math import gcd

from .groupcore import IntegrityError


class IntLattice:
    """Mutable-by-insertion lattice; canonical() freezes a comparable form."""

    def __init__(self, dim, vectors=()):
        self.dim = int(dim)
        self._rows = []  # echelon rows sorted by pivot column, pivots > 0
        self._canon = None
        for v in vectors:
            self.insert(v)

    @property
    def rank(self):
        return len(self._rows)

    def _pivot(self, row):
        for j, x in enumerate(row):
            if x:
                return j
        return None

    def insert(self, vector):
        """Add a vector to the spanning set; no-op if already contained."""
        v = [int(x) for x in vector]
        rows = self._rows
        i = 0
        while True:
            c = self._pivot(v)
            if c is None:
                return
            while i < len(rows) and self._pivot(rows[i]) < c:
                i += 1
            if i == len(rows) or self._pivot(rows[i]) > c:
                if v[c] < 0:
                    v = [-x for x in v]
                rows.insert(i, v)
                self._store(i)
                return
            r = rows[i]
            g, a, b = _xgcd(r[c], v[c])
            if g != r[c]:
                rows[i] = [a * x + b * y for x, y in zip(r, v)]
                v = [
                    (r[c] // g) * y - (v[c] // g) * x for x, y in zip(r, v)
                ]
                self._store(i)
            else:
                q = v[c] // r[c]
                v = [y - q * x for x, y in zip(r, v)]
            i += 1

    def _store(self, i):
        """Reduce row i into [0, pivot) at the pivots of the rows after it.

        A unimodular row operation inside the lattice: the span, and so the
        Hermite basis, is unchanged.
        """
        row = self._rows[i]
        for r in self._rows[i + 1:]:
            c = self._pivot(r)
            q = row[c] // r[c]
            if q:
                row = [x - q * y for x, y in zip(row, r)]
        self._rows[i] = row
        self._canon = None

    def residue(self, vector):
        """The canonical representative of vector + L, as a tuple.

        u - v lies in L exactly when residue(u) == residue(v).
        """
        return self._reduce(vector)[0]

    def _reduce(self, vector):
        """(residue, quotients) with vector = residue + sum of q_i * row_i
        over the Hermite basis.

        At each pivot, in ascending order, the entry of the vector is
        reduced into [0, pivot); later rows are zero at earlier pivots, so
        settled entries stay put.
        """
        v = [int(x) for x in vector]
        quotients = []
        for r in self.canonical():
            c = self._pivot(r)
            q = v[c] // r[c]
            quotients.append(q)
            if q:
                v = [x - q * y for x, y in zip(v, r)]
        return tuple(v), quotients

    def contains(self, vector):
        return not any(self.residue(vector))

    def canonical(self):
        """Hermite canonical basis: tuple of rows, the comparison key."""
        if self._canon is not None:
            return self._canon
        rows = [list(r) for r in self._rows]
        pivots = [self._pivot(r) for r in rows]
        # ascending pivot order: row i is zero at all earlier pivot columns,
        # so reducing above-entries at pivot i never disturbs settled columns
        for i in range(len(rows)):
            c = pivots[i]
            p = rows[i][c]
            for j in range(i):
                q = rows[j][c] // p  # floor: leaves a remainder in [0, p)
                if q:
                    rows[j] = [x - q * y for x, y in zip(rows[j], rows[i])]
        self._canon = tuple(tuple(r) for r in rows)
        return self._canon

    def __eq__(self, other):
        return (
            isinstance(other, IntLattice)
            and self.dim == other.dim
            and self.canonical() == other.canonical()
        )

    def copy(self):
        out = IntLattice(self.dim)
        out._rows = [list(r) for r in self._rows]
        out._canon = self._canon
        return out

    def basis(self):
        return [list(r) for r in self.canonical()]

    def __repr__(self):
        return f"IntLattice(dim={self.dim}, rank={self.rank})"


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def lattice_sum(a, b):
    out = a.copy()
    for r in b._rows:
        out.insert(r)
    return out


def coordinate_lattice(dim, coords):
    """Z^coords inside Z^dim: the span of the named unit vectors."""
    L = IntLattice(dim)
    for c in coords:
        e = [0] * dim
        e[c] = 1
        L.insert(e)
    return L


def coordinate_restrict(L, coords):
    """L ∩ Z^coords: the vectors of L supported on the given coordinates.

    Echelonizing with the complementary coordinates first makes the wanted
    sublattice exactly the rows whose pivot falls in the coords block.
    """
    coords = sorted(coords)
    cset = set(coords)
    comp = [j for j in range(L.dim) if j not in cset]
    perm = comp + coords
    permuted = IntLattice(L.dim)
    for r in L._rows:
        permuted.insert([r[j] for j in perm])
    out = IntLattice(L.dim)
    ncomp = len(comp)
    for r in permuted._rows:
        if permuted._pivot(r) >= ncomp:
            back = [0] * L.dim
            for pos, j in enumerate(perm):
                back[j] = r[pos]
            out.insert(back)
    return out


@dataclass(frozen=True)
class QuotientShape:
    """Isomorphism type of a finitely generated abelian quotient."""

    free_rank: int
    torsion: tuple  # nontrivial invariant factors, each dividing the next

    def to_json(self):
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " (+) ".join(parts) if parts else "0"


def smith_invariants(matrix):
    """Nonzero invariant factors of an integer matrix, d_1 | d_2 | ...

    Alternates row and column Hermite forms (the column form is the row
    form of the transpose) until the matrix is diagonal, then brings the
    diagonal into a divisibility chain by replacing each pair with its gcd
    and lcm (Kannan and Bachem, SIAM J. Comput. 8, 1979).
    """
    M = [list(map(int, row)) for row in matrix]
    if not M or not M[0]:
        return []
    while True:
        M = IntLattice(len(M[0]), M).basis()
        if not any(x for i, row in enumerate(M) for j, x in enumerate(row)
                   if i != j):
            break
        M = [list(col) for col in zip(*M)]
    d = [row[i] for i, row in enumerate(M)]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return d


def express_in_basis(L, vector):
    """Coordinates of a lattice member on the canonical basis (or error)."""
    residue, coeffs = L._reduce(vector)
    if any(residue):
        raise ValueError("vector is not in the lattice")
    return coeffs


def quotient_shape(ambient, sub):
    """Isomorphism type of ambient/sub for nested lattices.

    The sub basis is rewritten in ambient coordinates and its Smith form
    read off; non-membership raises.
    """
    rows = [express_in_basis(ambient, r) for r in sub.canonical()]
    inv = smith_invariants(rows)
    if not all(d > 0 for d in inv):
        raise IntegrityError("Smith invariants of a sublattice must be positive")
    free = ambient.rank - len(inv)
    return QuotientShape(free, tuple(d for d in inv if d > 1))
