"""Exact integer lattices (subgroups of Z^n) with Hermite canonical bases.

The working representation is a row-echelon basis over Z maintained by gcd
elimination as vectors are inserted; the canonical form (positive pivots,
entries above a pivot reduced into [0, pivot)) is produced on demand and is
what equality, hashing, and reports use.  Everything is arbitrary-precision
integer arithmetic on small dense rows; the ambient dimension here is the
number of irreducible characters, so quadratic row operations are cheap.
"""

from dataclasses import dataclass

from .groupcore import IntegrityError


class IntLattice:
    """Mutable-by-insertion lattice; canonical() freezes a comparable form."""

    def __init__(self, dim, vectors=()):
        self.dim = int(dim)
        self._rows = []  # echelon rows sorted by pivot column
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
        if len(v) != self.dim:
            raise ValueError("vector dimension mismatch")
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
                self._canon = None
                return
            r = rows[i]
            g, a, b = _xgcd(r[c], v[c])
            if g != abs(r[c]):
                combined = [a * x + b * y for x, y in zip(r, v)]
                v = [
                    (r[c] // g) * y - (v[c] // g) * x for x, y in zip(r, v)
                ]
                rows[i] = combined
                self._canon = None
            else:
                q = v[c] // r[c]
                v = [y - q * x for x, y in zip(r, v)]
            i += 1

    def contains(self, vector):
        v = [int(x) for x in vector]
        if len(v) != self.dim:
            raise ValueError("vector dimension mismatch")
        return _coordinates(self._rows, v) is not None

    def canonical(self):
        """Hermite canonical basis: tuple of rows, the comparison key."""
        if self._canon is not None:
            return self._canon
        rows = [list(r) for r in self._rows]
        pivots = [self._pivot(r) for r in rows]
        for i, r in enumerate(rows):
            if r[pivots[i]] < 0:
                rows[i] = [-x for x in r]
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

    def __hash__(self):
        return hash((self.dim, self.canonical()))

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
    if a.dim != b.dim:
        raise ValueError("ambient dimension mismatch")
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

    Classical elimination: bring the absolutely smallest entry to the
    corner, clear its row and column (re-entering the loop whenever a
    remainder shrinks the corner), then absorb any non-divisible entry of
    the remaining block and recurse.
    """
    M = [list(map(int, row)) for row in matrix]
    if not M or not M[0]:
        return []
    rows, cols = len(M), len(M[0])
    out = []
    t = 0
    while t < min(rows, cols):
        pr = pc = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(M[i][j])
                if x and (best is None or x < best):
                    best, pr, pc = x, i, j
        if best is None:
            break
        M[t], M[pr] = M[pr], M[t]
        for row in M:
            row[t], row[pc] = row[pc], row[t]
        if M[t][t] < 0:
            M[t] = [-x for x in M[t]]
        dirty = False
        for i in range(t + 1, rows):
            if M[i][t]:
                q = M[i][t] // M[t][t]
                M[i] = [x - q * y for x, y in zip(M[i], M[t])]
                if M[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if M[t][j]:
                q = M[t][j] // M[t][t]
                for row in M:
                    row[j] -= q * row[t]
                if M[t][j]:
                    dirty = True
        if dirty:
            continue
        p = M[t][t]
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if M[i][j] % p:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            M[t] = [x + y for x, y in zip(M[t], M[bad])]
            continue
        out.append(p)
        t += 1
    return out


def _coordinates(rows, v):
    """Coordinates of v on echelon rows sorted by pivot column, or None when
    v is not in their span.

    Back-substitution pivot by pivot: the rows after a row are zero at its
    pivot, so that entry of v forces the row's coefficient.
    """
    coeffs = []
    for r in rows:
        c = next(j for j, x in enumerate(r) if x)
        q, rem = divmod(v[c], r[c])
        if rem:
            return None
        coeffs.append(q)
        if q:
            v = [x - q * y for x, y in zip(v, r)]
    return None if any(v) else coeffs


def express_in_basis(L, vector):
    """Coordinates of a lattice member on the canonical basis (or error)."""
    coeffs = _coordinates(L.canonical(), [int(x) for x in vector])
    if coeffs is None:
        raise ValueError("vector is not in the lattice")
    return coeffs


def quotient_shape(ambient, sub):
    """Isomorphism type of ambient/sub for nested lattices.

    The sub basis is rewritten in ambient coordinates and its Smith form
    read off; non-membership raises.
    """
    if ambient.dim != sub.dim:
        raise ValueError("ambient dimension mismatch")
    rows = [express_in_basis(ambient, r) for r in sub.canonical()]
    inv = smith_invariants(rows)
    if not all(d > 0 for d in inv):
        raise IntegrityError("Smith invariants of a sublattice must be positive")
    free = ambient.rank - len(inv)
    return QuotientShape(free, tuple(d for d in inv if d > 1))
