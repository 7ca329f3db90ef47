"""Exact character tables via eigenvalue splitting of class-sum matrices.

Character values are elements of Z[zeta_m], m the group exponent, stored in
canonical form on the power basis {zeta^e : 0 <= e < phi(m)}.  The table is
computed modulo the least prime p ≡ 1 (mod m) with p^2 > 4|G|, in int64
arrays whose sums `_check_int64` proves exact, and lifted exactly.  The
class matrices are built one at a time, smallest class first, each from the
members of its own class, only until every common eigenspace has dimension
1; their eigenvalues are roots of a characteristic polynomial that divides
only by pivots, so p may be below the class count.  `verify_table` proves
the lifted table square, Galois stable and with orthonormal rows (hence
orthogonal columns) before it is returned.  The orthogonality proof maps
the table once to F_l, for a prime l ≡ 1 (mod m) above a bound on its
values, through `_shadow`, the one routine that evaluates table rows in a
prime field (`classfun` uses it too), and decides with one k x k matrix
product; `_mod_dtype` picks int64 only where its sums are exact, and Python
ints otherwise.  Neither building nor verifying a table multiplies two
cyclotomics.
"""

import json
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, count
from math import isqrt, prod

import numpy as np

from .groupcore import (BudgetExceeded, IntegrityError, _member_indices, _memo,
                        conjugacy_classes, is_prime, json_int, least_primitive_root,
                        malformed, prime_factors, split_product_images, v_p)

# Points per block of the root scan in `_poly_roots_mod`.
_ROOT_BLOCK = 1 << 16
# Points (rows x degree) per `index_of` gather in `_class_matrices`.
_GATHER_POINTS = 1 << 16
# Candidate checks `reconcile_classes` may make before it gives up.
_RECONCILE_STEPS = 10**5


def _cyclotomic_coeffs(m):
    """Integer coefficients of Phi_m, constant term first.

    Phi_m is the product of (x^d - 1)^mu(m/d) over the divisors d of m, and
    mu(m/d) is nonzero only where m/d is a product of distinct primes of m.
    The factors with mu = 1 are multiplied in first (a shift-subtract each),
    then those with mu = -1 divided out (a strided prefix sum each), so
    every division is exact.
    """
    primes = prime_factors(m)
    num, den = [], []
    for r in range(len(primes) + 1):
        for qs in combinations(primes, r):
            (den if r % 2 else num).append(m // prod(qs))
    c = [1]
    for d in num:  # c * (x^d - 1)
        c = [(c[i - d] if i >= d else 0) - (c[i] if i < len(c) else 0)
             for i in range(len(c) + d)]
    for d in den:  # c / (x^d - 1): q[i] = q[i - d] - c[i]
        q = []
        for i in range(len(c) - d):
            q.append((q[i - d] if i >= d else 0) - c[i])
        c = q
    return c


@cache
def _phi_reduction(m):
    """Degree d = phi(m) and the reduction rows of Phi_m: `rows[e]` is
    x^e mod Phi_m, d coefficients, for d <= e < m.

    Rows are built on demand, each from the nearest row already built
    below it, and only the rows looked up are stored: a run reads few of
    the m - d rows (`verify M12 -p 2` reads 121 of 1000 at m = 1320).
    """
    coeffs = _cyclotomic_coeffs(m)  # constant first, monic
    return len(coeffs) - 1, _ReductionRows(m, [-c for c in coeffs[:-1]])


class _ReductionRows(dict):
    """x^e mod Phi_m by exponent e, each row built on its first lookup."""

    def __init__(self, m, tail):
        super().__init__()
        self.m = m
        self.tail = tail  # x^d = sum tail[i] x^i
        self.terms = [(i, t) for i, t in enumerate(tail) if t]  # its nonzero terms

    def __missing__(self, e):
        if not len(self.tail) <= e < self.m:
            raise KeyError(e)
        start = max((k for k in self if k < e), default=len(self.tail))
        cur = list(self.get(start, self.tail))
        for _ in range(e - start):  # times x, with x^d replaced by the tail
            lead = cur.pop()
            cur.insert(0, 0)
            if lead:
                for i, t in self.terms:
                    cur[i] += lead * t
        row = self[e] = tuple(cur)
        return row


class Cyclotomic:
    """Element of Z[zeta_m] in canonical power-basis form."""

    __slots__ = ("modulus", "terms", "_hash")

    def __init__(self, modulus, terms=None, _canonical=False):
        self.modulus = int(modulus)
        self._hash = None
        if terms is None:
            self.terms = {}
        elif _canonical:
            self.terms = terms
        else:
            self.terms = self._reduce(dict(terms))

    def _reduce(self, raw):
        d, rows = _phi_reduction(self.modulus)
        out = {}
        for e, c in raw.items():
            if not c:
                continue
            e %= self.modulus
            if e < d:
                out[e] = out.get(e, 0) + c
            else:
                for i, r in enumerate(rows[e]):
                    if r:
                        out[i] = out.get(i, 0) + c * r
        return {e: c for e, c in out.items() if c}

    @classmethod
    def from_int(cls, modulus, n):
        return cls(modulus, {0: int(n)} if n else {}, _canonical=True)

    @classmethod
    def zeta(cls, modulus, e=1, coeff=1):
        return cls(modulus, {e % modulus: coeff})

    def __add__(self, other):
        other = self._coerce(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            c2 = t.get(e, 0) + c
            if c2:
                t[e] = c2
            else:
                t.pop(e, None)
        return Cyclotomic(self.modulus, t, _canonical=True)

    def __neg__(self):
        return Cyclotomic(
            self.modulus, {e: -c for e, c in self.terms.items()}, _canonical=True
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def _coerce(self, other):
        if isinstance(other, int):
            return Cyclotomic.from_int(self.modulus, other)
        return other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return Cyclotomic(self.modulus)
            return Cyclotomic(
                self.modulus,
                {e: c * other for e, c in self.terms.items()},
                _canonical=True,
            )
        other = self._coerce(other)
        m = self.modulus
        raw = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if e >= m:
                    e -= m
                raw[e] = raw.get(e, 0) + c1 * c2
        return Cyclotomic(m, raw)

    __rmul__ = __mul__

    def galois(self, a):
        """Image under zeta -> zeta^a; a must be invertible mod the modulus."""
        m = self.modulus
        return Cyclotomic(m, {(e * a) % m: c for e, c in self.terms.items()})

    def conjugate(self):
        return self.galois(self.modulus - 1) if self.modulus > 1 else self

    def exact_div(self, n):
        out = {}
        for e, c in self.terms.items():
            q, r = divmod(c, n)
            if r:
                raise ValueError(f"coefficient {c} not divisible by {n}")
            out[e] = q
        return Cyclotomic(self.modulus, out, _canonical=True)

    def rebase(self, new_modulus):
        """Reinterpret in Z[zeta_M] for a multiple M of the modulus."""
        if new_modulus == self.modulus:
            return self
        s = new_modulus // self.modulus
        return Cyclotomic(new_modulus, {e * s: c for e, c in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def is_integer(self):
        return not self.terms or set(self.terms) == {0}

    def as_int(self):
        if not self.is_integer():
            raise ValueError(f"not a rational integer: {self!r}")
        return self.terms.get(0, 0)

    def sort_key(self):
        return tuple(sorted(self.terms.items()))

    def to_json(self):
        return {"modulus": self.modulus, "terms": sorted(self.terms.items())}

    @classmethod
    def from_json(cls, data, field):
        """The stored value over Z[zeta_field]; its modulus must divide `field`,
        and no exponent may repeat, so the value is the one its terms state."""
        modulus = json_int(data["modulus"], "cyclotomic modulus")
        if modulus < 1 or field % modulus:
            raise IntegrityError("a value's modulus does not divide the table exponent")
        terms = {json_int(e, "cyclotomic exponent"): json_int(c, "cyclotomic coefficient")
                 for e, c in data["terms"]}
        if len(terms) != len(data["terms"]):
            raise IntegrityError("a value repeats an exponent")
        return cls(field, {field // modulus * e: c for e, c in terms.items()})

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_integer() and self.as_int() == other
        return (
            isinstance(other, Cyclotomic)
            and self.modulus == other.modulus
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.modulus, tuple(sorted(self.terms.items()))))
        return self._hash

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            if e == 0:
                bits.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                bits.append(f"{head}z{self.modulus}^{e}" if e > 1 else f"{head}z{self.modulus}")
        return " + ".join(bits).replace("+ -", "- ")


@dataclass(eq=False)
class CharTable:
    """Ordinary character table, rows sorted by (degree, canonical value key).

    Tables compare and hash by identity.  `_cache` memoizes, through
    `groupcore._memo`, all data derived from this table (the row index, the
    dual map, the rows' images in F_l, modular reductions, block partitions,
    defect groups, and the fusions and restriction matrices of each pair in
    which it is the small table, see `classfun.class_fusion`), so it is
    freed with the table.  `factors` is the pair of factor tables of a product table, None
    otherwise.  A product table (`classfun.product_table`) has
    `irreducibles = None` and no group: its values, dual map and class
    lookup come from `factors`.  Every other table is built by
    `character_table` and lives on its group: `classes` are the group's
    `conjugacy_classes`, in that order.  A stored table never becomes a
    table of its own: `table_from_json` checks it against its group's.
    """

    group_order: int
    exponent: int
    classes: list
    irreducibles: list  # rows of Cyclotomic values, one row per character
    degrees: list
    group: object = None
    factors: tuple = field(default=None, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def k(self):
        return len(self.classes)

    def class_index_of(self, images):
        """Class index (in this table's column order) of a group element."""
        if self.factors is not None:
            tA, tB = self.factors
            left, right = split_product_images(images, tA.group.degree)
            return tA.class_index_of(left) * tB.k + tB.class_index_of(right)
        return self.group.class_of(images)

    def class_sizes(self):
        return [c.size for c in self.classes]

    @_memo
    def row_index(self):
        return {_row_key(row): i for i, row in enumerate(self.irreducibles)}

    @_memo
    def dual_map(self):
        """Permutation sending each row to the row of its complex conjugate."""
        if self.factors is not None:
            dualA, dualB = (f.dual_map() for f in self.factors)
            return [a * len(dualB) + b for a in dualA for b in dualB]
        inv = [pc[-1] for pc in self.group.power_classes()]
        index = self.row_index()
        out = []
        for row in self.irreducibles:
            j = index.get(_row_key([row[i] for i in inv]))
            if j is None:
                raise IntegrityError("conjugate row missing from table")
            out.append(j)
        if any(out[out[i]] != i for i in range(self.k)):
            raise IntegrityError("row conjugation is not an involution")
        return out


def _row_key(values):
    """The canonical key of a row: its values' power-basis terms, in order."""
    return tuple(v.sort_key() for v in values)


def _prime_above(bound, m):
    """The least prime l ≡ 1 (mod m) with l > bound.

    `is_prime` raises `IntegrityError` once l reaches the Miller-Rabin
    bound.
    """
    l = -(-bound // m) * m + 1
    while not is_prime(l):
        l += m
    return l


def _root_of_unity(l, m):
    """An element of order exactly m in F_l^x, for m dividing l - 1 (1 if m = 1)."""
    qs = prime_factors(m)
    for g in count(1):
        w = pow(g, (l - 1) // m, l)
        if all(pow(w, m // q, l) != 1 for q in qs):
            return w


@_memo
def _shadow(table, M, l, w):
    """The table's rows in F_l under the ring homomorphism zeta_M -> w.

    An array of least residues, in `_mod_dtype(1, l)` so that entrywise
    products stay exact.  Memoized on the table, so the images live and die
    with the table; w^-1 in place of w gives the complex conjugates.  A
    product table's images are the Kronecker product of its factors'
    images, in the product's pair order.
    """
    if table.factors is not None:
        SA, SB = (_shadow(f, M, l, w) for f in table.factors)
        return np.kron(SA, SB) % l
    pw = [1] * M
    for t in range(1, M):
        pw[t] = pw[t - 1] * w % l
    return np.array([
        [sum(c * pw[e * (M // v.modulus)] for e, c in v.terms.items()) % l for v in row]
        for row in table.irreducibles
    ], dtype=_mod_dtype(1, l))


def _mod_dtype(n, l):
    """The array dtype in which sums of n products of residues mod l are
    exact: int64 when n (l - 1)^2 < 2^63, else object (Python ints)."""
    return np.int64 if n * (l - 1) ** 2 < 2**63 else object


def _dot(A, B, l):
    """A @ B for arrays of entries in [0, l), exact in `_mod_dtype`."""
    dtype = _mod_dtype(A.shape[1], l)
    return A.astype(dtype) @ B.astype(dtype)


def _class_matrices(G, p):
    """The class matrices A_i mod p, one at a time, smallest class first.

    A_i[j][l] counts the g in C_i with g^-1 z_l in C_j, z_l the
    representative of class l: the structure constants of the class
    algebra.  The inverses of C_i's members are the members of C_i', the
    class of rep_i^-1, so each matrix is built from the rows of C_i' alone,
    one `index_of` per gather of at most `_GATHER_POINTS` points: a chunk
    of columns over the whole class, or for a class of that many points or
    more, one column over a part of the class.  A caller that stops early
    never sweeps the rest of G.  The identity class, whose matrix is I, is
    skipped.
    """
    classes = G.class_data()
    k = len(classes)
    E, ids, powers = G.elements(), G.class_ids(), G.power_classes()
    reps = np.array([c.representative for c in classes], dtype=E.dtype)
    part = max(1, _GATHER_POINTS // G.degree)  # rows per gather
    for i in sorted(range(1, k), key=lambda i: classes[i].size):
        inv = E[np.flatnonzero(ids == powers[i][-1])]
        step = max(1, part // len(inv))
        A = np.zeros((k, k), dtype=np.int64)
        for lo in range(0, k, step):
            z = reps[lo:lo + step]
            for first in range(0, len(inv), part):
                g_inv = inv[first:first + part]
                # the rows g^-1 z_l column by column; column l's classes
                # are counted at l*k + j
                rows = g_inv[:, z].transpose(1, 0, 2).reshape(-1, G.degree)
                at = ids[_member_indices(G, rows)] + np.repeat(np.arange(len(z)) * k, len(g_inv))
                A[:, lo:lo + len(z)] += np.bincount(at, minlength=len(z) * k).reshape(-1, k).T
        yield A % p


def _charpoly_mod(R, p):
    """Characteristic polynomial of R mod p, leading coefficient first.

    Hessenberg's method (Cohen, A Course in Computational Algebraic Number
    Theory, 1993, §2.2.4): one row and one column update per column
    make H similar to R and upper Hessenberg.  Its leading blocks' P_m then
    take one vector-matrix product each: P_(m+1) = x P_m - sum_(i<=m)
    H[i, m] s_i P_i, s_i = H[i+1, i] ... H[m, m-1].  Only pivots are
    inverted, so any prime will do, and each sum has at most d terms < p^2.
    """
    H = R % p
    d = len(H)
    for c in range(d - 2):
        i = c + 1 + int(np.argmax(H[c + 1:, c] != 0))  # the first nonzero, if any
        if i > c + 1:
            H[[c + 1, i]] = H[[i, c + 1]]
            H[:, [c + 1, i]] = H[:, [i, c + 1]]
        # u = 0, and the updates change nothing, on a column already clear
        u = H[c + 2:, c] * pow(int(H[c + 1, c]) or 1, -1, p) % p
        H[c + 2:, c:] = (H[c + 2:, c:] - np.outer(u, H[c + 1, c:])) % p
        H[:, c + 1] = (H[:, c + 1] + H[:, c + 2:] @ u) % p
    P = np.eye(d + 1, dtype=np.int64)  # P[m, t]: coefficient of x^t in P_m; P_0 = 1
    s = np.ones(d, dtype=np.int64)
    for m in range(d):
        s[:m] = s[:m] * H[m, m - 1] % p
        P[m + 1, 1:] = P[m, :-1]
        P[m + 1] = (P[m + 1] - (H[:m + 1, m] * s[:m + 1] % p) @ P[:m + 1] % p) % p
    return P[d, ::-1].tolist()


def _poly_roots_mod(coeffs, p):
    """The roots in F_p of a monic polynomial (leading coefficient first),
    ascending.

    Horner's rule runs on blocks of `_ROOT_BLOCK` points at a time, and the
    scan stops at the block where the d-th root turns up, so memory stays
    bounded however large p is.
    """
    d = len(coeffs) - 1
    roots = []
    for lo in range(0, p, _ROOT_BLOCK):
        x = np.arange(lo, min(lo + _ROOT_BLOCK, p), dtype=np.int64)
        acc = np.zeros_like(x)
        for c in coeffs:
            acc = (acc * x + c) % p
        roots.extend(x[acc == 0].tolist())
        if len(roots) >= d:
            break
    return roots


def _rref_mod(M, p):
    """Reduced row echelon form mod p; returns (matrix, pivot columns).

    Each pivot column is cleared from every other row by one outer-product
    update of the columns from the pivot on (those before it are already 0
    in the pivot row).
    """
    M = M % p
    rows, cols = M.shape
    r = 0
    pivots = []
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(M[r:, c])
        if not len(nz):
            continue
        i = r + int(nz[0])
        M[[r, i]] = M[[i, r]]
        M[r, c:] = M[r, c:] * pow(int(M[r, c]), -1, p) % p
        f = M[:, c].copy()
        f[r] = 0
        M[:, c:] = (M[:, c:] - np.outer(f, M[r, c:])) % p
        pivots.append(c)
        r += 1
    return M[:r], pivots


def _nullspace_mod(M, p):
    """Basis rows of the kernel of M (acting on column vectors) mod p.

    One row per free column f of the RREF: 1 at f, and minus column f of
    the RREF at the pivot columns.
    """
    R, pivots = _rref_mod(M, p)
    free = np.ones(M.shape[1], dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((len(free), M.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-R[:, free].T) % p
    return basis


def _common_eigenvectors(mats, k, p):
    """Split F_p^k under the commuting matrices; returns k projective vectors.

    The next matrix is drawn from the iterable `mats` only while some
    eigenspace still has dimension above 1.
    """
    # each space: its basis in RREF and the pivot columns, so a vector w of
    # the span has coordinates w[pivots] in that basis
    spaces = [(np.eye(k, dtype=np.int64), list(range(k)))]
    mats = iter(mats)
    while any(len(S) > 1 for S, _ in spaces):
        A = next(mats, None)
        if A is None:
            break
        out = []
        for S, pivots in spaces:
            if len(S) == 1:
                out.append((S, pivots))
                continue
            # A restricted to the span: column j holds the coordinates of A s_j
            R = (A @ S.T % p)[pivots]
            d = len(S)
            for lam in _poly_roots_mod(_charpoly_mod(R, p), p):
                ker = _nullspace_mod((R - lam * np.eye(d, dtype=np.int64)) % p, p)
                if len(ker):
                    out.append(_rref_mod(ker @ S % p, p))
        spaces = out
    if len(spaces) != k or any(len(S) != 1 for S, _ in spaces):
        raise IntegrityError("class matrices do not split into k eigenvectors")
    return [S[0] for S, _ in spaces]


def _check_int64(n, p):
    """Refuse array arithmetic mod p whose sums of n products overflow int64.

    Every array product of the table build (class matrix times basis, the
    Hessenberg steps, the lift's transforms) sums at most n terms, each
    below (p - 1)^2, so n (p - 1)^2 < 2^63 keeps every int64 sum exact.
    """
    if _mod_dtype(n, p) is object:
        raise BudgetExceeded(
            f"sums of {n} products mod {p} overflow 64-bit integers; "
            "the table is out of reach")


def _inverse_dft(n, z, p):
    """F[t, j] = z^(-jt) / n mod p, for z of order n in F_p^x.

    A row of chi(g^t), t < n = ord(g), times F is the row of multiplicities
    of the eigenvalues z^j of g in the representation of chi, mod p.  F is
    read off the n powers of z^-1 / n, indexed by jt mod n.
    """
    zinv = pow(z, -1, p)
    pw = [pow(n, -1, p)]
    for _ in range(n - 1):
        pw.append(pw[-1] * zinv % p)
    t = np.arange(n)
    return np.array(pw, dtype=np.int64)[np.outer(t, t) % n]


def character_table(G):
    """Irreducible character table of G with exact cyclotomic values."""
    classes = conjugacy_classes(G)
    k = len(classes)
    order = G.order()
    m = G.exponent()
    p = _prime_above(isqrt(4 * order), m)  # p^2 > 4|G| fixes the degrees
    _check_int64(max(k, max(c.rep_order for c in classes)), p)
    vecs = _common_eigenvectors(_class_matrices(G, p), k, p)

    # normalize so the identity-class coordinate is 1
    U = np.empty((k, k), dtype=np.int64)
    for r, v in enumerate(vecs):
        if not v[0] % p:
            raise IntegrityError("eigenvector vanishes on the identity class")
        U[r] = v * pow(int(v[0]), -1, p) % p
    size_inv = np.array([pow(c.size, -1, p) for c in classes], dtype=np.int64)
    # rep^(ord-1) is the inverse
    pow_class = G.power_classes()
    inv_class = [pc[-1] for pc in pow_class]
    t = (U * U[:, inv_class] % p * size_inv % p).sum(axis=1) % p
    root_of = {d * d % p: d for d in range(isqrt(order), 0, -1)}
    degrees = []
    for tr in t.tolist():
        deg = root_of.get(order * pow(tr, -1, p) % p)
        if deg is None:
            raise IntegrityError("degree recovery failed")
        degrees.append(deg)
    deg = np.array(degrees, dtype=np.int64)
    chi = U * size_inv % p * deg[:, None] % p  # chi[r, i] = chi_r(rep_i) mod p

    # multiplicity of each n-th root of unity in chi_r(rep_i), n = ord(rep_i),
    # one class (a k x n block of values on the powers of rep_i) at a time
    w = _root_of_unity(p, m)
    dft = {}
    made = {}  # few values recur across a table: build each one once
    values = [[] for _ in range(k)]
    for i, c in enumerate(classes):
        n = c.rep_order
        if n not in dft:
            dft[n] = _inverse_dft(n, pow(w, m // n, p), p)
        mult = chi[:, pow_class[i]] @ dft[n] % p
        if (mult > deg[:, None]).any():
            raise IntegrityError("multiplicity lift out of range")
        if (mult.sum(axis=1) != deg).any():
            raise IntegrityError("root-of-unity multiplicities do not sum to degree")
        for row, mr in zip(values, map(tuple, mult.tolist())):
            if (n, mr) not in made:
                made[n, mr] = Cyclotomic(m, {(m // n) * j: x for j, x in enumerate(mr) if x})
            row.append(made[n, mr])

    rows = sorted(zip(degrees, values), key=lambda r: (r[0], _row_key(r[1])))
    table = CharTable(
        group_order=order,
        exponent=m,
        classes=classes,
        irreducibles=[r[1] for r in rows],
        degrees=[r[0] for r in rows],
        group=G,
    )
    verify_table(table)
    return table


def verify_table(table):
    """Prove the table square, Galois stable and orthogonal, or raise.

    Square (k rows, k degrees, k values per row) plus row orthogonality is
    the whole orthogonality proof (Isaacs, Thm 2.18): with D the diagonal of
    class sizes, X D X* = |G| I makes X invertible with X^-1 = D X*/|G|, so
    X* X = |G| D^-1, which is column orthogonality.

    Row orthogonality is proved in F_l, with no cyclotomic product.  Every
    value must lie in Z[zeta_m], m the table's exponent, and the k rows
    must be distinct and Galois stable, so each sigma_a: zeta -> zeta^a
    permutes them.  Let alpha_ij = sum_C |C| chi_i(C) conj chi_j(C)
    - |G| delta_ij; then sigma_a(alpha_ij) = alpha_i'j' for the rows i', j'
    that sigma_a sends i, j to, as i = j exactly when i' = j'.  Take a
    prime l ≡ 1 (mod m) with l > B = |G| (1 + N^2), N the largest
    ||v||_1 (the sum of the absolute power-basis coefficients) over the
    values, and map zeta to w of order m in F_l.  If every alpha_ij
    vanishes there, every alpha lies in the kernel L of that map, a prime
    above l.  As sigma_a(alpha_ij) is again an alpha, alpha_ij lies in
    sigma_a^-1(L) for every unit a, and these are all the primes above l.
    l ≡ 1 (mod m) splits completely in Z[zeta_m], so l divides alpha_ij.
    Each conjugate of alpha_ij has absolute value at most B, so a nonzero
    alpha_ij would have l^phi(m) <= |Norm(alpha_ij)| <= B^phi(m) < l^phi(m).
    Hence every alpha_ij is 0 (Washington, Introduction to Cyclotomic
    Fields, ch. 2).  The k^2 sums are one matrix product of least residues,
    in int64 where k (l - 1)^2 < 2^63 and in Python ints otherwise
    (`_mod_dtype`), and the first nonzero alpha_ij in row-major order is
    the one reported.
    """
    k = table.k
    rows = table.irreducibles
    if len(rows) != k or len(table.degrees) != k or any(len(r) != k for r in rows):
        raise IntegrityError(f"table over {k} classes is not square")
    order = table.group_order
    if sum(d * d for d in table.degrees) != order:
        raise IntegrityError("degree squares do not sum to the group order")
    if sum(c.size for c in table.classes) != order:
        raise IntegrityError("class sizes do not sum to the group order")
    for row, deg in zip(rows, table.degrees):
        if not (row[0].is_integer() and row[0].as_int() == deg > 0):
            raise IntegrityError("identity-class value disagrees with the degree")
    m = table.exponent
    if any(v.modulus != m for row in rows for v in row):
        raise IntegrityError("a value does not lie in the table's cyclotomic field")
    index = table.row_index()
    if len(index) != k:
        raise IntegrityError("table repeats a row")
    row_keys = sorted(index, key=index.get)
    value_of = {key: v for row, keys in zip(rows, row_keys) for key, v in zip(keys, row)}
    # stability under generators of (Z/m)^x is stability under all of it
    for a in _unit_generators(m):
        image = {key: v.galois(a).sort_key() for key, v in value_of.items()}
        if any(tuple(image[key] for key in keys) not in index for keys in row_keys):
            raise IntegrityError("table is not Galois stable")
    norm = max((sum(map(abs, v.terms.values())) for v in value_of.values()), default=0)
    l = _prime_above(order * (1 + norm * norm), m)
    w = _root_of_unity(l, m)
    sizes = np.array([s % l for s in table.class_sizes()], dtype=_mod_dtype(1, l))
    weighted = _shadow(table, m, l, w) * sizes % l
    gram = _dot(weighted, _shadow(table, m, l, pow(w, -1, l)).T, l) % l
    gram[np.diag_indices(k)] -= order % l
    bad = np.argwhere(gram % l != 0)  # row-major order
    if len(bad):
        i, j = bad[0].tolist()
        raise IntegrityError(f"row orthogonality fails at ({i},{j})")


def _unit_generators(m):
    """A generating set of (Z/m)^x, one CRT lift per local generator.

    Each odd prime power q contributes its least primitive root; the 2-part
    2^e contributes -1 for e = 2, and -1 and 5 for e >= 3.  Each local
    generator is lifted to the residue that is 1 modulo the rest of m.
    """
    gens = []
    for p in prime_factors(m):
        e = v_p(m, p)
        q = p**e
        if p == 2:
            local = [q - 1, 5][: e - 1]
        else:
            local = [least_primitive_root(p, e)]
        rest = m // q
        gens.extend((1 + rest * ((g - 1) * pow(rest, -1, q))) % m for g in local)
    return gens


def table_to_json(table):
    """A table on its group as JSON data: each class's power map sends every
    prime q dividing the order to the class of rep^q."""
    primes = prime_factors(table.group_order)
    return {
        "order": str(table.group_order),
        "exponent": table.exponent,
        "classes": [
            {
                "rep_order": c.rep_order,
                "size": c.size,
                "powermap": {str(q): pc[q % c.rep_order] for q in primes},
            }
            for c, pc in zip(table.classes, table.group.power_classes())
        ],
        "irreducibles": [[v.to_json() for v in row] for row in table.irreducibles],
    }


def save_table(table, path):
    with open(path, "w") as fh:
        json.dump(table_to_json(table), fh)


def table_from_json(data, table):
    """`table`, once `data` is shown to store it.

    The stored order and exponent must be the table's, or no value is
    built, and each value's modulus must divide the exponent.  Once the
    data is square with power maps in range, `reconcile_classes` matches
    it with the table, which was proved when it was built.
    """
    with malformed("table"):
        order = json_int(data["order"], "table order", decimal_string=True)
        exponent = json_int(data["exponent"], "table exponent")
        if order != table.group_order:
            raise IntegrityError(f"table order {order}, not the group's {table.group_order}")
        if exponent != table.exponent:
            raise IntegrityError(f"table exponent {exponent}, not the group's {table.exponent}")
        stored = [
            (json_int(c["size"], "class size"),
             json_int(c["rep_order"], "class element order"),
             {int(q): json_int(i, "power map class") for q, i in c["powermap"].items()})
            for c in data["classes"]
        ]
        # one field for every value, so equal values compare equal
        rows = [[Cyclotomic.from_json(v, exponent) for v in row] for row in data["irreducibles"]]
    k = len(stored)
    if len(rows) != k or any(len(row) != k for row in rows):
        raise IntegrityError(f"table over {k} classes is not square")
    if any(not 0 <= i < k for *_, powers in stored for i in powers.values()):
        raise IntegrityError("a power map names a class out of range")
    reconcile_classes(stored, rows, table)
    return table


def load_table(path, table):
    with open(path) as fh:
        return table_from_json(json.load(fh), table)


def reconcile_classes(stored, rows, table):
    """The table's class of each stored class, as a list.

    `stored` lists a (size, element order, power map) triple per class, the
    power map sending q to the class of rep^q, and `rows` the stored values.
    The match is a bijection that keeps all three and under which the
    stored rows are the table's rows, so any match shows that the data
    stores the table; a depth-first search takes the first it meets.  Each
    row carries a label, first its multiset of (class size, value) pairs,
    then also its values on the classes assigned so far.  A candidate must
    hold the stored column's values, keep every power-map edge between
    assigned classes, and keep the stored rows' labels equal to the table
    rows' labels as multisets, which every match does at every depth; with
    every class assigned, the labels are the rows.  Raises IntegrityError
    when nothing matches, or after `_RECONCILE_STEPS` candidate checks.
    """
    own, k = table.classes, len(stored)
    powers = table.group.power_classes()
    ids = {}  # each distinct value named by an int; cols[i][r] is row r's on class i
    cols = [[ids.setdefault(v, len(ids)) for v in col] for col in zip(*rows)]
    own_cols = [[ids.setdefault(v, len(ids)) for v in col] for col in zip(*table.irreducibles)]
    shapes = [(c.size, c.rep_order, sorted(col)) for c, col in zip(own, own_cols)]
    cand = [[j for j, shape in enumerate(shapes) if shape == (size, rep_order, sorted(col))]
            for (size, rep_order, _), col in zip(stored, cols)]
    first = [tuple(sorted(zip([s for s, *_ in stored], vals))) for vals in zip(*cols)]
    own_first = [tuple(sorted(zip([c.size for c in own], vals))) for vals in zip(*own_cols)]
    if not all(cand) or sorted(first) != sorted(own_first):
        raise IntegrityError("the stored table is not the group's character table")
    rev = [[] for _ in range(k)]  # rev[i] lists (source, q) with source --q--> i
    for i, (*_, pm) in enumerate(stored):
        for q, ti in pm.items():
            rev[ti].append((i, q))
    assign = [None] * k
    used = set()
    steps = count(1)

    def power(j, q):
        return powers[j][q % own[j].rep_order]

    def fits(i, j):
        """Whether every power-map edge between assigned classes holds,
        with stored class i just assigned to group class j."""
        if next(steps) > _RECONCILE_STEPS:
            raise IntegrityError(
                f"class reconciliation gave up after {_RECONCILE_STEPS} candidate checks")
        return (all(assign[ti] in (None, power(j, q)) for q, ti in stored[i][2].items())
                and all(assign[src] is None or power(assign[src], q) == j
                        for src, q in rev[i]))

    def search(i, labels, own_labels):
        if i == k:
            return True
        names = {}  # the next labels, named 0, 1, ... so that they stay small
        nxt = [names.setdefault(x, len(names)) for x in zip(labels, cols[i])]
        for j in cand[i]:
            if j in used:
                continue
            assign[i] = j
            own_nxt = [names.get(x, -1) for x in zip(own_labels, own_cols[j])]
            if fits(i, j) and sorted(own_nxt) == sorted(nxt):
                used.add(j)
                if search(i + 1, nxt, own_nxt):
                    return True
                used.remove(j)
        assign[i] = None
        return False

    if not search(0, first, own_first):
        raise IntegrityError("the stored table is not the group's character table")
    return assign
