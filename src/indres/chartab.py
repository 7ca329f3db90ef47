"""Exact character tables via eigenvalue splitting of class-sum matrices.

Character values are elements of Z[zeta_m], m the group exponent, stored in
canonical form on the power basis {zeta^e : 0 <= e < phi(m)}.  The whole
table is computed modulo a prime p ≡ 1 (mod m) with p > 2*sqrt(|G|), in int64
arrays whose sums `_check_int64` proves exact, and then lifted exactly.  The
class matrices are built one at a time, smallest class first, each from the
members of its own class, and only until every common eigenspace has
dimension 1.  `verify_table` proves the lifted table square, Galois stable
and with orthonormal rows (hence orthogonal columns) before it is returned,
so a table object in hand is always internally consistent.  The
orthogonality proof maps the table once to F_l, for a prime l ≡ 1 (mod m)
above a bound on its values, through `_shadow`, the one routine that
evaluates table rows in a prime field (`classfun.restriction_matrix` uses it
too); neither building nor verifying a table multiplies two cyclotomics.
"""

import json
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, combinations, count
from math import gcd, isqrt, lcm, prod
from operator import mul

import numpy as np

from .groupcore import (DEFAULT_ORDER_BUDGET, BudgetExceeded, ConjClassData,
                        IntegrityError, _member_indices, _memo,
                        conjugacy_classes, is_prime, json_int,
                        least_primitive_root, malformed, prime_factors,
                        split_product_images, v_p)

# Points per block of the root scan in `_poly_roots_mod`.
_ROOT_BLOCK = 1 << 16


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
    """Degree d = phi(m) and reduction rows for x^e (d <= e < m) mod Phi_m."""
    coeffs = _cyclotomic_coeffs(m)  # constant first, monic
    d = len(coeffs) - 1
    tail = [-c for c in coeffs[:-1]]  # x^d = sum tail[i] x^i
    rows = {}
    if d < m:
        cur = list(tail)
        rows[d] = tuple(cur)
        for e in range(d + 1, m):
            nxt = [0] + cur[:-1]
            lead = cur[-1]
            if lead:
                for i in range(d):
                    nxt[i] += lead * tail[i]
            cur = nxt
            rows[e] = tuple(cur)
    return d, rows


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
        if not isinstance(other, Cyclotomic):
            raise TypeError(f"cannot combine Cyclotomic with {type(other)!r}")
        if other.modulus != self.modulus:
            raise ValueError("cyclotomic modulus mismatch")
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
        if gcd(a, m) != 1:
            raise ValueError("galois exponent not coprime to modulus")
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
        if new_modulus % self.modulus:
            raise ValueError("new modulus must be a multiple")
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
    def from_json(cls, data):
        modulus = json_int(data["modulus"], "cyclotomic modulus")
        if modulus < 1:
            raise IntegrityError(f"cyclotomic modulus must be positive, got {modulus}")
        return cls(modulus,
                   {json_int(e, "cyclotomic exponent"): json_int(c, "cyclotomic coefficient")
                    for e, c in data["terms"]})

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
    lookup come from `factors`.  Every other table that the library
    returns lives on its group: `classes` are the group's
    `conjugacy_classes`, in that order.
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

    def find_row(self, values):
        return self.row_index().get(_row_key(values))

    @_memo
    def dual_map(self):
        """Permutation sending each row to the row of its complex conjugate."""
        if self.factors is not None:
            dualA, dualB = (f.dual_map() for f in self.factors)
            return [a * len(dualB) + b for a in dualA for b in dualB]
        inv = [pc[-1] for pc in self.group.power_classes()]
        out = []
        for row in self.irreducibles:
            j = self.find_row([row[i] for i in inv])
            if j is None:
                raise IntegrityError("conjugate row missing from table")
            out.append(j)
        if any(out[out[i]] != i for i in range(self.k)):
            raise IntegrityError("row conjugation is not an involution")
        return out


def _row_key(values):
    """The canonical key of a row: its values' power-basis terms, in order."""
    return tuple(v.sort_key() for v in values)


def inner_product(table, avalues, bvalues):
    """<a, b> = (1/|G|) sum |C| a(C) conj(b(C)); must be exact.

    Values may live in Z[zeta_M] for any M; the sum is taken in the least
    common overfield.  This lets restricted values from an overgroup (whose
    exponent is a multiple of this table's) be paired with native rows.
    """
    m = table.exponent
    for v in chain(avalues, bvalues):
        m = lcm(m, v.modulus)
    acc = Cyclotomic(m)
    for size, a, b in zip(table.class_sizes(), avalues, bvalues):
        acc = acc + (a.rebase(m) * b.rebase(m).conjugate()) * size
    return acc.exact_div(table.group_order)


def _prime_above(bound, m):
    """The least prime l ≡ 1 (mod m) with l > bound.

    `is_prime` raises `IntegrityError` once l reaches the Miller-Rabin
    bound, which only a hostile table file's values can force.
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


def _dixon_prime(order, exponent, k):
    # the prime must exceed 2*sqrt(|G|) so degrees are determined by their
    # squares mod l, and exceed k so characteristic-polynomial recovery can
    # divide by 1..k; l > isqrt(4|G|) is l^2 > 4|G|
    return _prime_above(max(isqrt(4 * order), k), exponent)


@_memo
def _shadow(table, M, l, w):
    """The table's rows in F_l under the ring homomorphism zeta_M -> w.

    Memoized on the table, so the images live and die with the table;
    w^-1 in place of w gives the complex conjugates.  A product table's
    images are the Kronecker product of its factors' images, in the
    product's pair order.
    """
    if table.factors is not None:
        SA, SB = (_shadow(f, M, l, w) for f in table.factors)
        return [[x * y % l for x in ra for y in rb] for ra in SA for rb in SB]
    pw = [1] * M
    for t in range(1, M):
        pw[t] = pw[t - 1] * w % l
    return [
        [
            sum(c * pw[e * (M // v.modulus)] for e, c in v.terms.items()) % l
            for v in row
        ]
        for row in table.irreducibles
    ]


def _class_matrices(G, p):
    """The class matrices A_i mod p, one at a time, smallest class first.

    A_i[j][l] counts the g in C_i with g^-1 z_l in C_j, z_l the
    representative of class l: the structure constants of the class
    algebra.  Each matrix is built from the members of C_i alone, one
    `index_of` of |C_i| rows per column, so a caller that stops early never
    sweeps the rest of G.  The identity class, whose matrix is I, is
    skipped.
    """
    classes = G.class_data()
    k = len(classes)
    ids = G.class_ids()
    members = np.argsort(ids, kind="stable")  # class by class, in class order
    starts = np.cumsum([0] + [c.size for c in classes])
    Einv = G.inverses()
    reps = np.array([c.representative for c in classes], dtype=Einv.dtype)
    for i in sorted(range(1, k), key=lambda i: classes[i].size):
        inv = Einv[members[starts[i]:starts[i + 1]]]
        A = np.empty((k, k), dtype=np.int64)
        for l, z in enumerate(reps):
            A[:, l] = np.bincount(ids[_member_indices(G, inv[:, z])], minlength=k)
        yield A % p


def _charpoly_mod(R, p):
    """Characteristic polynomial coefficients mod p via Newton's identities."""
    d = len(R)
    traces = []
    Rk = np.eye(d, dtype=np.int64)
    for _ in range(d):
        Rk = (Rk @ R) % p
        traces.append(int(np.trace(Rk)) % p)
    # e_0 = 1; k e_k = sum_{i=1}^{k} (-1)^{i-1} e_{k-i} t_i
    e = [1]
    for kk in range(1, d + 1):
        s = 0
        for i in range(1, kk + 1):
            term = (e[kk - i] * traces[i - 1]) % p
            s = (s - term) if i % 2 == 0 else (s + term)
        e.append((s * pow(kk, -1, p)) % p)
    # char poly x^d - e1 x^{d-1} + e2 x^{d-2} - ...
    coeffs = [1]
    for kk in range(1, d + 1):
        coeffs.append((-e[kk]) % p if kk % 2 else e[kk] % p)
    return coeffs  # leading first


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

    Every array product of the table build (class matrix times basis,
    matrix powers, the lift's transforms) sums at most n terms, each below
    (p - 1)^2, so n (p - 1)^2 < 2^63 keeps every int64 sum exact.
    """
    if n * (p - 1) ** 2 >= 2**63:
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


def character_table(G, budget_order=None):
    """Irreducible character table of G with exact cyclotomic values."""
    budget_order = DEFAULT_ORDER_BUDGET if budget_order is None else budget_order
    classes = conjugacy_classes(G, budget_order=budget_order)
    k = len(classes)
    order = G.order()
    m = G.exponent()
    p = _dixon_prime(order, m, k)
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
    Fields, ch. 2).
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
    sizes = table.class_sizes()
    conj = _shadow(table, m, l, pow(w, -1, l))
    for i, xi in enumerate(_shadow(table, m, l, w)):
        weighted = [x * s for x, s in zip(xi, sizes)]
        for j, yj in enumerate(conj):
            if (sum(map(mul, weighted, yj)) - (order if i == j else 0)) % l:
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
    return {
        "order": str(table.group_order),
        "exponent": table.exponent,
        "classes": [
            {
                "rep_order": c.rep_order,
                "size": c.size,
                "powermap": {str(q): int(i) for q, i in sorted(c.power_map.items())},
            }
            for c in table.classes
        ],
        "irreducibles": [[v.to_json() for v in row] for row in table.irreducibles],
    }


def save_table(table, path):
    with open(path, "w") as fh:
        json.dump(table_to_json(table), fh)


def table_from_json(data, group):
    """The table that `data` stores, proved and re-indexed onto `group`.

    The stored data is parsed and proved by `verify_table` in its own class
    order; the result is then built once, on the group's classes, with the
    columns permuted as `reconcile_classes` finds and the rows in the order
    of every table, by (degree, canonical value key).
    """
    with malformed("table"):
        order = json_int(data["order"], "table order", decimal_string=True)
        exponent = json_int(data["exponent"], "table exponent")
        classes = [
            ConjClassData(
                representative=None,
                size=json_int(c["size"], "class size"),
                rep_order=json_int(c["rep_order"], "class element order"),
                power_map={int(q): json_int(i, "power map class")
                           for q, i in c["powermap"].items()},
                centralizer_order=order // c["size"],
            )
            for c in data["classes"]
        ]
        rows = [[Cyclotomic.from_json(v) for v in row] for row in data["irreducibles"]]
    if order < 1 or exponent < 1:
        raise IntegrityError("table order and exponent must be positive")
    # one field for every value, so a value's power-basis key names it
    if any(exponent % v.modulus for row in rows for v in row):
        raise IntegrityError("a value's modulus does not divide the table exponent")
    rows = [[v.rebase(exponent) for v in row] for row in rows]
    if any(not 0 <= i < len(classes) for c in classes for i in c.power_map.values()):
        raise IntegrityError("a power map names a class out of range")
    if not all(row and row[0].is_integer() for row in rows):
        raise IntegrityError("identity value of a loaded row is not an integer")
    stored = CharTable(group_order=order, exponent=exponent, classes=classes,
                       irreducibles=rows, degrees=[row[0].as_int() for row in rows])
    verify_table(stored)
    perm = reconcile_classes(stored, group)
    # stored class i is group class perm[i]
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    rows = sorted(([row[i] for i in inv] for row in rows),
                  key=lambda row: (row[0].as_int(), _row_key(row)))
    return CharTable(
        group_order=order,
        exponent=exponent,
        classes=conjugacy_classes(group),
        irreducibles=rows,
        degrees=[row[0].as_int() for row in rows],
        group=group,
    )


def load_table(path, group):
    with open(path) as fh:
        return table_from_json(json.load(fh), group)


def reconcile_classes(table, group):
    """The group class of each of a stored table's classes, as a list.

    The match must be a bijection preserving order, size, and power maps.
    When several bijections are consistent (classes the stored data cannot
    tell apart, as with the three order-4 classes of the quaternion group)
    the lexicographically least one is taken, so loading is deterministic.
    Raises IntegrityError when no consistent bijection exists.  The table
    is read, not changed.
    """
    own = conjugacy_classes(group)
    if len(own) != table.k:
        raise IntegrityError("class count mismatch with the supplied group")
    cand = []
    for c in table.classes:
        matches = [
            j
            for j, o in enumerate(own)
            if o.rep_order == c.rep_order and o.size == c.size
        ]
        cand.append(matches)
    # refine by power-map consistency until stable
    changed = True
    while changed:
        changed = False
        for i, c in enumerate(table.classes):
            keep = []
            for j in cand[i]:
                ok = True
                for q, ti in c.power_map.items():
                    allowed = {own_j for own_j in cand[ti]}
                    if own[j].power_map.get(q) not in allowed:
                        ok = False
                        break
                if ok:
                    keep.append(j)
            if keep != cand[i]:
                cand[i] = keep
                changed = True
    if any(not m for m in cand):
        bad = next(i for i, m in enumerate(cand) if not m)
        raise IntegrityError(f"loaded class {bad} matches no group class")
    # reverse power-map edges: rev[i] lists (source, q) with source --q--> i
    rev = [[] for _ in range(table.k)]
    for i, c in enumerate(table.classes):
        for q, ti in c.power_map.items():
            rev[ti].append((i, q))
    assign = [None] * table.k
    used = set()

    def fits(i, j):
        for q, ti in table.classes[i].power_map.items():
            tj = assign[ti]
            if tj is not None and own[j].power_map.get(q) != tj:
                return False
        for src, q in rev[i]:
            sj = assign[src]
            if sj is not None and own[sj].power_map.get(q) != j:
                return False
        return True

    def search(i):
        if i == table.k:
            return True
        for j in cand[i]:
            if j in used or not fits(i, j):
                continue
            assign[i] = j
            used.add(j)
            if search(i + 1):
                return True
            assign[i] = None
            used.remove(j)
        return False

    if not search(0):
        raise IntegrityError("loaded class data does not reconcile with the group")
    return assign
