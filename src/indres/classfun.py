"""Virtual characters over a fixed table: induction, restriction, products.

A virtual character is an integer coefficient vector over the irreducible
characters of one CharTable; a product table's characters are the pairs of
factor characters, and its values come from the factors.  All arithmetic
stays in coefficient space; values are materialized only when a
computation genuinely needs them.  Induction and restriction run through a
cached integer matrix of inner products, so Frobenius reciprocity is exact
by construction and the matrix itself is what unit tests pin down.  That
matrix, and the vanishing test of property (G) on the p-singular classes,
are decided in F_l from the tables' images (`chartab._shadow`), with one
modular matrix product and a bound that makes the residue the exact
answer.  The exact cyclotomic evaluator that tests compare them with is
`oracles.value_at`.
"""

from math import isqrt, lcm

import numpy as np

from .chartab import (
    CharTable,
    Cyclotomic,
    IntegrityError,
    _dot,
    _mod_dtype,
    _prime_above,
    _root_of_unity,
    _shadow,
)
from .groupcore import ConjClassData, _memo, p_prime_part


class VirtualCharacter:
    """Element of the free abelian group on the rows of one table."""

    __slots__ = ("table", "coeffs")

    def __init__(self, table, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != table.k:
            raise ValueError("coefficient count does not match the table")
        self.table = table
        self.coeffs = coeffs

    def _check(self, other):
        if other.table is not self.table:
            raise ValueError("virtual characters live over different tables")

    def __add__(self, other):
        self._check(other)
        return VirtualCharacter(
            self.table, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        self._check(other)
        return VirtualCharacter(
            self.table, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __mul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return VirtualCharacter(self.table, [n * a for a in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, VirtualCharacter)
            and other.table is self.table
            and other.coeffs == self.coeffs
        )

    def degree(self):
        return sum(c * d for c, d in zip(self.coeffs, self.table.degrees))

    def support(self):
        return [i for i, c in enumerate(self.coeffs) if c]

    def conjugate(self):
        dual = self.table.dual_map()
        out = [0] * self.table.k
        for i, c in enumerate(self.coeffs):
            if c:
                out[dual[i]] = c
        return VirtualCharacter(self.table, out)

    def __repr__(self):
        parts = [
            f"{'+' if c > 0 else '-'}{abs(c) if abs(c) != 1 else ''}x{i}"
            for i, c in enumerate(self.coeffs)
            if c
        ]
        return f"VirtualCharacter({''.join(parts) or '0'})"


def irr(table, i):
    coeffs = [0] * table.k
    coeffs[i] = 1
    return VirtualCharacter(table, coeffs)


def trivial_index(table):
    one = Cyclotomic.from_int(table.exponent, 1)
    for i, row in enumerate(table.irreducibles):
        if table.degrees[i] == 1 and all(v == one for v in row):
            return i
    raise ValueError("table has no trivial row; it is not a character table")


# -- fusion and the induction/restriction matrix ----------------------------
#
# The data of a table pair (class fusions, restriction matrices) belongs to
# whichever table of the pair dies first: the small one.  So each public
# function here hands its pair, small table first, to a `_memo` helper, and
# a subgroup table dropped by its caller is freed even while the big table
# lives on.

def class_fusion(big, small):
    """For each class of the small table, its class index in the big table.

    The small table must carry class representatives that are literally
    elements of the big table's group (same ambient degree).
    """
    return _fusion(small, big)


@_memo
def _fusion(small, big):
    fused = []
    for c in small.classes:
        try:
            fused.append(big.class_index_of(c.representative))
        except KeyError:
            raise ValueError(
                "class representative does not lie in the big group"
            ) from None
    return fused


def restriction_matrix(big, small):
    """R[i][j] = <Res chi_i, psi_j> over the small table; exact integers.

    Rows index the big table's irreducibles, columns the small table's.
    Induction and restriction are R and its transpose acting on coefficient
    vectors, which makes Frobenius reciprocity automatic.

    R is computed in F_l for a prime l ≡ 1 (mod M), M the lcm of the two
    exponents, through zeta_M -> w with w of order M.  That map is a ring
    homomorphism, and l does not divide |H| (every prime factor of |H|
    divides M, and l ≡ 1 mod M), so the F_l sum is R[i][j] mod l.  Each
    true entry lies in [0, chi_i(1)] and chi_i(1) <= sqrt|G| < l, so the
    least residue is the entry itself, provided the inputs are a character
    table and a subgroup table.  That proviso is checked, not trusted: an
    entry above chi_i(1), or a failure of sum_j R_ij psi_j(1) = chi_i(1) or
    of sum_i R_ij chi_i(1) = [G:H] psi_j(1), raises IntegrityError, the
    first failing row first.  R is one matrix product, A[:, fused] times
    (conj C . sizes)^T times |H|^-1 with A, C the two tables' images, in
    int64 where k_H (l - 1)^2 < 2^63 and in Python ints otherwise
    (`chartab._mod_dtype`).
    """
    return _restriction(small, big)


@_memo
def _restriction(small, big):
    fused = _fusion(small, big)
    M = lcm(big.exponent, small.exponent)
    l = _prime_above(isqrt(4 * big.group_order), M)  # l > 2 sqrt|G| > every chi(1)
    w = _root_of_unity(l, M)
    sizes = np.array([s % l for s in small.class_sizes()], dtype=_mod_dtype(1, l))
    weighted_conj = _shadow(small, M, l, pow(w, -1, l)) * sizes % l
    R = _dot(_shadow(big, M, l, w)[:, fused], weighted_conj.T, l) % l
    R = R * pow(small.group_order, -1, l) % l
    degs = np.array(big.degrees)[:, None]
    over = (R > degs).any(axis=1)
    short = (_dot(R, np.array(small.degrees)[:, None], l) != degs).any(axis=1)
    bad = np.flatnonzero(over | short)
    if len(bad):
        raise IntegrityError("restriction multiplicity exceeds the degree" if over[bad[0]]
                             else "restricted degrees do not sum to the degree")
    induced = _dot(degs.T, R, l)[0].tolist()
    for total, d in zip(induced, small.degrees):
        if total * small.group_order != big.group_order * d:
            raise IntegrityError("induced degree is not [G:H] psi(1)")
    return R.tolist()


def induce(phi, big):
    """Frobenius induction to the big table's group."""
    R = restriction_matrix(big, phi.table)
    coeffs = [
        sum(R[i][j] * c for j, c in enumerate(phi.coeffs) if c)
        for i in range(big.k)
    ]
    return VirtualCharacter(big, coeffs)


# -- direct products ---------------------------------------------------------

def product_table(tA, tB):
    """Table of a direct product, classes and characters in pair order.

    Class (a, b) has index a*kB + b, character (i, j) likewise; its value at
    class (a, b) is the product of the factor values (Isaacs, Thm 4.21).
    The table keeps no rows and no group: `irreducibles` is None, and
    `oracles.value_at`, `_shadow`, `CharTable.dual_map` and `CharTable.class_index_of`
    derive what they need from `factors`.  A reader that needs the product
    group builds it with `product_group` from the factor groups; class
    representatives act on the disjoint union of the factors' points, as
    there.
    """
    dA = tA.group.degree
    order = tA.group_order * tB.group_order
    classes = [
        ConjClassData(a.representative + tuple(x + dA for x in b.representative),
                      a.size * b.size, lcm(a.rep_order, b.rep_order))
        for a in tA.classes
        for b in tB.classes
    ]
    degrees = [da * db for da in tA.degrees for db in tB.degrees]
    if sum(d * d for d in degrees) != order:
        raise IntegrityError("product degree squares do not sum to the order")

    return CharTable(
        group_order=order,
        exponent=lcm(tA.exponent, tB.exponent),
        classes=classes,
        irreducibles=None,
        degrees=degrees,
        factors=(tA, tB),
    )


def outer_product(chi, theta, prod):
    """(chi x theta)(g, h) = chi(g) theta(h) as a row-coefficient tensor."""
    kB = theta.table.k
    coeffs = [0] * prod.k
    for i, a in enumerate(chi.coeffs):
        if a:
            for j, b in enumerate(theta.coeffs):
                if b:
                    coeffs[i * kB + j] = a * b
    return VirtualCharacter(prod, coeffs)


# -- counts ------------------------------------------------------------------

def ml_counts(table, p, subset=None):
    """Character counts by degree residue, folded under l ~ -l (mod p).

    Each character of the subset (a row index iterable; default: the
    characters of p'-degree) is counted at the residue of the p'-part of
    its degree, which is never 0 mod p.
    """
    residues = [1] if p == 2 else list(range(1, (p - 1) // 2 + 1))
    counts = {l: 0 for l in residues}
    if subset is None:
        subset = [i for i, d in enumerate(table.degrees) if d % p]
    for i in subset:
        r = p_prime_part(table.degrees[i], p) % p
        counts[min(r, p - r)] += 1
    return counts


def p_singular_classes(table, p):
    """Indices of classes whose elements have order divisible by p."""
    return [j for j, c in enumerate(table.classes) if c.rep_order % p == 0]


def vanishes_on_p_singular(chi, p):
    """Whether the virtual character chi is 0 on every p-singular class.

    Decided in F_l, with no cyclotomic product.  Let B = sum_i |c_i|
    chi_i(1) for chi = sum_i c_i chi_i, and M the table's exponent.  Every
    value chi(g) lies in Z[zeta_M], and each of its conjugates has absolute
    value at most B.  Take the least primes l ≡ 1 (mod M) above min(B, 2^64)
    until their product L exceeds B: one prime l > B, unless B > 2^64, so
    that each stays below the Miller-Rabin bound.  For each l, map
    zeta_M -> w of order M in F_l (through `_shadow`; on a product table the
    values are S_A^T C S_B, C the coefficient matrix and S_A, S_B the
    factors' images) and test the images on the p-singular classes.  That
    set is closed under g -> g^a, and sigma_a(chi(g)) = chi(g^a) for a
    prime to M, as chi(g) is a sum of eigenvalues of g, roots of unity
    (Isaacs, Character Theory of Finite Groups, ch. 2); so if every image
    vanishes, chi(g) lies in every prime above l, hence in
    lZ[zeta_M], as l ≡ 1 (mod M) splits completely (Washington,
    Introduction to Cyclotomic Fields, ch. 2); so L divides chi(g).  Every
    conjugate of chi(g)/L then has absolute value below B/L < 1, so its
    norm, an integer, is 0, and chi(g) = 0.  The products are exact in
    `chartab._mod_dtype`.  `oracles.value_at` is the exact evaluator that
    tests compare this with.
    """
    t = chi.table
    singular = p_singular_classes(t, p)
    M = t.exponent
    bound = sum(abs(c) * d for c, d in zip(chi.coeffs, t.degrees))
    l, L = min(bound, 2**64), 1
    while L <= bound:
        l = _prime_above(l, M)
        L *= l
        w = _root_of_unity(l, M)
        coeffs = np.array([c % l for c in chi.coeffs], dtype=_mod_dtype(1, l))
        if t.factors is None:
            values = _dot(coeffs[None, :], _shadow(t, M, l, w), l) % l
        else:
            SA, SB = (_shadow(f, M, l, w) for f in t.factors)
            values = _dot(SA.T, _dot(coeffs.reshape(len(SA), len(SB)), SB, l) % l, l) % l
        if values.ravel()[singular].any():
            return False
    return True
