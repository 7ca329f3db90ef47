"""Virtual characters over a fixed table: induction, restriction, products.

A virtual character is an integer coefficient vector over the irreducible
characters of one CharTable; a product table's characters are the pairs of
factor characters, and its values come from the factors.  All arithmetic
stays in coefficient space; values are materialized only when a
computation genuinely needs them (decomposing a pointwise product, testing
vanishing on a set of classes).  Induction and
restriction run through a cached integer matrix of inner products, so
Frobenius reciprocity is exact by construction and the matrix itself is
what unit tests pin down.
"""

from math import lcm

from .chartab import (
    CharTable,
    Cyclotomic,
    IntegrityError,
    _dixon_prime,
    _root_of_unity,
    _shadow,
    inner_product,
)
from .groupcore import ConjClassData, _memo, p_prime_part, prime_factors


class ValueDomainError(ValueError):
    """A class function that should decompose integrally does not."""


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
        if not isinstance(other, VirtualCharacter):
            raise TypeError("expected a VirtualCharacter")
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

    def __neg__(self):
        return VirtualCharacter(self.table, [-a for a in self.coeffs])

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

    def __hash__(self):
        return hash((id(self.table), self.coeffs))

    def is_zero(self):
        return not any(self.coeffs)

    def degree(self):
        return sum(c * d for c, d in zip(self.coeffs, self.table.degrees))

    def support(self):
        return [i for i, c in enumerate(self.coeffs) if c]

    def value_at(self, j):
        t = self.table
        if t.factors is None:
            return _column_sum(t, self.coeffs, j)
        # at class (a, b) of a product: sum_i chi_i(a) * sum_i' c_(i,i') psi_i'(b)
        tA, tB = t.factors
        a, b = divmod(j, tB.k)
        M = t.exponent
        acc = Cyclotomic(M)
        for i, row in enumerate(tA.irreducibles):
            part = self.coeffs[i * tB.k:(i + 1) * tB.k]
            if any(part):
                acc = acc + row[a].rebase(M) * _column_sum(tB, part, b).rebase(M)
        return acc

    def values(self):
        return [self.value_at(j) for j in range(self.table.k)]

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


def _column_sum(table, coeffs, j):
    """sum_i c_i chi_i(j) over the rows of a table that has them."""
    acc = Cyclotomic(table.exponent)
    for c, row in zip(coeffs, table.irreducibles):
        if c:
            acc = acc + row[j] * c
    return acc


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


def trivial(table):
    return irr(table, trivial_index(table))


def regular(table):
    return VirtualCharacter(table, table.degrees)


def inner(a, b):
    """<a, b> for two virtual characters over the same table (an integer)."""
    a._check(b)
    return sum(x * y for x, y in zip(a.coeffs, b.coeffs))


def from_values(table, values):
    """Exact decomposition of a class function into the table's rows.

    Raises ValueDomainError when any coefficient fails to be a rational
    integer, so the return value is always a genuine virtual character.
    """
    if len(values) != table.k:
        raise ValueError("one value per class is required")
    values = [
        v if isinstance(v, Cyclotomic) else Cyclotomic.from_int(table.exponent, v)
        for v in values
    ]
    coeffs = []
    for row in table.irreducibles:
        try:
            coeffs.append(inner_product(table, values, row).as_int())
        except ValueError as exc:
            raise ValueDomainError(str(exc)) from exc
    return VirtualCharacter(table, coeffs)


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
    of sum_i R_ij chi_i(1) = [G:H] psi_j(1), raises IntegrityError.
    """
    return _restriction(small, big)


@_memo
def _restriction(small, big):
    fused = _fusion(small, big)
    M = lcm(big.exponent, small.exponent)
    l = _dixon_prime(big.group_order, M, big.k)  # l > 2 sqrt|G| > every chi(1)
    w = _root_of_unity(l, M)
    inv_order = pow(small.group_order, -1, l)
    sizes = small.class_sizes()
    weighted_conj = [
        [v * s % l for v, s in zip(row, sizes)]
        for row in _shadow(small, M, l, pow(w, -1, l))
    ]
    R = []
    for brow, deg in zip(_shadow(big, M, l, w), big.degrees):
        avals = [brow[f] for f in fused]
        Ri = [
            sum(a * c for a, c in zip(avals, crow)) * inv_order % l
            for crow in weighted_conj
        ]
        if any(r > deg for r in Ri):
            raise IntegrityError("restriction multiplicity exceeds the degree")
        if sum(r * d for r, d in zip(Ri, small.degrees)) != deg:
            raise IntegrityError("restricted degrees do not sum to the degree")
        R.append(Ri)
    for j, d in enumerate(small.degrees):
        induced = sum(Ri[j] * deg for Ri, deg in zip(R, big.degrees))
        if induced * small.group_order != big.group_order * d:
            raise IntegrityError("induced degree is not [G:H] psi(1)")
    return R


def induce(phi, big):
    """Frobenius induction to the big table's group."""
    R = restriction_matrix(big, phi.table)
    coeffs = [
        sum(R[i][j] * c for j, c in enumerate(phi.coeffs) if c)
        for i in range(big.k)
    ]
    return VirtualCharacter(big, coeffs)


def restrict(chi, small):
    """Restriction to the small table's group."""
    R = restriction_matrix(chi.table, small)
    coeffs = [
        sum(R[i][j] * c for i, c in enumerate(chi.coeffs) if c)
        for j in range(small.k)
    ]
    return VirtualCharacter(small, coeffs)


# -- direct products ---------------------------------------------------------

def product_table(tA, tB):
    """Table of a direct product, classes and characters in pair order.

    Class (a, b) has index a*kB + b, character (i, j) likewise; its value at
    class (a, b) is the product of the factor values (Isaacs, Thm 4.21).
    The table keeps no rows and no group: `irreducibles` is None, and
    `value_at`, `_shadow`, `CharTable.dual_map` and `CharTable.class_index_of`
    derive what they need from `factors`.  A reader that needs the product
    group builds it with `product_group` from the factor groups; class
    representatives act on the disjoint union of the factors' points, as
    there.  Power maps come from the factors' power classes.
    """
    if tA.group is None or tB.group is None:
        raise ValueError("product_table needs both factor groups")
    dA, kB = tA.group.degree, tB.k
    pcA, pcB = tA.group.power_classes(), tB.group.power_classes()
    order = tA.group_order * tB.group_order
    primes = prime_factors(order)

    classes = []
    for ia, a in enumerate(tA.classes):
        for ib, b in enumerate(tB.classes):
            images = a.representative + tuple(x + dA for x in b.representative)
            classes.append(
                ConjClassData(
                    representative=images,
                    size=a.size * b.size,
                    rep_order=lcm(a.rep_order, b.rep_order),
                    power_map={q: pcA[ia][q % a.rep_order] * kB + pcB[ib][q % b.rep_order]
                               for q in primes},
                    centralizer_order=a.centralizer_order * b.centralizer_order,
                )
            )

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
    if prod.factors != (chi.table, theta.table):
        raise ValueError("product table does not match the factor tables")
    kB = theta.table.k
    coeffs = [0] * prod.k
    for i, a in enumerate(chi.coeffs):
        if a:
            for j, b in enumerate(theta.coeffs):
                if b:
                    coeffs[i * kB + j] = a * b
    return VirtualCharacter(prod, coeffs)


# -- counts ------------------------------------------------------------------

def ml_counts(table, p, mode="global", subset=None):
    """Character counts by degree residue, folded under l ~ -l (mod p).

    global mode buckets chi(1) mod p, skipping degrees divisible by p;
    p-prime-part mode buckets the p'-part of chi(1), so every character in
    the subset lands in some bucket.  The subset is a row index iterable
    (default: all rows).
    """
    if mode not in ("global", "p-prime-part"):
        raise ValueError(f"unknown mode {mode!r}")
    residues = [1] if p == 2 else list(range(1, (p - 1) // 2 + 1))
    counts = {l: 0 for l in residues}
    rows = range(table.k) if subset is None else subset
    for i in rows:
        d = table.degrees[i]
        if mode == "p-prime-part":
            d = p_prime_part(d, p)
        r = d % p
        if r == 0:
            continue
        counts[min(r, p - r)] += 1
    return counts


def p_singular_classes(table, p):
    """Indices of classes whose elements have order divisible by p."""
    return [j for j, c in enumerate(table.classes) if c.rep_order % p == 0]


def vanishes_on(chi, class_indices):
    return all(chi.value_at(j).is_zero() for j in class_indices)
