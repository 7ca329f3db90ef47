"""p-block partition via central characters in a deterministic residue field.

The cyclotomic integers Z[zeta_m] are reduced modulo a maximal ideal over p:
the residue field is F_p[x]/(f) with f the lexicographically least monic
irreducible of degree d (d the order of p modulo the p'-part m' of m), and
zeta_{m'} is sent to the least field element of multiplicative order m'.
Everything downstream of the reduction (the block partition, defects, defect
groups, Brauer correspondents) is ideal-independent; an alternative
root-of-unity image is available precisely so tests can demonstrate that.
"""

from dataclasses import dataclass
from math import gcd

from .chartab import IntegrityError
from .classfun import class_fusion, trivial_index
from .groupcore import (_first_hit, _memo, _transporter_mask, centralizer,
                        multiplicative_order, p_prime_part, prime_factors,
                        sylow_subgroup, v_p)


# -- finite fields -----------------------------------------------------------

class FpField:
    """F_{p^d} for any prime p; elements are d-digit tuples, low degree first."""

    def __init__(self, p, d, fdigits):
        self.p = p
        self.d = d
        self.fdigits = fdigits  # f = x^d + sum fdigits[i] x^i
        self.one = (1,) + (0,) * (d - 1)
        # x^e mod f for d <= e <= 2d - 2
        xpow = []
        cur = tuple((-c) % p for c in fdigits)  # x^d
        xpow.append(cur)
        for _ in range(d - 2):
            shifted = (0,) + cur[:-1]
            lead = cur[-1]
            cur = tuple(
                (s + lead * r) % p for s, r in zip(shifted, xpow[0])
            )
            xpow.append(cur)
        self.xpow = xpow

    def mul(self, a, b):
        p, d = self.p, self.d
        raw = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        raw[i + j] += x * y
        out = [c % p for c in raw[:d]]
        for e in range(d, 2 * d - 1):
            c = raw[e] % p
            if c:
                row = self.xpow[e - d]
                for i in range(d):
                    out[i] = (out[i] + c * row[i]) % p
        return tuple(out)

    def pow(self, a, k):
        if k == 0:
            return self.one
        acc = a
        for bit in bin(k)[3:]:
            acc = self.mul(acc, acc)
            if bit == "1":
                acc = self.mul(acc, a)
        return acc

    def encode(self, a):
        acc = 0
        for digit in reversed(a):
            acc = acc * self.p + digit
        return acc

    def decode(self, enc):
        digits = []
        for _ in range(self.d):
            enc, r = divmod(enc, self.p)
            digits.append(r)
        return tuple(digits)


def _coprime(a, b, p):
    """Whether polynomials a, b over F_p (digit lists, low first) are coprime."""
    a, b = list(a), list(b)
    for c in (a, b):
        while c and c[-1] == 0:
            c.pop()
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, bi in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bi) % p
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _least_irreducible(p, d):
    """Lexicographically least monic irreducible of degree d over F_p.

    "Least" means the smallest base-p encoding of the non-leading
    coefficients.  Returned as that digit list (low degree first).

    A candidate f passes Rabin's test (SIAM J. Comput. 9, 1980): f is
    irreducible exactly when x^(p^d) = x mod f and gcd(x^(p^(d/r)) - x, f)
    = 1 for every prime r dividing d.  The powers are taken in
    FpField(p, d, f), whose arithmetic mod f needs no irreducibility, one
    p-th power at a time; a gcd that fails rejects f at once.
    """
    if d == 1:
        return [0]
    x = (0, 1) + (0,) * (d - 2)
    checks = {d // r for r in prime_factors(d)}
    for enc in range(p**d):
        if enc % p == 0:  # x divides f
            continue
        digits, rest = [], enc
        for _ in range(d):
            rest, r = divmod(rest, p)
            digits.append(r)
        F = FpField(p, d, tuple(digits))
        y = x
        for i in range(1, d + 1):
            y = F.pow(y, p)
            if i in checks:
                h = [(a - b) % p for a, b in zip(y, x)]
                if not _coprime(digits + [1], h, p):
                    break
        else:
            if y == x:
                return digits
    raise IntegrityError("no irreducible polynomial found")


class ModularReduction:
    """Ring homomorphism Z[zeta_m] -> F_{p^d} with zeta of p-power order -> 1.

    `alternative` selects the i-th smallest element of multiplicative order
    m' as the image of zeta_{m'} (0 = the canonical least); any choice gives
    the same block partition, which tests exploit.
    """

    def __init__(self, p, m, alternative=0):
        self.p = p
        self.m = m
        self.m_prime = m_prime = p_prime_part(m, p)
        self.d = multiplicative_order(p, m_prime)
        F = self.field = FpField(p, self.d, tuple(_least_irreducible(p, self.d)))
        # g^0, ..., g^(m'-1) with g of order m'; the elements of order m'
        # are the g^k with k a unit mod m', whichever g of order m' it is
        g_powers = [F.one]
        if m_prime > 1:
            g = self._root_of_unity()
            for _ in range(m_prime - 1):
                g_powers.append(F.mul(g_powers[-1], g))
        units = sorted(
            (k for k in range(m_prime) if gcd(k, m_prime) == 1),
            key=lambda k: F.encode(g_powers[k]),
        )
        if alternative >= len(units):
            raise ValueError(
                f"there are only {len(units)} elements of order {m_prime}"
            )
        # rho^j for j in [0, m'), rho the chosen image of zeta_{m'}
        k = units[alternative]
        self.rho_powers = [g_powers[k * j % m_prime] for j in range(m_prime)]
        # exponent map: zeta_m^e -> rho^{e * kappa mod m'}
        kappa = pow(m // m_prime, -1, m_prime) if m_prime > 1 else 0
        self.exp_map = [(e * kappa) % m_prime for e in range(m)]

    def _root_of_unity(self):
        """An element of order m' in F^x, found from the factors of m' alone.

        F^x is cyclic of order p^d - 1, a multiple of m', so the
        (p^d - 1)/m'-th power of an element has order dividing m'; the
        first one of order exactly m' is taken, and p^d - 1 is never
        factored.
        """
        F, m_prime = self.field, self.m_prime
        cofactor = (self.p**self.d - 1) // m_prime
        qs = prime_factors(m_prime)
        # encodings 0 and 1 are the elements 0 and 1
        for enc in range(2, self.p**self.d):
            w = F.pow(F.decode(enc), cofactor)
            if all(F.pow(w, m_prime // q) != F.one for q in qs):
                return w
        raise IntegrityError(f"no element of order {m_prime} found")

    def reduce(self, value):
        """Image of a cyclotomic integer; modulus must divide m."""
        if self.m % value.modulus:
            raise ValueError("value modulus does not divide the reduction modulus")
        scale = self.m // value.modulus
        acc = [0] * self.d
        for e, c in value.terms.items():
            term = self.rho_powers[self.exp_map[(e * scale) % self.m]]
            for i, digit in enumerate(term):
                acc[i] += c * digit
        return tuple(a % self.p for a in acc)


# -- blocks -------------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    """One p-block: its characters, defect, and central character."""

    index: int
    char_indices: tuple
    defect: int
    central_character: tuple
    principal: bool

    def height_zero(self, table, p):
        a = v_p(table.group_order, p)
        return tuple(
            i for i in self.char_indices if v_p(table.degrees[i], p) == a - self.defect
        )


def omega_values(table, chi_index):
    """Central-character values |C| chi(x_C) / chi(1), exact in Z[zeta_m]."""
    deg = table.degrees[chi_index]
    row = table.irreducibles[chi_index]
    out = []
    for j in range(table.k):
        try:
            out.append((row[j] * table.classes[j].size).exact_div(deg))
        except ValueError as exc:
            raise IntegrityError(
                f"central character of row {chi_index} is not integral: {exc}"
            ) from exc
    return out


@_memo
def _table_reduction(table, p, alternative):
    """The reduction of the table's values at p, built once per table.

    p must divide the group order: p-blocks of a p'-group are single
    characters, and finding a primitive element of the residue field would
    scan up to p constants.
    """
    if table.group_order % p:
        raise ValueError(f"p = {p} does not divide the group order {table.group_order}")
    return ModularReduction(p, table.exponent, alternative)


def block_partition(table, p, alternative=0):
    """All p-blocks of the table, ordered by least character index."""
    red = _table_reduction(table, p, alternative)
    signature = {}
    for i in range(table.k):
        sig = tuple(red.reduce(v) for v in omega_values(table, i))
        signature.setdefault(sig, []).append(i)
    groups = sorted(signature.items(), key=lambda kv: kv[1][0])
    a = v_p(table.group_order, p)
    triv = trivial_index(table)
    out = []
    for index, (sig, chars) in enumerate(groups):
        defect = a - min(v_p(table.degrees[i], p) for i in chars)
        out.append(
            Block(
                index=index,
                char_indices=tuple(chars),
                defect=defect,
                central_character=sig,
                principal=triv in chars,
            )
        )
    if sum(len(b.char_indices) for b in out) != table.k:
        raise IntegrityError("blocks do not partition the irreducibles")
    return out


@_memo
def defect_group(table, block, p):
    """A defect group of the block, up to conjugacy.

    Defect classes: among classes where the central character is nonzero,
    the p-part of the centralizer order is minimized; a Sylow p-subgroup of
    that centralizer is a defect group, and its order is checked to be
    p^defect.  Memoized on the table by the block's value.
    """
    G = table.group
    if G is None:
        raise ValueError("defect groups need the table's group attached")
    best = None
    for j, lam in enumerate(block.central_character):
        if not any(lam):
            continue
        val = v_p(table.classes[j].centralizer_order, p)
        if best is None or val < best[0]:
            best = (val, j)
    if best is None:
        raise IntegrityError("central character vanished everywhere")
    rep = table.classes[best[1]].representative
    D = sylow_subgroup(centralizer(G, rep), p)
    if D.order() != p**block.defect:
        raise IntegrityError(f"defect group order {D.order()} != p^{block.defect}")
    return D


def brauer_correspondent(tH, e, tG, blocksG, reduction):
    """The induced block e^G, or None when it is not defined.

    The Brauer map sends a G-class sum to the sum of the H-class sums it
    contains; composing with e's central character must reproduce the
    central character of exactly one block of G.  All values are computed
    in the big group's reduction so both sides live in one field.
    """
    theta = e.char_indices[0]
    lam_e = [reduction.reduce(v) for v in omega_values(tH, theta)]
    fused = class_fusion(tG, tH)
    sums = [[0] * reduction.d for _ in range(tG.k)]
    for j, lam in enumerate(lam_e):
        acc = sums[fused[j]]
        for i, digit in enumerate(lam):
            acc[i] += digit
    induced = tuple(tuple(a % reduction.p for a in acc) for acc in sums)
    matches = [b for b in blocksG if b.central_character == induced]
    if len(matches) == 1:
        return matches[0]
    if matches:
        raise IntegrityError("distinct blocks share a central character")
    return None


def some_defect_group_inside(table, block, p, P):
    """Whether some G-conjugate of the block's defect group lies in P."""
    D = defect_group(table, block, p)
    if D.order() == 1:
        return True
    if P.order() % D.order():
        return False
    G = table.group
    return _first_hit(G, lambda lo, hi: _transporter_mask(G, D, P, lo, hi)) >= 0


def char_subsets(table, p, P, blks=None):
    """(Irr(G,P), Irr_0(G,P), Irr^p(G,P)) as sorted row-index lists.

    Irr(G,P) collects the blocks with some defect group inside P; Irr_0 is
    the slice of exact p-valuation v_p(|G:P|); Irr^p is the rest.
    """
    blks = blks if blks is not None else block_partition(table, p)
    target = v_p(table.group_order, p) - v_p(P.order(), p)
    irr_gp = []
    for b in blks:
        if some_defect_group_inside(table, b, p, P):
            irr_gp.extend(b.char_indices)
    irr_gp.sort()
    irr0 = [i for i in irr_gp if v_p(table.degrees[i], p) == target]
    irrp = [i for i in irr_gp if v_p(table.degrees[i], p) != target]
    return irr_gp, irr0, irrp
