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

import sympy

from .chartab import IntegrityError
from .classfun import class_fusion, trivial_index
from .groupcore import (_first_hit, _memo, _transporter_mask, centralizer,
                        sylow_subgroup, v_p)


# -- finite fields -----------------------------------------------------------

class F2Field:
    """F_{2^d}; elements are ints whose bits are polynomial coefficients."""

    def __init__(self, d, fpoly):
        self.p = 2
        self.d = d
        self.fpoly = fpoly
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return a ^ b

    def mul(self, a, b):
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            b >>= 1
            a <<= 1
        return self.reduce_poly(acc)

    def reduce_poly(self, a):
        d, f = self.d, self.fpoly
        top = a.bit_length() - 1
        while top >= d:
            a ^= f << (top - d)
            top = a.bit_length() - 1
        return a

    def pow(self, a, k):
        acc, base = self.one, a
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def scalar(self, c):
        return c & 1

    def encode(self, a):
        return a

    def decode(self, enc):
        return enc


class FpField:
    """F_{p^d} for odd p; elements are length-d digit tuples, low degree first."""

    def __init__(self, p, d, fdigits):
        self.p = p
        self.d = d
        self.fdigits = fdigits  # f = x^d + sum fdigits[i] x^i
        self.zero = (0,) * d
        self.one = ((1,) + (0,) * (d - 1)) if d else ()
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

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

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
        acc, base = self.one, a
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def scalar(self, c):
        return ((c % self.p,) + (0,) * (self.d - 1)) if self.d else ()

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


def _least_irreducible(p, d):
    """Lexicographically least monic irreducible of degree d over F_p.

    "Least" means the smallest base-p encoding of the non-leading
    coefficients.  Returned as that digit list (low degree first).
    """
    if d == 1:
        return [0] if p == 2 else [0]  # f = x, irreducible; field is F_p
    x = sympy.symbols("x")
    for enc in range(p**d):
        digits = []
        e = enc
        for _ in range(d):
            e, r = divmod(e, p)
            digits.append(r)
        poly = sympy.Poly(
            [1] + [digits[d - 1 - i] for i in range(d)], x, modulus=p
        )
        if poly.is_irreducible:
            return digits
    raise IntegrityError("no irreducible polynomial found")


def _build_field(p, d):
    digits = _least_irreducible(p, d)
    if p == 2:
        f = (1 << d) | sum(bit << i for i, bit in enumerate(digits))
        return F2Field(d, f)
    return FpField(p, d, tuple(digits))


def _multiplicative_order(a, n):
    if n == 1:
        return 1
    order = 1
    x = a % n
    while x != 1:
        x = (x * a) % n
        order += 1
        if order > n:
            raise IntegrityError("order computation ran away")
    return order


class ModularReduction:
    """Ring homomorphism Z[zeta_m] -> F_{p^d} with zeta of p-power order -> 1.

    `alternative` selects the i-th smallest element of multiplicative order
    m' as the image of zeta_{m'} (0 = the canonical least); any choice gives
    the same block partition, which tests exploit.
    """

    def __init__(self, p, m, alternative=0):
        self.p = p
        self.m = m
        m_prime = m
        while m_prime % p == 0:
            m_prime //= p
        self.m_prime = m_prime
        self.d = _multiplicative_order(p, m_prime)
        self.field = _build_field(p, self.d)
        self.rho = self._root_image(alternative)
        # rho^j for j in [0, m')
        powers = [self.field.one]
        for _ in range(m_prime - 1):
            powers.append(self.field.mul(powers[-1], self.rho))
        self.rho_powers = powers
        # exponent map: zeta_m^e -> rho^{e * kappa mod m'}
        kappa = pow(m // m_prime, -1, m_prime) if m_prime > 1 else 0
        self.exp_map = [(e * kappa) % m_prime for e in range(m)]

    def _root_image(self, alternative):
        F = self.field
        q1 = self.p**self.d - 1
        mp = self.m_prime
        if mp == 1:
            if alternative:
                raise ValueError("the only element of order 1 is 1")
            return F.one
        gamma = self._least_primitive(q1)
        step = q1 // mp
        candidates = {
            F.encode(F.pow(gamma, k * step))
            for k in range(1, mp)
            if gcd(k, mp) == 1
        }
        ordered = sorted(candidates)
        return F.decode(ordered[alternative])

    def _least_primitive(self, q1):
        F = self.field
        if q1 == 1:
            return F.one
        qs = sorted(sympy.factorint(q1))
        enc = 2 if self.p == 2 else 1
        while True:
            # encoding 1 is the element 1 (order 1); start past it for p = 2,
            # and skip it via the order test otherwise
            el = F.decode(enc)
            if el != F.one and all(
                F.pow(el, q1 // q) != F.one for q in qs
            ):
                return el
            enc += 1
            if enc > self.p**self.d:
                raise IntegrityError("no primitive element found")

    def reduce(self, value):
        """Image of a cyclotomic integer; modulus must divide m."""
        if self.m % value.modulus:
            raise ValueError("value modulus does not divide the reduction modulus")
        scale = self.m // value.modulus
        F = self.field
        acc = F.zero
        for e, c in value.terms.items():
            cs = c % self.p
            if cs:
                term = self.rho_powers[self.exp_map[(e * scale) % self.m]]
                acc = F.add(acc, F.mul(F.scalar(cs), term))
        return acc


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


def omega_values(table, chi_index, class_indices=None):
    """Central-character values |C| chi(x_C) / chi(1), exact in Z[zeta_m]."""
    deg = table.degrees[chi_index]
    row = table.irreducibles[chi_index]
    idx = range(table.k) if class_indices is None else class_indices
    out = []
    for j in idx:
        try:
            out.append((row[j] * table.classes[j].size).exact_div(deg))
        except ValueError as exc:
            raise IntegrityError(
                f"central character of row {chi_index} is not integral: {exc}"
            ) from exc
    return out


@_memo
def _table_reduction(table, p, alternative):
    """The reduction of the table's values at p, built once per table."""
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
    zero = _field_zero(block)
    best = None
    for j, lam in enumerate(block.central_character):
        if lam == zero:
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


def _field_zero(block):
    z = block.central_character[0]
    return 0 if isinstance(z, int) else (0,) * len(z)


def brauer_correspondent(tH, e, tG, blocksG, reduction):
    """The induced block e^G, or None when it is not defined.

    The Brauer map sends a G-class sum to the sum of the H-class sums it
    contains; composing with e's central character must reproduce the
    central character of exactly one block of G.  All values are computed
    in the big group's reduction so both sides live in one field.
    """
    F = reduction.field
    theta = e.char_indices[0]
    lam_e = [reduction.reduce(v) for v in omega_values(tH, theta)]
    fused = class_fusion(tG, tH)
    induced = [F.zero] * tG.k
    for j, lam in enumerate(lam_e):
        C = fused[j]
        induced[C] = F.add(induced[C], lam)
    induced = tuple(induced)
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
