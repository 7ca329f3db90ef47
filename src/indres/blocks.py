"""p-blocks through central characters reduced in Z[zeta_m']/p.

`ModularReduction(p, m)` maps Z[zeta_m] onto R = F_p[x]/(Phi_m'(x)), m' the
p'-part of m: zeta of p-power order goes to 1 and zeta_m^e to
x^(e*kappa mod m'), kappa = (m/m')^-1 mod m', and an image is its d = phi(m')
power-basis coefficients mod p.  Characters whose central characters have
equal images share a block.  No residue field, and no prime above p, is
chosen, and none is needed:

- The kernel.  As p does not divide m', Phi_m' is squarefree mod p, so R is
  the product of the residue fields F_p[x]/(f) at all primes above p, and
  the kernel is their intersection: two images are equal exactly when they
  agree at every prime.
- (1) The partition does not depend on the prime (Osima's theorem; Navarro,
  *Characters and Blocks of Finite Groups*, 1998, ch. 3), so agreeing at
  every prime is agreeing at one.
- (2) The correspondent.  For theta in a block e of H >= N_G(P) and a block
  b of G, lambda_e^G(e_b) reduces the rational number
  |H| sum_{chi in b} chi(1) <Res_H chi, theta> / (|G| theta(1)), whose
  residue is the same at every prime.  lambda_e^G is a central character at
  every prime (Brauer, as H >= N_G(P)), so e^G, the b where it is 1, is the
  same block at every prime, and its image in R is lambda_e^G's.
- (3) The defect class.  At each prime, the classes where a block's central
  character is nonzero have centralizers of p-part at least p^defect, and a
  defect class meets that bound (min-max).  So a class nonzero in R, hence
  at some prime, with the least p-part of its centralizer is a defect class
  there.  The defect group depends only on the block's idempotent.
"""

from dataclasses import dataclass

from .chartab import Cyclotomic, IntegrityError, _phi_reduction
from .classfun import class_fusion, trivial_index
from .groupcore import (_first_hit, _memo, _transporter_mask, centralizer,
                        p_prime_part, sylow_subgroup, v_p)


class ModularReduction:
    """Ring homomorphism Z[zeta_m] -> F_p[x]/(Phi_m'(x)), zeta of p-power order -> 1."""

    def __init__(self, p, m):
        self.p = p
        self.m = m
        self.m_prime = m_prime = p_prime_part(m, p)
        self.d = _phi_reduction(m_prime)[0]
        # exponent map: zeta_m^e -> x^(e * kappa mod m')
        kappa = pow(m // m_prime, -1, m_prime)
        self.exp_map = [(e * kappa) % m_prime for e in range(m)]

    def reduce(self, value):
        """Image of a cyclotomic integer; modulus must divide m."""
        scale = self.m // value.modulus
        raw = {}
        for e, c in value.terms.items():
            f = self.exp_map[(e * scale) % self.m]
            raw[f] = raw.get(f, 0) + c
        terms = Cyclotomic(self.m_prime, raw).terms
        return tuple(terms.get(i, 0) % self.p for i in range(self.d))


# -- blocks -------------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    """One p-block: its characters, defect, central character, and the
    height-zero characters (those whose degree has p-part |G|_p / p^defect)."""

    index: int
    char_indices: tuple
    defect: int
    central_character: tuple
    principal: bool
    height_zero: tuple


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
def _table_reduction(table, p):
    """The reduction of the table's values at p, built once per table.

    p must divide the group order: p-blocks of a p'-group are single
    characters, and a p the group does not see is refused, not answered.
    """
    if table.group_order % p:
        raise ValueError(f"p = {p} does not divide the group order {table.group_order}")
    return ModularReduction(p, table.exponent)


@_memo
def block_partition(table, p):
    """All p-blocks of the table, ordered by least character index.

    Memoized on the table beside its reduction: every caller reads this
    one tuple.
    """
    red = _table_reduction(table, p)
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
                height_zero=tuple(
                    i for i in chars if v_p(table.degrees[i], p) == a - defect
                ),
            )
        )
    return tuple(out)


@_memo
def defect_group(table, block, p):
    """A defect group of the block, up to conjugacy.

    Defect classes: among classes K where the central character is
    nonzero, the p-part of the centralizer order |G|/|K| is minimized; a
    Sylow p-subgroup of that centralizer is a defect group, and its order is
    checked to be p^defect.  Memoized on the table by the block's value.
    """
    best = None
    for j, lam in enumerate(block.central_character):
        if not any(lam):
            continue
        val = v_p(table.group_order // table.classes[j].size, p)
        if best is None or val < best[0]:
            best = (val, j)
    if best is None:
        raise IntegrityError("central character vanished everywhere")
    rep = table.classes[best[1]].representative
    D = sylow_subgroup(centralizer(table.group, rep), p)
    if D.order() != p**block.defect:
        raise IntegrityError(f"defect group order {D.order()} != p^{block.defect}")
    return D


def brauer_correspondent(tH, e, tG, p):
    """The induced block e^G, or None when it is not defined.

    The Brauer map sends a G-class sum to the sum of the H-class sums it
    contains; composing with e's central character must reproduce the
    central character of exactly one block of G.  All values are computed
    in the big group's reduction so both sides live in one ring.
    """
    reduction = _table_reduction(tG, p)
    theta = e.char_indices[0]
    lam_e = [reduction.reduce(v) for v in omega_values(tH, theta)]
    fused = class_fusion(tG, tH)
    sums = [[0] * reduction.d for _ in range(tG.k)]
    for j, lam in enumerate(lam_e):
        acc = sums[fused[j]]
        for i, digit in enumerate(lam):
            acc[i] += digit
    induced = tuple(tuple(a % reduction.p for a in acc) for acc in sums)
    matches = [b for b in block_partition(tG, p) if b.central_character == induced]
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

