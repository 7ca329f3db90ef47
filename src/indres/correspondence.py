"""Induced-character lattices and the correspondence property checks.

Everything is decided inside integer coefficient lattices over the rows of
the two character tables: the induced lattice from qualifying elementary
subgroups, the coordinate lattices spanned by character subsets, their sums
and intersections.  Property verdicts therefore come with finite witnesses
(a signed matching) or certificates (a character whose image misses the
lattice), never with numerical tolerance.  Each congruence is one
comparison of coset residues (`IntLattice.residue`), and property (G)
reads its witness's coefficients on the height-zero characters directly,
with no transform computed.

Every check compares a G side with an H side.  A side is named by the
string "G" or "H" (the parameter is always `side`), and `Instance.table`
picks its table.  Data derived from one instance (induced lattices, the
blocks with a defect group inside P, character subsets, C^p + I moduli,
the Brauer correspondence, the product table) is memoized on the instance
by `groupcore._memo`, keyed by the function's name and its remaining
positional arguments; memoized functions take no keyword arguments and no
defaults, so one call has one key, and the data is freed with the
instance.  A table's block partition depends on the table and p alone, so
`blocks.block_partition` memoizes it on the table.  Memoized values are
shared, so they are tuples and no caller mutates them.
"""

from dataclasses import dataclass, field

from .blocks import block_partition, brauer_correspondent, some_defect_group_inside
from .chartab import character_table
from .classfun import (
    VirtualCharacter,
    induce,
    irr,
    ml_counts,
    p_singular_classes,
    product_table,
    restrict,
    restriction_matrix,
    vanishes_on,
)
from .groupcore import (
    IntegrityError,
    _memo,
    intersection_set_maxima,
    normalizer,
    p_prime_part,
    prime_factors,
    product_group,
    qualifying_elementary_subgroups,
    sylow_subgroup,
    v_p,
)
from .lattice import (
    IntLattice,
    coordinate_lattice,
    coordinate_restrict,
    lattice_sum,
    quotient_shape,
)

PROPERTIES = ("irc", "wirc", "wircstar", "pres", "pind")


# -- instance bundle ---------------------------------------------------------

@dataclass
class Instance:
    """One (G, p, P, H) quadruple with its tables and intersection data.

    `_cache` holds what `_memo` derives from the instance.
    """

    p: int
    tG: object
    tH: object
    P: object
    s_maxima: list
    name: str = ""
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def G(self):
        return self.tG.group

    @property
    def H(self):
        return self.tH.group

    def table(self, side):
        """The table of the G side or the H side."""
        return self.tG if side == "G" else self.tH


# A group's table is memoized on the group, beside its classes and chain,
# so it lives and dies with the group.
@_memo
def table_for(group):
    """Character table of a group, computed once per group."""
    return character_table(group)


def make_instance(G, p, P=None, H=None, tG=None, tH=None, name=""):
    if P is None:
        P = sylow_subgroup(G, p)
    if H is None:
        H = normalizer(G, P)
    tG = tG if tG is not None else table_for(G)
    tH = tH if tH is not None else table_for(H)
    smax = intersection_set_maxima(G, P, H)
    return Instance(p=p, tG=tG, tH=tH, P=P, s_maxima=smax, name=name)


# -- lattice builders ---------------------------------------------------------

def _induced_span(table, subgroups):
    """Span of the inductions of every irreducible of each subgroup."""
    L = IntLattice(table.k)
    for E in subgroups:
        tE = table_for(E)
        for i in range(tE.k):
            L.insert(induce(irr(tE, i), table).coeffs)
    return L


@_memo
def build_induced_lattice(inst, side):
    """The lattice spanned by inductions from qualifying elementary subgroups.

    Qualification means a side-conjugate of the subgroup's Sylow p-part
    lies inside a member of the intersection set.
    """
    table = inst.table(side)
    subs = qualifying_elementary_subgroups(table.group, inst.p, inst.s_maxima)
    return _induced_span(table, subs)


@_memo
def blocks_inside_P(inst, side):
    """The side's blocks with some defect group inside P (up to conjugacy)."""
    table = inst.table(side)
    return tuple(b for b in block_partition(table, inst.p)
                 if some_defect_group_inside(table, b, inst.p, inst.P))


@_memo
def subsets_of(inst, side):
    """(Irr(·,P), Irr_0(·,P), Irr^p(·,P)) as sorted row-index tuples.

    Irr(·,P) collects the blocks with some defect group inside P; Irr_0 is
    the slice of exact p-valuation v_p(|side:P|); Irr^p is the rest.
    """
    table, p = inst.table(side), inst.p
    target = v_p(table.group_order, p) - v_p(inst.P.order(), p)
    irr_p = tuple(sorted(i for b in blocks_inside_P(inst, side)
                         for i in b.char_indices))
    irr0 = tuple(i for i in irr_p if v_p(table.degrees[i], p) == target)
    irrp = tuple(i for i in irr_p if v_p(table.degrees[i], p) != target)
    return irr_p, irr0, irrp


def _side_sets(inst, side, block_pair):
    """Irr_0 and Irr^p of one side, global or cut to that side's block."""
    if block_pair is None:
        _, irr0, irrp = subsets_of(inst, side)
        return list(irr0), list(irrp)
    blk = block_pair[0 if side == "G" else 1]
    hz = blk.height_zero
    return list(hz), [i for i in blk.char_indices if i not in hz]


@_memo
def cp_plus_lattice(inst, side, block_pair):
    """C^p(side, P) + I(side, P, S), the (WIRC)/(pRes)/(pInd) modulus.

    C^p is global when block_pair is None, else cut to the side's block.
    """
    _, irrp = _side_sets(inst, side, block_pair)
    return lattice_sum(
        coordinate_lattice(inst.table(side).k, irrp), build_induced_lattice(inst, side)
    )


def proj_res_vector(inst, i):
    """Proj_P Res^G_H of the i-th irreducible, as an H-coefficient vector."""
    R = restriction_matrix(inst.tG, inst.tH)
    keep = set(subsets_of(inst, "H")[0])
    return [R[i][j] if j in keep else 0 for j in range(inst.tH.k)]


def ind_vector(inst, j):
    """Ind^G_H of the j-th irreducible of H, as a G-coefficient vector."""
    R = restriction_matrix(inst.tG, inst.tH)
    return [R[i][j] for i in range(inst.tG.k)]


# -- block pairing under the correspondence -----------------------------------

def blocks_with_defect_group_P(inst, side):
    """Blocks whose defect group is conjugate (in the side's group) to P."""
    target = v_p(inst.P.order(), inst.p)
    return tuple(b for b in blocks_inside_P(inst, side) if b.defect == target)


@_memo
def correspondents(inst):
    """For each block b of G, by index, the first H block e with defect
    group P and e^G = b, or None."""
    first = {}
    for e in blocks_with_defect_group_P(inst, "H"):
        eG = brauer_correspondent(inst.tH, e, inst.tG, inst.p)
        if eG is not None:
            first.setdefault(eG.index, e)
    return tuple(first.get(i) for i in range(len(block_partition(inst.tG, inst.p))))


def correspondent_of(inst, b):
    """The H-block e with defect group P and e^G = b, or None."""
    return correspondents(inst)[b.index]


# -- property verdicts ---------------------------------------------------------

@dataclass
class Verdict:
    prop: str
    holds: bool
    witness: list = None
    certificate: str = None
    level: str = "global"


def _lex_signed_matching(rows, cols, edge_sign):
    """Lexicographically least perfect matching on index lists.

    edge_sign(i, j) returns +1, -1 (preferring +1 when both fit) or None;
    it is called once per pair.  Each row in turn takes the least free
    column after which the remaining rows still have a perfect matching.
    Returns a list of (i, sign, j) or None when no perfect matching exists.
    """
    if len(rows) != len(cols):
        return None
    sign = {(i, j): edge_sign(i, j) for i in rows for j in cols}

    def perfect(rest, free):
        # Kuhn's augmenting paths: a row that cannot be placed never will be
        match = {}

        def place(i, seen):
            for j in free:
                if sign[i, j] is not None and j not in seen:
                    seen.add(j)
                    if j not in match or place(match[j], seen):
                        match[j] = i
                        return True
            return False

        return all(place(i, set()) for i in rest)

    chosen, free = [], list(cols)
    for t, i in enumerate(rows):
        j = next((j for j in free if sign[i, j] is not None
                  and perfect(rows[t + 1:], [c for c in free if c != j])), None)
        if j is None:
            return None
        chosen.append((i, sign[i, j], j))
        free.remove(j)
    return chosen


def check_property(inst, which, block_pair=None):
    """Decide one of the five correspondence properties.

    block_pair is None for the global property or (b, e) with b a block of
    G having defect group P and e its correspondent in H.  Each property
    sends a source side's characters to the other side, by Proj Res from
    G into H (irc, wirc, pres) or by Ind from H into G (wircstar, pind),
    modulo I(H) for irc and C^p + I of the image side otherwise.  pres
    and pind ask that each Irr^p image lies in the lattice; the others
    match Irr_0 with signs, pairing an image with s times a unit vector
    (s = +-1) when the two have one residue.
    """
    which = which.lower()
    if which not in PROPERTIES:
        raise ValueError(f"unknown property {which!r}")
    level = "global" if block_pair is None else f"block:{block_pair[0].index}"
    src, dst, image, name = (("G", "H", proj_res_vector, "Proj Res")
                             if which in ("irc", "wirc", "pres")
                             else ("H", "G", ind_vector, "Ind"))
    irr0 = {side: _side_sets(inst, side, block_pair)[0] for side in ("G", "H")}
    if which not in ("pres", "pind") and len(irr0["G"]) != len(irr0["H"]):
        return Verdict(
            which,
            False,
            certificate=f"|Irr0| mismatch: {len(irr0['G'])} vs {len(irr0['H'])}",
            level=level,
        )
    L = (build_induced_lattice(inst, "H") if which == "irc"
         else cp_plus_lattice(inst, dst, block_pair))

    if which in ("pres", "pind"):
        for i in _side_sets(inst, src, block_pair)[1]:
            if not L.contains(image(inst, i)):
                return Verdict(
                    which, False, certificate=f"{name} of row {i} escapes", level=level
                )
        return Verdict(which, True, level=level)

    residue = {i: L.residue(image(inst, i)) for i in irr0[src]}
    unit = {}
    for j in irr0[dst]:
        for s in (1, -1):
            v = [0] * L.dim
            v[j] = s
            unit[j, s] = L.residue(v)

    def edge_sign(i, j):
        # i in Irr_0(G), j in Irr_0(H): a is the source character, u its partner
        a, u = (i, j) if src == "G" else (j, i)
        return next((s for s in (1, -1) if residue[a] == unit[u, s]), None)

    matching = _lex_signed_matching(irr0["G"], irr0["H"], edge_sign)
    if matching is None:
        return Verdict(which, False, certificate="no perfect signed matching", level=level)
    return Verdict(which, True, witness=matching, level=level)


def degree_congruences_hold(inst, matching):
    """Check chi(1)_{p'} = +-|G:H|_{p'} F(chi)(1)_{p'} mod p on a matching."""
    p = inst.p
    m = p_prime_part(inst.tG.group_order // inst.tH.group_order, p)
    for i, s, j in matching:
        lhs = p_prime_part(inst.tG.degrees[i], p) % p
        rhs = (m * p_prime_part(inst.tH.degrees[j], p)) % p
        if lhs != rhs and lhs != (-rhs) % p:
            return False
    return True


# -- quotients of Section-style reports ----------------------------------------

def quotients_q1_q2(inst):
    """Global and per-block Q1, Q2 for the H side.

    Q1 = C(H,P) / (I ∩ C(H,P)); Q2 = C(H,P) / ((C^p(H,P) + I) ∩ C(H,P)).
    Per-block pieces cut C(H,e) out of the ambient, one for each block b of
    G having P as a defect group, with e the correspondent of b in H,
    ordered by (defect desc, least character index of b).
    """
    tH = inst.tH
    IH = build_induced_lattice(inst, "H")
    irr_hp, _, _ = subsets_of(inst, "H")
    S2 = cp_plus_lattice(inst, "H", None)
    amb = coordinate_lattice(tH.k, irr_hp)
    q1 = quotient_shape(amb, coordinate_restrict(IH, irr_hp))
    q2 = quotient_shape(amb, coordinate_restrict(S2, irr_hp))
    per_block = []
    eligible = sorted(blocks_with_defect_group_P(inst, "G"),
                      key=lambda b: (-b.defect, b.char_indices[0]))
    for b in eligible:
        e = correspondent_of(inst, b)
        if e is None:
            continue
        coords = list(e.char_indices)
        amb_e = coordinate_lattice(tH.k, coords)
        q1e = quotient_shape(amb_e, coordinate_restrict(IH, coords))
        q2e = quotient_shape(amb_e, coordinate_restrict(S2, coords))
        per_block.append((b.index, q1e, q2e))
    return q1, q2, per_block


def block_splitting_holds(inst, side):
    """Proposition-style theorem check: I splits as the sum of its block parts."""
    L = build_induced_lattice(inst, side)
    total = IntLattice(inst.table(side).k)
    for b in block_partition(inst.table(side), inst.p):
        total = lattice_sum(total, coordinate_restrict(L, list(b.char_indices)))
    return total == L


def theorem26_selftest(inst):
    """Mutual-inverse check for Proj Res and Ind between C(G,P) and C(H,P)."""
    tG, tH = inst.tG, inst.tH
    IH = build_induced_lattice(inst, "H")
    IG = build_induced_lattice(inst, "G")
    irr_gp, _, _ = subsets_of(inst, "G")
    irr_hp, _, _ = subsets_of(inst, "H")
    hp = set(irr_hp)
    for j in irr_hp:
        # Proj_P Res Ind psi_j - psi_j must lie in I(H,P,S) ∩ C(H,P)
        back = restrict(induce(irr(tH, j), tG), tH).coeffs
        vec = [
            (back[jj] - (1 if jj == j else 0)) if jj in hp else 0
            for jj in range(tH.k)
        ]
        if not IH.contains(vec):
            return False
    # C(G,P) ⊆ Ind(C(H,P)) + I(G,P,S)
    span = IntLattice(tG.k)
    for j in irr_hp:
        span.insert(ind_vector(inst, j))
    span = lattice_sum(span, IG)
    for i in irr_gp:
        e = [0] * tG.k
        e[i] = 1
        if not span.contains(e):
            return False
    return True


def brauer_completeness_check(group, table=None):
    """Inductions from all elementary subgroups must span all of C(G).

    With the Sylow subgroup as the one maximum every p-subgroup qualifies,
    so the qualifying family at any prime p is Brauer's elementary family.
    """
    table = table if table is not None else table_for(group)
    p = min(prime_factors(group.order()), default=2)
    L = _induced_span(
        table, qualifying_elementary_subgroups(group, p, [sylow_subgroup(group, p)])
    )
    expect = tuple(
        tuple(1 if a == b else 0 for a in range(table.k)) for b in range(table.k)
    )
    return L.canonical() == expect


def isaacs_navarro_check(inst, block_pair=None):
    """Count comparison M_l; returns (ok, G-side table, H-side table)."""
    p = inst.p
    m = p_prime_part(inst.tG.group_order // inst.tH.group_order, p)
    if block_pair is None:
        cG = ml_counts(inst.tG, p, mode="global")
        cH = ml_counts(inst.tH, p, mode="global")
    else:
        b, e = block_pair
        cG = ml_counts(inst.tG, p, mode="p-prime-part", subset=b.height_zero)
        cH = ml_counts(inst.tH, p, mode="p-prime-part", subset=e.height_zero)
    ok = True
    for l in cH:
        ml = (m * l) % p
        ml = min(ml, p - ml)
        if cG[ml] != cH[l]:
            ok = False
    return ok, cG, cH


# -- omega and property (G) -------------------------------------------------

@_memo
def pair_table(inst):
    return product_table(inst.tG, inst.tH)


def omega_character(inst, b, e):
    """omega = sum <Res chi, phi> (chi x conj(phi)) over the block pair."""
    prod = pair_table(inst)
    R = restriction_matrix(inst.tG, inst.tH)
    dualH = inst.tH.dual_map()
    kH = inst.tH.k
    coeffs = [0] * prod.k
    for i in b.char_indices:
        for j in e.char_indices:
            if R[i][j]:
                coeffs[i * kH + dualH[j]] += R[i][j]
    return VirtualCharacter(prod, coeffs)


def _s_is_trivial(inst):
    return all(S.order() == 1 for S in inst.s_maxima)


@_memo
def product_induced_lattice(inst):
    """I(G x H, diag P, diag S) built over the product group."""
    prod = pair_table(inst)
    GH = product_group(inst.G, inst.H)
    dG = inst.G.degree
    diag = lambda g: g + tuple(x + dG for x in g)
    dmax = [GH.subgroup([diag(g) for g in S.generators]) for S in inst.s_maxima]
    return _induced_span(prod, qualifying_elementary_subgroups(GH, inst.p, dmax))


def check_property_G_with_witness(inst, b, e, mu):
    """Property (G) for a supplied witness mu over the product table.

    Checks that mu is supported on the block pair, that mu - omega lies in
    the diagonal induced lattice (when every intersection maximum is
    trivial this is vanishing on p-singular product classes), and that the
    transforms send height-zero irreducibles to single height-zero
    constituents with multiplicity +-1: the block of mu's coefficients on
    the height-zero characters is a signed permutation matrix.
    """
    prod = pair_table(inst)
    if mu.table is not prod:
        raise ValueError("mu must live over this instance's product table")
    kH = inst.tH.k
    dualH = inst.tH.dual_map()
    bset = set(b.char_indices)
    ebar = {dualH[j] for j in e.char_indices}
    for t in mu.support():
        i, j = divmod(t, kH)
        if i not in bset or j not in ebar:
            raise ValueError("mu is not supported on the block pair")

    diff = mu - omega_character(inst, b, e)
    if _s_is_trivial(inst):
        ok_lattice = vanishes_on(diff, p_singular_classes(prod, inst.p))
    else:
        ok_lattice = product_induced_lattice(inst).contains(diff.coeffs)
    if not ok_lattice:
        return False

    # I_mu(psi_j) is column dual_H(j) of mu and R_mubar(chi_i) is row i of
    # mu read at dual_H(j), so on height-zero characters both transforms
    # are read off N[i][j] = mu(chi_i x conj psi_j): each row and each
    # column of N must hold exactly one nonzero entry, and it must be +-1
    def at(i, j):
        return mu.coeffs[i * kH + dualH[j]]

    rows = [[at(i, j) for j in e.height_zero] for i in b.height_zero]
    cols = [[at(i, j) for i in b.height_zero] for j in e.height_zero]
    return all(_one_unit(line) for line in rows + cols)


def _one_unit(line):
    """Whether line has exactly one nonzero entry, and that entry is +-1."""
    hits = [x for x in line if x]
    return len(hits) == 1 and abs(hits[0]) == 1


# -- assembled report -----------------------------------------------------------

@dataclass
class PropertyReport:
    instance: dict
    s_maxima: list
    lattice_ranks: dict
    q1: object
    q2: object
    per_block: list
    verdicts: dict
    ml_global: tuple
    ml_ok: bool

    def to_json(self):
        return {
            "instance": self.instance,
            "s_maxima": self.s_maxima,
            "lattice_ranks": self.lattice_ranks,
            "q1": self.q1.to_json(),
            "q2": self.q2.to_json(),
            "per_block": [
                {"block": i, "q1": a.to_json(), "q2": bq.to_json()}
                for i, a, bq in self.per_block
            ],
            "verdicts": {
                k: {
                    "holds": v.holds,
                    "witness": v.witness,
                    "certificate": v.certificate,
                    "level": v.level,
                }
                for k, v in self.verdicts.items()
            },
            "ml_counts": {
                "big": self.ml_global[0],
                "small": self.ml_global[1],
                "equal": self.ml_ok,
            },
        }


def full_report(inst, props=PROPERTIES, block_pair=None):
    verdicts = {}
    for w in props:
        verdicts[w] = check_property(inst, w, block_pair=block_pair)
        if verdicts[w].holds and verdicts[w].witness:
            if not degree_congruences_hold(inst, verdicts[w].witness):
                raise IntegrityError(f"witness of {w} breaks the degree congruences")
    q1, q2, per_block = quotients_q1_q2(inst)
    ml_ok, cG, cH = isaacs_navarro_check(inst, block_pair)
    return PropertyReport(
        instance={
            "name": inst.name,
            "p": inst.p,
            "order": str(inst.tG.group_order),
            "h_order": str(inst.tH.group_order),
            "p_subgroup_order": str(inst.P.order()),
        },
        s_maxima=[S.order() for S in inst.s_maxima],
        lattice_ranks={
            "H": build_induced_lattice(inst, "H").rank,
            "G": build_induced_lattice(inst, "G").rank,
        },
        q1=q1,
        q2=q2,
        per_block=per_block,
        verdicts=verdicts,
        ml_global=(cG, cH),
        ml_ok=ml_ok,
    )
