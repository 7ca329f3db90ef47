"""Construct the order-1000 fixture group and its property-(G) witness.

The group is E semidirect Q8, where E is the extraspecial group of order
125 and exponent 5, acting on 125 points by the regular action of E
twisted by the quaternion automorphisms fixing Z(E).  Writes two JSON
files: the generators of the permutation group, and the witness virtual
character over the product table used by the property (G) check.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from indres.blocks import block_partition
from indres.classfun import VirtualCharacter, irr, outer_product, restriction_matrix
from indres.correspondence import (
    blocks_with_defect_group_P,
    check_property,
    check_property_G_with_witness,
    correspondent_of,
    make_instance,
    omega_character,
    pair_table,
    I_transform,
    R_transform,
)
from indres.groupcore import PermGroup

Q = 5
HALF = 3  # 1/2 in F_5


def heisenberg_points():
    return [(a, b, c) for a in range(Q) for b in range(Q) for c in range(Q)]


def hmul(s, t):
    a, b, c = s
    d, e, f = t
    return ((a + d) % Q, (b + e) % Q, (c + f + a * e) % Q)


def left_translation(x, pts, idx):
    return tuple(idx[hmul(x, w)] for w in pts)


def twist(m, pts, idx):
    """The automorphism fixing the centre induced by m in SL_2(5).

    (a, b) transforms as a row vector; the centre coordinate picks up the
    quadratic correction that makes this a homomorphism on E.
    """
    al, be, ga, de = m

    def q_corr(a, b):
        return (
            HALF * al * be * a * a + be * ga * a * b + HALF * ga * de * b * b
        ) % Q

    imgs = []
    for a, b, c in pts:
        a2 = (a * al + b * ga) % Q
        b2 = (a * be + b * de) % Q
        imgs.append(idx[(a2, b2, (c + q_corr(a, b)) % Q)])
    return tuple(imgs)


def build_group():
    pts = heisenberg_points()
    idx = {w: t for t, w in enumerate(pts)}
    gens = [
        left_translation((1, 0, 0), pts, idx),
        left_translation((0, 1, 0), pts, idx),
        twist((2, 0, 0, 3), pts, idx),  # u: diag(2, 2^-1)
        twist((0, 1, 4, 0), pts, idx),  # v: antidiagonal (1, -1)
    ]
    G = PermGroup(125, gens)
    assert G.order() == 1000
    return G


def witness_data(G):
    inst = make_instance(G, 2, name="fixture")
    P, tG, tH = inst.P, inst.tG, inst.tH
    assert P.order() == 8 and P.exponent() == 4  # quaternion
    assert inst.H.order() == 40
    assert tG.k == 28 and tH.k == 25

    cand = [
        b
        for b in blocks_with_defect_group_P(inst, "G")
        if not b.principal and sorted(tG.degrees[i] for i in b.char_indices) == [5, 5, 5, 5, 10]
    ]
    b = min(cand, key=lambda x: x.char_indices[0])
    e = correspondent_of(inst, b)
    assert e is not None

    # phi x 1 is the unique linear character of the pair block trivial on P
    pclasses = [
        j
        for j, c in enumerate(tH.classes)
        if P.contains_images(c.representative)
    ]
    j0 = next(
        j
        for j in e.char_indices
        if tH.degrees[j] == 1
        and all(tH.irreducibles[j][t].as_int() == 1 for t in pclasses)
    )
    R = restriction_matrix(tG, tH)
    chi_t = next(
        i for i in b.char_indices if tG.degrees[i] == 5 and R[i][j0] == 0
    )

    # chi~ * rho and phi x rho as coefficient vectors over their blocks
    cg = [0] * tG.k
    for i in b.char_indices:
        cg[i] = tG.degrees[i] // 5
    ch = [0] * tH.k
    for j in e.char_indices:
        ch[j] = tH.degrees[j]
    prod = pair_table(inst)
    mu = omega_character(inst, b, e) - outer_product(
        VirtualCharacter(tG, cg), VirtualCharacter(tH, ch).conjugate(), prod
    )
    return inst, b, e, chi_t, j0, mu


def main(outdir):
    G = build_group()
    inst, b, e, chi_t, j0, mu = witness_data(G)

    assert check_property_G_with_witness(inst, b, e, mu)
    assert not check_property(inst, "irc", block_pair=(b, e)).holds
    for w in ("wirc", "pres", "pind"):
        assert check_property(inst, w, block_pair=(b, e)).holds

    # the transform images promised by the construction:
    # I_mu(phi x alpha) = chi~(-alpha - beta) for every linear alpha, and
    # R_mubar(chi~) = phi x (-1 - beta)
    tH, tG = inst.tH, inst.tG
    beta_h = next(j for j in e.char_indices if tH.degrees[j] == 2)
    for j in e.char_indices:
        if tH.degrees[j] != 1:
            continue
        img = I_transform(mu, irr(tH, j))
        hits = sorted(img.support())
        assert len(hits) == 2 and all(img.coeffs[i] == -1 for i in hits)
        assert sorted(tG.degrees[i] for i in hits) == [5, 10]
    chk = R_transform(mu.conjugate(), irr(tG, chi_t))
    assert chk.coeffs[j0] == -1 and chk.coeffs[beta_h] == -1
    assert sum(1 for c in chk.coeffs if c) == 2

    os.makedirs(outdir, exist_ok=True)
    gpath = os.path.join(outdir, "fixture_group.json")
    wpath = os.path.join(outdir, "fixture_witness.json")
    with open(gpath, "w") as f:
        json.dump(
            {
                "format": "perm-group",
                "degree": 125,
                "order": "1000",
                "generators": [
                    [x + 1 for x in g] for g in G.generators
                ],
            },
            f,
        )
        f.write("\n")
    with open(wpath, "w") as f:
        json.dump(
            {
                "format": "virtual-character",
                "space": "product",
                "p": 2,
                "block_chars": list(b.char_indices),
                "correspondent_chars": list(e.char_indices),
                "coeffs": list(mu.coeffs),
            },
            f,
        )
        f.write("\n")
    print(f"wrote {gpath} and {wpath}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "..", "fixtures"))
