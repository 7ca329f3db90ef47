"""Correspondence properties, quotient shapes, and structural identities."""

import gc
import json
import random
import weakref
from collections import Counter
from pathlib import Path

import pytest

from conftest import shared_group
from indres import correspondence
from indres.blocks import block_partition
from indres.catalog import BUILDERS, build
from indres.cli import JobSpec, build_instance, load_group
from indres.classfun import VirtualCharacter, irr, restriction_matrix
from indres.correspondence import (
    PROPERTIES,
    blocks_with_defect_group_P,
    block_splitting_holds,
    brauer_completeness_check,
    build_induced_lattice,
    check_property,
    check_property_G_with_witness,
    correspondent_of,
    cp_plus_lattice,
    degree_congruences_hold,
    full_report,
    isaacs_navarro_check,
    make_instance,
    omega_character,
    pair_table,
    product_induced_lattice,
    quotients_q1_q2,
    subsets_of,
    theorem26_selftest,
)
from indres.correspondence import _lex_signed_matching, _s_is_trivial
from indres.groupcore import PermGroup, normalizer, prime_factors, sylow_subgroup
from indres.lattice import IntLattice, coordinate_restrict


@pytest.fixture(scope="module")
def s4_2():
    return make_instance(build("S4"), 2, name="S4")


@pytest.fixture(scope="module")
def a5_2():
    return make_instance(build("A5"), 2, name="A5")


@pytest.fixture(scope="module")
def s3_2():
    return make_instance(build("S3"), 2, name="S3")


def test_s4_all_properties_hold(s4_2):
    rep = full_report(s4_2)
    assert set(rep.verdicts) == set(PROPERTIES)
    assert all(v.holds for v in rep.verdicts.values())
    assert rep.ml_ok
    assert (rep.q1.free_rank, rep.q1.torsion) == (2, ())
    assert (rep.q2.free_rank, rep.q2.torsion) == (2, ())


def test_s4_irc_witness_frozen(s4_2):
    v = check_property(s4_2, "irc")
    assert v.holds
    assert v.witness == [(0, 1, 1), (1, 1, 3), (3, 1, 0), (4, 1, 2)]
    assert degree_congruences_hold(s4_2, v.witness)


def test_a5_irc_witness_frozen(a5_2):
    v = check_property(a5_2, "irc")
    assert v.holds
    assert v.witness == [(0, 1, 0), (1, -1, 1), (2, -1, 2), (4, -1, 3)]
    assert degree_congruences_hold(a5_2, v.witness)


def test_a5_quotients(a5_2):
    q1, q2, per_block = quotients_q1_q2(a5_2)
    assert (q1.free_rank, q1.torsion) == (1, ())
    assert (q2.free_rank, q2.torsion) == (1, ())
    assert len(per_block) == 1


def test_unknown_property_rejected(s4_2):
    with pytest.raises(ValueError):
        check_property(s4_2, "xyz")


@pytest.mark.parametrize("name,p", [("S4", 2), ("A5", 2), ("S5", 2), ("S4", 3)])
def test_structural_selftests(name, p):
    inst = make_instance(build(name), p, name=name)
    assert theorem26_selftest(inst)
    assert block_splitting_holds(inst, "G")
    assert block_splitting_holds(inst, "H")


@pytest.mark.parametrize("name", ["S3", "Q8", "A4"])
def test_brauer_completeness_small(name):
    assert brauer_completeness_check(build(name))


def test_isaacs_navarro_counts(s4_2, a5_2):
    for inst in (s4_2, a5_2):
        ok, big, small = isaacs_navarro_check(inst)
        assert ok
        assert sum(big.values()) == sum(small.values())


def test_block_pair_verdicts_s5():
    """Block-cut properties for the principal 2-block of S5."""
    inst = make_instance(build("S5"), 2, name="S5")
    eligible = blocks_with_defect_group_P(inst, "G")
    assert len(eligible) == 1
    b = eligible[0]
    e = correspondent_of(inst, b)
    assert e is not None
    for w in PROPERTIES:
        v = check_property(inst, w, block_pair=(b, e))
        assert v.holds, (w, v.certificate)
        assert v.level == f"block:{b.index}"


def test_omega_transforms_match_restriction(s4_2):
    """omega at (chi_i x conj psi_j) is <Res chi_i, psi_j> on b x e and 0
    elsewhere: I_omega (column dual_H(j)) is induction cut to the block,
    and R_omega-bar (row i, read at dual_H(j)) is Proj Res."""
    inst = s4_2
    b = block_partition(inst.tG, 2)[0]
    e = correspondent_of(inst, b)
    omega = omega_character(inst, b, e)
    R = restriction_matrix(inst.tG, inst.tH)
    kH, dualH = inst.tH.k, inst.tH.dual_map()
    for i in range(inst.tG.k):
        for j in range(inst.tH.k):
            on_pair = i in b.char_indices and j in e.char_indices
            assert omega.coeffs[i * kH + dualH[j]] == (R[i][j] if on_pair else 0)


def test_property_g_with_omega_witness(s3_2):
    """omega itself is a valid witness on the principal pair of S3 at 2."""
    inst = s3_2
    b = next(x for x in blocks_with_defect_group_P(inst, "G") if x.principal)
    e = correspondent_of(inst, b)
    omega = omega_character(inst, b, e)
    assert check_property_G_with_witness(inst, b, e, omega)


def test_property_g_vanishing_agrees_with_product_lattice(s3_2, monkeypatch):
    """With every overlap trivial the fast path tests vanishing on
    p-singular product classes; forcing the generic lattice branch must
    give the same verdicts."""
    inst = s3_2
    assert _s_is_trivial(inst)
    b = next(x for x in blocks_with_defect_group_P(inst, "G") if x.principal)
    e = correspondent_of(inst, b)
    omega = omega_character(inst, b, e)
    prod = pair_table(inst)
    # a second candidate: shift omega by one pair-supported basis vector
    kH = inst.tH.k
    dualH = inst.tH.dual_map()
    t0 = b.char_indices[0] * kH + dualH[e.char_indices[0]]
    coeffs = list(omega.coeffs)
    coeffs[t0] += 1
    bad = VirtualCharacter(prod, coeffs)

    fast = (
        check_property_G_with_witness(inst, b, e, omega),
        check_property_G_with_witness(inst, b, e, bad),
    )
    monkeypatch.setattr(
        "indres.correspondence._s_is_trivial", lambda _inst: False
    )
    slow = (
        check_property_G_with_witness(inst, b, e, omega),
        check_property_G_with_witness(inst, b, e, bad),
    )
    assert fast == slow
    assert fast[0] is True
    assert fast[1] is False


def test_product_lattice_vanishes_on_singular_pairs(s3_2):
    inst = s3_2
    prod = pair_table(inst)
    L = product_induced_lattice(inst)
    singular = [t for t, c in enumerate(prod.classes) if c.rep_order % 2 == 0]
    for row in L.canonical():
        v = VirtualCharacter(prod, row)
        assert all(v.value_at(t).is_zero() for t in singular)


def test_witness_support_is_validated(s3_2):
    inst = s3_2
    blocks = blocks_with_defect_group_P(inst, "G")
    b = next(x for x in blocks if x.principal)
    e = correspondent_of(inst, b)
    prod = pair_table(inst)
    coeffs = [0] * prod.k
    # the defect-zero row of S3 paired with anything is outside b x e-bar
    outside = next(
        i for i in range(inst.tG.k) if i not in set(b.char_indices)
    )
    coeffs[outside * inst.tH.k] = 1
    with pytest.raises(ValueError):
        check_property_G_with_witness(inst, b, e, VirtualCharacter(prod, coeffs))


# -- quotient-map consistency ---------------------------------------------------

PARTITION_TRIPLE = [
    ((0, 1), (2, 3)),
    ((0, 2), (1, 3)),
    ((0, 3), (1, 2)),
]


def _project(g):
    """Image of a degree-4 permutation on the three 2|2 set partitions."""
    keys = [frozenset(frozenset(p) for p in part) for part in PARTITION_TRIPLE]
    images = []
    for part in PARTITION_TRIPLE:
        moved = frozenset(frozenset(g[i] for i in pair) for pair in part)
        images.append(keys.index(moved))
    return tuple(images)


def _pullback_row_map(tq, tb, project):
    """For each row of the quotient table, the big row it inflates to."""
    big = tb.group
    reps = [c.representative for c in tb.classes]
    quotient_col = [tq.group.class_of(project(r)) for r in reps]
    out = []
    for i in range(tq.k):
        pulled = tuple(
            tq.irreducibles[i][quotient_col[j]].sort_key() for j in range(tb.k)
        )
        matches = [
            ib
            for ib in range(tb.k)
            if tuple(v.sort_key() for v in tb.irreducibles[ib]) == pulled
        ]
        assert len(matches) == 1
        out.append(matches[0])
    return out


def _lift(vectors, coords, dim):
    L = IntLattice(dim)
    for v in vectors:
        w = [0] * dim
        for i, c in enumerate(coords):
            w[c] = v[i]
        L.insert(w)
    return L


def test_quotient_group_verdicts_and_lattices_agree():
    """Collapsing the normal 2-subgroup of S4 onto its partition action
    must transport every verdict, and the induced lattices restrict to
    exactly the inflated ones on both sides."""
    G = build("S4")
    P = sylow_subgroup(G, 2)
    H = normalizer(G, P)
    inst_big = make_instance(G, 2, P=P, H=H, name="S4")

    Gq = PermGroup(3, [_project(g) for g in G.generators])
    assert Gq.order() == 6
    Pq = Gq.subgroup([_project(g) for g in P.generators])
    Hq = Gq.subgroup([_project(g) for g in H.generators])
    assert Pq.order() == 2 and Hq.order() == 2
    inst_small = make_instance(Gq, 2, P=Pq, H=Hq, name="S4-parts")

    for w in PROPERTIES:
        big = check_property(inst_big, w).holds
        small = check_property(inst_small, w).holds
        assert big == small, w

    coords_g = _pullback_row_map(inst_small.tG, inst_big.tG, _project)
    LG_small = build_induced_lattice(inst_small, "G")
    LG_big = build_induced_lattice(inst_big, "G")
    lifted = _lift(LG_small.canonical(), coords_g, inst_big.tG.k)
    assert lifted == coordinate_restrict(LG_big, coords_g)

    coords_h = _pullback_row_map(inst_small.tH, inst_big.tH, _project)
    LH_small = build_induced_lattice(inst_small, "H")
    LH_big = build_induced_lattice(inst_big, "H")
    lifted_h = _lift(LH_small.canonical(), coords_h, inst_big.tH.k)
    assert lifted_h == coordinate_restrict(LH_big, coords_h)


def test_memoized_results_live_on_the_instance():
    inst = make_instance(build("S4"), 2, name="S4")
    b = blocks_with_defect_group_P(inst, "G")[0]
    pair = (b, correspondent_of(inst, b))
    L = build_induced_lattice(inst, "H")
    S = cp_plus_lattice(inst, "H", pair)
    assert build_induced_lattice(inst, "H") is L
    assert cp_plus_lattice(inst, "H", pair) is S
    assert correspondent_of(inst, b) is pair[1]
    refs = [weakref.ref(L), weakref.ref(S)]
    del inst, L, S
    gc.collect()
    assert [r() for r in refs] == [None, None]


def _reference_lex_signed_matching(rows, cols, edge_sign):
    """Reference for `_lex_signed_matching`: one full Kuhn check, then per
    row and candidate column a Kuhn check under banned pairs and an
    in-place adjacency edit."""
    adj = {i: [j for j in cols if edge_sign(i, j) is not None] for i in rows}

    def max_matching(order, banned):
        match = {}

        def try_assign(i, seen):
            for j in adj[i]:
                if (i, j) in banned or j in seen:
                    continue
                seen.add(j)
                if j not in match or try_assign(match[j], seen):
                    match[j] = i
                    return True
            return False

        size = 0
        for i in order:
            if try_assign(i, set()):
                size += 1
        return size

    n = len(rows)
    if len(cols) != n or max_matching(rows, set()) != n:
        return None
    banned = set()
    chosen = []
    remaining = list(rows)
    free_cols = list(cols)
    for i in list(rows):
        for j in free_cols:
            if edge_sign(i, j) is None or (i, j) in banned:
                continue
            rest = [r for r in remaining if r != i]
            sub_banned = banned | {(r, j) for r in rest}
            saved_adj = adj[i]
            adj[i] = [j]
            ok = max_matching([i] + rest, sub_banned) == len(remaining)
            adj[i] = saved_adj
            if ok:
                chosen.append((i, edge_sign(i, j), j))
                remaining.remove(i)
                free_cols.remove(j)
                banned |= {(i, jj) for jj in free_cols}
                banned |= {(r, j) for r in remaining}
                break
        else:
            return None
    return chosen


def test_lex_signed_matching_agrees_with_reference():
    """Random signed bipartite graphs on 0-7 rows (unequal sides included,
    index lists unsorted): same matching as the reference routine, with
    each pair's sign asked for at most once."""
    rng = random.Random(20100)
    for _ in range(3000):
        n = rng.randrange(8)
        m = n if rng.random() < 0.8 else rng.randrange(8)
        rows = rng.sample(range(20), n)
        cols = rng.sample(range(20), m)
        density = rng.random()
        signs = {
            (i, j): rng.choice((1, -1)) if rng.random() < density else None
            for i in rows for j in cols
        }
        asked = []

        def edge_sign(i, j):
            asked.append((i, j))
            return signs[i, j]

        want = _reference_lex_signed_matching(rows, cols, lambda i, j: signs[i, j])
        assert _lex_signed_matching(rows, cols, edge_sign) == want
        assert len(asked) == len(set(asked))


def test_block_mode_asks_each_block_once(monkeypatch):
    """A block-mode instance reads G's one partition and asks, per side,
    whether each block has a defect group inside P once."""
    asked = Counter()
    inside = correspondence.some_defect_group_inside

    def counting(table, block, p, P):
        asked[table.group_order, block.index] += 1
        return inside(table, block, p, P)

    monkeypatch.setattr(correspondence, "some_defect_group_inside", counting)
    path = Path(__file__).resolve().parent.parent / "fixtures" / "fixture_group.json"
    spec = JobSpec(group=str(path), p=2, subgroup_mode="block:1")
    inst, (b, e) = build_instance(spec, load_group(spec.group))
    quotients_q1_q2(inst)
    subsets_of(inst, "G")
    tG, tH = inst.tG, inst.tH
    assert [k for k in tG._cache if k[0] == "block_partition"] == [("block_partition", 2)]
    assert b is block_partition(tG, 2)[1]
    assert e in block_partition(tH, 2)
    assert sorted(asked) == sorted(
        [(tG.group_order, i) for i in range(len(block_partition(tG, 2)))]
        + [(tH.group_order, i) for i in range(len(block_partition(tH, 2)))])
    assert set(asked.values()) == {1}


# -- the verdicts against the membership-test formulation -----------------------

def _reference_check_property(inst, which, block_pair=None):
    """`check_property` as one membership test per image and per signed
    pair: pres and pind test each image, irc/wirc and wircstar test the
    difference vectors s*phi_j - Proj Res chi_i and chi_i - s*Ind phi_j.
    Every helper is read from the module, so a patch reaches both."""
    c = correspondence
    level = "global" if block_pair is None else f"block:{block_pair[0].index}"
    if which == "pres":
        L = c.cp_plus_lattice(inst, "H", block_pair)
        for i in c._side_sets(inst, "G", block_pair)[1]:
            if not L.contains(c.proj_res_vector(inst, i)):
                return c.Verdict(which, False, certificate=f"Proj Res of row {i} escapes",
                                 level=level)
        return c.Verdict(which, True, level=level)
    if which == "pind":
        L = c.cp_plus_lattice(inst, "G", block_pair)
        for j in c._side_sets(inst, "H", block_pair)[1]:
            if not L.contains(c.ind_vector(inst, j)):
                return c.Verdict(which, False, certificate=f"Ind of row {j} escapes",
                                 level=level)
        return c.Verdict(which, True, level=level)
    irr0_g, _ = c._side_sets(inst, "G", block_pair)
    irr0_h, _ = c._side_sets(inst, "H", block_pair)
    if len(irr0_g) != len(irr0_h):
        return c.Verdict(which, False,
                         certificate=f"|Irr0| mismatch: {len(irr0_g)} vs {len(irr0_h)}",
                         level=level)
    if which in ("irc", "wirc"):
        L = (c.cp_plus_lattice(inst, "H", block_pair) if which == "wirc"
             else c.build_induced_lattice(inst, "H"))

        def edge_sign(i, j):
            for s in (1, -1):
                v = list(c.proj_res_vector(inst, i))
                v[j] -= s
                if L.contains(v):
                    return s
            return None
    else:
        L = c.cp_plus_lattice(inst, "G", block_pair)

        def edge_sign(i, j):
            for s in (1, -1):
                v = [-s * x for x in c.ind_vector(inst, j)]
                v[i] += 1
                if L.contains(v):
                    return s
            return None

    matching = c._lex_signed_matching(irr0_g, irr0_h, edge_sign)
    if matching is None:
        return c.Verdict(which, False, certificate="no perfect signed matching",
                         level=level)
    return c.Verdict(which, True, witness=matching, level=level)


def _verdict_key(v):
    return v.holds, v.witness, v.certificate, v.level


def _block_pairs(inst):
    """None (the global level) and every (b, e) with e the correspondent of b."""
    pairs = [None]
    for b in block_partition(inst.tG, inst.p):
        e = correspondent_of(inst, b)
        if e is not None:
            pairs.append((b, e))
    return pairs


def _verdicts_agree(inst):
    """Compare all five verdicts at every level; return the certificates."""
    seen = set()
    for pair in _block_pairs(inst):
        for w in PROPERTIES:
            got = check_property(inst, w, block_pair=pair)
            assert _verdict_key(got) == _verdict_key(
                _reference_check_property(inst, w, pair)), (inst.name, w, pair)
            # the certificate's kind: "Proj Res", "Ind", "|Irr0| mismatch",
            # "no perfect signed matching", or None when the property holds
            seen.add(got.certificate and got.certificate.split(" of row")[0].split(":")[0])
    return seen


SMALL_CATALOG = sorted(n for n in BUILDERS if build(n).order() <= 2000)


@pytest.mark.parametrize("name", SMALL_CATALOG)
def test_verdicts_match_membership_formulation(name):
    G = shared_group(name)
    for p in prime_factors(G.order()):
        _verdicts_agree(make_instance(G, p, name=name))


def test_irc_matching_failures_match_membership_formulation():
    """The cases where irc has no perfect signed matching unaided: PSU3_3
    at 3, and the blocks 1-4 of the order-1000 fixture at 2."""
    seen = _verdicts_agree(make_instance(shared_group("PSU3_3"), 3, name="PSU3_3"))
    path = str(Path(__file__).resolve().parent.parent / "fixtures" / "fixture_group.json")
    for i in range(1, 5):
        spec = JobSpec(group=path, p=2, subgroup_mode=f"block:{i}")
        inst, _ = build_instance(spec, shared_group(path))
        seen |= _verdicts_agree(inst)
    assert "no perfect signed matching" in seen


def _zero_lattice(inst, side, *rest):
    return IntLattice(inst.table(side).k)


def _uneven_side_sets(inst, side, block_pair):
    irr0, irrp = _SIDE_SETS(inst, side, block_pair)
    return (irr0[1:] if side == "G" else irr0), irrp


_SIDE_SETS = correspondence._side_sets


@pytest.mark.parametrize("patch, certificates", [
    ("cp_plus_lattice", {"Proj Res", "Ind", "no perfect signed matching"}),
    ("build_induced_lattice", {"no perfect signed matching"}),
    ("_side_sets", {"|Irr0| mismatch"}),
])
def test_forced_failures_match_membership_formulation(patch, certificates, monkeypatch):
    """Failures that no catalog case reaches unaided, forced by one patch
    of the module that the library and the reference both read."""
    fake = _uneven_side_sets if patch == "_side_sets" else _zero_lattice
    monkeypatch.setattr(correspondence, patch, fake)
    seen = set()
    for name, p in [("S4", 2), ("A5", 2), ("S5", 3), ("D12", 3)]:
        seen |= _verdicts_agree(make_instance(shared_group(name), p, name=name))
    assert certificates <= seen


# -- property (G): the coefficient block against the transform loops ------------

def _reference_I_transform(mu, phi):
    """I_mu: C(H) -> C(G) in coefficient space."""
    tG, tH = mu.table.factors
    dualH, kH = tH.dual_map(), tH.k
    out = [0] * tG.k
    for t, c in enumerate(mu.coeffs):
        if c:
            i, j = divmod(t, kH)
            out[i] += c * phi.coeffs[dualH[j]]
    return VirtualCharacter(tG, out)


def _reference_R_transform(mu, chi):
    """R_mu: C(G) -> C(H) in coefficient space."""
    tG, tH = mu.table.factors
    dualG, kH = tG.dual_map(), tH.k
    out = [0] * tH.k
    for t, c in enumerate(mu.coeffs):
        if c:
            i, j = divmod(t, kH)
            out[j] += c * chi.coeffs[dualG[i]]
    return VirtualCharacter(tH, out)


def _reference_transforms_hold(inst, b, e, mu):
    """Each height-zero irreducible goes to one height-zero constituent
    with multiplicity +-1, under I_mu and under R_mubar."""
    hz_b, hz_e = set(b.height_zero), set(e.height_zero)
    for j in hz_e:
        v = _reference_I_transform(mu, irr(inst.tH, j))
        hits = [i for i in v.support() if i in hz_b]
        if len(hits) != 1 or abs(v.coeffs[hits[0]]) != 1:
            return False
    mubar = mu.conjugate()
    for i in hz_b:
        w = _reference_R_transform(mubar, irr(inst.tG, i))
        hits = [j for j in w.support() if j in hz_e]
        if len(hits) != 1 or abs(w.coeffs[hits[0]]) != 1:
            return False
    return True


def _witness_cases():
    """(inst, b, e, mu): omega on every correspondent pair of a few groups,
    and the committed witness of the order-1000 fixture."""
    for name in ("S3", "S4", "A5", "D8xC3"):
        G = shared_group(name)
        for p in prime_factors(G.order()):
            inst = make_instance(G, p, name=name)
            for pair in _block_pairs(inst)[1:]:
                yield (inst, *pair, omega_character(inst, *pair))
    root = Path(__file__).resolve().parent.parent / "fixtures"
    spec = JobSpec(group=str(root / "fixture_group.json"), p=2, subgroup_mode="block:1")
    inst, pair = build_instance(spec, shared_group(spec.group))
    coeffs = json.loads((root / "fixture_witness.json").read_text())["coeffs"]
    yield (inst, *pair, VirtualCharacter(pair_table(inst), coeffs))


def _height_zero_mutations(inst, b, e, mu):
    """mu, and mu with one height-zero entry flipped, zeroed, doubled or
    moved to the first place of its row or of its column, or with a second
    +-1 put in a row of the height-zero block."""
    kH, dualH = inst.tH.k, inst.tH.dual_map()
    yield mu.coeffs
    for i in b.height_zero:
        for j in e.height_zero:
            t = i * kH + dualH[j]
            for new in (-mu.coeffs[t], 0, 2 * mu.coeffs[t]):
                yield mu.coeffs[:t] + (new,) + mu.coeffs[t + 1:]
            for u in (i * kH + dualH[e.height_zero[0]],
                      b.height_zero[0] * kH + dualH[j]):
                moved = list(mu.coeffs)
                moved[t], moved[u] = 0, mu.coeffs[t]
                yield tuple(moved)
        row = [i * kH + dualH[j] for j in e.height_zero]
        free = [t for t in row if not mu.coeffs[t]]
        if free and any(mu.coeffs[t] for t in row):
            for s in (1, -1):
                t = free[0]
                yield mu.coeffs[:t] + (s,) + mu.coeffs[t + 1:]


def test_property_g_block_test_matches_transform_loops(monkeypatch):
    """With the lattice condition granted, the verdict is the transform
    test, and reading mu's height-zero block must agree with computing
    I_mu and R_mubar of every height-zero irreducible."""
    monkeypatch.setattr(correspondence, "_s_is_trivial", lambda inst: True)
    monkeypatch.setattr(correspondence, "vanishes_on", lambda chi, classes: True)
    verdicts = Counter()
    for inst, b, e, mu in _witness_cases():
        for coeffs in _height_zero_mutations(inst, b, e, mu):
            nu = VirtualCharacter(mu.table, coeffs)
            got = check_property_G_with_witness(inst, b, e, nu)
            assert got == _reference_transforms_hold(inst, b, e, nu), (inst.name, b, e)
            verdicts[got] += 1
    assert verdicts[True] and verdicts[False]
