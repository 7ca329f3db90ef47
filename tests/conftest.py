"""Shared pytest plumbing: acceptance verdict lines in the summary, groups
that tests may share, a reference transporter mask, a reference conjugate
orbit and qualifying family, column permutations and value switches of
stored tables, a hypothesis strategy for small random permutation groups,
and one hypothesis profile.

The profile derandomizes every property test, so each run draws the same
examples; tests keep their own `max_examples` and `deadline`.

A group's table and the rest of its derived data live on the group, so
tests that revisit a group share that work only if they share the group
object.  `shared_group` is opt-in: tests that check freeing, or count
builds, make their own groups.
"""

import random
from itertools import combinations_with_replacement
from math import factorial, prod

import numpy as np
from hypothesis import assume, settings
from hypothesis import strategies as st

from indres.catalog import build
from indres.cli import DEFAULT_ORDER_BUDGET, load_group
from indres.groupcore import (PermGroup, centralizer, prime_factors, product_group,
                              sylow_subgroup, v_p, _conjugation_perms, _index_set,
                              _maximal_sets, _subgroup_of_rows)
from indres.oracles import _perm_power

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

ACCEPTANCE_LINES = []
_GROUPS = {}


def shared_group(name, budget_order=DEFAULT_ORDER_BUDGET):
    """The session's one copy of a group, named and admitted as
    `cli.load_group` takes it; a group is shared only under one budget."""
    key = (name, budget_order)
    if key not in _GROUPS:
        _GROUPS[key] = load_group(name, budget_order)
    return _GROUPS[key]


def inverse_rows(E):
    """Row i is the inverse of row i of the permutation matrix E: it sends
    E[i, j] to j."""
    return np.argsort(E, axis=1)


def full_transporter_mask(G, K, L, lo=0, hi=None):
    """Mask over G's elements lo:hi of the g with g K g^-1 inside L, with
    every generator of K conjugated by every row in lo:hi."""
    E = G.elements()[lo:hi]
    Einv = inverse_rows(E)
    mask = np.ones(len(E), dtype=bool)
    for k in K.generators:
        ka = np.asarray(k, dtype=E.dtype)
        mask &= L.rows_in(np.take_along_axis(E, ka[Einv], axis=1))
    return mask


def all_pairs_maximal_sets(sets):
    """The containment-maximal sets, each set tested against every kept
    set, equal sizes included."""
    kept = []
    for s in sorted(set(sets), key=lambda s: (-len(s), sorted(s))):
        if not any(s <= big for big in kept):
            kept.append(s)
    return kept


def frozenset_orbit(group, iset):
    """All conjugates, under `group`, of a frozenset of its element indices,
    as a set of frozensets, found breadth first: the reference for
    `groupcore._conjugate_orbit`."""
    perms = _conjugation_perms(group)
    seen = {iset}
    frontier = [iset]
    while frontier:
        new = []
        for S in frontier:
            members = np.fromiter(S, dtype=np.intp, count=len(S))
            for perm in perms:
                T = frozenset(perm[members].tolist())
                if T not in seen:
                    seen.add(T)
                    new.append(T)
        frontier = new
    return seen


def copy_sets(copies):
    """The rows of `groupcore._qualifying_copies` orbits as one set of
    frozensets; no row may repeat, within an orbit or across orbits."""
    sets = {frozenset(row) for orbit in copies for row in orbit.tolist()}
    if len(sets) != sum(len(orbit) for orbit in copies):
        raise AssertionError("a conjugate repeats among the copies")
    return sets


def pairwise_copies(group, maxima):
    """Every conjugate of every maximum, kept unless it lies in another kept
    conjugate: the pairwise form of `groupcore._qualifying_copies`."""
    return set(all_pairs_maximal_sets(
        c for S in maxima
        for c in frozenset_orbit(group, _index_set(group, S.elements()))))


def distinct_qualifying_family(group, p, maxima):
    """The qualifying elementary subgroups before containment-maximal
    pruning, one per element set, ordered by size and then by sorted
    members, built from `pairwise_copies` with an element test: for ℓ ≠ p,
    ⟨c⟩ x Sylow_ℓ(C(c)) is kept when the p-part of c lies in a copy; for a
    p'-element c ≠ 1, ⟨c⟩ x F for F among the maximal sets
    Sylow_p(C(c)) ∩ copy; and the maxima that are copies.  Its
    containment-maximal element sets are those of
    `groupcore.qualifying_elementary_subgroups`."""
    copies = pairwise_copies(group, maxima)
    E = group.elements()
    found = {}

    def add(sub):
        found.setdefault(_index_set(group, sub.elements()), sub)

    for c in group.class_data():
        rep, order = c.representative, c.rep_order
        pv = p ** v_p(order, p)
        # the p-part is rep^t for t = 1 mod pv and t = 0 mod order / pv
        t = next(t for t in range(order) if t % pv == 1 % pv and t % (order // pv) == 0)
        x = int(group.index_of([_perm_power(rep, t)])[0])
        for ell in prime_factors(group.order()):
            if ell != p and order % ell and any(x in K for K in copies):
                S = sylow_subgroup(centralizer(group, rep), ell)
                add(PermGroup(group.degree, [rep, *S.generators]))
        if order == 1:
            for S in maxima:
                if _index_set(group, S.elements()) in copies:
                    add(S)
        elif pv == 1:
            T = _index_set(group, sylow_subgroup(centralizer(group, rep), p).elements())
            for F in _maximal_sets(T & K for K in copies):
                F = _subgroup_of_rows(group.degree, E[sorted(F)])
                add(PermGroup(group.degree, [rep, *F.generators]))
    return [found[s] for s in sorted(found, key=lambda s: (len(s), sorted(s)))]


def permute_columns(data, perm):
    """Stored table data whose class i is the class perm[i] of `data`."""
    inv = [perm.index(j) for j in range(len(perm))]
    data["classes"] = [
        {**data["classes"][j], "powermap": {
            q: inv[i] for q, i in data["classes"][j]["powermap"].items()
        }}
        for j in perm
    ]
    data["irreducibles"] = [[row[j] for j in perm] for row in data["irreducibles"]]
    return data


def shuffle_columns(data, seed):
    """Stored table data with class 0 kept first and the other classes in
    the order `random.Random(seed)` shuffles them to."""
    rest = list(range(1, len(data["classes"])))
    random.Random(seed).shuffle(rest)
    return permute_columns(data, [0] + rest)


def value_switches(data):
    """The (a, b, c, d), rows a < b and classes c < d of stored table data,
    whose values x (row a at c, row b at d) and y (row a at d, row b at c)
    differ, in lexicographic order.  Swapping x and y in both rows keeps
    every row's and every column's multiset of values."""
    X = data["irreducibles"]
    k = len(X)
    return [(a, b, c, d) for a in range(k) for b in range(a + 1, k)
            for c in range(k) for d in range(c + 1, k)
            if X[a][c] == X[b][d] != X[a][d] == X[b][c]]


def switch_values(data, switch):
    """Stored table data with the values of one of `value_switches` swapped."""
    a, b, c, d = switch
    for r in (a, b):
        row = data["irreducibles"][r]
        row[c], row[d] = row[d], row[c]
    return data


RANDOM_MAX_DEGREE = 8
RANDOM_MAX_ORDER = 200

# Block sizes of 2 or more whose symmetric groups have a direct product of
# order at most RANDOM_MAX_ORDER on at most RANDOM_MAX_DEGREE points.
_BLOCK_SIZES = [
    sizes for n in range(1, RANDOM_MAX_DEGREE // 2 + 1)
    for sizes in combinations_with_replacement(range(2, RANDOM_MAX_DEGREE + 1), n)
    if sum(sizes) <= RANDOM_MAX_DEGREE
    and prod(map(factorial, sizes)) <= RANDOM_MAX_ORDER
]
# Pairs of catalog groups whose direct product on disjoint points fits.
_FACTOR_PAIRS = [
    (a, b) for a, b in combinations_with_replacement(
        ["C2xC2", "D8", "S3", "A4", "S4"], 2)
    if build(a).degree + build(b).degree <= RANDOM_MAX_DEGREE
    and build(a).order() * build(b).order() <= RANDOM_MAX_ORDER
]


@st.composite
def small_perm_groups(draw):
    """Permutation groups of degree at most RANDOM_MAX_DEGREE and order at
    most RANDOM_MAX_ORDER, in three kinds of draw:

    - blocks: 1-3 generators, each permuting the points of every block of a
      drawn partition of some of the points into blocks of 2 or more, and
      fixing the other points.  The block sizes bound the order, so every
      such draw fits; one generator gives a cyclic group.
    - product: the direct product of two small catalog groups on disjoint
      points.
    - free: 1-3 permutations of all points, kept when their group fits.

    About two thirds of the draws are abelian, since hypothesis often
    repeats a drawn value; 200 draws hold about 70 non-abelian groups.
    """
    kind = draw(st.sampled_from(["blocks", "blocks", "product", "free"]))
    if kind == "product":
        a, b = draw(st.sampled_from(_FACTOR_PAIRS))
        return product_group(build(a), build(b))
    rnd = draw(st.randoms(use_true_random=False))
    # hypothesis favours the first value it may draw, and one generator
    # gives a cyclic group
    ngens = draw(st.sampled_from([2, 3, 1]))
    if kind == "free":
        degree = draw(st.integers(1, RANDOM_MAX_DEGREE))
        gens = [rnd.sample(range(degree), degree) for _ in range(ngens)]
    else:
        sizes = draw(st.sampled_from(_BLOCK_SIZES))
        degree = draw(st.integers(sum(sizes), RANDOM_MAX_DEGREE))
        points = rnd.sample(range(degree), degree)
        gens = []
        for _ in range(ngens):
            images, start = list(range(degree)), 0
            for size in sizes:
                block = points[start:start + size]
                for x, y in zip(block, rnd.sample(block, size)):
                    images[x] = y
                start += size
            gens.append(images)
    G = PermGroup(degree, gens)
    assume(G.order() <= RANDOM_MAX_ORDER)
    return G


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
