"""Finite permutation groups with exact, deterministic invariants.

Elements are permutations of {0, ..., degree-1}, each one its image tuple
of Python ints; `_mul`, `_inv`, `_conj`, `_perm_order` and `_perm_power`
are the arithmetic on them.
Bulk work (conjugacy sweeps, normalizer scans) runs on a lexicographically
sorted numpy matrix holding every group element, so most operations here
assume the group order fits the element budget.

Inside a group, an element's identity is its row index in that sorted
matrix (`PermGroup.index_of`).  Indices are in lexicographic order, so a
sorted set of indices lists its elements lexicographically, and sets of
elements are sets of ints.  Public outputs are deterministic functions of
the abstract group and its degree, never of the generator presentation,
unless noted otherwise.

Everything derived from a group (its stabilizer chain, order, element
matrix, classes and power classes, centralizers, normalizers, Sylow
subgroups, and its character table) lives in `PermGroup._cache`, filled
by `_memo`, so it is computed once and freed with the group.  `_memo` is
the one memo helper of the package: tables and instances memoize their
derived data through it too.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from itertools import count
from math import lcm
from operator import itemgetter

import numpy as np

DTYPE = np.int16
# Points an element row of DTYPE can name.
MAX_DEGREE = int(np.iinfo(DTYPE).max) + 1

DEFAULT_ORDER_BUDGET = 10**6

# Rows per block of a first-hit scan over a group's element matrix.
_SCAN_BLOCK = 1024


class BudgetExceeded(RuntimeError):
    pass


class IntegrityError(ValueError):
    pass


def json_int(value, what, decimal_string=False):
    """A count read from JSON, as an int.

    Floats and bools are not counts, and a decimal string is one only where
    `decimal_string` allows it (orders are written that way).
    """
    if decimal_string and isinstance(value, str) and value.isdigit():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise IntegrityError(f"{what} must be a JSON integer, got {value!r}")
    return value


@contextmanager
def malformed(what):
    """Report a wrong JSON shape met while reading `what` data as one
    IntegrityError: a missing key by its name, other errors as they read."""
    try:
        yield
    except KeyError as exc:
        raise IntegrityError(
            f"malformed {what} data: missing key {exc.args[0]!r}") from exc
    except (TypeError, AttributeError, ZeroDivisionError) as exc:
        raise IntegrityError(f"malformed {what} data: {exc}") from exc


def _memo(fn):
    """Memoize fn(owner, *args) in owner._cache under (fn.__name__, *args).

    The result lives and dies with its owner (a PermGroup, a CharTable, or
    any object with a `_cache` dict).  Arguments are positional and
    hashable, and the function has no defaults, so one call has exactly
    one key.
    """

    @wraps(fn)
    def memoized(owner, *args):
        key = (fn.__name__, *args)
        if key not in owner._cache:
            owner._cache[key] = fn(owner, *args)
        return owner._cache[key]

    return memoized


def _mul(a, b):
    # apply b first, then a; a one-index itemgetter returns a bare int
    if len(b) < 2:
        return tuple(a[x] for x in b)
    return itemgetter(*b)(a)


def _inv(a):
    r = [0] * len(a)
    for i, x in enumerate(a):
        r[x] = i
    return tuple(r)


def _conj(g, x):
    # g x g^{-1}, via (g x g^{-1})(g(i)) = g(x(i))
    r = [0] * len(g)
    for i in range(len(g)):
        r[g[i]] = g[x[i]]
    return tuple(r)


def _perm_order(a):
    n = len(a)
    seen = [False] * n
    o = 1
    for i in range(n):
        if seen[i]:
            continue
        l, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = a[j]
            l += 1
        o = lcm(o, l)
    return o


def _perm_power(a, k):
    n = len(a)
    k %= _perm_order(a)
    r = tuple(range(n))
    b = a
    while k:
        if k & 1:
            r = _mul(b, r)
        b = _mul(b, b)
        k >>= 1
    return r


def v_p(n, p):
    if p < 2 or n == 0:
        raise ValueError(f"v_p needs n != 0 and p >= 2, got n = {n}, p = {p}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def p_prime_part(n, p):
    """n with every factor p removed; ValueError where v_p raises."""
    return n // p ** v_p(n, p)


def prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n):
    """Whether n is prime, by deterministic Miller-Rabin.

    Exact below `MILLER_RABIN_BOUND`; at or above it the test proves
    nothing, so it raises `IntegrityError` rather than guess.
    """
    if n >= MILLER_RABIN_BOUND:
        raise IntegrityError(
            f"cannot decide whether {n} is prime: at or above the "
            f"Miller-Rabin bound {MILLER_RABIN_BOUND}"
        )
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def least_primitive_root(q, e):
    """The least generator of (Z/q^e)^x, q an odd prime.

    g generates it exactly when g generates (Z/q)^x and, for e >= 2,
    g^(q-1) is not 1 mod q^2.
    """
    rs = prime_factors(q - 1)
    for g in count(2):
        if (g % q and all(pow(g, (q - 1) // r, q) != 1 for r in rs)
                and (e == 1 or pow(g, q - 1, q * q) != 1)):
            return g


def _strip(levels, g):
    """Sift the image tuple g down the chain levels.

    Returns the residue and the index of the level where sifting stopped
    (len(levels) when it ran through); g lies in the group exactly when
    the residue is the identity.
    """
    for i, lvl in enumerate(levels):
        pt = g[lvl.base]
        if pt not in lvl.transversal:
            return g, i
        g = _mul(lvl.inverse(pt), g)
    return g, len(levels)


class _Level:
    __slots__ = ("base", "gens", "transversal", "inverses")

    def __init__(self, base):
        self.base = base
        self.gens = []  # strong generators first needed at this level
        self.transversal = {}
        self.inverses = {}  # point -> inverse of its transversal element

    def inverse(self, pt):
        """The inverse of transversal[pt], computed once per transversal."""
        u = self.inverses.get(pt)
        if u is None:
            u = self.inverses[pt] = _inv(self.transversal[pt])
        return u


class PermGroup:
    """Permutation group with a deterministic stabilizer chain.

    The element matrix returned by :meth:`elements` is sorted
    lexicographically, which makes "first element such that ..." scans
    presentation-independent.  A group keeps its degree, its generators and
    `_cache`, where `_memo` puts all that is derived from them.
    """

    def __init__(self, degree, generators=()):
        self.degree = int(degree)
        if self.degree > MAX_DEGREE:
            raise IntegrityError(f"degree {self.degree} exceeds the largest supported "
                                 f"degree {MAX_DEGREE}")
        gens = []
        for g in generators:
            g = tuple(int(x) for x in g)
            if len(g) != self.degree:
                raise ValueError("generator degree mismatch")
            if g != self._identity() and g not in gens:
                gens.append(g)
        self.generators = tuple(gens)
        self._cache = {}

    # -- stabilizer chain --------------------------------------------------

    def _identity(self):
        return tuple(range(self.degree))

    @_memo
    def _chain(self):
        ident = self._identity()
        levels = []

        def level_gens(i):
            # strong generators available to the i-th stabilizer
            return [g for lvl in levels[i:] for g in lvl.gens]

        def rebuild(i):
            lvl = levels[i]
            gens = level_gens(i)
            lvl.transversal = {lvl.base: ident}
            lvl.inverses = {}
            frontier = [lvl.base]
            while frontier:
                new = []
                for pt in frontier:
                    u = lvl.transversal[pt]
                    for s in gens:
                        q = s[pt]
                        if q not in lvl.transversal:
                            lvl.transversal[q] = _mul(s, u)
                            new.append(q)
                frontier = new

        def augment(g, at):
            if at == len(levels):
                base = min(i for i, x in enumerate(g) if x != i)
                levels.append(_Level(base))
            levels[at].gens.append(g)
            for j in range(at + 1):
                rebuild(j)

        for g in self.generators:
            r, at = _strip(levels, g)
            if r != ident:
                augment(r, at)

        # Schreier closure: every Schreier generator of every level must
        # strip to the identity
        dirty = True
        while dirty:
            dirty = False
            for i in range(len(levels)):
                lvl = levels[i]
                gens = level_gens(i)
                for pt in sorted(lvl.transversal):
                    u = lvl.transversal[pt]
                    for s in gens:
                        h = _mul(s, u)
                        r, at = _strip(levels, _mul(lvl.inverse(h[lvl.base]), h))
                        if r != ident:
                            augment(r, at)
                            dirty = True
                            break
                    if dirty:
                        break
                if dirty:
                    break
        # the inverses served the closure; drop them rather than keep one
        # tuple per point for the group's lifetime
        for lvl in levels:
            lvl.inverses = {}
        return levels

    @_memo
    def order(self):
        o = 1
        for lvl in self._chain():
            o *= len(lvl.transversal)
        return o

    def contains_images(self, images):
        return _strip(self._chain(), tuple(images))[0] == self._identity()

    def __contains__(self, images):
        return self.contains_images(images)

    def is_subgroup_of(self, other):
        return all(g in other for g in self.generators)

    # -- full element matrix -------------------------------------------------

    def elements(self):
        """All elements as a lexicographically sorted (order x degree) matrix."""
        return self._element_matrix()[0]

    @_memo
    def _element_matrix(self):
        # the sorted element matrix, and the row of each chain rank
        E = np.arange(self.degree, dtype=DTYPE)[None, :]
        for lvl in reversed(self._chain()):
            blocks = []
            for pt in sorted(lvl.transversal):
                u = np.asarray(lvl.transversal[pt], dtype=DTYPE)
                blocks.append(u[E])
            E = np.vstack(blocks)
        if len(E) != self.order():
            raise IntegrityError("element matrix size differs from the chain order")
        # before sorting, row r is the element of chain rank r
        order = np.lexsort(E.T[::-1])
        row_of_rank = np.empty_like(order)
        row_of_rank[order] = np.arange(len(order))
        return np.ascontiguousarray(E[order]), row_of_rank

    @_memo
    def _rank_tables(self):
        # per level: base point, point -> position in the sorted transversal
        # (0 off the orbit), and the inverse transversal element by position
        ranks = []
        for lvl in self._chain():
            pts = sorted(lvl.transversal)
            pos = np.zeros(self.degree, dtype=np.intp)
            pos[pts] = np.arange(len(pts))
            uinv = np.array([_inv(lvl.transversal[pt]) for pt in pts], dtype=DTYPE)
            ranks.append((lvl.base, pos, uinv))
        return ranks

    def index_of(self, M):
        """Row index in `elements()` of each row of M, or -1 for a non-member.

        Stripping a row's base images through the chain gives its rank, a
        mixed-radix number over the sorted transversals, and the rank names
        one candidate row.  The index is kept only where that row equals
        the input, so a non-member never aliases a member.
        """
        E, row_of_rank = self._element_matrix()
        M = np.asarray(M, dtype=DTYPE)
        tables = self._rank_tables()
        B = M[:, [base for base, _, _ in tables]]
        rank = np.zeros(len(M), dtype=np.intp)
        for i, (_, pos, uinv) in enumerate(tables):
            r = pos[B[:, i]]
            rank = rank * len(uinv) + r
            B = uinv[r[:, None], B]
        idx = row_of_rank[rank]
        return np.where(np.all(E[idx] == M, axis=1), idx, -1)

    @_memo
    def inverses(self):
        return np.ascontiguousarray(np.argsort(self.elements(), axis=1).astype(DTYPE))

    def conjugation_sweep(self, images, lo=0, hi=None):
        """Rows g k g^{-1} for the elements g in rows lo:hi, with k fixed."""
        E, Einv = self.elements()[lo:hi], self.inverses()[lo:hi]
        k = np.asarray(images, dtype=DTYPE)
        return np.take_along_axis(E, k[Einv], axis=1)

    def rows_in(self, M):
        """Membership mask of the rows of M."""
        return self.index_of(M) >= 0

    # -- classes ---------------------------------------------------------------

    def class_data(self):
        """The conjugacy classes, in `conjugacy_classes` order."""
        return _class_sweep(self)[0]

    def class_ids(self):
        """The class index of each row of `elements()`."""
        return _class_sweep(self)[1]

    def power_classes(self):
        """For each class i, the class of rep_i^t for every t < ord(rep_i)."""
        return _class_sweep(self)[2]

    def class_of(self, images):
        i = int(self.index_of([images])[0])
        if i < 0:
            raise KeyError("element is not in the group")
        return int(self.class_ids()[i])

    def exponent(self):
        return lcm(*(c.rep_order for c in self.class_data()))

    def subgroup(self, gens):
        return PermGroup(self.degree, gens)

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


@dataclass
class ConjClassData:
    representative: tuple  # image tuple; None in a stored table's class data
    size: int
    rep_order: int
    power_map: dict  # prime q dividing the group order -> class of rep^q
    centralizer_order: int


def group_from_generators(data):
    """Build a PermGroup from {"degree": n, "generators": [[1-based images]]}."""
    with malformed("group"):
        degree = json_int(data["degree"], "group degree")
        gens = []
        for images in data["generators"]:
            images = [json_int(x, "generator image") for x in images]
            if sorted(images) != list(range(1, len(images) + 1)):
                raise ValueError("generator is not a permutation of 1..n")
            if len(images) > degree:
                raise ValueError("generator degree exceeds the group degree")
            gens.append([x - 1 for x in images] + list(range(len(images), degree)))
    if degree < 1:
        raise IntegrityError(f"group degree must be at least 1, got {degree}")
    return PermGroup(degree, gens)


def conjugacy_classes(G, budget_order=DEFAULT_ORDER_BUDGET):
    """Conjugacy classes in a canonical order.

    Classes are sorted by (element order, class size, lexicographically
    smallest member); the representative is that smallest member.  The
    budget is checked on every call, whether or not the classes are known.
    """
    if G.order() > budget_order:
        raise BudgetExceeded(f"order {G.order()} exceeds class budget {budget_order}")
    return G.class_data()


@_memo
def _class_sweep(G):
    """The classes of G, the class id of each element row, and the power
    classes (see `PermGroup.power_classes`)."""
    E = G.elements()
    perms = _conjugation_perms(G)
    # min-label propagation: each class ends up labelled by its least index
    label = np.arange(len(E))
    while True:
        nxt = label
        for perm in perms:
            nxt = np.minimum(nxt, nxt[perm])
        nxt = nxt[nxt]
        if np.array_equal(nxt, label):
            break
        label = nxt
    reps, class_id, sizes = np.unique(label, return_inverse=True, return_counts=True)
    raw = [(tuple(int(x) for x in E[r]), int(n)) for r, n in zip(reps, sizes)]

    orders = [_perm_order(rep) for rep, _ in raw]
    ranked = sorted(range(len(raw)), key=lambda c: (orders[c], raw[c][1], raw[c][0]))
    remap = np.empty(len(raw), dtype=np.int32)
    remap[ranked] = np.arange(len(raw))
    class_id = remap[class_id]

    # rep^t for every class and every t < ord(rep), located in one sweep
    powers = []
    for old in ranked:
        rep = np.asarray(raw[old][0], dtype=DTYPE)
        x = np.arange(G.degree, dtype=DTYPE)
        for _ in range(orders[old]):
            powers.append(x)
            x = rep[x]
    flat = class_id[_member_indices(G, np.array(powers))].tolist()
    power_classes, at = [], 0
    for old in ranked:
        power_classes.append(tuple(flat[at:at + orders[old]]))
        at += orders[old]

    primes = prime_factors(G.order())
    classes = [
        ConjClassData(
            representative=raw[old][0],
            size=raw[old][1],
            rep_order=orders[old],
            power_map={q: pc[q % orders[old]] for q in primes},
            centralizer_order=G.order() // raw[old][1],
        )
        for old, pc in zip(ranked, power_classes)
    ]
    return classes, class_id, power_classes


@_memo
def _conjugation_perms(G):
    """For each generator s, the map x -> s x s^{-1} on element indices."""
    E = G.elements()
    gens = [np.asarray(s, dtype=DTYPE) for s in G.generators]
    return [_member_indices(G, s[E[:, np.argsort(s)]]) for s in gens]


def _member_indices(G, M):
    """`G.index_of(M)` for rows that must lie in G."""
    idx = G.index_of(M)
    if (idx < 0).any():
        raise IntegrityError("a computed element lies outside its group")
    return idx


def _index_set(G, M):
    return frozenset(_member_indices(G, M).tolist())


def _subgroup_of_rows(degree, rows):
    """The subgroup whose elements are `rows`, with a greedy generating set.

    Rows are image sequences, scanned in the given order; each one not yet
    generated becomes a generator, so the order fixes the generators.  Once
    the generated order reaches the row count, every row is located in the
    group in one sweep; the rows must be members and pairwise distinct.
    """
    rows = np.asarray(rows, dtype=DTYPE)
    target = len(rows)
    gens = []
    K = PermGroup(degree, [])
    pos = 0
    while pos < target and K.order() < target:
        images = tuple(int(v) for v in rows[pos])
        if not K.contains_images(images):
            gens.append(images)
            K = PermGroup(degree, gens)
        pos += 1
    idx = K.index_of(rows)
    if K.order() != target or (idx < 0).any():
        raise IntegrityError("rows are not closed under the group operation")
    seen = np.zeros(target, dtype=bool)
    seen[idx] = True
    if not seen.all():
        raise IntegrityError("rows repeat an element")
    return K


def _transporter_mask(G, K, L, lo=0, hi=None):
    """Mask over G's elements lo:hi of the g with g K g^-1 inside L."""
    mask = np.ones(len(G.elements()[lo:hi]), dtype=bool)
    for k in K.generators:
        mask &= L.rows_in(G.conjugation_sweep(k, lo, hi))
    return mask


def _first_hit(G, hits):
    """Index of the first element of G where the block mask `hits(lo, hi)`
    is true, or -1.

    G's lex-sorted elements are scanned in blocks of `_SCAN_BLOCK` rows, and
    the scan stops at the first block with a hit, so the answer is the one
    a mask over all of G would give.
    """
    n = G.order()
    for lo in range(0, n, _SCAN_BLOCK):
        mask = hits(lo, min(lo + _SCAN_BLOCK, n))
        if mask.any():
            return lo + int(mask.argmax())
    return -1


def centralizer(G, x):
    """Centralizer of a permutation x in G, as a PermGroup; G itself when x
    is central.  Memoized on G by x's images."""
    return _centralizer(G, tuple(int(v) for v in x))


@_memo
def _centralizer(G, images):
    E = G.elements()
    xa = np.asarray(images, dtype=DTYPE)
    mask = np.all(E[:, xa] == xa[E], axis=1)
    if mask.all():
        return G
    return _subgroup_of_rows(G.degree, E[mask])


def normalizer(G, K):
    """N_G(K) for a subgroup K on the same points; memoized by K's generators."""
    return _normalizer(G, K.generators)


@_memo
def _normalizer(G, gen_images):
    K = PermGroup(G.degree, gen_images)
    return _subgroup_of_rows(G.degree, G.elements()[_transporter_mask(G, K, K)])


@_memo
def sylow_subgroup(G, p):
    """A Sylow p-subgroup, deterministic for a fixed abstract group.

    Normalizer ascent: starting from the trivial subgroup, adjoin the first
    element (in element order) of the current normalizer whose p-th power
    falls back into the subgroup, until the full p-part is reached.
    Memoized on G.
    """
    E = G.elements()
    S = PermGroup(G.degree, [])
    target = p ** v_p(G.order(), p)

    def extends(lo, hi):
        hit = _transporter_mask(G, S, S, lo, hi)
        idx = np.flatnonzero(hit)
        candidates = E[lo:hi][idx]
        power = candidates
        for _ in range(p - 1):
            power = np.take_along_axis(candidates, power, axis=1)
        hit[idx] = ~S.rows_in(candidates) & S.rows_in(power)
        return hit

    while S.order() < target:
        i = _first_hit(G, extends)
        if i < 0:
            raise IntegrityError("normalizer ascent found no p-extension")
        S = PermGroup(G.degree, S.generators + (E[i],))
    return S


def intersection_set_maxima(G, P, H):
    """Maximal members of {P ∩ tPt^{-1} : t ∈ G ∖ H}, as a list of subgroups
    of P.

    Their downward closure under subgroups and conjugacy is the full
    intersection set of the triple (G, P, H).  Requires N = N_G(P) ≤ H;
    raises ValueError otherwise.  H = G yields no maxima (the intersection
    set is empty).

    With N ≤ H, tPt^{-1} = hPh^{-1} for an h ∈ H puts h^{-1}t in N ≤ H, so
    t ∉ H exactly when tPt^{-1} is a G-conjugate of P but no H-conjugate:
    the conjugates tPt^{-1} are the G-orbit of P minus its H-orbit.  The
    orbits have |G : N| and |H : N ∩ H| members, so N ≤ H holds exactly
    when |orbit_G| |H| = |orbit_H| |G|.
    """
    if not P.is_subgroup_of(H):
        raise ValueError("H does not contain the normalizer of P")
    if H.order() == G.order():
        return []
    E = G.elements()
    in_G = _member_indices(G, H.elements())
    p_set = _index_set(G, P.elements())
    conj_G = _conjugates_of_set(G, p_set)
    conj_H = {frozenset(in_G[list(Q)].tolist())
              for Q in _conjugates_of_set(H, _index_set(H, P.elements()))}
    if len(conj_G) * H.order() != len(conj_H) * G.order():
        raise ValueError("H does not contain the normalizer of P")
    # G-indices of P's elements ascend with P's own, so sets of either kind
    # sort alike and list the same rows
    return [_subgroup_of_rows(G.degree, E[sorted(s)])
            for s in _maximal_sets(p_set & Q for Q in conj_G - conj_H)]


def _maximal_sets(sets):
    """The containment-maximal members of `sets`, without repeats, ordered
    by decreasing size and then by sorted members."""
    kept = []
    for s in sorted(set(sets), key=lambda s: (-len(s), sorted(s))):
        if not any(s <= big for big in kept):
            kept.append(s)
    return kept


def _conjugates_of_set(group, iset):
    """All conjugates, under `group`, of a set of its element indices."""
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


def _qualifying_copies(group, maxima):
    """The containment-maximal conjugates, under `group`, of the maxima, as
    sets of element indices in `group`.

    A p-subgroup of `group` qualifies exactly when it lies in one of them.
    """
    return _maximal_sets(
        c for S in maxima
        for c in _conjugates_of_set(group, _index_set(group, S.elements()))
    )


def _p_part_exponent(order, p):
    # exponent e with x^e = (p-part of x) for x of the given order
    pv = p ** v_p(order, p)
    if pv == 1:
        return 0
    rest = order // pv
    return (rest * pow(rest, -1, pv)) % order


def _distinct_subgroups(group, subgroups):
    """One subgroup per element set (the first met), ordered by order and
    then by sorted element indices."""
    found = {}
    for sub in subgroups:
        found.setdefault(_index_set(group, sub.elements()), sub)
    return [found[k] for k in sorted(found, key=lambda s: (len(s), sorted(s)))]


def qualifying_elementary_subgroups(group, p, maxima):
    """A family of elementary subgroups spanning the induced-character lattice.

    Elementary means (ℓ-group) x (cyclic ℓ'-group) for a single prime ℓ.  A
    subgroup qualifies when its p-part is conjugate, inside `group`, to a
    subgroup in the downward closure of `maxima`, a list of p-subgroups of
    `group` (the intersection-set maxima).  Inductions from the returned
    family span the same lattice as inductions from all qualifying
    subgroups (only containment-maximal members are kept, which leaves the
    span unchanged).

    For a p'-element c ≠ 1 and T = Sylow_p(C(c)), the members ⟨c⟩ x F take
    F among the maximal sets T ∩ c' over the conjugates c' of the maxima:
    each c' is a subgroup, so T ∩ c' qualifies, and every qualifying F ≤ T
    lies in some T ∩ c'.  These are exactly the largest qualifying
    subgroups of T.

    With maxima = [Sylow_p(group)] every p-subgroup qualifies, and the
    family is Brauer's: ⟨c⟩ x Sylow_ℓ(C(c)) for every prime ℓ dividing the
    order and every class of ℓ'-elements c, with the same element sets in
    the same order.
    """
    copies = _qualifying_copies(group, maxima)
    if not copies:
        return []
    degree = group.degree
    E = group.elements()
    classes = group.class_data()
    subs = []

    for ell in prime_factors(group.order()):
        if ell == p:
            continue
        for c in classes:
            if c.rep_order % ell == 0:
                continue
            rep = c.representative
            p_part = _perm_power(rep, _p_part_exponent(c.rep_order, p))
            # copies are subgroups: ⟨x⟩ lies in one exactly when x does
            x = int(group.index_of([p_part])[0])
            if not any(x in copy for copy in copies):
                continue
            C = centralizer(group, rep)
            S = sylow_subgroup(C, ell)
            subs.append(PermGroup(degree, [rep] + list(S.generators)))

    for c in classes:
        if c.rep_order % p == 0:
            continue
        rep = c.representative
        if c.rep_order == 1:
            # the maxima that no copy strictly contains
            subs.extend(S for S in maxima if _index_set(group, S.elements()) in copies)
            continue
        T = _index_set(group, sylow_subgroup(centralizer(group, rep), p).elements())
        for F in _maximal_sets(T & copy for copy in copies):
            sub = _subgroup_of_rows(degree, E[sorted(F)])
            subs.append(PermGroup(degree, [rep] + list(sub.generators)))

    return _distinct_subgroups(group, subs)


def product_group(A, B):
    """Direct product acting on the disjoint union of the factors' points.

    Factor A keeps its points; factor B is shifted up by A's degree.  The
    result's order is checked to be |A|*|B|.
    """
    dA, dB = A.degree, B.degree
    gens = [g + tuple(range(dA, dA + dB)) for g in A.generators]
    gens += [tuple(range(dA)) + tuple(x + dA for x in g) for g in B.generators]
    P = PermGroup(dA + dB, gens)
    if P.order() != A.order() * B.order():
        raise IntegrityError("product order differs from the product of the orders")
    return P


def split_product_images(images, left_degree):
    """Inverse of the `product_group` embedding: factor images of a pair."""
    left = tuple(images[:left_degree])
    right = tuple(x - left_degree for x in images[left_degree:])
    return left, right
