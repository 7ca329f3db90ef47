"""Finite permutation groups with exact, deterministic invariants.

Elements are permutations of {0, ..., degree-1} stored as image tuples.
Bulk work (conjugacy sweeps, normalizer scans) runs on a lexicographically
sorted numpy matrix holding every group element, so most operations here
assume the group order fits the element budget.  Public outputs are
deterministic functions of the abstract group and its degree, never of the
generator presentation, unless noted otherwise.
"""

from dataclasses import dataclass, field
from math import lcm

import numpy as np

DTYPE = np.int16

DEFAULT_ORDER_BUDGET = 10**6


class BudgetExceeded(RuntimeError):
    pass


def _mul(a, b):
    # apply b first, then a
    return tuple(a[x] for x in b)


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


def _key(images):
    return np.asarray(images, dtype=DTYPE).tobytes()


def _from_key(key):
    return tuple(int(x) for x in np.frombuffer(key, dtype=DTYPE))


def v_p(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


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


class Permutation:
    """Immutable permutation given by its image tuple on {0..n-1}."""

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = tuple(int(x) for x in images)

    @classmethod
    def identity(cls, degree):
        return cls(range(degree))

    @classmethod
    def from_one_based(cls, images):
        return cls(x - 1 for x in images)

    def one_based(self):
        return [x + 1 for x in self.images]

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        return self.images[point]

    def __mul__(self, other):
        return Permutation(_mul(self.images, other.images))

    def inverse(self):
        return Permutation(_inv(self.images))

    def __pow__(self, k):
        if k < 0:
            return Permutation(_perm_power(_inv(self.images), -k))
        return Permutation(_perm_power(self.images, k))

    def order(self):
        return _perm_order(self.images)

    def is_identity(self):
        return all(i == x for i, x in enumerate(self.images))

    def conjugate(self, other):
        # self * other * self^{-1}
        return Permutation(_conj(self.images, other.images))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def cycles(self):
        n = self.degree
        seen = [False] * n
        out = []
        for i in range(n):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cyc)


class _Level:
    __slots__ = ("base", "gens", "transversal")

    def __init__(self, base):
        self.base = base
        self.gens = []  # strong generators first needed at this level
        self.transversal = {}


class PermGroup:
    """Permutation group with a deterministic stabilizer chain.

    The element matrix returned by :meth:`elements` is sorted
    lexicographically, which makes "first element such that ..." scans
    presentation-independent.
    """

    def __init__(self, degree, generators=()):
        self.degree = int(degree)
        gens = []
        seen = set()
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != self.degree:
                raise ValueError("generator degree mismatch")
            if g.is_identity() or g.images in seen:
                continue
            seen.add(g.images)
            gens.append(g)
        self.generators = tuple(gens)
        self._levels = None
        self._order = None
        self._elem = None
        self._einv = None
        self._index = None
        self._classes = None
        self._class_ids = None

    # -- stabilizer chain --------------------------------------------------

    def _identity(self):
        return tuple(range(self.degree))

    def _chain(self):
        if self._levels is not None:
            return self._levels
        ident = self._identity()
        levels = []

        def level_gens(i):
            # strong generators available to the i-th stabilizer
            return [g for lvl in levels[i:] for g in lvl.gens]

        def rebuild(i):
            lvl = levels[i]
            gens = level_gens(i)
            lvl.transversal = {lvl.base: ident}
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

        def strip(g):
            for i, lvl in enumerate(levels):
                pt = g[lvl.base]
                if pt not in lvl.transversal:
                    return g, i
                g = _mul(_inv(lvl.transversal[pt]), g)
            return g, len(levels)

        def augment(g, at):
            if at == len(levels):
                base = min(i for i, x in enumerate(g) if x != i)
                levels.append(_Level(base))
            levels[at].gens.append(g)
            for j in range(at + 1):
                rebuild(j)

        for g in self.generators:
            r, at = strip(g.images)
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
                        rep = lvl.transversal[h[lvl.base]]
                        r, at = strip(_mul(_inv(rep), h))
                        if r != ident:
                            augment(r, at)
                            dirty = True
                            break
                    if dirty:
                        break
                if dirty:
                    break

        self._levels = levels
        return levels

    def order(self):
        if self._order is None:
            o = 1
            for lvl in self._chain():
                o *= len(lvl.transversal)
            self._order = o
        return self._order

    def contains_images(self, images):
        g = tuple(images)
        ident = self._identity()
        for lvl in self._chain():
            pt = g[lvl.base]
            if pt not in lvl.transversal:
                return False
            g = _mul(_inv(lvl.transversal[pt]), g)
        return g == ident

    def __contains__(self, perm):
        if isinstance(perm, Permutation):
            perm = perm.images
        return self.contains_images(perm)

    def is_subgroup_of(self, other):
        return all(g.images in other for g in self.generators)

    # -- full element matrix -------------------------------------------------

    def elements(self, budget=None):
        """All elements as a lexicographically sorted (order x degree) matrix."""
        if self._elem is not None:
            return self._elem
        if budget is not None and self.order() > budget:
            raise BudgetExceeded(f"group order {self.order()} exceeds budget {budget}")
        levels = self._chain()
        E = np.arange(self.degree, dtype=DTYPE)[None, :]
        for lvl in reversed(levels):
            blocks = []
            for pt in sorted(lvl.transversal):
                u = np.asarray(lvl.transversal[pt], dtype=DTYPE)
                blocks.append(u[E])
            E = np.vstack(blocks)
        E = np.ascontiguousarray(E[np.lexsort(E.T[::-1])])
        assert len(E) == self.order()
        self._elem = E
        return E

    def element_index(self):
        if self._index is None:
            E = self.elements()
            self._index = {row.tobytes(): i for i, row in enumerate(E)}
        return self._index

    def element_keys(self):
        return self.element_index().keys()

    def inverses(self):
        if self._einv is None:
            self._einv = np.ascontiguousarray(
                np.argsort(self.elements(), axis=1).astype(DTYPE)
            )
        return self._einv

    def conjugation_sweep(self, images):
        """Rows g k g^{-1} for every element g, with k fixed."""
        E, Einv = self.elements(), self.inverses()
        k = np.asarray(images, dtype=DTYPE)
        return np.take_along_axis(E, k[Einv], axis=1)

    def rows_in(self, M, keys):
        M = np.ascontiguousarray(M)
        return np.fromiter((row.tobytes() in keys for row in M), bool, len(M))

    # -- classes ---------------------------------------------------------------

    def class_data(self, budget=None):
        if self._classes is None:
            conjugacy_classes(self, budget_order=budget or DEFAULT_ORDER_BUDGET)
        return self._classes

    def class_ids(self):
        self.class_data()
        return self._class_ids

    def class_of_key(self, key):
        return int(self.class_ids()[self.element_index()[key]])

    def class_of(self, perm):
        images = perm.images if isinstance(perm, Permutation) else perm
        return self.class_of_key(_key(images))

    def exponent(self):
        return lcm(*(c.rep_order for c in self.class_data()))

    def subgroup(self, gens):
        return PermGroup(self.degree, gens)

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


@dataclass
class ConjClassData:
    representative: Permutation
    size: int
    rep_order: int
    power_map: dict = field(default_factory=dict)
    centralizer_order: int = 0


@dataclass
class IntersectionSetMaxima:
    """Containment-maximal intersections P ∩ tPt^{-1} over cosets t outside H.

    The downward closure of `maxima` under subgroups and conjugacy is the
    full intersection set of the triple (G, P, H).
    """

    maxima: list

    def key_sets(self):
        return [frozenset(S.element_keys()) for S in self.maxima]


def group_from_generators(data):
    """Build a PermGroup from {"degree": n, "generators": [[1-based images]]}."""
    degree = int(data.get("ambient", data["degree"]))
    gens = []
    for images in data["generators"]:
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError("generator is not a permutation of 1..n")
        if len(images) > degree:
            raise ValueError("generator degree exceeds ambient degree")
        padded = list(images) + list(range(len(images) + 1, degree + 1))
        gens.append(Permutation.from_one_based(padded))
    return PermGroup(degree, gens)


def conjugacy_classes(G, budget_order=DEFAULT_ORDER_BUDGET):
    """Conjugacy classes in a canonical order.

    Classes are sorted by (element order, class size, lexicographically
    smallest member); the representative is that smallest member.
    """
    if G._classes is not None:
        return G._classes
    if G.order() > budget_order:
        raise BudgetExceeded(f"order {G.order()} exceeds class budget {budget_order}")
    E = G.elements()
    index = G.element_index()
    n = len(E)
    class_id = np.full(n, -1, dtype=np.int32)
    gens = [g.images for g in G.generators]
    raw = []
    for i in range(n):
        if class_id[i] >= 0:
            continue
        start = tuple(int(x) for x in E[i])
        seen = {start}
        queue = [start]
        while queue:
            x = queue.pop()
            for s in gens:
                y = _conj(s, x)
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        cid = len(raw)
        for member in seen:
            class_id[index[_key(member)]] = cid
        raw.append((start, len(seen)))

    orders = [_perm_order(rep) for rep, _ in raw]
    ranked = sorted(range(len(raw)), key=lambda c: (orders[c], raw[c][1], raw[c][0]))
    remap = np.empty(len(raw), dtype=np.int32)
    for new, old in enumerate(ranked):
        remap[old] = new
    class_id = remap[class_id]

    classes = []
    for old in ranked:
        rep, size = raw[old]
        classes.append(
            ConjClassData(
                representative=Permutation(rep),
                size=size,
                rep_order=orders[old],
                centralizer_order=G.order() // size,
            )
        )
    G._classes = classes
    G._class_ids = class_id
    for c in classes:
        rep = c.representative.images
        for q in prime_factors(G.order()):
            c.power_map[q] = G.class_of_key(_key(_perm_power(rep, q)))
    return classes


def class_of_power(G, class_index, k):
    """Index of the class containing rep^k, rep the given class representative."""
    rep = G.class_data()[class_index].representative.images
    return G.class_of_key(_key(_perm_power(rep, k)))


def _subgroup_of_rows(degree, rows):
    """The subgroup whose elements are `rows`, with a greedy generating set.

    Rows are image sequences, scanned in the given order; each one not yet
    generated becomes a generator, so the order fixes the generators.
    """
    target = len(rows)
    gens = []
    K = PermGroup(degree, [])
    for row in rows:
        if K.order() == target:
            break
        images = tuple(int(v) for v in row)
        if not K.contains_images(images):
            gens.append(Permutation(images))
            K = PermGroup(degree, gens)
    assert K.order() == target, "rows are not closed under the group operation"
    return K


def centralizer(G, x):
    """Centralizer of a permutation x in G, as a PermGroup."""
    E = G.elements()
    xa = np.asarray(x.images if isinstance(x, Permutation) else x, dtype=DTYPE)
    mask = np.all(E[:, xa] == xa[E], axis=1)
    return _subgroup_of_rows(G.degree, E[mask])


def normalizer(G, K):
    """Normalizer N_G(K) of a subgroup K given on the same points."""
    E = G.elements()
    kkeys = set(K.element_keys())
    mask = np.ones(len(E), dtype=bool)
    for k in K.generators:
        mask &= G.rows_in(G.conjugation_sweep(k.images), kkeys)
    return _subgroup_of_rows(G.degree, E[mask])


def _closure_keys(gen_tuples, degree):
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    gen_tuples = [g for g in gen_tuples if g != ident]
    while frontier:
        new = []
        for x in frontier:
            for s in gen_tuples:
                y = _mul(s, x)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return {_key(x) for x in seen}


def sylow_subgroup(G, p):
    """A Sylow p-subgroup, deterministic for a fixed abstract group.

    Normalizer ascent: starting from the trivial subgroup, adjoin the first
    element (in element order) of the current normalizer whose p-th power
    falls back into the subgroup, until the full p-part is reached.
    """
    v = v_p(G.order(), p)
    if v == 0:
        return PermGroup(G.degree, [])
    E = G.elements()
    gens = []
    s_keys = {_key(range(G.degree))}
    while len(s_keys) < p**v:
        if gens:
            mask = np.ones(len(E), dtype=bool)
            for k in gens:
                mask &= G.rows_in(G.conjugation_sweep(k.images), s_keys)
            candidates = E[mask]
        else:
            candidates = E
        found = None
        for row in candidates:
            key = np.ascontiguousarray(row).tobytes()
            if key in s_keys:
                continue
            images = tuple(int(x) for x in row)
            if _key(_perm_power(images, p)) in s_keys:
                found = images
                break
        assert found is not None, "normalizer ascent found no p-extension"
        gens.append(Permutation(found))
        s_keys = _closure_keys([g.images for g in gens], G.degree)
    return PermGroup(G.degree, gens)


def intersection_set_maxima(G, P, H):
    """Maximal members of {P ∩ tPt^{-1} : t a coset rep of N_G(P), t ∉ H}.

    Requires N_G(P) ≤ H; raises ValueError otherwise.  H = G yields no
    maxima (the intersection set is empty).
    """
    N = normalizer(G, P)
    hkeys = set(H.element_keys())
    for g in N.generators:
        if _key(g.images) not in hkeys:
            raise ValueError("H does not contain the normalizer of P")
    if H.order() == G.order():
        return IntersectionSetMaxima(maxima=[])

    E = G.elements()
    NE = N.elements()
    pkeys = set(P.element_keys())
    p_elems = [_from_key(k) for k in sorted(pkeys)]
    visited = set()
    seen_inters = set()
    for row in E:
        key = row.tobytes()
        if key in visited:
            continue
        coset = np.asarray(row)[NE]
        for r in coset:
            visited.add(r.tobytes())
        if key in hkeys:
            continue
        timg = tuple(int(x) for x in row)
        inter = set()
        for x in p_elems:
            ky = _key(_conj(timg, x))
            if ky in pkeys:
                inter.add(ky)
        seen_inters.add(frozenset(inter))

    maxima, kept = [], []
    for kset in sorted(seen_inters, key=lambda s: (-len(s), sorted(s))):
        if any(kset <= big for big in kept):
            continue
        kept.append(kset)
        rows = [_from_key(k) for k in sorted(kset)]
        maxima.append(_subgroup_of_rows(G.degree, rows))
    return IntersectionSetMaxima(maxima=maxima)


def _orbit_of_keyset(group, kset):
    """All conjugates of an element-key set under the given group."""
    gens = [g.images for g in group.generators]
    seen = {kset}
    frontier = [kset]
    while frontier:
        new = []
        for S in frontier:
            members = [_from_key(k) for k in S]
            for s in gens:
                T = frozenset(_key(_conj(s, x)) for x in members)
                if T not in seen:
                    seen.add(T)
                    new.append(T)
        frontier = new
    return seen


class QualificationTester:
    """Decides whether a p-subgroup is conjugate into the intersection set.

    Conjugacy is taken inside `group` (G for the source lattice, H for the
    target lattice); the intersection-set maxima live inside P in either
    case.
    """

    def __init__(self, group, s_maxima):
        self.original = s_maxima.key_sets()
        merged = set()
        for kset in self.original:
            merged |= _orbit_of_keyset(group, kset)
        self.copies = []
        for c in sorted(merged, key=lambda s: (-len(s), sorted(s))):
            if not any(c <= big for big in self.copies):
                self.copies.append(c)
        self.nonempty = bool(self.copies)

    def qualifies_keys(self, keys):
        return any(keys <= c for c in self.copies)

    def qualifies_element(self, images, degree):
        if all(i == x for i, x in enumerate(images)):
            return self.nonempty
        return self.qualifies_keys(_closure_keys([images], degree))

    def maximal_original_reps(self, group):
        """Original maxima that are not strictly contained in any copy."""
        out = []
        for kset in self.original:
            if not any(kset < c for c in self.copies):
                rows = [_from_key(k) for k in sorted(kset)]
                out.append(_subgroup_of_rows(group.degree, rows))
        return out


def _p_part_exponent(order, p):
    # exponent e with x^e = (p-part of x) for x of the given order
    pv = p ** v_p(order, p)
    if pv == 1:
        return 0
    rest = order // pv
    return (rest * pow(rest, -1, pv)) % order


def _frattini_maximal_subgroups(F_keys, degree):
    """Maximal subgroups of a p-group given by its element keys."""
    members = [_from_key(k) for k in sorted(F_keys)]
    order = len(members)
    ps = prime_factors(order)
    assert len(ps) == 1, "maximal-subgroup descent expects a p-group"
    p = ps[0]
    ident = tuple(range(degree))
    phi_gens = [_perm_power(a, p) for a in members]
    for a in members:
        for b in members:
            phi_gens.append(_mul(_inv(_mul(b, a)), _mul(a, b)))
    phi = _closure_keys(phi_gens, degree)

    coset_of = {}
    reps = []
    phi_members = [_from_key(k) for k in phi]
    for m in members:
        if _key(m) in coset_of:
            continue
        cid = len(reps)
        reps.append(m)
        for ph in phi_members:
            coset_of[_key(_mul(m, ph))] = cid

    base_cid = coset_of[_key(ident)]
    coords = {base_cid: ()}
    r = 0
    for rep in reps:
        cid = coset_of[_key(rep)]
        if cid in coords:
            continue
        labeled = list(coords.items())
        coords = {c: vec + (0,) for c, vec in labeled}
        power = ident
        for e in range(1, p):
            power = _mul(rep, power)
            for c, vec in labeled:
                target = coset_of[_key(_mul(power, reps[c]))]
                coords[target] = vec + (e,)
        r += 1
    assert len(coords) == len(reps)
    if r == 0:
        return []

    out = []
    for w in _projective_vectors(p, r):
        sub = frozenset(
            _key(m)
            for m in members
            if sum(a * b for a, b in zip(coords[coset_of[_key(m)]], w)) % p == 0
        )
        out.append(sub)
    return out


def _projective_vectors(p, r):
    """One representative per line in F_p^r, first nonzero entry scaled to 1."""
    out = []
    vec = [0] * r
    def rec(i):
        if i == r:
            if any(vec):
                first = next(x for x in vec if x)
                if first == 1:
                    out.append(tuple(vec))
            return
        for c in range(p):
            vec[i] = c
            rec(i + 1)
        vec[i] = 0
    rec(0)
    return sorted(out)


def _maximal_qualifying_psubgroups(T_keys, degree, tester):
    """Containment-maximal qualifying subgroups of the p-group with keys T_keys."""
    if not tester.nonempty:
        return []
    out = []
    seen = set()
    stack = [frozenset(T_keys)]
    while stack:
        F = stack.pop()
        if F in seen:
            continue
        seen.add(F)
        if tester.qualifies_keys(F):
            out.append(F)
            continue
        if len(F) == 1:
            continue
        stack.extend(_frattini_maximal_subgroups(F, degree))
    kept = []
    for F in sorted(set(out), key=lambda s: (-len(s), sorted(s))):
        if not any(F <= big for big in kept):
            kept.append(F)
    return kept


def qualifying_elementary_subgroups(group, p, P, s_maxima):
    """A family of elementary subgroups spanning the induced-character lattice.

    Elementary means (ℓ-group) x (cyclic ℓ'-group) for a single prime ℓ.  A
    subgroup qualifies when its p-part is conjugate, inside `group`, to a
    subgroup in the downward closure of the intersection-set maxima.
    Inductions from the returned family span the same lattice as inductions
    from all qualifying subgroups (only containment-maximal members are
    kept, which leaves the span unchanged).
    """
    tester = QualificationTester(group, s_maxima)
    if not tester.nonempty:
        return []
    degree = group.degree
    classes = group.class_data()
    found = {}

    def record(gen_perms):
        sub = PermGroup(degree, gen_perms)
        kset = frozenset(sub.element_keys())
        if kset not in found:
            found[kset] = sub

    for ell in prime_factors(group.order()):
        if ell == p:
            continue
        for c in classes:
            if c.rep_order % ell == 0:
                continue
            rep = c.representative
            p_part = _perm_power(rep.images, _p_part_exponent(c.rep_order, p))
            if not tester.qualifies_element(p_part, degree):
                continue
            C = centralizer(group, rep)
            S = sylow_subgroup(C, ell)
            record([rep] + list(S.generators))

    for c in classes:
        if c.rep_order % p == 0:
            continue
        rep = c.representative
        if c.rep_order == 1:
            for S in tester.maximal_original_reps(group):
                record(list(S.generators))
            continue
        C = centralizer(group, rep)
        T = sylow_subgroup(C, p)
        for F in _maximal_qualifying_psubgroups(frozenset(T.element_keys()), degree, tester):
            rows = [_from_key(k) for k in sorted(F)]
            sub = _subgroup_of_rows(degree, rows)
            record([rep] + list(sub.generators))

    return [found[k] for k in sorted(found, key=lambda s: (len(s), sorted(s)))]


def elementary_covering_family(group):
    """Elementary subgroups whose inductions span all virtual characters.

    One subgroup ⟨c⟩ x Sylow_ℓ(C(c)) per prime ℓ dividing the order and per
    class of ℓ'-elements c.
    """
    found = {}
    for ell in prime_factors(group.order()):
        for c in group.class_data():
            if c.rep_order % ell == 0:
                continue
            rep = c.representative
            C = centralizer(group, rep)
            S = sylow_subgroup(C, ell)
            sub = PermGroup(group.degree, [rep] + list(S.generators))
            kset = frozenset(sub.element_keys())
            if kset not in found:
                found[kset] = sub
    return [found[k] for k in sorted(found, key=lambda s: (len(s), sorted(s)))]


def product_group(A, B):
    """Direct product acting on the disjoint union of the factors' points.

    Factor A keeps its points; factor B is shifted up by A's degree.  The
    result's order is asserted to be |A|*|B|.
    """
    dA, dB = A.degree, B.degree
    gens = []
    for g in A.generators:
        gens.append(Permutation(tuple(g.images) + tuple(range(dA, dA + dB))))
    for g in B.generators:
        gens.append(Permutation(tuple(range(dA)) + tuple(x + dA for x in g.images)))
    P = PermGroup(dA + dB, gens)
    assert P.order() == A.order() * B.order()
    return P


def split_product_images(images, left_degree):
    """Inverse of the `product_group` embedding: factor images of a pair."""
    left = tuple(images[:left_degree])
    right = tuple(x - left_degree for x in images[left_degree:])
    return left, right
