"""Brute-force cross-checks for the fast paths.

Everything here recomputes data by the most literal method available:
subgroup enumeration by join closure, the induced lattice by testing every
subgroup against the defining condition, conjugacy classes by elementwise
orbit search, an independent character table obtained by decomposing
directly-induced characters with exact lattice reduction, and the p-blocks
by testing every set of rows for a p-local central idempotent.  These are
deliberately slow and apply only to small groups.
"""

from fractions import Fraction
from functools import reduce
from math import gcd
from operator import and_

import numpy as np

from .chartab import Cyclotomic, character_table, inner_product
from .groupcore import BudgetExceeded, IntegrityError, _conj, _inv, _mul, v_p
from .lattice import IntLattice


def _check_budget(group, budget):
    n = group.order()
    if n > budget:
        raise BudgetExceeded(f"group order {n} exceeds oracle budget {budget}")


def _element_tuples(group):
    """The elements as image tuples, the oracles' own element identity."""
    return [tuple(int(x) for x in row) for row in group.elements()]


# -- subgroup enumeration -------------------------------------------------------

def all_subgroups(group, budget_order=200):
    """Every subgroup, by closing the cyclic ones under pairwise join."""
    _check_budget(group, budget_order)
    seen = {}
    frontier = []
    for row in group.elements():
        S = group.subgroup([row])
        ks = frozenset(_element_tuples(S))
        if ks not in seen:
            seen[ks] = S
            frontier.append(ks)
    while frontier:
        new = []
        items = list(seen.items())
        for ks in frontier:
            A = seen[ks]
            for ls, B in items:
                if ls <= ks:
                    continue
                J = group.subgroup(list(A.generators) + list(B.generators))
                js = frozenset(_element_tuples(J))
                if js not in seen:
                    seen[js] = J
                    new.append(js)
        frontier = new
    return sorted(seen.values(), key=lambda S: (S.order(), sorted(_element_tuples(S))))


# -- literal induced-lattice construction ---------------------------------------

def _in_intersection_set(G, P, H, Q):
    """Q belongs to the intersection set iff some element outside H moves Q
    into P; this tests the defining condition elementwise."""
    pset = set(_element_tuples(P))
    hset = set(_element_tuples(H))
    for t in _element_tuples(G):
        if t in hset:
            continue
        if all(_conj(t, q) in pset for q in Q):
            return True
    return False


def _induced_values(table, sub, subtable):
    """Values of Ind of every irreducible of sub, by the defining sum."""
    group = table.group
    m = table.exponent
    sub_lookup = {x: subtable.class_index_of(x) for x in _element_tuples(sub)}
    inverses = [tuple(int(v) for v in row) for row in group.inverses()]
    reps = [c.representative for c in table.classes]
    out = []
    for i in range(subtable.k):
        vals = [v.rebase(m) for v in subtable.irreducibles[i]]
        row = []
        for rep in reps:
            acc = Cyclotomic(m)
            for xi in inverses:
                j = sub_lookup.get(_conj(xi, rep))
                if j is not None:
                    acc = acc + vals[j]
            row.append(acc.exact_div(sub.order()))
        out.append(row)
    return out


def definition_lattice(inst, target, budget_order=200):
    """The induced lattice regenerated from its defining condition.

    Spans inductions of all irreducibles of every subgroup L of the target
    whose intersection with P is a Sylow p-subgroup of L lying in the
    intersection set.  Meant for comparison with the fast path by
    canonical form.
    """
    table = inst.table(target)
    group = table.group
    _check_budget(group, budget_order)
    pset = set(_element_tuples(inst.P))
    p = inst.p
    L = IntLattice(table.k)
    for S in all_subgroups(group, budget_order):
        inter = [x for x in _element_tuples(S) if x in pset]
        if len(inter) != p ** v_p(S.order(), p):
            continue
        if not _in_intersection_set(inst.G, inst.P, inst.H, inter):
            continue
        tS = character_table(S)
        for valrow in _induced_values(table, S, tS):
            coeffs = []
            for i in range(table.k):
                c = inner_product(table, valrow, table.irreducibles[i])
                coeffs.append(c.as_int())
            L.insert(coeffs)
    return L


# -- brute conjugacy classes -----------------------------------------------------

def brute_conjugacy_classes(group, budget_order=5000):
    """Conjugacy classes by elementwise orbit closure under the generators."""
    _check_budget(group, budget_order)
    gens = group.generators
    remaining = set(_element_tuples(group))
    classes = []
    while remaining:
        start = min(remaining)
        remaining.discard(start)
        orbit = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for g in gens:
                y = _conj(g, x)
                if y not in orbit:
                    orbit.add(y)
                    remaining.discard(y)
                    stack.append(y)
        classes.append(sorted(orbit))
    classes.sort(key=lambda c: (len(c), c[0]))
    return classes


# -- independent character table --------------------------------------------------

def _lll_reduce(gram):
    """Exact LLL on a positive definite integer Gram matrix.

    Returns the transformation U (rows are integer combinations of the
    input vectors); the Gram is updated in place under the row operations
    so no inner products are recomputed.
    """
    n = len(gram)
    B = [[Fraction(x) for x in row] for row in gram]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def shift(k, j, r):
        U[k] = [a - r * b for a, b in zip(U[k], U[j])]
        for t in range(n):
            B[k][t] -= r * B[j][t]
        for t in range(n):
            B[t][k] -= r * B[t][j]

    def swap(k):
        U[k], U[k - 1] = U[k - 1], U[k]
        B[k], B[k - 1] = B[k - 1], B[k]
        for t in range(n):
            B[t][k], B[t][k - 1] = B[t][k - 1], B[t][k]

    def gso():
        mu = [[Fraction(0)] * n for _ in range(n)]
        norms = [Fraction(0)] * n
        for i in range(n):
            for j in range(i):
                if norms[j] == 0:
                    continue
                mu[i][j] = (
                    B[i][j] - sum(mu[i][t] * mu[j][t] * norms[t] for t in range(j))
                ) / norms[j]
            norms[i] = B[i][i] - sum(mu[i][t] ** 2 * norms[t] for t in range(i))
        return mu, norms

    delta = Fraction(99, 100)
    k = 1
    guard = 0
    while k < n and guard < 50000:
        guard += 1
        mu, norms = gso()
        for j in range(k - 1, -1, -1):
            q = mu[k][j]
            r = (q.numerator * 2 + q.denominator) // (q.denominator * 2)
            if r:
                shift(k, j, r)
                mu, norms = gso()
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            swap(k)
            k = max(k - 1, 1)
    return U



def _derived_subgroup(S):
    """Commutator subgroup, as the normal closure of generator commutators."""
    gens = S.generators
    base = []
    for a in gens:
        for b in gens:
            base.append(_mul(_mul(_inv(a), _inv(b)), _mul(a, b)))
    idn = tuple(range(S.degree))
    current = [c for c in base if c != idn]
    D = S.subgroup(current)
    changed = True
    while changed:
        changed = False
        for g in gens:
            for c in list(current):
                cc = _conj(g, c)
                if not D.contains_images(cc):
                    current.append(cc)
                    D = S.subgroup(current)
                    changed = True
    return D


def _linear_characters(S, m):
    """All linear characters of S, as dicts image tuple -> value in Z[zeta_m].

    Works through the abelianization: cosets of the derived subgroup form an
    abelian group, decomposed into cyclic factors by a greedy maximal-order
    basis within each primary part.
    """
    K = _derived_subgroup(S)
    kelems = _element_tuples(K)
    coset_key = {}
    for x in _element_tuples(S):
        coset_key[x] = min(_mul(x, k) for k in kelems)
    rep = sorted(set(coset_key.values()))
    index = {cid: i for i, cid in enumerate(rep)}
    n = len(rep)

    def q_mul(i, j):
        return index[coset_key[_mul(rep[i], rep[j])]]

    one = index[coset_key[tuple(range(S.degree))]]
    orders = []
    for i in range(n):
        e, j = 1, i
        while j != one:
            j = q_mul(j, i)
            e += 1
        orders.append(e)

    primes = sorted({q for o in orders for q in _prime_divisors(o)})
    factor_gens = []
    factor_orders = []
    for q in primes:
        part = [i for i in range(n) if _only_prime(orders[i], q)]
        target = len(part)
        basis = []
        span = {one}
        size = 1
        cands = sorted(part, key=lambda i: -orders[i])
        for a in cands:
            if size == target:
                break
            if orders[a] == 1 or a in span:
                continue
            new_span = set(span)
            frontier = list(span)
            nxt = a
            while nxt != one:
                for x in frontier:
                    new_span.add(q_mul(x, nxt))
                nxt = q_mul(nxt, a)
            if len(new_span) == size * orders[a]:
                basis.append(a)
                span = new_span
                size = len(new_span)
        factor_gens.extend(basis)
        factor_orders.extend(orders[b] for b in basis)

    r = len(factor_gens)
    # exponent vectors for every coset by enumerating all basis products
    expvec = {}
    def fill(i, cur, vec):
        if i == r:
            expvec.setdefault(cur, tuple(vec))
            return
        ci = cur
        for e in range(factor_orders[i]):
            vec.append(e)
            fill(i + 1, ci, vec)
            vec.pop()
            ci = q_mul(ci, factor_gens[i])
    fill(0, one, [])
    if len(expvec) != n:
        raise IntegrityError("basis products do not reach every coset")

    chars = []
    def emit(jvec):
        vals = {}
        for key, cid in coset_key.items():
            vec = expvec[index[cid]]
            e = 0
            for ji, ei, oi in zip(jvec, vec, factor_orders):
                e = (e + ji * ei * (m // oi)) % m
            vals[key] = Cyclotomic(m, {e: 1})
        chars.append(vals)
    def walk(i, jvec):
        if i == r:
            emit(jvec)
            return
        for j in range(factor_orders[i]):
            walk(i + 1, jvec + [j])
    walk(0, [])
    return chars


def _prime_divisors(n):
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


def _only_prime(n, q):
    while n % q == 0:
        n //= q
    return n == 1


def _solve_fraction(A, b):
    """Solve A x = b by Gaussian elimination over Fraction; A nonsingular."""
    n = len(A)
    M = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(n)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[pivot] = M[pivot], M[c]
        pv = M[c][c]
        M[c] = [x / pv for x in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return [M[i][n] for i in range(n)]


def _residual_units(residuals, ip, m):
    """Norm-1 vectors in the lattice spanned by the residual class functions.

    Selects a maximal independent subset, expresses every residual in its
    coordinates, recovers the full lattice by integer row reduction there,
    and runs exact LLL on the resulting small Gram matrix.
    """
    if not residuals:
        return []
    residuals = sorted(residuals, key=lambda v: ip(v, v))
    sel = []
    gram = []
    coords = []
    for v in residuals:
        b = [ip(s, v) for s in sel]
        if sel:
            x = _solve_fraction(gram, b)
            rem = ip(v, v) - sum(xi * bi for xi, bi in zip(x, b))
        else:
            x, rem = [], ip(v, v)
        if rem == 0:
            coords.append(x)
        else:
            coords.append(None)
            sel.append(v)
            gram = [[ip(a, c) for c in sel] for a in sel]
    dim = len(sel)
    unit = 0
    rows = []
    for v, x in zip(residuals, coords):
        if x is None:
            row = [Fraction(0)] * dim
            row[unit] = Fraction(1)
            unit += 1
        else:
            row = list(x) + [Fraction(0)] * (dim - len(x))
        rows.append(row)
    den = 1
    for row in rows:
        for q in row:
            den = den * q.denominator // gcd(den, q.denominator)
    lat = IntLattice(dim)
    for row in rows:
        lat.insert([int(q * den) for q in row])
    basis = [[Fraction(c, den) for c in brow] for brow in lat.basis()]
    if not basis:
        return []
    d2 = len(basis)
    small = []
    for a in range(d2):
        row = []
        for bidx in range(d2):
            val = sum(
                basis[a][s] * basis[bidx][t] * gram[s][t]
                for s in range(dim)
                for t in range(dim)
            )
            if val.denominator != 1:
                raise IntegrityError("residual Gram matrix is not integral")
            row.append(int(val))
        small.append(row)
    U = _lll_reduce(small)
    out = []
    k = len(residuals[0])
    for urow in U:
        coeff = [
            sum(Fraction(urow[a]) * basis[a][s] for a in range(d2))
            for s in range(dim)
        ]
        cd = 1
        for q in coeff:
            cd = cd * q.denominator // gcd(cd, q.denominator)
        vec = [Cyclotomic(m) for _ in range(k)]
        for q, svec in zip(coeff, sel):
            c = int(q * cd)
            if c:
                for t in range(k):
                    vec[t] = vec[t] + svec[t] * c
        out.append([x.exact_div(cd) for x in vec])
    return out


def brute_character_table(group, budget_order=200):
    """Character table found by decomposing directly induced characters.

    Builds class functions by explicit induction sums (the trivial character
    of every subgroup and every linear character of every cyclic subgroup),
    splits off irreducibles greedily, and reduces any residual span with
    exact LLL.  Returns (classes, rows): classes as sorted lists of image
    tuples, rows as value tuples over those classes.
    """
    _check_budget(group, budget_order)
    classes = brute_conjugacy_classes(group, budget_order)
    k = len(classes)
    order = group.order()
    m = group.exponent()
    reps = [cl[0] for cl in classes]
    ident = tuple(range(group.degree))
    one = next(t for t, cl in enumerate(classes) if cl[0] == ident)

    inverses = [tuple(int(x) for x in row) for row in group.inverses()]

    def induce_from(n_sub, values):
        rows = []
        for rep in reps:
            acc = Cyclotomic(m)
            for xi in inverses:
                v = values.get(_conj(xi, rep))
                if v is not None:
                    acc = acc + v
            rows.append(acc.exact_div(n_sub))
        return rows

    pool = []
    pool_sigs = set()
    for S in all_subgroups(group, budget_order):
        for vals in _linear_characters(S, m):
            row = induce_from(S.order(), vals)
            sig = tuple(v.sort_key() for v in row)
            if sig not in pool_sigs:
                pool_sigs.add(sig)
                pool.append(row)

    sizes = [len(cl) for cl in classes]

    def ip(a, b):
        acc = Cyclotomic(m)
        for t in range(k):
            acc = acc + a[t] * b[t].conjugate() * sizes[t]
        return acc.exact_div(order).as_int()

    def subtract(a, b, c):
        return [x - y * c for x, y in zip(a, b)]

    def normalize(vec):
        if vec[one].as_int() < 0:
            vec = [x * (-1) for x in vec]
        return vec

    def signature(vec):
        return tuple(v.sort_key() for v in vec)

    found = {}

    def register(vec):
        vec = normalize(vec)
        found.setdefault(signature(vec), vec)

    def strip(vec):
        # remove all known irreducible constituents
        for chi in found.values():
            c = ip(vec, chi)
            if c:
                vec = subtract(vec, chi, c)
        return vec

    queue = pool
    for _round in range(4):
        progress = True
        while progress:
            progress = False
            nxt = []
            for vec in queue:
                vec = strip(vec)
                nrm = ip(vec, vec)
                if nrm == 0:
                    continue
                if nrm == 1:
                    register(vec)
                    progress = True
                else:
                    nxt.append(vec)
            queue = nxt
        if len(found) == k:
            break
        uniq, seen = [], set()
        for vec in queue:
            sig = signature(vec)
            if sig not in seen:
                seen.add(sig)
                uniq.append(vec)
        residuals = uniq
        for vec in _residual_units(residuals, ip, m):
            vec = strip(vec)
            if ip(vec, vec) == 1:
                register(vec)
        if len(found) == k:
            break
        # last resort: grow the pool with pointwise products
        base = list(found.values()) + residuals
        prods = []
        for i in range(len(base)):
            for j in range(i, len(base)):
                prods.append([base[i][t] * base[j][t] for t in range(k)])
        queue = residuals + prods

    if len(found) != k:
        raise BudgetExceeded(
            f"character lattice incomplete: {len(found)} of {k} irreducibles"
        )
    rows = sorted(found.values(), key=signature)
    return classes, rows


def compare_with_table(group, table, budget_order=200):
    """True iff the brute-force table matches the supplied one exactly.

    Classes are matched through representatives, rows as value-row sets.
    """
    classes, rows = brute_character_table(group, budget_order)
    if len(classes) != table.k:
        return False
    m = max(table.exponent, group.exponent())
    perm = [table.class_index_of(cl[0]) for cl in classes]
    mine = set()
    for row in rows:
        mine.add(tuple(v.rebase(m).sort_key() for v in row))
    theirs = set()
    for i in range(table.k):
        reordered = [table.irreducibles[i][j].rebase(m) for j in perm]
        theirs.add(tuple(v.sort_key() for v in reordered))
    return mine == theirs


# -- blocks from central idempotents --------------------------------------------

def brute_block_partition(table, p, budget_classes=12):
    """The p-blocks as row-index tuples, ordered by least index.

    A set S of rows is a union of blocks exactly when its central idempotent,
    with coefficient (1/|G|) sum_{chi in S} chi(1) conj chi(g_C) on the class
    C, is p-local: as the power basis is an integral basis of Z[zeta_m], when
    every power-basis coordinate of the sum is divisible by p^v_p(|G|).  The
    block of chi is the intersection of the p-local sets that contain it; all
    2^k sets are tested, and no central character or residue field is used.
    """
    k, q = table.k, p ** v_p(table.group_order, p)
    if k > budget_classes or k * q >= 1 << 63:  # int64 subset sums stay below k*q
        raise BudgetExceeded(f"{k} classes with p-part {q} exceed the block oracle "
                             f"budget of {budget_classes} classes and int64 sums")
    subsets = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    local = np.ones(1 << k, dtype=bool)
    for j in range(k):
        cols = [(table.irreducibles[i][j].conjugate() * table.degrees[i]).terms
                for i in range(k)]
        exps = sorted(set().union(*cols))
        V = np.array([[c.get(e, 0) % q for e in exps] for c in cols],
                     dtype=np.int64).reshape(k, len(exps))
        local &= ~(subsets @ V % q).any(axis=1)
    sets = np.flatnonzero(local).tolist()  # holds the set of all rows
    blocks = {reduce(and_, (s for s in sets if s >> i & 1)) for i in range(k)}
    return sorted(tuple(i for i in range(k) if b >> i & 1) for b in blocks)
