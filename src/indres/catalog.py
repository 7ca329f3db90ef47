"""Built-in permutation group constructors and the reference row registry.

Groups are built as concrete permutation groups whose orders are checked
at construction time (`_group`), so a wrong generating set raises
IntegrityError rather than silently producing a smaller group.
"""

from math import factorial

from .groupcore import IntegrityError, PermGroup, product_group


def _group(degree, gens, order):
    """PermGroup(degree, gens), checked to have the given order."""
    G = PermGroup(degree, gens)
    if G.order() != order:
        raise IntegrityError(f"built a group of order {G.order()}, expected {order}")
    return G


def perm_from_cycles(cycles, degree):
    """Image tuple of the permutation with the given disjoint 1-based cycles."""
    images = list(range(degree))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a - 1] = b - 1
    return tuple(images)


def symmetric(n):
    if n < 2:
        raise ValueError("need n >= 2")
    gens = [[1, 0] + list(range(2, n))]
    if n > 2:
        gens.append(list(range(1, n)) + [0])
    return _group(n, gens, factorial(n))


def alternating(n):
    if n < 3:
        raise ValueError("need n >= 3")
    three = [1, 2, 0] + list(range(3, n))
    if n % 2:
        big = list(range(1, n)) + [0]
    else:
        big = [0] + list(range(2, n)) + [1]
    return _group(n, [three, big], factorial(n) // 2)


def cyclic(n):
    return _group(n, [list(range(1, n)) + [0]], n)


def dihedral(n):
    """Dihedral group of order 2n acting on n points, n >= 3."""
    rot = list(range(1, n)) + [0]
    flip = [(n - i) % n for i in range(n)]
    return _group(n, [rot, flip], 2 * n)


def quaternion8():
    """Q8 by its left regular action; points are 1,-1,i,-i,j,-j,k,-k."""
    return _group(8, [perm_from_cycles([(1, 3, 2, 4), (5, 7, 6, 8)], 8),
                      perm_from_cycles([(1, 5, 2, 6), (3, 8, 4, 7)], 8)], 8)


def special_linear2(q):
    """SL_2(q) on the nonzero vectors of a 2-dimensional space, q prime."""
    pts = [(a, b) for a in range(q) for b in range(q) if (a, b) != (0, 0)]
    idx = {v: t for t, v in enumerate(pts)}

    def act(m):
        imgs = []
        for a, b in pts:
            imgs.append(idx[((m[0] * a + m[1] * b) % q, (m[2] * a + m[3] * b) % q)])
        return tuple(imgs)

    gens = [act((1, 1, 0, 1)), act((0, -1 % q, 1, 0))]
    return _group(len(pts), gens, q * (q - 1) * (q + 1))


def special_linear3_3():
    """SL_3(3) acting on the 13 points of the projective plane over F_3."""
    q = 3
    pts = []
    for v in [(a, b, c) for a in range(q) for b in range(q) for c in range(q)]:
        if v == (0, 0, 0):
            continue
        lead = next(x for x in v if x)
        if lead == 1:
            pts.append(v)
    idx = {v: t for t, v in enumerate(pts)}

    def act(m):
        imgs = []
        for v in pts:
            w = [sum(m[r][c] * v[c] for c in range(3)) % q for r in range(3)]
            lead = next(x for x in w if x)
            inv = pow(lead, q - 2, q)
            imgs.append(idx[tuple(x * inv % q for x in w)])
        return tuple(imgs)

    e12 = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    cyc = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    return _group(13, [act(e12), act(cyc)], 5616)


# F_9 = F_3[t] with t^2 = t + 1; elements are pairs (x, y) meaning x + y t.

def _f9_mul(a, b):
    (x, y), (u, v) = a, b
    return ((x * u + y * v) % 3, (x * v + y * u + y * v) % 3)


def _f9_add(a, b):
    return ((a[0] + b[0]) % 3, (a[1] + b[1]) % 3)


def _f9_conj(a):
    # the field automorphism x -> x^3
    x, y = a
    return ((x + y) % 3, 2 * y % 3)


def unitary3_3():
    """PSU_3(3) on the 28 isotropic points of a hermitian form over F_9."""
    F = [(x, y) for x in range(3) for y in range(3)]
    zero, one = (0, 0), (1, 0)

    def hermit(v, w):
        acc = zero
        acc = _f9_add(acc, _f9_mul(v[0], _f9_conj(w[2])))
        acc = _f9_add(acc, _f9_mul(v[1], _f9_conj(w[1])))
        acc = _f9_add(acc, _f9_mul(v[2], _f9_conj(w[0])))
        return acc

    pts = []
    for v in [(a, b, c) for a in F for b in F for c in F]:
        if v == (zero, zero, zero) or hermit(v, v) != zero:
            continue
        lead = next(x for x in v if x != zero)
        if lead == one:
            pts.append(v)
    idx = {v: t for t, v in enumerate(pts)}

    def act(m):
        imgs = []
        for v in pts:
            w = []
            for r in range(3):
                acc = zero
                for c in range(3):
                    acc = _f9_add(acc, _f9_mul(m[r][c], v[c]))
                w.append(acc)
            lead = next(x for x in w if x != zero)
            inv = next(u for u in F if _f9_mul(lead, u) == one)
            imgs.append(idx[tuple(_f9_mul(inv, x) for x in w)])
        return tuple(imgs)

    t, t1, tt = (0, 1), (1, 1), (0, 2)
    u = ((one, one, one), (zero, one, (2, 0)), (zero, zero, one))
    d = ((t, zero, zero), (zero, t1, zero), (zero, zero, tt))
    w = ((zero, zero, one), (zero, (2, 0), zero), (one, zero, zero))
    return _group(28, [act(u), act(d), act(w)], 6048)


def mathieu11():
    gens = [
        perm_from_cycles([(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)], 11),
        perm_from_cycles([(3, 7, 11, 8), (4, 10, 5, 6)], 11),
    ]
    return _group(11, gens, 7920)


def mathieu12():
    gens = [
        perm_from_cycles([(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)], 12),
        perm_from_cycles([(3, 7, 11, 8), (4, 10, 5, 6)], 12),
        perm_from_cycles([(1, 12), (2, 11), (3, 6), (4, 8), (5, 9), (7, 10)], 12),
    ]
    return _group(12, gens, 95040)


BUILDERS = {
    "S3": lambda: symmetric(3),
    "S4": lambda: symmetric(4),
    "S5": lambda: symmetric(5),
    "S6": lambda: symmetric(6),
    "S7": lambda: symmetric(7),
    "S8": lambda: symmetric(8),
    "S9": lambda: symmetric(9),
    "A4": lambda: alternating(4),
    "A5": lambda: alternating(5),
    "A6": lambda: alternating(6),
    "A7": lambda: alternating(7),
    "A8": lambda: alternating(8),
    "A9": lambda: alternating(9),
    "M11": mathieu11,
    "M12": mathieu12,
    "SL2_3": lambda: special_linear2(3),
    "SL2_5": lambda: special_linear2(5),
    "SL2_11": lambda: special_linear2(11),
    "SL2_13": lambda: special_linear2(13),
    "SL2_17": lambda: special_linear2(17),
    "SL2_19": lambda: special_linear2(19),
    "SL3_3": special_linear3_3,
    "PSU3_3": unitary3_3,
    "D8": lambda: dihedral(4),
    "D12": lambda: dihedral(6),
    "Q8": quaternion8,
    "C2xC2": lambda: product_group(cyclic(2), cyclic(2)),
    "C2xA4": lambda: product_group(cyclic(2), alternating(4)),
    "D8xC3": lambda: product_group(dihedral(4), cyclic(3)),
    "S3xS3": lambda: product_group(symmetric(3), symmetric(3)),
}


def build(name):
    try:
        return BUILDERS[name]()
    except KeyError:
        raise ValueError(f"no builder named {name!r}") from None


# Reference rows: expected invariant factors for the two quotients and the
# bijection verdict, one row per (group, p, p-subgroup choice).  Shapes are
# (free_rank, (torsion factors...)); `pieces` lists the per-block components
# when more than one block has the row's p-subgroup as a defect group.

Z = lambda r=1: (r, ())
T = lambda *d: (0, tuple(d))


def _row(group, p, q1, irc, q2, mode="sylow", table=None, suite="small", pieces=None):
    return {
        "group": group,
        "p": p,
        "mode": mode,
        "q1": q1,
        "irc": irc,
        "q2": q2,
        "table": table,
        "suite": suite,
        "pieces": pieces,
    }


REFERENCE_ROWS = [
    _row("S4", 2, Z(2), True, Z(2), table=1),
    _row("S5", 2, Z(), True, Z(), table=1),
    _row("S6", 2, Z(2), True, Z(2), table=1),
    _row("S6", 3, Z(4), True, Z(4), table=1),
    _row("S7", 2, Z(), True, Z(), table=1),
    _row("S7", 3, Z(2), True, Z(2), table=1),
    _row("S8", 2, Z(2), True, Z(), table=1),
    _row("S8", 3, Z(4), True, Z(4), table=1, pieces=([Z(2), Z(2)], [Z(2), Z(2)])),
    _row("A5", 2, Z(), True, Z(), table=1),
    _row("A6", 2, Z(), True, Z(), table=1),
    _row("A6", 3, Z(2), True, Z(2), table=1),
    _row("A7", 2, Z(), True, Z(), table=1),
    _row("A7", 3, Z(), True, Z(), table=1),
    _row("A8", 2, Z(), True, Z(), table=1),
    _row("A8", 3, Z(2), True, Z(2), table=1),
    _row("M11", 2, Z(2), True, Z(), table=2),
    _row("M11", 3, Z(2), True, Z(2), table=2),
    _row("M12", 2, Z(2), True, Z(2), table=2),
    _row("M12", 2, T(2), True, T(2), mode="block:C2xC2", table=2),
    _row("M12", 3, T(3), True, T(3), table=2),
    _row("SL2_11", 2, T(2), True, T(2), table=3),
    _row("SL2_13", 2, T(2), True, T(2), table=3),
    _row("SL2_17", 2, Z(6), True, Z(), table=3),
    _row("SL2_19", 2, T(2), True, T(2), table=3),
    _row("SL3_3", 2, Z(2), True, Z(), table=3),
    _row("PSU3_3", 2, Z(2), True, Z(2), table=3),
    _row("PSU3_3", 3, Z(5), False, Z(), table=3),
    _row("S9", 2, Z(), True, Z(), table=1, suite="extended"),
    _row("S9", 3, Z(), True, Z(), table=1, suite="extended"),
    _row("A9", 2, T(2), True, T(2), table=1, suite="extended"),
    _row("A9", 3, Z(2), True, Z(2), table=1, suite="extended"),
]


def rows_for_suite(suite):
    if suite == "small":
        return [r for r in REFERENCE_ROWS if r["suite"] == "small"]
    if suite == "extended":
        return list(REFERENCE_ROWS)
    raise ValueError(f"unknown suite {suite!r}")
