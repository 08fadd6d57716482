"""Answers the benchmark knows without asking orbicurve.

Every certificate compares a value orbicurve computed with a value from
here: determinants by fraction-free (Bareiss) elimination, invariant
factors by determinantal divisors, Euler characteristics by the formula,
and PSL(2, q) permutation actions built from Moebius maps.  Nothing in
this module imports orbicurve.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm


def bareiss(rows) -> tuple[int, int]:
    """(det, rank) of an integer matrix by fraction-free elimination.

    det is 0 unless the matrix is square and of full rank.
    """
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    sign, prev, rank = 1, 1, 0
    for col in range(ncols):
        if rank == nrows:
            break
        pivot = next((i for i in range(rank, nrows) if a[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[pivot], a[rank] = a[rank], a[pivot]
            sign = -sign
        p = a[rank][col]
        for i in range(rank + 1, nrows):
            ai = a[i]
            f = ai[col]
            for j in range(col + 1, ncols):
                ai[j] = (p * ai[j] - f * a[rank][j]) // prev
            ai[col] = 0
        prev = p
        rank += 1
    det = sign * prev if rank == nrows == ncols else 0
    return det, rank


def mat_mul(a, b) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def invariant_factors(rows, ncols: int) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion) of Z^ncols modulo the row lattice.

    Uses determinantal divisors: d_k is the gcd of the k x k minors and the
    k-th invariant factor is d_k / d_(k-1).  Exponential in the size, so only
    for the small signature matrices.
    """
    divisors = [1]
    k = 1
    while k <= min(len(rows), ncols):
        d = 0
        for ri in combinations(range(len(rows)), k):
            for ci in combinations(range(ncols), k):
                d = gcd(d, bareiss([[rows[i][j] for j in ci] for i in ri])[0])
        if d == 0:
            break
        divisors.append(d)
        k += 1
    factors = [divisors[i] // divisors[i - 1] for i in range(1, len(divisors))]
    return ncols - len(factors), tuple(f for f in factors if f >= 2)


def signature_relation_rows(g: int, r: int, m: tuple[int, ...]) -> list[list[int]]:
    """Exponent sums of the standard relators of the signature (g, r, m).

    Columns a_1, b_1, ..., x_1..x_n, y_1..y_r; the commutators contribute
    nothing, so the long relator gives -1 on every x and y column.
    """
    n = len(m)
    ncols = 2 * g + n + r
    rows = []
    for j, mj in enumerate(m):
        row = [0] * ncols
        row[2 * g + j] = mj
        rows.append(row)
    long = [0] * (2 * g) + [-1] * (n + r)
    if any(long):
        rows.append(long)
    return rows


def euler_characteristic(g: int, r: int, m) -> Fraction:
    return 2 - 2 * g - r - sum(1 - Fraction(1, e) for e in m)


# ---------------------------------------------------------------------------
# permutations as image tuples; perm_mul(p, q) applies p first, as orbicurve
# does, so images built here can be handed to it unchanged


def perm_mul(p, q) -> tuple[int, ...]:
    return tuple(q[x] for x in p)


def perm_inverse(p) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def perm_order(p) -> int:
    """lcm of the cycle lengths."""
    seen = bytearray(len(p))
    order = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = 1
            x = p[x]
            length += 1
        order = lcm(order, length)
    return order


def mobius_perm(a: int, b: int, c: int, d: int, q: int) -> tuple[int, ...]:
    """z -> (az + b)/(cz + d) on the projective line {0..q-1, infinity = q}."""
    images = []
    for z in range(q):
        den = (c * z + d) % q
        images.append(q if den == 0 else (a * z + b) * pow(den, -1, q) % q)
    images.append(q if c % q == 0 else a * pow(c, -1, q) % q)
    return tuple(images)


def psl2_order(q: int) -> int:
    return q * (q * q - 1) // 2


def hurwitz_triple(q: int, rng) -> tuple[tuple[int, ...], ...]:
    """Images (x1, x2, x3) of orders 2, 3, 7 with x1 x2 x3 = 1 in PSL(2, q),
    q prime, acting on the q + 1 points of the projective line.

    Trace 0 gives order 2 and trace 1 order 3 in PSL(2, q); the search draws
    such matrices until their product has order 7.  The triangle group
    (2, 3, 7) is perfect, so the image is a perfect subgroup of PSL(2, q)
    with an element of order 7, which for prime q is the whole group.
    """

    def with_trace(t):
        a, b = rng.randrange(q), rng.randrange(1, q)
        d = (t - a) % q
        c = (a * d - 1) * pow(b, -1, q) % q  # so that ad - bc = 1
        return mobius_perm(a, b, c, d, q)

    while True:
        x1, x2 = with_trace(0), with_trace(1)
        x3 = perm_inverse(perm_mul(x1, x2))
        if perm_order(x1) == 2 and perm_order(x2) == 3 and perm_order(x3) == 7:
            return x1, x2, x3
