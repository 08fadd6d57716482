"""Exact verification of the four cyclic actions on the doubly-punctured
torus (C*)^2 and their quotient surfaces.

For k in {2, 3, 4, 6}, h_matrix(k) is an order-k integer matrix: the
induced action on first homology.  Every check below is derived from it.
The order-k automorphism sigma_k of (C*)^2 is the monomial map with
exponent matrix h, the invariant map pibar_k onto an affine surface in C^3
sums sigma-orbits of seed monomials, and the fixed points of sigma^j are
the torsion points (e^(2 pi i u), e^(2 pi i v)) with h^j (u, v) = (u, v)
mod 1, |det(h^j - I)| of them.

The checks run on plain integers, so each one is an exact identity, not a
tolerance test.  A point is a quadruple (a, b, c, d), s = a/b and t = c/d;
sigma^j raises numerators and denominators to the exponents of h^j,
swapping the two for a negative exponent.  pibar is (X, Y, Z)/L with
L = (abcd)^E, E the largest |exponent| of the seed orbits, so s^i t^j
becomes a^(E+i) b^(E-i) times c^(E+j) d^(E-j); these separable factors are
tabulated once per point, for |i|, |j| <= E, and the surface polynomial is
evaluated homogenised by L.  Points and images are compared by
cross-multiplying, so no sign needs normalising.  The formulas take entries
from any ring: (S, 1, T, 1), for Laurent polynomials S and T, is the
generic point.  Every point with nontrivial isotropy has angles in
(1/2)Z or (1/3)Z, so a fixed point is a pair of residues mod 6, its angles
in sixths of a turn.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import BadK

VALID_K = (2, 3, 4, 6)


def _check_k(k: int) -> None:
    if k not in VALID_K:
        raise BadK(f"k must be one of {VALID_K}, got {k}")


def _monomial(q: tuple, i: int, j: int) -> tuple:
    """s^i t^j at q, as a numerator and a denominator."""
    a, b, c, d = q
    if i < 0:
        a, b, i = b, a, -i
    if j < 0:
        c, d, j = d, c, -j
    return a**i * c**j, b**i * d**j


def _sigma(h: Mat2, q: tuple) -> tuple:
    """The monomial map with exponent matrix h, (s, t) -> (s^h00 t^h01,
    s^h10 t^h11), at q = (a, b, c, d), in the same form."""
    return (*_monomial(q, *h[0]), *_monomial(q, *h[1]))


def _same_point(p: tuple, q: tuple) -> bool:
    return p[0] * q[1] == q[0] * p[1] and p[2] * q[3] == q[2] * p[3]


# Each coordinate of pibar_k is the orbit sum of one seed monomial s^i t^j.
# For k = 6 the (3, 2) orbit is one of the two roots of the quintic
# (quadratic in z); the mirror choice, the (3, 1) orbit, is the other root.
_PIBAR_SEEDS = {
    2: ((1, 0), (0, 1), (1, 1)),
    3: ((1, 0), (0, 1), (1, 1)),
    4: ((1, 0), (1, 1), (2, 1)),
    6: ((1, 0), (2, 1), (3, 2)),
}


def _pibar_orbits(k: int, h: Mat2) -> tuple[list, int]:
    """Each seed's sigma-orbit, an exponent pair (i, j) given as the table
    indices (e + i, e + j) of `_pibar`, and e, the largest |exponent|:
    composing with sigma sends the row (i, j) to (i, j) h."""
    (a, b), (c, d) = h
    orbits = [[seed] for seed in _PIBAR_SEEDS[k]]
    for orbit in orbits:
        while len(orbit) < k:
            i, j = orbit[-1]
            orbit.append((i * a + j * c, i * b + j * d))
    e = max(abs(x) for orbit in orbits for pair in orbit for x in pair)
    return [[(e + i, e + j) for i, j in orbit] for orbit in orbits], e


def _pibar(orbits: list, e: int, q: tuple) -> tuple:
    """pibar at q as (X, Y, Z, L) with pibar = (X, Y, Z)/L: the orbit sums
    times L = (abcd)^e, which makes every exponent nonnegative.  The term
    s^i t^j L is s[e + i] t[e + j], with s[e + i] = a^(e+i) b^(e-i) and
    t[e + j] = c^(e+j) d^(e-j) for -e <= i, j <= e."""
    a, b, c, d = q
    n = 2 * e
    s = [a**m * b**(n - m) for m in range(n + 1)]
    t = [c**m * d**(n - m) for m in range(n + 1)]
    return (*[sum([s[i] * t[j] for i, j in orbit]) for orbit in orbits], s[e] * t[e])


def _same_image(u: tuple, v: tuple) -> bool:
    return all(x * v[3] == y * u[3] for x, y in zip(u[:3], v[:3]))


# The defining polynomial of each quotient surface, as {(a, b, e): c} for
# the terms c x^a y^b z^e.  The quintic for k = 6 has 19 terms.
_SURFACES = {
    2: {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (1, 1, 1): -1, (0, 0, 0): -4},
    3: {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 2): 1, (1, 1, 1): -1, (1, 1, 0): -6,
        (0, 0, 1): 3, (0, 0, 0): 9},
    4: {(4, 0, 0): 1, (2, 1, 0): -7, (0, 3, 0): 1, (1, 1, 1): -1, (2, 0, 0): -3,
        (0, 2, 0): 8, (1, 0, 1): 2, (0, 0, 2): 1, (0, 1, 0): 16},
    6: {(5, 0, 0): 1, (4, 0, 0): 1, (3, 1, 0): -8, (3, 0, 0): -23, (2, 1, 0): -9,
        (1, 2, 0): 14, (0, 3, 0): 1, (2, 0, 1): 2, (1, 1, 1): -1, (2, 0, 0): -20,
        (1, 1, 0): 82, (0, 2, 0): 31, (1, 0, 1): -2, (0, 1, 1): -4, (0, 0, 2): 1,
        (1, 0, 0): 120, (0, 1, 0): 132, (0, 0, 1): -12, (0, 0, 0): 144},
}


def surface_residual(k: int, q):
    """The defining polynomial of the quotient surface, homogenised, at
    q = (X, Y, Z, L): L^deg times its value at (X, Y, Z)/L, which is zero
    iff that point lies on the surface.  pibar gives this form, and a point
    (x, y, z) of C^3 is (x, y, z, 1).  The coordinates are not coerced, so
    any ring that takes integer coefficients can stand in for them."""
    _check_k(k)
    x, y, z, w = q
    terms = _SURFACES[k]
    deg = max(map(sum, terms))
    return sum(c * x**a * y**b * z**e * w**(deg - a - b - e) for (a, b, e), c in terms.items())


# A fixed point is an angle pair (u, v) of residues mod 6 standing for the
# torsion point (e^(pi i u/3), e^(pi i v/3)): 0 is 1, 3 is -1, 2 is omega.
_P2 = ((0, 0), (3, 3), (0, 3), (3, 0))


def fixed_point_set(k: int) -> tuple[tuple[int, int], ...]:
    """Points of (C*)^2 with nontrivial isotropy under the order-k action,
    as angle pairs in sixths of a turn."""
    _check_k(k)
    if k in (2, 4):
        return _P2
    if k == 3:
        return ((0, 0), (2, 4), (4, 2))
    return _P2 + ((2, 2), (4, 4))


Mat2 = tuple[tuple[int, int], tuple[int, int]]

_H_MATRICES: dict[int, Mat2] = {
    2: ((-1, 0), (0, -1)),
    3: ((0, -1), (1, -1)),
    4: ((0, -1), (1, 0)),
    6: ((1, 1), (-1, 0)),
}


def h_matrix(k: int) -> Mat2:
    """Matrix of the induced action on the rank-2 homology lattice."""
    _check_k(k)
    return _H_MATRICES[k]


def mat_mul(m: Mat2, n: Mat2) -> Mat2:
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


MAT_IDENTITY: Mat2 = ((1, 0), (0, 1))


def mat_order(m: Mat2) -> int | None:
    """The order of m when it is at most 24, else None (a 2x2 integer
    matrix of finite order has order 1, 2, 3, 4 or 6)."""
    power = m
    for j in range(1, 25):
        if power == MAT_IDENTITY:
            return j
        power = mat_mul(power, m)
    return None


def _act_mod6(m: Mat2, r: tuple[int, int]) -> tuple[int, int]:
    """The monomial map with exponent matrix m on the torsion point whose
    angles, in sixths of a turn, are r: (u, v) -> m (u, v) mod 6."""
    (a, b), (c, d) = m
    u, v = r
    return (a * u + b * v) % 6, (c * u + d * v) % 6


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class WallpaperReport:
    k: int
    samples: int
    seed: int
    passed: bool
    checks: tuple[CheckResult, ...]


def sample_points(samples: int, seed: int):
    """Deterministic rational sample points (a, b, c, d), s = a/b and
    t = c/d in lowest terms, with numerators and denominators in [1, 1000],
    drawn one at a time; the value 1 is excluded per coordinate so no sample
    shares a coordinate with a fixed point."""
    rng = random.Random(seed)

    def coordinate() -> tuple[int, int]:
        while True:
            num = rng.randrange(1, 1001)
            den = rng.randrange(1, 1001)
            if num != den:
                g = math.gcd(num, den)
                return num // g, den // g

    for _ in range(samples):
        yield (*coordinate(), *coordinate())


def _show(q: tuple) -> str:
    return "({}/{}, {}/{})".format(*q)


def run_wallpaper_suite(k: int, samples: int, seed: int) -> WallpaperReport:
    """All exact checks for one k: the action has order k and acts freely on
    generic points, the invariant map really is invariant and lands on the
    printed surface, the printed fixed points are exactly the points with
    nontrivial isotropy, the homology matrix has order k, and (spot check)
    no sample point hits the image of (1,1), the total ramification point.
    Each sigma^j(p) is the monomial map of h^j at p, never sigma iterated."""
    _check_k(k)
    if samples < 1:
        raise ValueError("need at least one sample")
    h = h_matrix(k)
    powers = [MAT_IDENTITY, h]  # h^j, the exponent matrix of sigma^j, for j = 0..k
    while len(powers) <= k:
        powers.append(mat_mul(powers[-1], h))
    orbits, bound = _pibar_orbits(k, h)
    base_image = _pibar(orbits, bound, (1, 1, 1, 1))
    failed: dict[str, str] = {}  # check name -> the detail of its first failure
    for q in sample_points(samples, seed):
        # q, sigma(q), ..., sigma^(k-1)(q), plus sigma^k(q) at the end
        orbit = [q] + [_sigma(power, q) for power in powers[1:]]
        image = _pibar(orbits, bound, q)
        if not _same_point(orbit[k], q):
            failed.setdefault("sigma_order", f"sigma^{k} moved {_show(q)}")
        if not all(_same_image(_pibar(orbits, bound, p), image) for p in orbit[1:k]):
            failed.setdefault("pibar_invariance", f"pibar not constant on orbit of {_show(q)}")
        if surface_residual(k, image) != 0:
            failed.setdefault("image_on_surface", f"image of {_show(q)} off the surface")
        if any(_same_point(p, q) for p in orbit[1:k]):
            failed.setdefault("generic_points_free", f"nontrivial power fixes sample {_show(q)}")
        if _same_image(image, base_image):
            failed.setdefault("total_ramification_spot",
                              f"sample {_show(q)} maps to the image of (1,1)")
    checks = [
        CheckResult(name, name not in failed, failed.get(name, total))
        for name, total in (
            ("sigma_order", f"sigma^{k} = id on {samples} samples"),
            ("pibar_invariance", f"{samples} orbits"),
            ("image_on_surface", f"{samples} exact residuals = 0"),
            ("generic_points_free", f"{samples} free orbits"),
            ("total_ramification_spot", "no sample hits the image of (1,1)"),
        )
    ]

    # each printed point is fixed by some h^j, 0 < j < k, and h^j fixes
    # exactly |det(h^j - I)| of them, the size of Fix(sigma^j): so the
    # printed set is all of the points with nontrivial isotropy
    printed = set(fixed_point_set(k))
    isotropic, count_failures = set(), []
    for j, power in enumerate(powers[1:k], 1):
        fixed = {r for r in printed if _act_mod6(power, r) == r}
        (a, b), (c, d) = power
        size = abs((a - 1) * (d - 1) - b * c)
        if len(fixed) != size:
            count_failures.append(f"{len(fixed)} printed points fixed by sigma^{j}, not {size}")
        isotropic |= fixed
    failures = [f"({u}/6, {v}/6) not fixed by any nontrivial power"
                for u, v in sorted(printed - isotropic)] + count_failures
    checks.append(CheckResult("fixed_points_fixed", not failures,
                              failures[0] if failures else f"{len(printed)} points"))

    order = mat_order(h)
    checks.append(
        CheckResult(
            "h_matrix_order",
            order == k,
            f"order {order}" if order == k else f"expected order {k}, got {order}",
        )
    )

    return WallpaperReport(
        k=k,
        samples=samples,
        seed=seed,
        passed=all(c.passed for c in checks),
        checks=tuple(checks),
    )
