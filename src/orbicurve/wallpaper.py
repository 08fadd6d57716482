"""Exact verification of the four cyclic actions on the doubly-punctured
torus (C*)^2 and their quotient surfaces.

For k in {2, 3, 4, 6}, h_matrix(k) is an order-k integer matrix: the
induced action on first homology.  Every check below is derived from it.
The order-k automorphism sigma_k of (C*)^2 is the monomial map with
exponent matrix h, the invariant map pibar_k onto an affine surface in C^3
sums sigma-orbits of seed monomials, and the fixed points of sigma^j are
the torsion points (e^(2 pi i u), e^(2 pi i v)) with h^j (u, v) = (u, v)
mod 1, |det(h^j - I)| of them.  Sample points are rational and fixed
points are angle pairs in (Q/Z)^2, so every check is an exact identity,
not a tolerance test.

The checks run on plain integers.  A point is a quadruple (a, b, c, d),
s = a/b and t = c/d, not reduced; sigma^j raises numerators and
denominators to the exponents of h^j, swapping the two for a negative
exponent.  pibar is (X, Y, Z)/L with L = (abcd)^E, E the largest |exponent|
of the seed orbits, so s^i t^j becomes a^(E+i) b^(E-i) c^(E+j) d^(E-j), and
the surface polynomial is evaluated homogenised by L.  Points and images are
compared by cross-multiplying, so no sign needs normalising.  A fixed angle
pair is a pair of residues mod the lcm N of the printed denominators.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadK

VALID_K = (2, 3, 4, 6)


def _check_k(k: int) -> None:
    if k not in VALID_K:
        raise BadK(f"k must be one of {VALID_K}, got {k}")


@dataclass(frozen=True)
class TorusPoint:
    """A rational point of (C*)^2: both coordinates nonzero."""

    s: Fraction
    t: Fraction

    def __post_init__(self):
        if self.s == 0 or self.t == 0:
            raise ValueError("torus points have nonzero coordinates")

    @classmethod
    def of(cls, s, t) -> "TorusPoint":
        return cls(Fraction(s), Fraction(t))

    def __repr__(self):
        return f"TorusPoint(s={self.s}, t={self.t})"


def _quad(p: TorusPoint) -> tuple:
    """(a, b, c, d) with s = a/b and t = c/d: integers at a rational point,
    and the coordinates over 1 in any other ring."""
    if isinstance(p.s, Fraction) and isinstance(p.t, Fraction):
        return p.s.numerator, p.s.denominator, p.t.numerator, p.t.denominator
    return p.s, 1, p.t, 1


def _ratio(num, den):
    return Fraction(num, den) if isinstance(num, int) and isinstance(den, int) else num / den


def _monomial(q: tuple, i: int, j: int) -> tuple:
    """s^i t^j at q, as a numerator and a denominator."""
    a, b, c, d = q
    if i < 0:
        a, b, i = b, a, -i
    if j < 0:
        c, d, j = d, c, -j
    return a**i * c**j, b**i * d**j


def _sigma(h: Mat2, q: tuple) -> tuple:
    return (*_monomial(q, *h[0]), *_monomial(q, *h[1]))


def _same_point(p: tuple, q: tuple) -> bool:
    return p[0] * q[1] == q[0] * p[1] and p[2] * q[3] == q[2] * p[3]


def apply_sigma(k: int, p: TorusPoint) -> TorusPoint:
    """One step of the order-k automorphism: the monomial map whose
    exponent matrix is h_matrix(k), (s, t) -> (s^a t^b, s^c t^d)."""
    a, b, c, d = _sigma(h_matrix(k), _quad(p))
    return TorusPoint(_ratio(a, b), _ratio(c, d))


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
    """The exponents of each seed's sigma-orbit, and the largest |exponent|
    among them: composing with sigma sends the row (i, j) to (i, j) h."""
    (a, b), (c, d) = h
    orbits = [[seed] for seed in _PIBAR_SEEDS[k]]
    for orbit in orbits:
        while len(orbit) < k:
            i, j = orbit[-1]
            orbit.append((i * a + j * c, i * b + j * d))
    return orbits, max(abs(e) for orbit in orbits for pair in orbit for e in pair)


def _pibar(orbits: list, e: int, q: tuple) -> tuple:
    """pibar at q as (X, Y, Z, L) with pibar = (X, Y, Z)/L: the orbit sums
    times L = (abcd)^e, which makes every exponent nonnegative."""
    a, b, c, d = q
    sums = (
        sum(a**(e + i) * b**(e - i) * c**(e + j) * d**(e - j) for i, j in orbit)
        for orbit in orbits
    )
    return (*sums, (a * b * c * d)**e)


def _same_image(u: tuple, v: tuple) -> bool:
    return all(x * v[3] == y * u[3] for x, y in zip(u[:3], v[:3]))


def apply_pibar(k: int, p: TorusPoint) -> tuple[Fraction, Fraction, Fraction]:
    """The invariant map onto the quotient surface, evaluated exactly."""
    *xyz, scale = _pibar(*_pibar_orbits(k, h_matrix(k)), _quad(p))
    return tuple(_ratio(x, scale) for x in xyz)


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


def _residual(k: int, x, y, z, w):
    """The surface polynomial homogenised by w: the polynomial at w = 1, and
    L^deg times the residual at pibar's (X, Y, Z, L)."""
    terms = _SURFACES[k]
    deg = max(map(sum, terms))
    return sum(c * x**a * y**b * z**e * w**(deg - a - b - e) for (a, b, e), c in terms.items())


def surface_residual(k: int, q):
    """Defining polynomial of the quotient surface at q = (x, y, z); zero
    iff q lies on the surface.  The coordinates are not coerced, so any
    ring that takes integer coefficients can stand in for them."""
    _check_k(k)
    return _residual(k, *q, 1)


# A fixed point is an angle pair (u, v) in [0, 1)^2 standing for the torsion
# point (e^(2 pi i u), e^(2 pi i v)): 0 is 1, 1/2 is -1, 1/3 is omega.
Angles = tuple[Fraction, Fraction]

_ZERO, _HALF, _THIRD = Fraction(0), Fraction(1, 2), Fraction(1, 3)
_P2: tuple[Angles, ...] = ((_ZERO, _ZERO), (_HALF, _HALF), (_ZERO, _HALF), (_HALF, _ZERO))


def fixed_point_set(k: int) -> tuple[Angles, ...]:
    """Points of (C*)^2 with nontrivial isotropy under the order-k action,
    as angle pairs."""
    _check_k(k)
    if k in (2, 4):
        return _P2
    if k == 3:
        return ((_ZERO, _ZERO), (_THIRD, 2 * _THIRD), (2 * _THIRD, _THIRD))
    return _P2 + ((_THIRD, _THIRD), (2 * _THIRD, 2 * _THIRD))


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


def _act_mod(m: Mat2, u, v, n):
    """(u, v) -> m (u, v) mod n, for angles in units of 1/n of a turn."""
    (a, b), (c, d) = m
    return (a * u + b * v) % n, (c * u + d * v) % n


def act_on_angles(m: Mat2, q: Angles) -> Angles:
    """The monomial map with exponent matrix m on the torsion point with
    angles q: (u, v) -> m (u, v) mod 1."""
    return _act_mod(m, *q, 1)


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


def sample_points(samples: int, seed: int) -> list[TorusPoint]:
    """Deterministic rational sample points with numerators and denominators
    in [1, 1000]; the value 1 is excluded per coordinate so no sample shares
    a coordinate with a fixed point."""
    rng = random.Random(seed)

    def coordinate() -> Fraction:
        while True:
            num = rng.randint(1, 1000)
            den = rng.randint(1, 1000)
            if num != den:
                return Fraction(num, den)

    return [TorusPoint.of(coordinate(), coordinate()) for _ in range(samples)]


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
    points = sample_points(samples, seed)
    checks: list[CheckResult] = []

    def record(name: str, failures: list[str], total: str):
        checks.append(
            CheckResult(name, not failures, failures[0] if failures else total)
        )

    sigma_failures, invariance_failures, surface_failures, free_failures = [], [], [], []
    ramification_failures = []
    h = h_matrix(k)
    powers = [MAT_IDENTITY, h]  # h^j, the exponent matrix of sigma^j, for j = 0..k
    while len(powers) <= k:
        powers.append(mat_mul(powers[-1], h))
    orbits, bound = _pibar_orbits(k, h)
    base_image = _pibar(orbits, bound, (1, 1, 1, 1))
    for p in points:
        # p, sigma(p), ..., sigma^(k-1)(p), plus sigma^k(p) at the end
        q = _quad(p)
        orbit = [q] + [_sigma(power, q) for power in powers[1:]]
        if not _same_point(orbit[k], orbit[0]):
            sigma_failures.append(f"sigma^{k} moved {p}")
        image = _pibar(orbits, bound, orbit[0])
        for q in orbit[1:k]:
            if not _same_image(_pibar(orbits, bound, q), image):
                invariance_failures.append(f"pibar not constant on orbit of {p}")
                break
        if _residual(k, *image) != 0:
            surface_failures.append(f"image of {p} off the surface")
        if any(_same_point(q, orbit[0]) for q in orbit[1:k]):
            free_failures.append(f"nontrivial power fixes sample {p}")
        if _same_image(image, base_image):
            ramification_failures.append(f"sample {p} maps to the image of (1,1)")
    record("sigma_order", sigma_failures, f"sigma^{k} = id on {samples} samples")
    record("pibar_invariance", invariance_failures, f"{samples} orbits")
    record("image_on_surface", surface_failures, f"{samples} exact residuals = 0")
    record("generic_points_free", free_failures, f"{samples} free orbits")
    record(
        "total_ramification_spot",
        ramification_failures,
        "no sample hits the image of (1,1)",
    )

    # each printed point is fixed by some h^j, 0 < j < k, and h^j fixes
    # exactly |det(h^j - I)| of them, the size of Fix(sigma^j): so the
    # printed set is all of the points with nontrivial isotropy
    printed = set(fixed_point_set(k))
    n = math.lcm(*(x.denominator for q in printed for x in q))
    residues = {q: (int(q[0] * n), int(q[1] * n)) for q in printed}
    isotropic, count_failures = set(), []
    for j, power in enumerate(powers[1:k], 1):
        fixed = {q for q, r in residues.items() if _act_mod(power, *r, n) == r}
        (a, b), (c, d) = power
        size = abs((a - 1) * (d - 1) - b * c)
        if len(fixed) != size:
            count_failures.append(f"{len(fixed)} printed points fixed by sigma^{j}, not {size}")
        isotropic |= fixed
    fixed_failures = [
        f"({u}, {v}) not fixed by any nontrivial power" for u, v in sorted(printed - isotropic)
    ]
    record("fixed_points_fixed", fixed_failures + count_failures, f"{len(printed)} points")

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
