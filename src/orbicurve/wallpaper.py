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
"""

from __future__ import annotations

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


def _monomials(p: TorusPoint, exponents) -> list[Fraction]:
    """s^i t^j at p for each (i, j)."""
    return [p.s**i * p.t**j for i, j in exponents]


def apply_sigma(k: int, p: TorusPoint) -> TorusPoint:
    """One step of the order-k automorphism: the monomial map whose
    exponent matrix is h_matrix(k), (s, t) -> (s^a t^b, s^c t^d)."""
    return TorusPoint(*_monomials(p, h_matrix(k)))


# Each coordinate of pibar_k is the orbit sum of one seed monomial s^i t^j:
# composing with sigma sends the exponent row (i, j) to (i, j) * h_matrix(k).
# For k = 6 the (3, 2) orbit is one of the two roots of the quintic
# (quadratic in z); the mirror choice, the (3, 1) orbit, is the other root.
_PIBAR_SEEDS = {
    2: ((1, 0), (0, 1), (1, 1)),
    3: ((1, 0), (0, 1), (1, 1)),
    4: ((1, 0), (1, 1), (2, 1)),
    6: ((1, 0), (2, 1), (3, 2)),
}


def apply_pibar(k: int, p: TorusPoint) -> tuple[Fraction, Fraction, Fraction]:
    """The invariant map onto the quotient surface, evaluated exactly."""
    (a, b), (c, d) = h_matrix(k)
    exponents = []
    for i, j in _PIBAR_SEEDS[k]:
        for _ in range(k):
            exponents.append((i, j))
            i, j = i * a + j * c, i * b + j * d
    terms = _monomials(p, exponents)
    return tuple(sum(terms[n + 1 : n + k], terms[n]) for n in range(0, len(terms), k))


def surface_residual(k: int, q):
    """Defining polynomial of the quotient surface at q = (x, y, z); zero
    iff q lies on the surface.  The coordinates are not coerced, so any
    ring that takes integer coefficients can stand in for them."""
    _check_k(k)
    x, y, z = q
    if k == 2:
        return x * x + y * y + z * z - x * y * z - 4
    if k == 3:
        return x**3 + y**3 + z * z - x * y * z - 6 * x * y + 3 * z + 9
    if k == 4:
        return (
            x**4 - 7 * x * x * y + y**3 - x * y * z
            - 3 * x * x + 8 * y * y + 2 * x * z + z * z + 16 * y
        )
    # the quintic for k = 6, all 19 terms
    return (
        x**5 + x**4 - 8 * x**3 * y - 23 * x**3 - 9 * x * x * y
        + 14 * x * y * y + y**3 + 2 * x * x * z - x * y * z
        - 20 * x * x + 82 * x * y + 31 * y * y - 2 * x * z
        - 4 * y * z + z * z + 120 * x + 132 * y - 12 * z + 144
    )


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


def mat_order(m: Mat2, cap: int = 24) -> int | None:
    power = m
    for j in range(1, cap + 1):
        if power == MAT_IDENTITY:
            return j
        power = mat_mul(power, m)
    return None


def act_on_angles(m: Mat2, q: Angles) -> Angles:
    """The monomial map with exponent matrix m on the torsion point with
    angles q: (u, v) -> m (u, v) mod 1."""
    (a, b), (c, d) = m
    u, v = q
    return ((a * u + b * v) % 1, (c * u + d * v) % 1)


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


def _orbit(k: int, p: TorusPoint) -> list[TorusPoint]:
    """p, sigma(p), ..., sigma^(k-1)(p), plus sigma^k(p) at the end."""
    out = [p]
    for _ in range(k):
        out.append(apply_sigma(k, out[-1]))
    return out


def run_wallpaper_suite(k: int, samples: int, seed: int) -> WallpaperReport:
    """All exact checks for one k: the action has order k and acts freely on
    generic points, the invariant map really is invariant and lands on the
    printed surface, the printed fixed points are exactly the points with
    nontrivial isotropy, the homology matrix has order k, and (spot check)
    no sample point hits the image of (1,1), the total ramification point."""
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
    base_image = apply_pibar(k, TorusPoint.of(1, 1))
    for p in points:
        orbit = _orbit(k, p)
        if orbit[k] != p:
            sigma_failures.append(f"sigma^{k} moved {p}")
        image = apply_pibar(k, p)
        for q in orbit[1:k]:
            if apply_pibar(k, q) != image:
                invariance_failures.append(f"pibar not constant on orbit of {p}")
                break
        if surface_residual(k, image) != 0:
            surface_failures.append(f"image of {p} off the surface")
        if any(orbit[j] == p for j in range(1, k)):
            free_failures.append(f"nontrivial power fixes sample {p}")
        if image == base_image:
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
    isotropic, count_failures = set(), []
    h = power = h_matrix(k)
    for j in range(1, k):
        fixed = {q for q in printed if act_on_angles(power, q) == q}
        (a, b), (c, d) = power
        size = abs((a - 1) * (d - 1) - b * c)
        if len(fixed) != size:
            count_failures.append(f"{len(fixed)} printed points fixed by sigma^{j}, not {size}")
        isotropic |= fixed
        power = mat_mul(power, h)
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
