"""Torsion-free finite-index covers: index/genus arithmetic and certification.

Every curve orbifold group has a torsion-free normal subgroup of finite
index (Fenchel's conjecture); for a subgroup of index d the cover curve
satisfies 2 - 2*rho = d*chi in the compact case and 1 - rho = d*chi in the
punctured case.  `torsion_free_subgroup_rank` does that arithmetic only;
existence at a given index is certified separately from explicit
permutation data by `verify_torsion_free_kernel`.
"""

from __future__ import annotations

from math import lcm

from .cosets import (
    DEFAULT_MAX_COSETS,
    Exceeded,
    PermutationImages,
    perm_inverse,
    perm_mul,
    perm_order,
    permutation_group_order,
    verify_homomorphism,
)
from .errors import LcmNotDividing, NonIntegralRank, NotOpenGroup, frozen
from .presentations import FinitePresentation, presentation_of
from .signature import OrbSignature, euler_characteristic, finite_order


@frozen
class CoverReport:
    """Index d cover data: rho is the cover genus when compact, the free
    rank of its fundamental group otherwise."""

    d: int
    rho: int
    compact: bool


def torsion_free_subgroup_rank(sig: OrbSignature, d: int) -> CoverReport:
    """Necessary arithmetic for a torsion-free normal subgroup of index d.

    Each torsion generator must inject into the quotient, so lcm(m) | d;
    the cover invariant rho must come out a non-negative integer.  Raises
    when either fails: no such cover exists at that index.
    """
    if d < 1:
        raise ValueError("index must be >= 1")
    torsion_lcm = lcm(*sig.m)
    if d % torsion_lcm:
        raise LcmNotDividing(
            f"index {d} is not a multiple of lcm{sig.m} = {torsion_lcm}"
        )
    chi = euler_characteristic(sig)
    rho = 1 - d * chi / 2 if sig.r == 0 else 1 - d * chi
    if rho.denominator != 1:
        raise NonIntegralRank(f"no integral cover invariant at index {d}: rho = {rho}")
    rho = int(rho)
    if rho < 0:
        raise NonIntegralRank(f"cover invariant would be negative at index {d}")
    return CoverReport(d=d, rho=rho, compact=sig.r == 0)


def lcm_cover_for_free_product(sig: OrbSignature) -> CoverReport:
    """The index-lcm(m) cover of an open group.

    Map each finite cyclic free factor faithfully into the cyclic group of
    order d = lcm(m) and the free generators to the identity.  Since
    gcd_j(d/m_j) = 1 the map is onto, the kernel has index d, and every
    torsion element (conjugate into a finite free factor) survives, so the
    kernel is torsion-free of rank 1 - d*chi.
    """
    if sig.r == 0:
        raise NotOpenGroup("the lcm cover construction needs r >= 1")
    d = lcm(*sig.m)
    return torsion_free_subgroup_rank(sig, d)


@frozen
class KernelCheck:
    """Outcome of certifying a permutation quotient's kernel."""

    verdict: str  # "torsion_free_kernel" | "not_homomorphism" | "torsion_in_kernel"
    index: int | None = None
    generator: int | None = None  # 1-based offending torsion generator


def verify_torsion_free_kernel(
    sig: OrbSignature,
    images: PermutationImages,
    cap: int = DEFAULT_MAX_COSETS,
) -> KernelCheck | Exceeded:
    """Certify that the kernel of the permutation quotient is torsion-free.

    Checks that the images satisfy the relators, then that the image of each
    torsion generator has its full order.  The long relator goes first,
    through `verify_homomorphism`, whose products are C-level gathers.  Then
    one cycle walk (`perm_order`) per torsion generator decides both its
    relator x_j^m_j (the order divides m_j) and whether the order is m_j.
    A failed relator, of either kind, makes the verdict not_homomorphism
    before any torsion generator is blamed.  Every finite-order element is
    conjugate to a power of a torsion generator for hyperbolic and Euclidean
    compact groups and for all open groups, so that condition is exactly
    kernel torsion-freeness there.  A spherical compact group is finite, so
    its kernel is torsion-free exactly when it is trivial: every relator is
    checked by `verify_homomorphism`, and the verdict is torsion_free_kernel
    exactly when the image has the group's order (`finite_order`), else
    torsion_in_kernel, with no generator to blame.

    The index is the order of the image group, by Schreier-Sims
    (`permutation_group_order`).  Exceeded(cap) is returned when that order
    passes `cap`; the cap trips on a lower bound of the order, before memory
    grows.  A cap below 1 is refused before any verdict.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    p = presentation_of(sig)
    spherical = sig.r == 0 and euler_characteristic(sig) > 0
    if spherical:
        if not verify_homomorphism(p, images):
            return KernelCheck("not_homomorphism")
    else:
        # the long relator; the relators x_j^m_j follow from the orders below
        if not verify_homomorphism(
                FinitePresentation._from_reduced(p.generators, p.relators[len(sig.m):]), images):
            return KernelCheck("not_homomorphism")
        x0 = 2 * sig.g
        orders = list(map(perm_order, images.images[x0:x0 + len(sig.m)]))
        if any(mj % k for mj, k in zip(sig.m, orders)):
            return KernelCheck("not_homomorphism")
        for j, (mj, k) in enumerate(zip(sig.m, orders)):
            if k != mj:
                return KernelCheck("torsion_in_kernel", generator=j + 1)
    order = permutation_group_order(images, cap)
    if isinstance(order, Exceeded):
        return order
    if spherical and order != finite_order(sig):
        return KernelCheck("torsion_in_kernel")
    return KernelCheck("torsion_free_kernel", index=order)


# ---------------------------------------------------------------------------
# explicit fixture: the (2,3,7) action on the projective line over F_7


def _mobius_perm(matrix, prime: int) -> tuple[int, ...]:
    """Permutation of the projective line {0..p-1, infinity=p} induced by an
    invertible 2x2 matrix over F_p."""
    (a, b), (c, d) = matrix
    if (a * d - b * c) % prime == 0:
        raise ValueError("matrix is singular mod p")
    images = []
    for z in range(prime):
        num = (a * z + b) % prime
        den = (c * z + d) % prime
        images.append(prime if den == 0 else num * pow(den, -1, prime) % prime)
    # image of infinity
    images.append(prime if c % prime == 0 else a * pow(c, -1, prime) % prime)
    return tuple(images)


def projective_triangle_fixture() -> PermutationImages:
    """Images for the (2, 3, 7) triangle presentation acting on the 8 points
    of the projective line over the 7-element field.

    x1 = z -> -1/z (order 2), x2 = z -> (z-1)/z (order 3); their product is
    the translation z -> z+1, so x3 = its inverse has order 7 and the three
    satisfy x1 x2 x3 = 1.  The generated group is PSL(2,7), of order 168.
    """
    p1 = _mobius_perm(((0, -1), (1, 0)), 7)
    p2 = _mobius_perm(((1, -1), (1, 0)), 7)
    p3 = perm_inverse(perm_mul(p1, p2))
    return PermutationImages(8, (p1, p2, p3))
