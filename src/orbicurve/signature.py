"""Orbifold signatures and their basic invariants.

A signature (g, r, m) names the orbifold fundamental group of a genus-g
curve with r punctures and marked points of multiplicities m.  Everything
here is exact: Euler characteristics are `fractions.Fraction`, orders are
Python ints.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import MalformedSignature


@dataclass(frozen=True)
class OrbSignature:
    """Signature (g, r, m): genus, punctures, multiplicities (each >= 2)."""

    g: int
    r: int
    m: tuple[int, ...] = ()

    def __post_init__(self):
        try:
            values = (self.g, self.r, *self.m)
            if any(isinstance(x, bool) for x in values):
                raise TypeError
            g, r, *m = map(operator.index, values)
        except TypeError:
            raise MalformedSignature(f"g, r and m's entries must be integers: {self}") from None
        for name, value in (("g", g), ("r", r), ("m", tuple(m))):
            object.__setattr__(self, name, value)
        if g < 0 or r < 0:
            raise MalformedSignature(f"g and r must be non-negative: {self}")
        if min(m, default=2) < 2:
            raise MalformedSignature(
                f"multiplicity entries must be >= 2 (punctures go in r): {self}"
            )
        if m != sorted(m):
            raise MalformedSignature(f"multiplicities must be sorted: {self}")

    @property
    def n(self) -> int:
        return len(self.m)


def euler_characteristic(sig: OrbSignature) -> Fraction:
    """Orbifold Euler characteristic 2 - 2g - r - sum(1 - 1/m_i), exact:
    one Fraction over den = lcm(m), whose numerator is
    (2 - 2g - r - n) den + sum(den / m_i)."""
    den = lcm(*sig.m)
    return Fraction((2 - 2 * sig.g - sig.r - sig.n) * den + sum(den // e for e in sig.m), den)


class Infinite:
    """Singleton marker for infinite group order."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinite"


INFINITE = Infinite()


def is_finite_cyclic(sig: OrbSignature) -> bool:
    """Whether the group is a finite cyclic group.

    These are exactly the signatures where the classification theorem for
    (g, r, m) tuples does not apply: compact ones with g = 0 and at most
    two marked points, and open ones that are a single finite cyclic factor.
    """
    if sig.r == 0:
        return sig.g == 0 and sig.n <= 2
    return 2 * sig.g + sig.r - 1 == 0 and sig.n <= 1


def finite_order(sig: OrbSignature, chi: Fraction | None = None) -> int | Infinite:
    """Order of the group, or INFINITE; `chi`, if given, is
    euler_characteristic(sig).

    G is finite exactly when chi > 0.  chi > 0 leaves g = 0 with r = 1 and
    n <= 1, or r = 0 and n <= 3, so apart from the finite cyclic groups
    (`is_finite_cyclic`) these are the spherical triangle groups.  Such a G
    acts on the sphere with quotient orbifold of Euler characteristic chi,
    so |G| chi = chi(S^2) = 2: order 2n for (2,2,n), and 12, 24 and 60 for
    (2,3,3), (2,3,4) and (2,3,5).
    """
    if is_finite_cyclic(sig):
        if sig.r >= 1:
            return sig.m[0] if sig.m else 1
        return gcd(*sig.m) if sig.n == 2 else 1
    if chi is None:
        chi = euler_characteristic(sig)
    return 2 * chi.denominator // chi.numerator if chi > 0 else INFINITE  # 2 / chi


class KindName(enum.Enum):
    SPHERICAL = "spherical"
    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class Kind:
    """Sign class of the Euler characteristic plus finiteness data."""

    name: KindName
    order: int | None  # None when the group is infinite

    @property
    def finite(self) -> bool:
        return self.order is not None


def classify_kind(sig: OrbSignature) -> Kind:
    """Spherical / Euclidean / hyperbolic by the sign of chi.

    The sign dichotomy extends to punctured signatures: the group is finite
    (a finite cyclic group when r >= 1) exactly when chi > 0.
    """
    chi = euler_characteristic(sig)
    if chi > 0:
        name = KindName.SPHERICAL
    elif chi == 0:
        name = KindName.EUCLIDEAN
    else:
        name = KindName.HYPERBOLIC
    order = finite_order(sig, chi)
    return Kind(name, None if order is INFINITE else order)


class NinfVerdict(enum.Enum):
    SATISFIES = "satisfies"
    FAILS = "fails"


@dataclass(frozen=True)
class NinfStatus:
    """Whether every nontrivial normal subgroup of infinite index is
    infinitely generated."""

    verdict: NinfVerdict
    witness: str | None = None


_NINF_WITNESS = "<translation> ~ Z normal, f.g., infinite index"


def satisfies_ninf(sig: OrbSignature) -> NinfStatus:
    """NINF fails exactly when r = 0, chi = 0 and lcm(m) <= 2: for the
    torus and (2,2,2,2).  Every other group satisfies it.

    - chi > 0: G is finite, so every subgroup has finite index.
    - r >= 1, chi = 0: G is Z (r = 2) or D_inf = Z_2 * Z_2 (m = (2,2)).
      A nontrivial subgroup of Z has finite index; a nontrivial normal
      subgroup of D_inf holds a nontrivial translation (the product of a
      reflection and its conjugate by a translation), so it too has finite
      index.
    - chi < 0: G is a finitely generated Fuchsian group of the first kind,
      with a cusp per puncture, and a nontrivial finitely generated normal
      subgroup of such a group has finite index (Greenberg, "Discrete
      groups of motions", Canad. J. Math. 12 (1960)).
    - r = 0, chi = 0: G = Z^2 x|_h Z_k, translations by the lattice Z^2
      and a rotation acting on it by h, with k = lcm(m): h = I for the
      torus and h = `wallpaper.h_matrix(k)` for (2,2,2,2), (3,3,3), (2,4,4)
      and (2,3,6).  When h has an eigenvalue +-1, which is k <= 2 (h = I or
      -I), each translation t spans an h-invariant line, so <t> ~ Z is
      normal and finitely generated of infinite index: the witness.  For
      k = 3, 4, 6 let N be a normal subgroup of infinite index.
      1. N n Z^2 is normal, so h-invariant, and has rank below 2, else N
         has finite index.
      2. An h-invariant subgroup of rank 1 is spanned by an eigenvector of
         h with eigenvalue +-1.  The characteristic polynomials
         x^2 + x + 1, x^2 + 1 and x^2 - x + 1 of h for k = 3, 4, 6 have no
         root +-1, so N n Z^2 = 1.
      3. N then embeds in G / Z^2 = Z_k, so N is finite.
      4. A nontrivial finite group of orientation-preserving plane
         isometries fixes exactly one point (the centroid of an orbit).
         Conjugating N by a translation moves that point, yet leaves N
         unchanged, so N = 1.
      So G has no nontrivial normal subgroup of infinite index, and NINF
      holds vacuously.
    """
    if sig.r == 0 and lcm(*sig.m) <= 2 and euler_characteristic(sig) == 0:
        return NinfStatus(NinfVerdict.FAILS, _NINF_WITNESS)
    return NinfStatus(NinfVerdict.SATISFIES)
