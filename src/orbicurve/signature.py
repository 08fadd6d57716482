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


def finite_order(sig: OrbSignature) -> int | Infinite:
    """Order of the group, or INFINITE.

    Finite cases: the finite cyclic groups (`is_finite_cyclic`) and the
    spherical triangle groups, dihedral (2,2,n) of order 2n and the three
    platonic ones; (2,3,5) has order 60, as coset enumeration certifies.
    """
    if is_finite_cyclic(sig):
        if sig.r >= 1:
            return sig.m[0] if sig.m else 1
        return gcd(*sig.m) if sig.n == 2 else 1
    if sig.r == sig.g == 0 and sig.n == 3:
        if sig.m[:2] == (2, 2):
            return 2 * sig.m[2]
        return {(2, 3, 3): 12, (2, 3, 4): 24, (2, 3, 5): 60}.get(sig.m, INFINITE)
    return INFINITE


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
    order = finite_order(sig)
    return Kind(name, None if order is INFINITE else order)


class NinfVerdict(enum.Enum):
    SATISFIES = "satisfies"
    FAILS = "fails"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class NinfStatus:
    """Whether every nontrivial normal subgroup of infinite index is
    infinitely generated."""

    verdict: NinfVerdict
    witness: str | None = None


# Euclidean compact signatures whose translation subgroups give an explicit
# failure witness (rotations have order <= 2, so a single translation
# generates a normal copy of Z).
_NINF_FAILS = {
    OrbSignature(1, 0, ()),
    OrbSignature(0, 0, (2, 2, 2, 2)),
}
_NINF_UNDETERMINED = {
    OrbSignature(0, 0, (3, 3, 3)),
    OrbSignature(0, 0, (2, 4, 4)),
    OrbSignature(0, 0, (2, 3, 6)),
}

_NINF_WITNESS = "<translation> ~ Z normal, f.g., infinite index"


def satisfies_ninf(sig: OrbSignature) -> NinfStatus:
    """NINF status: satisfied by every curve orbifold group that is not a
    Euclidean compact one; the torus and (2,2,2,2) groups fail with an
    explicit witness; the remaining three wallpaper triangle groups are left
    undetermined."""
    if sig in _NINF_FAILS:
        return NinfStatus(NinfVerdict.FAILS, _NINF_WITNESS)
    if sig in _NINF_UNDETERMINED:
        return NinfStatus(NinfVerdict.UNDETERMINED)
    return NinfStatus(NinfVerdict.SATISFIES)
