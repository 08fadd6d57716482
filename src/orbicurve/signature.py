"""Orbifold signatures and their basic invariants.

A signature (g, r, m) names the orbifold fundamental group of a genus-g
curve with r punctures and marked points of multiplicities m.  Everything
here is exact: Euler characteristics are `fractions.Fraction`, orders are
Python ints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import MalformedSignature


@dataclass(frozen=True)
class OrbSignature:
    """Signature (g, r, m): genus, punctures, multiplicities (each >= 2)."""

    g: int
    r: int
    m: tuple[int, ...] = ()

    def __post_init__(self):
        if self.g < 0 or self.r < 0:
            raise MalformedSignature(f"g and r must be non-negative: {self}")
        object.__setattr__(self, "m", tuple(int(e) for e in self.m))
        for e in self.m:
            if e < 2:
                raise MalformedSignature(
                    f"multiplicity entries must be >= 2 (punctures go in r): {self}"
                )

    @property
    def n(self) -> int:
        return len(self.m)

    def is_canonical(self) -> bool:
        return all(a <= b for a, b in zip(self.m, self.m[1:]))


def canonicalize(sig: OrbSignature) -> OrbSignature:
    """Sort the multiplicities non-decreasingly; g and r are untouched."""
    return OrbSignature(sig.g, sig.r, tuple(sorted(sig.m)))


def _require_canonical(sig: OrbSignature) -> None:
    if not sig.is_canonical():
        raise MalformedSignature(f"multiplicities must be sorted: {sig}")


def euler_characteristic(sig: OrbSignature) -> Fraction:
    """Orbifold Euler characteristic 2 - 2g - r - sum(1 - 1/m_i), exact.

    Permutation invariant, so non-canonical input is accepted.
    """
    chi = Fraction(2 - 2 * sig.g - sig.r)
    for e in sig.m:
        chi -= 1 - Fraction(1, e)
    return chi


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
    _require_canonical(sig)
    if sig.r == 0:
        return sig.g == 0 and sig.n <= 2
    return 2 * sig.g + sig.r - 1 == 0 and sig.n <= 1


def finite_order(sig: OrbSignature) -> int | Infinite:
    """Order of the group, or INFINITE.

    Finite cases: trivial and cyclic groups, plus the spherical triangle
    groups.  The (2,3,5) triangle group has order 60; this is the value the
    coset-enumeration oracle certifies.
    """
    _require_canonical(sig)
    if sig.r >= 1:
        if 2 * sig.g + sig.r - 1 != 0:
            return INFINITE
        if sig.n == 0:
            return 1
        if sig.n == 1:
            return sig.m[0]
        return INFINITE
    # compact case
    if sig.g >= 1:
        return INFINITE
    if sig.n == 0:
        return 1
    if sig.n == 1:
        return 1
    if sig.n == 2:
        return gcd(sig.m[0], sig.m[1])
    if sig.n == 3:
        a, b, c = sig.m
        if (a, b) == (2, 2):
            return 2 * c
        if (a, b) == (2, 3) and c in (3, 4, 5):
            return {3: 12, 4: 24, 5: 60}[c]
        return INFINITE
    return INFINITE


class KindName(enum.Enum):
    SPHERICAL = "spherical"
    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class Kind:
    """Sign class of the Euler characteristic plus finiteness data."""

    name: KindName
    finite: bool
    order: int | None = None  # filled iff finite

    def __post_init__(self):
        if self.finite != (self.order is not None):
            raise ValueError("order must be present exactly when finite")


def classify_kind(sig: OrbSignature) -> Kind:
    """Spherical / Euclidean / hyperbolic by the sign of chi.

    The sign dichotomy extends to punctured signatures: the group is finite
    (a finite cyclic group when r >= 1) exactly when chi > 0.
    """
    _require_canonical(sig)
    chi = euler_characteristic(sig)
    if chi > 0:
        name = KindName.SPHERICAL
    elif chi == 0:
        name = KindName.EUCLIDEAN
    else:
        name = KindName.HYPERBOLIC
    order = finite_order(sig)
    if order is INFINITE:
        return Kind(name, finite=False)
    return Kind(name, finite=True, order=order)


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
    _require_canonical(sig)
    if sig in _NINF_FAILS:
        return NinfStatus(NinfVerdict.FAILS, _NINF_WITNESS)
    if sig in _NINF_UNDETERMINED:
        return NinfStatus(NinfVerdict.UNDETERMINED)
    return NinfStatus(NinfVerdict.SATISFIES)
