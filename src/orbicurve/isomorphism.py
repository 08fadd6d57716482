"""Isomorphism decision for two curve orbifold groups.

The classification: compact groups that are not finite cyclic are
determined by (g, m), open ones by (2g + r, m), the two families meet only
in the finite cyclic groups, and finite cyclic groups are determined by
their order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .signature import OrbSignature, finite_order, is_finite_cyclic

REASON_BOTH_TRIVIAL = "both_trivial"
REASON_FINITE_CYCLIC = "finite_cyclic_equal_order"
REASON_COMPACT_TUPLES = "compact_tuples_equal"
REASON_OPEN_INVARIANTS = "open_invariants_equal"
REASON_MIXED = "mixed_compact_open"
REASON_MISMATCH = "invariant_mismatch"

_ISOMORPHIC_REASONS = {
    REASON_BOTH_TRIVIAL,
    REASON_FINITE_CYCLIC,
    REASON_COMPACT_TUPLES,
    REASON_OPEN_INVARIANTS,
}


@dataclass(frozen=True)
class IsoVerdict:
    reason: str
    detail: str | None = None  # mismatched invariant, for invariant_mismatch

    @property
    def isomorphic(self) -> bool:
        return self.reason in _ISOMORPHIC_REASONS


def decide_isomorphism(a: OrbSignature, b: OrbSignature) -> IsoVerdict:
    """Whether the two named groups are isomorphic, with the deciding rule."""
    a_cyclic, b_cyclic = is_finite_cyclic(a), is_finite_cyclic(b)
    if a_cyclic and b_cyclic:
        oa, ob = finite_order(a), finite_order(b)
        if oa != ob:
            return IsoVerdict(REASON_MISMATCH, "order")
        if oa == 1:
            return IsoVerdict(REASON_BOTH_TRIVIAL)
        return IsoVerdict(REASON_FINITE_CYCLIC)
    if (a.r == 0) != (b.r == 0):
        return IsoVerdict(REASON_MIXED)
    if a.r == 0:
        if a.g != b.g:
            return IsoVerdict(REASON_MISMATCH, "g")
        if a.m != b.m:
            return IsoVerdict(REASON_MISMATCH, "m")
        return IsoVerdict(REASON_COMPACT_TUPLES)
    if 2 * a.g + a.r != 2 * b.g + b.r:
        return IsoVerdict(REASON_MISMATCH, "2g+r")
    if a.m != b.m:
        return IsoVerdict(REASON_MISMATCH, "m")
    return IsoVerdict(REASON_OPEN_INVARIANTS)
