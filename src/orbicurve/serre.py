"""Which curve orbifold groups occur as plane curve complement groups.

The decision table: an open group is realizable exactly when it is
F_r * Z_p * Z_q with gcd(p, q) = 1; among compact groups, the finite cyclic
ones (smooth curve complements) and Z^2 (three non-concurrent lines) are
realizable, the remaining spherical and Euclidean ones are not, and the
hyperbolic ones are not either - except that for triangle groups carrying a
coprime pair whose product shares a factor >= 6 with the third entry the
question is open, the shared factor being the only possible curve degree.
"""

from __future__ import annotations

from math import gcd

from .errors import frozen
from .signature import (
    KindName,
    OrbSignature,
    classify_kind,
    finite_order,
    is_finite_cyclic,
)

REALIZABLE = "realizable"
NOT_REALIZABLE = "not_realizable"
OPEN_PROBLEM = "open"

RULE_OPEN_COPRIME = "open_coprime_free_product"
RULE_FINITE_CYCLIC = "finite_cyclic"
RULE_TWO_TORUS = "two_torus"
RULE_EUCLIDEAN = "euclidean_excluded"
RULE_SPHERICAL = "spherical_excluded"
RULE_HYPERBOLIC = "hyperbolic_excluded"
RULE_HYPERBOLIC_OPEN = "hyperbolic_triangle_open"


@frozen
class SerreVerdict:
    outcome: str  # realizable | not_realizable | open
    rule: str
    degree: int | None = None

    def __post_init__(self):
        if self.outcome == OPEN_PROBLEM and self.rule != RULE_HYPERBOLIC_OPEN:
            raise ValueError("open verdicts come only from the triangle cell")


def open_cell_degrees(m: tuple[int, int, int]) -> list[int]:
    """Candidate degrees over all choices of distinguished entry: for each
    split (mi, mj | mk) require gcd(mi, mj) = 1 and gcd(mi*mj, mk) >= 6."""
    degrees = []
    for k in range(3):
        i, j = [t for t in range(3) if t != k]
        if gcd(m[i], m[j]) == 1:
            d = gcd(m[i] * m[j], m[k])
            if d >= 6:
                degrees.append(d)
    return degrees


def plane_curve_realizability(sig: OrbSignature) -> SerreVerdict:
    if sig.r >= 1:
        if sig.n <= 1 or (sig.n == 2 and gcd(sig.m[0], sig.m[1]) == 1):
            return SerreVerdict(REALIZABLE, RULE_OPEN_COPRIME)
        return SerreVerdict(NOT_REALIZABLE, RULE_OPEN_COPRIME)
    if is_finite_cyclic(sig):
        # smooth curve complement; its degree is the group order
        return SerreVerdict(REALIZABLE, RULE_FINITE_CYCLIC, degree=finite_order(sig))
    if sig.g == 1 and sig.n == 0:
        return SerreVerdict(REALIZABLE, RULE_TWO_TORUS)
    kind = classify_kind(sig).name
    if kind is KindName.SPHERICAL:
        return SerreVerdict(NOT_REALIZABLE, RULE_SPHERICAL)
    if kind is KindName.EUCLIDEAN:
        return SerreVerdict(NOT_REALIZABLE, RULE_EUCLIDEAN)
    if sig.g == 0 and sig.n == 3:
        degrees = open_cell_degrees((sig.m[0], sig.m[1], sig.m[2]))
        if degrees:
            return SerreVerdict(OPEN_PROBLEM, RULE_HYPERBOLIC_OPEN, degree=max(degrees))
    return SerreVerdict(NOT_REALIZABLE, RULE_HYPERBOLIC)
