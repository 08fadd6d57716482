"""Named presentations from plane-curve complements, with checkable facts,
plus a numeric matrix representation for hyperbolic triangle groups.

Each named example carries the facts the rest of the package can certify:
orders via coset enumeration, abelianizations via Smith normal form, and
quotient comparisons against standard orbifold presentations.  Group orders
are never taken on faith; the enumerator decides them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .abelian import AbelianGroup, abelianization_of_presentation
from .cosets import Exceeded, group_order
from .errors import BadParameters, NotHyperbolic, UnknownExample
from .presentations import FinitePresentation, Word, parse_presentation, presentation_of
from .signature import OrbSignature
from .wallpaper import mat_mul

DEFAULT_ORDER_BOUND = 10_000
DEFAULT_COMPARE_BOUND = 3_000


@dataclass(frozen=True)
class OrderFact:
    """Adding the extra relators (none by default) yields a group of exactly
    this order (certified by enumeration)."""

    order: int
    extra: tuple[Word, ...] = ()


@dataclass(frozen=True)
class AbelianizationFact:
    """The (possibly quotiented) presentation has this abelianization."""

    extra: tuple[Word, ...]
    expected: AbelianGroup


@dataclass(frozen=True)
class QuotientPresentationFact:
    """Adding the extra relators gives a group that matches the standard
    presentation of the signature in abelianization and in bounded
    enumeration behavior (equal order, or both past the same bound)."""

    extra: tuple[Word, ...]
    signature: OrbSignature


Fact = OrderFact | AbelianizationFact | QuotientPresentationFact


@dataclass(frozen=True)
class NamedExample:
    name: str
    presentation: FinitePresentation
    facts: tuple[Fact, ...]
    notes: tuple[str, ...] = ()


def quotient_by_relators(p: FinitePresentation, extra) -> FinitePresentation:
    """Append relators; the presentation is not simplified."""
    return FinitePresentation(p.generators, p.relators + tuple(extra))


def _quartic() -> NamedExample:
    p = parse_presentation("""
        gens x y
        rel x y x y^-1 x^-1 y^-1  # xyx = yxy
        rel x y^2 x
    """).presentation
    # (xyx)^2 generates the center; quotienting by it leaves the (2,2,3)
    # triangle group.  The square of xy does not: it generates the normal
    # Z_3 and the quotient collapses to Z_4.
    central_square = p.word("x y x^2 y x")
    sig223 = OrbSignature(0, 0, (2, 2, 3))
    return NamedExample(
        name="quartic-b3p1",
        presentation=p,
        facts=(
            OrderFact(12),
            OrderFact(6, (central_square,)),
            QuotientPresentationFact((central_square,), sig223),
        ),
    )


def _sextic() -> NamedExample:
    p = parse_presentation("""
        gens a1 a2 a3
        rel a1 a2 a1 a2^-1 a1^-1 a2^-1
        rel a2 a3 a2 a3^-1 a2^-1 a3^-1
        rel a1 a3 a1^-1 a3^-1
        rel a1 a2 a3^2 a2 a1
    """).presentation
    # with x = a1 a2 a1, y = a1 a2, z = a3: kill x^2 and z x y
    extra = (p.word("a1 a2 a1^2 a2 a1"), p.word("a3 a1 a2 a1^2 a2"))
    return NamedExample(
        name="sextic-b4p1",
        presentation=p,
        facts=(
            AbelianizationFact(extra, AbelianGroup(0, (6,))),
            QuotientPresentationFact(extra, OrbSignature(0, 1, (2, 3))),
        ),
    )


def _quintic() -> NamedExample:
    p = parse_presentation("""
        gens a b c v
        rel v^5 a^-2
        rel a^2 b^-3
        rel b^3 c^-7
        rel c^7 c^-1 b^-1 a^-1  # c^7 = a b c
        rel v a v^-1 a^-1
        rel v b v^-1 b^-1
        rel v c v^-1 c^-1
    """).presentation
    return NamedExample(
        name="quintic-237",
        presentation=p,
        facts=(
            AbelianizationFact((), AbelianGroup(0, (5,))),
            QuotientPresentationFact((p.word("v"),), OrbSignature(0, 0, (2, 3, 7))),
        ),
    )


def _artal(d: int, a: int, b: int) -> NamedExample:
    if not (d > 3 and a >= b > 0 and a + b == d - 2):
        raise BadParameters(
            f"need d > 3, a >= b > 0, a + b = d - 2; got ({d}, {a}, {b})"
        )
    q = math.gcd(2 * a + 1, 2 * b + 1)  # q = 2n + 1
    n = (q - 1) // 2
    cycle = f"v^-{n} u " * (d - 2)
    p = parse_presentation(f"""
        gens u v
        rel u^2 v^-{q}
        rel {cycle}v^-{d - 1}
    """).presentation
    # the curve is irreducible of degree d, so first homology is Z_d
    facts: list[Fact] = [AbelianizationFact((), AbelianGroup(0, (d,)))]
    notes: list[str] = []
    if n > 0:
        triangle = OrbSignature(0, 0, tuple(sorted((2, q, d - 2))))
        facts.append(QuotientPresentationFact((p.word("u^2"),), triangle))
        notes.append(
            "u^2 is central, so the quotient by it should be the triangle "
            f"group of {triangle}; only abelianization and bounded-enumeration "
            "consequences are certified, since relator images in an infinite "
            "target are beyond a bounded oracle"
        )
    else:
        notes.append(
            "gcd(2a+1, 2b+1) = 1, so there is no triangle-group quotient; "
            "facts are restricted to the abelianization"
        )
    return NamedExample(
        name=f"artal({d},{a},{b})",
        presentation=p,
        facts=tuple(facts),
        notes=tuple(notes),
    )


_ARTAL_RE = re.compile(r"artal\(\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


def example_presentation(name: str) -> NamedExample:
    """Look up a named example; `artal(d,a,b)` takes integer parameters."""
    if name == "quartic-b3p1":
        return _quartic()
    if name == "sextic-b4p1":
        return _sextic()
    if name == "quintic-237":
        return _quintic()
    match = _ARTAL_RE.fullmatch(name.strip())
    if match:
        return _artal(*(int(g) for g in match.groups()))
    raise UnknownExample(f"no example named {name!r}")


@dataclass(frozen=True)
class FactResult:
    fact: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ExampleReport:
    name: str
    passed: bool
    facts: tuple[FactResult, ...]
    notes: tuple[str, ...]


def _check_fact(p: FinitePresentation, fact: Fact) -> FactResult:
    if isinstance(fact, OrderFact):
        got = group_order(quotient_by_relators(p, fact.extra), DEFAULT_ORDER_BOUND)
        return FactResult(
            f"{'quotient order' if fact.extra else 'order'} == {fact.order}",
            got == fact.order,
            f"enumerated {got}" if not isinstance(got, Exceeded) else "exceeded bound",
        )
    if isinstance(fact, AbelianizationFact):
        got = abelianization_of_presentation(quotient_by_relators(p, fact.extra))
        return FactResult(
            f"abelianization == {fact.expected}",
            got == fact.expected,
            f"computed {got}",
        )
    if isinstance(fact, QuotientPresentationFact):
        quotient = quotient_by_relators(p, fact.extra)
        reference = presentation_of(fact.signature)
        ab_q = abelianization_of_presentation(quotient)
        ab_r = abelianization_of_presentation(reference)
        order_q = group_order(quotient, DEFAULT_COMPARE_BOUND)
        order_r = group_order(reference, DEFAULT_COMPARE_BOUND)
        ab_ok = ab_q == ab_r
        if isinstance(order_q, Exceeded) or isinstance(order_r, Exceeded):
            order_ok = isinstance(order_q, Exceeded) and isinstance(order_r, Exceeded)
            order_text = (
                f"both exceed {DEFAULT_COMPARE_BOUND}" if order_ok else "one side completed"
            )
        else:
            order_ok = order_q == order_r
            order_text = f"orders {order_q} / {order_r}"
        return FactResult(
            f"quotient matches presentation of {fact.signature}",
            ab_ok and order_ok,
            f"abelianizations {ab_q} / {ab_r}; {order_text}",
        )
    raise TypeError(f"unknown fact type: {fact!r}")


def verify_example(name: str) -> ExampleReport:
    """Run every expected fact of the named example through the oracles."""
    example = example_presentation(name)
    results = tuple(_check_fact(example.presentation, f) for f in example.facts)
    return ExampleReport(
        name=example.name,
        passed=all(r.passed for r in results),
        facts=results,
        notes=example.notes,
    )


# ---------------------------------------------------------------------------
# hyperbolic triangle representations


Mat2f = tuple[tuple[float, float], tuple[float, float]]


@dataclass(frozen=True)
class TriangleRep:
    """Unit-determinant 2x2 rotation matrices for a hyperbolic triangle
    group, one per torsion generator, with x1*x2*x3 = identity."""

    orders: tuple[int, int, int]
    matrices: tuple[Mat2f, Mat2f, Mat2f]
    tolerance: float

    def __post_init__(self):
        _check_bound("tolerance", self.tolerance)


def _check_bound(name: str, value: float) -> None:
    # outside [0, inf) a bound decides the verdict by itself (a negative
    # reject margin turns its check off), so refuse it as a usage error
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _det(m: Mat2f) -> float:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def projective_distance(m: Mat2f) -> float:
    """Entrywise distance to +I or -I, whichever is closer: the
    representation only matters projectively."""
    plus = max(abs(m[0][0] - 1.0), abs(m[0][1]), abs(m[1][0]), abs(m[1][1] - 1.0))
    minus = max(abs(m[0][0] + 1.0), abs(m[0][1]), abs(m[1][0]), abs(m[1][1] + 1.0))
    return min(plus, minus)


def triangle_representation(
    m1: int, m2: int, m3: int, tolerance: float | None = None
) -> TriangleRep:
    """Rotation matrices by 2*pi/m_i about the vertices of the hyperbolic
    triangle with angles pi/m_i, to be checked at `tolerance`.  The default
    is min(1e-9, pi/(4m(m+1))) over the orders: half the smallest angle
    resolution pi/(2m(m+1)), so that the angle check can tell every order.

    x1 rotates about i in the upper half-plane, x2 about the point at
    hyperbolic distance t up the imaginary axis, where cosh(t) comes from
    the law of cosines for the side between the two vertices; x3 is forced
    by x1*x2*x3 = 1 and its trace is -2*cos(pi/m3), so it is elliptic of
    exact projective order m3 about the third vertex.
    """
    for m in (m1, m2, m3):
        if m < 2:
            raise NotHyperbolic(f"multiplicities must be >= 2, got {(m1, m2, m3)}")
    if Fraction(1, m1) + Fraction(1, m2) + Fraction(1, m3) >= 1:
        raise NotHyperbolic(f"{(m1, m2, m3)} is not a hyperbolic triple")
    alpha, beta, gamma = (math.pi / m for m in (m1, m2, m3))
    cosh_t = (math.cos(alpha) * math.cos(beta) + math.cos(gamma)) / (
        math.sin(alpha) * math.sin(beta)
    )
    e_t = cosh_t + math.sqrt(cosh_t * cosh_t - 1.0)
    x1: Mat2f = (
        (math.cos(alpha), math.sin(alpha)),
        (-math.sin(alpha), math.cos(alpha)),
    )
    x2: Mat2f = (
        (math.cos(beta), e_t * math.sin(beta)),
        (-math.sin(beta) / e_t, math.cos(beta)),
    )
    prod = mat_mul(x1, x2)
    # adjugate = inverse, since det = 1
    x3: Mat2f = ((prod[1][1], -prod[0][1]), (-prod[1][0], prod[0][0]))
    if tolerance is None:
        tolerance = min(1e-9, *(math.pi / (4 * m * (m + 1)) for m in (m1, m2, m3)))
    return TriangleRep((m1, m2, m3), (x1, x2, x3), tolerance)


@dataclass(frozen=True)
class TriangleRepChecks:
    product_deviation: float
    det_deviations: tuple[float, float, float]
    order_deviations: tuple[float, float, float]  # |rotation angle - pi/m|
    order_resolutions: tuple[float, float, float]  # pi/(2m(m+1)), above the tolerance
    premature_closeness: tuple[float, float, float]  # <= distance of x^j to +-I, 0<j<m
    passed: bool


def _order_checks(mat: Mat2f, m: int) -> tuple[float, float]:
    """|theta - pi/m|, where theta in [0, pi/2] has 2 cos(theta) = |tr x| /
    sqrt(det x) (0 if x is not elliptic), and a lower bound on the largest
    off-diagonal entry of x^j over 0 < j < m.  By Cayley-Hamilton it is
    det^((j-1)/2) sin(j theta)/sin(theta) times x's."""
    det = _det(mat)
    if det <= 0.0:
        return math.pi / m, 0.0
    cos_theta = min(abs(mat[0][0] + mat[1][1]) / (2.0 * math.sqrt(det)), 1.0)
    theta = math.acos(cos_theta)
    scale = min(1.0, det) ** ((m - 2) / 2)
    if theta > 0.0:  # |sin| on [theta, (m-1) theta] inside (0, pi) is least at an end
        inside = (m - 1) * theta < math.pi
        scale *= min(1.0, math.sin((m - 1) * theta) / math.sin(theta)) if inside else 0.0
    return abs(theta - math.pi / m), scale * max(abs(mat[0][1]), abs(mat[1][0]))


def check_triangle_rep(rep: TriangleRep, reject_margin: float = 1e-6) -> TriangleRepChecks:
    """Certify generator orders and the product relation, in constant time.

    Passing means, within `rep.tolerance`: x1*x2*x3 = +-I, each det x_i = 1,
    and the rotation angle theta_i of x_i (2 cos theta_i = |tr x_i| /
    sqrt(det x_i)) is pi/m_i, with the tolerance below half the gap
    pi/m_i - pi/(m_i + 1), so that no rotation by another pi/n, and no
    parabolic, is as close.  A rotation by pi/m has x^m = -I.  Also, no
    x_i^j with 0 < j < m_i comes within `reject_margin` of +-I.  At tolerance
    1e-9 the gap condition holds up to m = 39,632 and fails above; the
    default tolerance keeps it for every order, and float rounding then
    starts to fail the check at about m = 2.4 * 10^5.
    """
    _check_bound("reject margin", reject_margin)
    product = mat_mul(mat_mul(rep.matrices[0], rep.matrices[1]), rep.matrices[2])
    product_dev = projective_distance(product)
    det_devs = tuple(abs(_det(m) - 1.0) for m in rep.matrices)
    order_devs, premature = zip(*(_order_checks(x, m) for x, m in zip(rep.matrices, rep.orders)))
    resolutions = tuple(math.pi / (2 * m * (m + 1)) for m in rep.orders)
    tol = rep.tolerance
    passed = (
        product_dev <= tol
        and all(d <= tol for d in det_devs)
        and all(d <= tol < r for d, r in zip(order_devs, resolutions))
        and all(c > reject_margin for c in premature)
    )
    return TriangleRepChecks(
        product_deviation=product_dev,
        det_deviations=det_devs,
        order_deviations=order_devs,
        order_resolutions=resolutions,
        premature_closeness=premature,
        passed=passed,
    )
