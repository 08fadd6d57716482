"""Named presentations from plane-curve complements, with checkable facts,
plus a numeric matrix representation for hyperbolic triangle groups.

Each named example carries the facts the rest of the package can certify:
orders via coset enumeration, abelianizations via Smith normal form, and
quotients that are isomorphic to standard orbifold presentations, proved
by word maps between the two presentations whose every step is checked by
free reduction (`presentations.check_word_maps`).  Group orders are never
taken on faith; the enumerator decides them.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .abelian import AbelianGroup, abelianization_of_presentation
from .cosets import DEFAULT_MAX_COSETS, Exceeded, group_order
from .errors import BadParameters, NotHyperbolic, UnknownExample
from .presentations import (
    Conjugate,
    FinitePresentation,
    Word,
    WordMaps,
    check_word_maps,
    concat_words,
    free_reduce,
    parse_presentation,
    presentation_of,
    word_map_claims,
)
from .signature import OrbSignature
from .wallpaper import mat_mul


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
    """Adding the extra relators gives a group isomorphic to the standard
    presentation of the signature: `maps` are word maps between the two
    presentations, with every relator image, and every round trip, written
    as a product of conjugates of relators (`presentations.WordMaps`)."""

    extra: tuple[Word, ...]
    signature: OrbSignature
    maps: WordMaps


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


# ---------------------------------------------------------------------------
# deriving word maps.  Nothing here is trusted: `_check_fact` checks what it
# builds with `check_word_maps`.  A derivation spells a word with one letter
# per generator power: a, b, c, ... for generators 0, 1, 2, ... and A, B,
# C, ... for their inverses.


def _spell(word: Word) -> str:
    return "".join((chr(97 + g) if e > 0 else chr(65 + g)) * abs(e) for g, e in word)


def _unspell(s: str) -> Word:
    return free_reduce((ord(c.lower()) - 97, 1 if c.islower() else -1) for c in s)


def _inv(s: str) -> str:
    return s[::-1].swapcase()


def _conj(u: Word, proof) -> list[Conjugate]:
    """The proof of u w u^-1 from a proof of w."""
    return [(concat_words(u, c), i, e) for c, i, e in proof]


def _inverse(proof) -> list[Conjugate]:
    """The proof of w^-1 from a proof of w."""
    return [(c, i, -e) for c, i, e in reversed(proof)]


def _relator_power(p: FinitePresentation, t: str) -> list[Conjugate]:
    """Conjugates of p's relators whose product is t, where t is conjugate to
    a power of one relator or of its inverse.  A relator is spelled only
    when the core of t repeats with the relator's length as a period."""
    k = 0
    while k < len(t) - 1 - k and t[k] == t[-1 - k].swapcase():
        k += 1
    core = t[k:len(t) - k]
    if not core:
        return []
    for i, r in enumerate(p.relators):
        n = sum(abs(e) for _, e in r)
        if not n or len(core) % n or core != core[:n] * (len(core) // n):
            continue
        ff = _spell(r) * 2  # spelled twice, so a rotation is a substring
        for e, cycle in ((1, ff), (-1, _inv(ff))):
            j = cycle.find(core[:n])
            if j >= 0:  # core[:n] = f[:j]^-1 f f[:j]
                return [(_unspell(t[:k] + _inv(cycle[:j])), i, e)] * (len(core) // n)
    raise ValueError(f"{t} is not conjugate to a power of a relator")


def _derive(p: FinitePresentation, word: str, rules) -> list[Conjugate]:
    """Conjugates of p's relators whose product is `word`.  A rule "old>new"
    says old = new in the group, where old new^-1 is conjugate to a power of
    one relator or of its inverse; the first rule whose old occurs rewrites
    its first occurrence, until none does, and then the word must be empty."""
    rules = [rule.split(">") for rule in rules]
    w, proof = _spell(_unspell(word)), []
    while True:
        for old, new in rules:
            i = w.find(old)
            if i >= 0:
                break
        else:
            if w:
                raise ValueError(f"{word} rewrites to {w}, not to the empty word")
            return proof
        steps = _relator_power(p, _spell(_unspell(old + _inv(new))))
        proof += _conj(_unspell(w[:i]), steps) if i else steps
        w = _spell(_unspell(w[:i] + new + w[i + len(old):]))


def _quotient_fact(p, extra, signature, phi, psi, p_rules, q_rules) -> QuotientPresentationFact:
    """The fact, with word maps between the quotient and the reference
    presentation from spelled images phi and psi; each claim of
    `word_map_claims` is derived by the rules of the side that proves it."""
    quotient, reference = quotient_by_relators(p, extra), presentation_of(signature)
    phi, psi = tuple(map(_unspell, phi)), tuple(map(_unspell, psi))
    proofs = tuple(tuple(_derive(side, _spell(word), p_rules if side is quotient else q_rules))
                   for _, word, side in word_map_claims(quotient, reference, phi, psi))
    return QuotientPresentationFact(extra, signature, WordMaps(phi, psi, proofs))


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
            # x, y <-> x1, x2, and x3 = (xy)^-1: x^2 = (xyx)^2 since
            # y^2 = x^-2, then y^2 = x^-2 = 1, and (xy)^3 = (xyx)^2 by the
            # braid relation
            _quotient_fact(
                p, (central_square,), sig223, ("a", "b"), ("a", "b", "BA"),
                ("abaaba>", "ABAABA>", "aa>abaaba", "AA>ABAABA", "bb>AA", "BAB>ABA"),
                ("BAC>", "aa>", "bb>", "CCC>", "A>a", "B>b", "ab>C"),
            ),
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
            # x1, x2, y1 = x, y, z, and a1, a2 = x2^-1 x1, x1^-1 x2^2; the
            # target is Z_2 * Z_3 once y1 = (x1 x2)^-1 is eliminated
            _quotient_fact(
                p, extra, OrbSignature(0, 1, (2, 3)), ("Ba", "Abb", "c"), ("aba", "ab", "c"),
                ("abaaba>", "aabaab>", "CBAABA>", "bab>aba"),
                ("c>BA", "C>ab", "aa>", "AA>", "A>a", "bbb>", "BBB>", "BB>b", "bb>B"),
            ),
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
            # a, b, c <-> x1, x2, x3 and v -> 1: c^7 = b^3 = a^2 = v^5 = 1
            _quotient_fact(
                p, (p.word("v"),), OrbSignature(0, 0, (2, 3, 7)),
                ("a", "b", "c", ""), ("a", "b", "c"),
                ("d>", "D>", "aa>ddddd", "AA>DDDDD", "bbb>aa", "BBB>AA", "ccccccc>bbb",
                 "CCCCCCC>BBB", "BA>CCCCCC"),
                ("aa>", "AA>", "bbb>", "BBB>", "ccccccc>", "CCCCCCC>", "CBA>", "cccccc>C"),
            ),
        ),
    )


def _artal_maps(p: FinitePresentation, tri: FinitePresentation, d: int, q: int) -> WordMaps:
    """u, v <-> x, y, z of orders 2, q, d - 2 with x y z = 1, where
    x, y, z = u, u^-1 v^-n u, u^-1 v^n and u, v = x, x y^2 x^-1.  Two facts
    make these inverse: q | d - 1, so v^(d-1) = 1 in the quotient, and
    2n = q - 1, so v = (v^-n)^2.  In p, u = a and v = b; x, y, z are a, b, c
    here and are relabelled when d - 2 < q sorts the triangle as
    (2, d - 2, q): then its generators are x^-1, z^-1, y^-1."""
    n, m = (q - 1) // 2, d - 2
    swap = m < q
    tr = str.maketrans("abcABC", "ACBacb" if swap else "abcABC")

    def target(word: str, *rules: str) -> list[Conjugate]:
        return _derive(tri, word.translate(tr), [r.translate(tr) for r in rules])

    vq = _derive(p, "B" * q, (f"{'B' * q}>AA", "AA>"))  # v^-q = u^-2 = 1
    # phi of the cycle relator is h^m x y^-2(d-1) x^-1 with h = x y^-2n, and
    # h z = 1: its m copies conjugated by z^-j make h^m z^m, in linear size
    h_z = target(f"a{'B' * 2 * n}c", f"{'B' * 2 * n}>b", "abc>")
    (g, e), = _unspell("C".translate(tr))
    phi_cycle = [c for j in range(m) for c in _conj(((g, e * j),), h_z)]
    phi_cycle += target(f"{'C' * m}a{'B' * 2 * (d - 1)}A", f"{'B' * 2 * (d - 1)}>", f"{'C' * m}>")
    psi = ("a", f"A{'B' * n}a", f"A{'b' * n}")
    psi_rels = (
        _derive(p, "aa", ("aa>",)),
        _conj(((0, -1),), vq * n),
        [(((1, 1 - d),), 1, -1)] + vq * ((d - 1) // q),  # (u^-1 v^n)^m = v^-(d-1) = 1
    )
    round_trips = (
        [],
        target("B" * q, f"{'B' * q}>"),
        target(f"{'b' * 2 * n}AC", "AC>b", f"{'b' * q}>"),
    )
    if swap:  # the triangle's x1, x2, x3 are x^-1, z^-1, y^-1
        psi = tuple(_inv(psi[k]) for k in (0, 2, 1))
        psi_rels = tuple(_inverse(psi_rels[k]) for k in (0, 2, 1))
        round_trips = tuple(_conj(((j, 1),), _inverse(round_trips[k]))
                            for j, k in enumerate((0, 2, 1)))
    proofs = (
        target(f"aaa{'B' * 2 * q}A", f"{'B' * q}>", "aa>"),
        phi_cycle,
        target("aa", "aa>"),
        *psi_rels,
        [],  # psi(x y z) free-reduces to 1
        [],  # psi(phi(u)) = u
        vq,  # psi(phi(v)) v^-1 = v^-q
        *round_trips,
    )
    return WordMaps(
        (_unspell("a".translate(tr)), _unspell("abbA".translate(tr))),
        tuple(map(_unspell, psi)),
        tuple(map(tuple, proofs)),
    )


def _artal(d: int, a: int, b: int) -> NamedExample:
    if not (d > 3 and a >= b > 0 and a + b == d - 2):
        # Decimal prints an int of any length; str() refuses more than 4300 digits
        got = ", ".join(str(Decimal(x)) for x in (d, a, b))
        raise BadParameters(f"need d > 3, a >= b > 0, a + b = d - 2; got ({got})")
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
        extra = (p.word("u^2"),)
        maps = _artal_maps(quotient_by_relators(p, extra), presentation_of(triangle), d, q)
        facts.append(QuotientPresentationFact(extra, triangle, maps))
        notes.append(
            "u^2 is central, and the quotient by it is isomorphic to the "
            f"triangle group of {triangle}: word maps u, v -> x, x y^2 x^-1, "
            f"with x, y of orders 2 and {q}, and back are checked in both "
            "directions by free reduction"
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


def artal_parameters(name: str) -> tuple[int, int, int] | None:
    """(d, a, b) when the example name spells `artal(d,a,b)`, else None.
    The words of the example grow linearly in d, so a caller can refuse a
    large d before anything is built.  Decimal reads a parameter of any
    length, where int() refuses more than 4300 digits."""
    match = _ARTAL_RE.fullmatch(name.strip())
    return None if match is None else tuple(int(Decimal(g)) for g in match.groups())


@functools.lru_cache(maxsize=16)
def example_presentation(name: str) -> NamedExample:
    """Look up a named example; `artal(d,a,b)` takes integer parameters.
    Examples are immutable, and deriving their word maps costs more than
    checking them, so the last few looked up are kept."""
    if name == "quartic-b3p1":
        return _quartic()
    if name == "sextic-b4p1":
        return _sextic()
    if name == "quintic-237":
        return _quintic()
    params = artal_parameters(name)
    if params is not None:
        return _artal(*params)
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
        got = group_order(quotient_by_relators(p, fact.extra), DEFAULT_MAX_COSETS)
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
        maps = fact.maps
        failure = check_word_maps(
            quotient_by_relators(p, fact.extra), presentation_of(fact.signature), maps
        )
        return FactResult(
            f"quotient matches presentation of {fact.signature}",
            failure is None,
            f"word maps rejected: {failure}" if failure else (
                f"word maps checked: {len(maps.proofs)} words, "
                f"{sum(map(len, maps.proofs))} relator conjugates"
            ),
        )
    raise TypeError(f"unknown fact type: {fact!r}")


def verify_example(name: str) -> ExampleReport:
    """Run every expected fact of the named example through its checker."""
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
        # above 2^53, m and m + 1 round to one float, so no angle can tell them
        if m > 2**53:
            raise BadParameters(f"multiplicities must be <= 2^53, got {(m1, m2, m3)}")
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
