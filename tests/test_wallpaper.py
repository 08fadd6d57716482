import hashlib
import math
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from orbicurve import (
    BadK,
    fixed_point_set,
    h_matrix,
    run_wallpaper_suite,
    surface_residual,
    wallpaper,
)
from orbicurve.wallpaper import MAT_IDENTITY, mat_mul, mat_order, sample_points
from test_cosets import _fresh_python

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
nonzero_rationals = rationals.filter(lambda x: x != 0)


def nontrivial_powers(k):
    """h^1, ..., h^(k-1)."""
    out = [h_matrix(k)]
    while len(out) < k - 1:
        out.append(mat_mul(out[-1], h_matrix(k)))
    return out


def sigma(k, q):
    return wallpaper._sigma(h_matrix(k), q)


def pibar(k, q):
    return wallpaper._pibar(*wallpaper._pibar_orbits(k, h_matrix(k)), q)


def quad(s, t):
    """The suite's form (a, b, c, d) of the rational point (s, t)."""
    return s.numerator, s.denominator, t.numerator, t.denominator


def is_point(q, point):
    """q = (a, b, c, d) is point = (s, t): a = s b and c = t d."""
    return q[0] == point[0] * q[1] and q[2] == point[1] * q[3]


def is_image(image, xyz):
    """image = (X, Y, Z, L) is xyz = (X, Y, Z)/L."""
    return all(x == v * image[3] for x, v in zip(image[:3], xyz))


def act_on_angles(m, angles):
    """The oracle of the suite's residue action: the monomial map with
    exponent matrix m on the torsion point with angles (u, v) in Q/Z,
    (u, v) -> m (u, v) mod 1."""
    (a, b), (c, d) = m
    u, v = angles
    return (a * u + b * v) % 1, (c * u + d * v) % 1


def sixths(r):
    return Fraction(r[0], 6), Fraction(r[1], 6)


class TestSigma:
    def test_k2_formula(self):
        assert sigma(2, (2, 1, 3, 1)) == (1, 2, 1, 3)

    def test_k6_six_iterations_return(self):
        p = (2, 1, 5, 1)
        q = p
        for j in range(6):
            q = sigma(6, q)
            if j < 5:
                assert not is_point(q, (2, 5))
        assert is_point(q, (2, 5))

    def test_k3_fixed_point_with_omega(self):
        # (omega, omega^2) -> (1/omega^2, omega/omega^2) = (omega, omega^2)
        assert wallpaper._act_mod6(h_matrix(3), (2, 4)) == (2, 4)
        # (omega, omega) -> (omega^2, 1)
        assert wallpaper._act_mod6(h_matrix(3), (2, 2)) == (4, 0)

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_angle_action_matches_sigma_on_signs(self, k):
        # +-1 are rational points too: there the residue action and sigma
        # must agree
        def sign(r):
            return (-1) ** (r // 3)

        for u in (0, 3):
            for v in (0, 3):
                image = wallpaper._act_mod6(h_matrix(k), (u, v))
                q = (sign(u), 1, sign(v), 1)
                assert is_point(sigma(k, q), (sign(image[0]), sign(image[1]))), (u, v)

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_order_k_on_rational_points(self, k):
        q = (3, 7, 5, 2)
        for _ in range(k):
            q = sigma(k, q)
        assert is_point(q, (Fraction(3, 7), Fraction(5, 2)))

    def test_bad_k(self):
        with pytest.raises(BadK):
            h_matrix(5)
        with pytest.raises(BadK):
            surface_residual(5, (2, 2, 2, 1))


class TestPibarAndSurface:
    def test_k2_printed_values(self):
        image = pibar(2, (2, 1, 3, 1))
        assert is_image(image, (Fraction(5, 2), Fraction(10, 3), Fraction(37, 6)))
        assert surface_residual(2, image) == 0

    def test_k2_at_unit(self):
        assert pibar(2, (1, 1, 1, 1)) == (2, 2, 2, 1)

    def test_k4_at_unit(self):
        assert pibar(4, (1, 1, 1, 1)) == (4, 4, 4, 1)

    def test_k6_transcription_anchor(self):
        image = pibar(6, (1, 1, 1, 1))
        assert image == (6, 6, 6, 1)
        assert surface_residual(6, image) == 0

    def test_constant_term(self):
        assert surface_residual(2, (0, 0, 0, 1)) == -4

    def test_k3_image_on_surface(self):
        assert surface_residual(3, pibar(3, (2, 1, 3, 1))) == 0

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_invariance_and_surface_on_samples(self, k):
        for q in sample_points(10, seed=5):
            image = pibar(k, q)
            xyz = [Fraction(x, image[3]) for x in image[:3]]
            assert is_image(pibar(k, sigma(k, q)), xyz)
            assert surface_residual(k, image) == 0


def fixed_points_check(k):
    report = run_wallpaper_suite(k, samples=1, seed=1)
    return next(c for c in report.checks if c.name == "fixed_points_fixed")


class TestFixedPoints:
    def test_printed_sets(self):
        assert len(fixed_point_set(2)) == 4
        assert fixed_point_set(4) == fixed_point_set(2)
        assert len(fixed_point_set(3)) == 3
        assert (2, 4) in fixed_point_set(3)  # (omega, omega^2)
        p6 = fixed_point_set(6)
        assert len(p6) == 6
        assert set(fixed_point_set(2)) < set(p6)
        assert (2, 2) in p6  # (omega, omega)
        assert (4, 4) in p6  # (omega^2, omega^2)

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_each_has_nontrivial_isotropy(self, k):
        for r in fixed_point_set(k):
            q = sixths(r)
            assert any(act_on_angles(m, q) == q for m in nontrivial_powers(k)), r

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_printed_set_is_every_isotropic_point(self, k):
        # every |det(h^j - I)| divides 12, so each point with nontrivial
        # isotropy has angles in (1/12)Z: search that grid directly
        grid = [(Fraction(a, 12), Fraction(b, 12)) for a in range(12) for b in range(12)]
        isotropic = {q for q in grid if any(act_on_angles(m, q) == q for m in nontrivial_powers(k))}
        assert isotropic == set(map(sixths, fixed_point_set(k)))

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_suite_check_passes(self, k):
        check = fixed_points_check(k)
        assert check.passed and check.detail == f"{len(fixed_point_set(k))} points"

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    @pytest.mark.parametrize("dropped", [0, -1])
    def test_dropped_point_fails(self, k, dropped, monkeypatch):
        printed = list(fixed_point_set(k))
        del printed[dropped]
        monkeypatch.setattr(wallpaper, "fixed_point_set", lambda k: tuple(printed))
        check = fixed_points_check(k)
        assert not check.passed
        assert "printed points fixed by sigma^" in check.detail

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_added_non_fixed_point_fails(self, k, monkeypatch):
        printed = fixed_point_set(k) + ((1, 0),)
        monkeypatch.setattr(wallpaper, "fixed_point_set", lambda k: printed)
        check = fixed_points_check(k)
        assert not check.passed
        assert check.detail == "(1/6, 0/6) not fixed by any nontrivial power"


class TestHMatrix:
    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_orders(self, k):
        assert mat_order(h_matrix(k)) == k

    def test_k2_is_minus_identity(self):
        assert h_matrix(2) == ((-1, 0), (0, -1))

    def test_k4_squares_to_minus_identity(self):
        h = h_matrix(4)
        assert mat_mul(h, h) == ((-1, 0), (0, -1))

    def test_k6_characteristic_polynomial(self):
        (a, b), (c, d) = h_matrix(6)
        assert a + d == 1  # trace
        assert a * d - b * c == 1  # determinant; char poly x^2 - x + 1
        assert mat_order(h_matrix(6)) == 6

    def test_determinants_are_one_except_k2(self):
        for k in (3, 4, 6):
            (a, b), (c, d) = h_matrix(k)
            assert a * d - b * c == 1


# SHA-256 of repr([run_wallpaper_suite(k, 5, seed) for seed in range(200)]):
# every verdict and detail string of 200 suites, which any rewrite of the
# suite must reproduce
PINNED_REPORTS = {
    2: "9e8b0556c79e5783a75a1cc4cb8d220829b40931b81c8b7ec0d858fe1bcc485d",
    3: "e838bec4e5995614d41d5bc3baa65700b61344bf7c62d4a3780202a1b2aaeaa9",
    4: "9388ea454057276a5032f905b27ef46d9dd9bf5aa7eda6af84e911cb3e46c8c3",
    6: "9d2b5f3c00d85bc1afcd9dbf60116a833cbd15c1b17de86c271b382c5a24b6f5",
}


class TestSuite:
    @pytest.mark.parametrize("k, digest", PINNED_REPORTS.items())
    def test_pinned_reports(self, k, digest):
        reports = [run_wallpaper_suite(k, 5, seed) for seed in range(200)]
        assert hashlib.sha256(repr(reports).encode()).hexdigest() == digest

    @pytest.mark.parametrize("k, seed", [(2, 42), (3, 1), (4, 3), (6, 7)])
    def test_suites_pass(self, k, seed):
        report = run_wallpaper_suite(k, samples=25, seed=seed)
        assert report.passed, [c for c in report.checks if not c.passed]
        names = {c.name for c in report.checks}
        assert names == {
            "sigma_order",
            "pibar_invariance",
            "image_on_surface",
            "generic_points_free",
            "total_ramification_spot",
            "fixed_points_fixed",
            "h_matrix_order",
        }

    def test_deterministic_sampling(self):
        assert list(sample_points(7, seed=9)) == list(sample_points(7, seed=9))
        assert list(sample_points(7, seed=9)) != list(sample_points(7, seed=10))

    @pytest.mark.parametrize("seed, points", [
        (0, [(173, 79, 259, 304), (431, 42, 266, 989), (262, 249, 415, 941),
             (803, 850, 311, 992), (489, 367, 299, 457)]),
        (2026, [(61, 164, 103, 195), (175, 221, 881, 976), (53, 453, 229, 917),
                (88, 91, 570, 431), (803, 587, 561, 863)]),
    ])
    def test_sample_points_pinned(self, seed, points):
        # the points every pinned report and digest rests on
        assert list(sample_points(5, seed=seed)) == points

    def test_samples_avoid_fixed_point_coordinates(self):
        # in lowest terms, as Fraction would reduce them, and never 1
        for a, b, c, d in sample_points(200, seed=0):
            assert a != b and c != d
            assert math.gcd(a, b) == 1 == math.gcd(c, d)

    def test_single_sample_at_specific_point(self):
        report = run_wallpaper_suite(3, samples=1, seed=2)
        assert report.passed

    def test_k6_hundred_samples_alternate_seed(self):
        assert run_wallpaper_suite(6, samples=100, seed=7).passed

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            run_wallpaper_suite(2, samples=0, seed=1)

    def test_bad_k(self):
        with pytest.raises(BadK):
            run_wallpaper_suite(5, samples=1, seed=1)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_memory_flat_in_samples(self):
        # the samples are drawn one at a time, so 30,000 of them cost no
        # more memory than one
        script = (
            "from orbicurve import run_wallpaper_suite\n"
            "run_wallpaper_suite(2, 1, 1)\n"
            "before = peak_kib()\n"
            "report = run_wallpaper_suite(2, 30000, 1)\n"
            "growth = peak_kib() - before\n"
            "print(int(report.passed), growth)\n"
        )
        passed, growth_kb = map(int, _fresh_python(script).split())
        assert passed
        assert growth_kb < 2048


# Failing reports under seams that replace h_matrix or sample_points, pinned
# check by check (name and detail of every failing check; the rest pass), so
# that a fast path cannot pass everything by default.  All at samples=5,
# seed=3, whose first sample is 244/607, 279/67.
P0 = "(244/607, 279/67)"
TRANSPOSED = {
    2: [],
    3: [("image_on_surface", f"image of {P0} off the surface"),
        ("fixed_points_fixed", "(2/6, 4/6) not fixed by any nontrivial power")],
    4: [],
    6: [("image_on_surface", f"image of {P0} off the surface"),
        ("fixed_points_fixed", "(2/6, 2/6) not fixed by any nontrivial power")],
}
OTHER_H = {
    (4, 6): [("sigma_order", f"sigma^4 moved {P0}"),
             ("pibar_invariance", f"pibar not constant on orbit of {P0}"),
             ("image_on_surface", f"image of {P0} off the surface"),
             ("fixed_points_fixed", "1 printed points fixed by sigma^2, not 3"),
             ("h_matrix_order", "expected order 4, got 6")],
    (6, 4): [("sigma_order", f"sigma^6 moved {P0}"),
             ("pibar_invariance", f"pibar not constant on orbit of {P0}"),
             ("image_on_surface", f"image of {P0} off the surface"),
             ("generic_points_free", f"nontrivial power fixes sample {P0}"),
             ("fixed_points_fixed", "6 printed points fixed by sigma^4, not 0"),
             ("h_matrix_order", "expected order 6, got 4")],
    (3, 6): [("sigma_order", f"sigma^3 moved {P0}"),
             ("pibar_invariance", f"pibar not constant on orbit of {P0}"),
             ("image_on_surface", f"image of {P0} off the surface"),
             ("fixed_points_fixed", "(2/6, 4/6) not fixed by any nontrivial power"),
             ("h_matrix_order", "expected order 3, got 6")],
    (2, 3): [("sigma_order", f"sigma^2 moved {P0}"),
             ("pibar_invariance", f"pibar not constant on orbit of {P0}"),
             ("image_on_surface", f"image of {P0} off the surface"),
             ("fixed_points_fixed", "(0/6, 3/6) not fixed by any nontrivial power"),
             ("h_matrix_order", "expected order 2, got 3")],
}
UNIT_FIRST = [
    ("generic_points_free", "nontrivial power fixes sample (1/1, 1/1)"),
    ("total_ramification_spot", "sample (1/1, 1/1) maps to the image of (1,1)"),
]
MINUS_FIRST = [("generic_points_free", "nontrivial power fixes sample (-1/1, -1/1)")]


def failing_checks(k):
    report = run_wallpaper_suite(k, samples=5, seed=3)
    failed = [(c.name, c.detail) for c in report.checks if not c.passed]
    assert report.passed == (not failed)
    return failed


def with_first_sample(monkeypatch, s, t):
    original = sample_points
    monkeypatch.setattr(
        wallpaper,
        "sample_points",
        lambda samples, seed: [(s, 1, t, 1)] + list(original(samples, seed))[1:],
    )


class TestFailurePaths:
    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_transposed_h(self, k, monkeypatch):
        original = wallpaper.h_matrix
        monkeypatch.setattr(wallpaper, "h_matrix", lambda k: tuple(zip(*original(k))))
        assert failing_checks(k) == TRANSPOSED[k]

    @pytest.mark.parametrize("k, other", sorted(OTHER_H))
    def test_h_of_another_k(self, k, other, monkeypatch):
        h = h_matrix(other)
        monkeypatch.setattr(wallpaper, "h_matrix", lambda k: h)
        assert failing_checks(k) == OTHER_H[k, other]

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_unit_point_first(self, k, monkeypatch):
        with_first_sample(monkeypatch, 1, 1)
        assert failing_checks(k) == UNIT_FIRST

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_minus_one_point_first(self, k, monkeypatch):
        # (-1, -1) is fixed by sigma^(k/2) for even k, and its orbit under
        # the k = 3 action, (-1, -1) -> (-1, 1) -> (1, -1), is free
        with_first_sample(monkeypatch, -1, -1)
        assert failing_checks(k) == ([] if k == 3 else MINUS_FIRST)


def test_mat_identity_order():
    assert mat_order(MAT_IDENTITY) == 1


# ---------------------------------------------------------------------------
# reference transcription: sigma_k and pibar_k as hand-written formulas on a
# point (s, t), to check the monomial-map and orbit-sum forms against


def reference_sigma(k, p):
    s, t = p
    if k == 2:
        return 1 / s, 1 / t
    if k == 3:
        return 1 / t, s / t
    if k == 4:
        return 1 / t, s
    return s * t, 1 / s


def reference_pibar(k, p):
    s, t = p
    if k == 2:
        return (
            (s * s + 1) / s,
            (t * t + 1) / t,
            (s * s * t * t + 1) / (s * t),
        )
    if k == 3:
        return (
            (s * s * t + s + t * t) / (s * t),
            (s * t * t + t + s * s) / (s * t),
            (s**3 * t**3 + s**3 + t**3) / (s * s * t * t),
        )
    if k == 4:
        return (
            (s * t + 1) * (s + t) / (s * t),
            (s * s + 1) * (t * t + 1) / (s * t),
            (s * t**3 + 1) * (s**3 + t) / (s * s * t * t),
        )
    return (
        (s**2 * t**2 + s**2 * t + s * t**2 + s + t + 1) / (s * t),
        (s**4 * t**3 + s**3 * t**4 + s**3 * t + s * t**3 + s + t) / (s**2 * t**2),
        (s**6 * t**5 + s**5 * t**2 + s**4 * t**6 + s * t**4 + s**2 + t) / (s**3 * t**3),
    )


SIGNS = [(Fraction(a), Fraction(b)) for a in (1, -1) for b in (1, -1)]


def matches_transcription(k, point):
    """sigma and pibar at the rational point (s, t), in the suite's form,
    are the transcribed formulas there."""
    q = quad(*point)
    return (is_point(sigma(k, q), reference_sigma(k, point))
            and is_image(pibar(k, q), reference_pibar(k, point)))


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_closed_forms_match_transcription(k):
    samples = [(Fraction(a, b), Fraction(c, d)) for a, b, c, d in sample_points(50, seed=k)]
    for point in samples + SIGNS:
        assert matches_transcription(k, point), point


def sign_examples(test):
    for s, t in SIGNS:
        test = example(s, t)(test)
    return test


@given(nonzero_rationals, nonzero_rationals)
@sign_examples
def test_closed_forms_match_transcription_on_rationals(s, t):
    for k in (2, 3, 4, 6):
        assert matches_transcription(k, (s, t))


SURFACE_DEGREES = {2: 3, 3: 3, 4: 4, 6: 5}


@given(nonzero_rationals, nonzero_rationals)
@sign_examples
def test_integer_core_matches_fractions(s, t):
    # the residual at pibar's (X, Y, Z, L) is L^deg times the residual at
    # the transcribed image in Fractions, at points with either sign
    for k in (2, 3, 4, 6):
        image = pibar(k, quad(s, t))
        at_fractions = surface_residual(k, (*reference_pibar(k, (s, t)), 1))
        assert surface_residual(k, image) == image[3] ** SURFACE_DEGREES[k] * at_fractions == 0


matrices = st.tuples(*[st.integers(-2, 2)] * 4).map(lambda e: ((e[0], e[1]), (e[2], e[3])))


@given(nonzero_rationals, nonzero_rationals, matrices)
@example(Fraction(-3, 2), Fraction(5, 7), ((1, 1), (0, 1)))
@example(Fraction(2, 9), Fraction(-4), ((2, 1), (1, 1)))
@example(Fraction(-1), Fraction(-1), ((2, 2), (2, 2)))
def test_sigma_power_is_monomial_map_of_h_power(s, t, h):
    # sigma^j is the monomial map of h^j, as the suite takes it, for any
    # integer h, including the infinite-order ones above, such as a
    # failure-path test may patch in: the same point as sigma applied j times
    q = quad(s, t)
    power, iterated = MAT_IDENTITY, q
    for j in range(7):
        assert wallpaper._same_point(wallpaper._sigma(power, q), iterated), j
        power, iterated = mat_mul(power, h), wallpaper._sigma(h, iterated)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-9, 9).filter(bool))
def test_homogenised_residual_off_the_surface(x, y, z, w):
    q = (Fraction(x, w), Fraction(y, w), Fraction(z, w), 1)
    for k in (2, 3, 4, 6):
        expected = w ** SURFACE_DEGREES[k] * surface_residual(k, q)
        assert surface_residual(k, (x, y, z, w)) == expected


@given(nonzero_rationals, nonzero_rationals)
@sign_examples
def test_suite_verdicts_match_transcription(s, t):
    # a sample fails generic_points_free iff a nontrivial power of the
    # transcribed sigma fixes it, and total_ramification_spot iff the
    # transcribed pibar sends it where it sends (1, 1); nothing else fails
    p = (s, t)
    for k in (2, 3, 4, 6):
        orbit = [reference_sigma(k, p)]
        while len(orbit) < k - 1:
            orbit.append(reference_sigma(k, orbit[-1]))
        expected = set()
        if p in orbit:
            expected.add("generic_points_free")
        if reference_pibar(k, p) == reference_pibar(k, (Fraction(1), Fraction(1))):
            expected.add("total_ramification_spot")
        with mock.patch.object(wallpaper, "sample_points", lambda samples, seed: [quad(s, t)]):
            report = run_wallpaper_suite(k, samples=1, seed=0)
        assert {c.name for c in report.checks if not c.passed} == expected, k


class Laurent:
    """A Laurent polynomial in s, t over Q, as {(i, j): coefficient} with no
    zero coefficients.  Division is by monomials only."""

    def __init__(self, terms):
        self.terms = {e: c for e, c in terms.items() if c}

    @staticmethod
    def of(x):
        return x if isinstance(x, Laurent) else Laurent({(0, 0): x})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in Laurent.of(other).terms.items():
            out[e] = out.get(e, 0) + c
        return Laurent(out)

    __radd__ = __add__

    def __neg__(self):
        return Laurent({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -Laurent.of(other)

    def __rsub__(self, other):
        return Laurent.of(other) - self

    def __mul__(self, other):
        out = {}
        for (i, j), c in self.terms.items():
            for (a, b), d in Laurent.of(other).terms.items():
                out[i + a, j + b] = out.get((i + a, j + b), 0) + c * d
        return Laurent(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        ((i, j), c), = Laurent.of(other).terms.items()
        return self * Laurent({(-i, -j): 1 / Fraction(c)})

    def __rtruediv__(self, other):
        return Laurent.of(other) / self

    def __pow__(self, n):
        base = self if n >= 0 else 1 / self
        out = Laurent.of(1)
        for _ in range(abs(n)):
            out = out * base
        return out

    def __eq__(self, other):
        return self.terms == Laurent.of(other).terms

    def __repr__(self):
        return f"Laurent({self.terms})"


S, T = Laurent({(1, 0): 1}), Laurent({(0, 1): 1})


def test_laurent_arithmetic():
    assert (S + 1) * (S - 1) == S**2 - 1
    assert (S * T + 1) / (S * T) == 1 + T**-1 / S
    assert 2 - S != S - 2
    assert S**-2 * S**2 == 1
    with pytest.raises(ValueError):
        (S + T) ** -1


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_symbolic_proof(k):
    # identities of Laurent polynomials, so they hold at every point of
    # (C*)^2, not only at samples: sigma and the orbit sums at the generic
    # point (S, 1, T, 1) are the transcribed formulas, each coordinate of
    # pibar is sigma-invariant, and the printed surface vanishes on pibar
    q, p = (S, 1, T, 1), (S, T)
    image = reference_pibar(k, p)
    assert is_point(sigma(k, q), reference_sigma(k, p))
    assert is_image(pibar(k, q), image)
    moved = reference_pibar(k, reference_sigma(k, p))
    for coordinate, after in zip(image, moved):
        assert after == coordinate
    assert surface_residual(k, pibar(k, q)) == 0
    assert surface_residual(k, (*image, 1)) == 0
    # a residual that is not identically zero reads as nonzero
    assert surface_residual(k, (S, T, S + T, 1)) != 0
