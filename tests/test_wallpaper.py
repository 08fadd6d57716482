from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbicurve import (
    BadK,
    CycloElement,
    TorusPoint,
    apply_pibar,
    apply_sigma,
    fixed_point_set,
    h_matrix,
    run_wallpaper_suite,
    surface_residual,
)
from orbicurve.wallpaper import (
    MAT_IDENTITY,
    OMEGA,
    OMEGA_BAR,
    ONE,
    mat_mul,
    mat_order,
    sample_points,
)

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
cyclos = st.builds(CycloElement, rationals, rationals)


class TestCycloArithmetic:
    def test_omega_is_primitive_cube_root(self):
        assert OMEGA**3 == ONE
        assert OMEGA**2 == -ONE - OMEGA
        assert OMEGA != ONE

    def test_conjugate_is_square(self):
        assert OMEGA_BAR == OMEGA**2
        assert OMEGA * OMEGA_BAR == ONE

    @given(cyclos, cyclos, cyclos)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a + b == b + a
        assert a * b == b * a

    @given(cyclos)
    def test_field_inverse(self, a):
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            assert a * a.inverse() == ONE

    @given(cyclos, cyclos)
    def test_norm_is_multiplicative(self, a, b):
        assert (a * b).norm() == a.norm() * b.norm()

    @given(cyclos)
    def test_conjugation_is_ring_automorphism(self, a):
        assert a.conjugate().conjugate() == a
        assert (a * a).conjugate() == a.conjugate() * a.conjugate()

    @given(cyclos, cyclos)
    def test_division_inverts_multiplication(self, a, b):
        if not b.is_zero():
            assert (a / b) * b == a

    @given(cyclos)
    def test_integer_power_laws(self, a):
        assert a**0 == ONE
        assert a**3 == a * a * a
        if not a.is_zero():
            assert a**-2 == (a * a).inverse()


class TestSigma:
    def test_k2_formula(self):
        p = apply_sigma(2, TorusPoint.of(2, 3))
        assert p == TorusPoint.of(Fraction(1, 2), Fraction(1, 3))

    def test_k6_six_iterations_return(self):
        p = TorusPoint.of(2, 5)
        q = p
        for j in range(6):
            q = apply_sigma(6, q)
            if j < 5:
                assert q != p
        assert q == p

    def test_k3_fixed_point_with_omega(self):
        p = TorusPoint(OMEGA, OMEGA**2)
        assert apply_sigma(3, p) == p

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_order_k_on_rational_points(self, k):
        p = TorusPoint.of(Fraction(3, 7), Fraction(5, 2))
        q = p
        for _ in range(k):
            q = apply_sigma(k, q)
        assert q == p

    def test_bad_k(self):
        with pytest.raises(BadK):
            apply_sigma(5, TorusPoint.of(2, 2))


class TestPibarAndSurface:
    def test_k2_printed_values(self):
        x, y, z = apply_pibar(2, TorusPoint.of(2, 3))
        assert (x, y, z) == (
            CycloElement.of(Fraction(5, 2)),
            CycloElement.of(Fraction(10, 3)),
            CycloElement.of(Fraction(37, 6)),
        )
        assert surface_residual(2, (x, y, z)).is_zero()

    def test_k2_at_unit(self):
        assert apply_pibar(2, TorusPoint.of(1, 1)) == (
            CycloElement.of(2), CycloElement.of(2), CycloElement.of(2)
        )

    def test_k4_at_unit(self):
        assert apply_pibar(4, TorusPoint.of(1, 1)) == (
            CycloElement.of(4), CycloElement.of(4), CycloElement.of(4)
        )

    def test_k6_transcription_anchor(self):
        image = apply_pibar(6, TorusPoint.of(1, 1))
        assert image == (CycloElement.of(6), CycloElement.of(6), CycloElement.of(6))
        assert surface_residual(6, image).is_zero()

    def test_constant_term(self):
        assert surface_residual(2, (0, 0, 0)) == CycloElement.of(-4)

    def test_k3_image_on_surface(self):
        image = apply_pibar(3, TorusPoint.of(2, 3))
        assert surface_residual(3, image).is_zero()

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_invariance_and_surface_on_samples(self, k):
        for p in sample_points(10, seed=5):
            image = apply_pibar(k, p)
            assert apply_pibar(k, apply_sigma(k, p)) == image
            assert surface_residual(k, image).is_zero()


class TestFixedPoints:
    def test_printed_sets(self):
        assert len(fixed_point_set(2)) == 4
        assert fixed_point_set(4) == fixed_point_set(2)
        assert len(fixed_point_set(3)) == 3
        p6 = fixed_point_set(6)
        assert len(p6) == 6
        assert set(fixed_point_set(2)) < set(p6)
        assert TorusPoint(OMEGA, OMEGA) in p6
        assert TorusPoint(OMEGA_BAR, OMEGA_BAR) in p6

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_each_has_nontrivial_isotropy(self, k):
        for q in fixed_point_set(k):
            orbit = [q]
            for _ in range(k - 1):
                orbit.append(apply_sigma(k, orbit[-1]))
            assert any(orbit[j] == q for j in range(1, k))


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


class TestSuite:
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
        assert sample_points(7, seed=9) == sample_points(7, seed=9)
        assert sample_points(7, seed=9) != sample_points(7, seed=10)

    def test_samples_avoid_fixed_point_coordinates(self):
        for p in sample_points(200, seed=0):
            assert p.s != ONE and p.t != ONE

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


def test_mat_identity_order():
    assert mat_order(MAT_IDENTITY) == 1


# ---------------------------------------------------------------------------
# reference transcription: sigma_k and pibar_k as hand-written formulas, to
# check the monomial-map and orbit-sum forms against


def reference_sigma(k, p):
    s, t = p.s, p.t
    if k == 2:
        return TorusPoint(ONE / s, ONE / t)
    if k == 3:
        return TorusPoint(ONE / t, s / t)
    if k == 4:
        return TorusPoint(ONE / t, s)
    return TorusPoint(s * t, ONE / s)


def reference_pibar(k, p):
    s, t = p.s, p.t
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


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_closed_forms_match_transcription(k):
    points = sample_points(50, seed=k) + list(fixed_point_set(k))
    for p in points:
        assert apply_sigma(k, p) == reference_sigma(k, p), p
        assert apply_pibar(k, p) == reference_pibar(k, p), p


@given(cyclos.filter(lambda c: not c.is_zero()), cyclos.filter(lambda c: not c.is_zero()))
def test_closed_forms_match_transcription_in_q_omega(s, t):
    p = TorusPoint(s, t)
    for k in (2, 3, 4, 6):
        assert apply_sigma(k, p) == reference_sigma(k, p)
        assert apply_pibar(k, p) == reference_pibar(k, p)
