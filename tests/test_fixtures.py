import math
import time

import pytest

from orbicurve import (
    AbelianGroup,
    BadParameters,
    NotHyperbolic,
    OrbSignature,
    UnknownExample,
    UnknownGenerator,
    abelianization_of_presentation,
    check_triangle_rep,
    example_presentation,
    group_order,
    quotient_by_relators,
    triangle_representation,
    verify_example,
)
from orbicurve.fixtures import (
    AbelianizationFact,
    QuotientPresentationFact,
    TriangleRep,
    _check_fact,
    projective_distance,
)
from orbicurve.wallpaper import mat_mul


class TestQuotientByRelators:
    def test_appends_without_simplification(self):
        ex = example_presentation("quartic-b3p1")
        q = quotient_by_relators(ex.presentation, [((0, 2),)])
        assert q.relators == ex.presentation.relators + (((0, 2),),)

    def test_empty_extra_is_identity(self):
        ex = example_presentation("quartic-b3p1")
        assert quotient_by_relators(ex.presentation, []) == ex.presentation

    def test_unknown_generator_rejected(self):
        ex = example_presentation("quartic-b3p1")
        with pytest.raises(UnknownGenerator):
            quotient_by_relators(ex.presentation, [((5, 1),)])


class TestQuarticExample:
    def test_order_12(self):
        ex = example_presentation("quartic-b3p1")
        assert group_order(ex.presentation, 10_000) == 12

    def test_central_square_quotient_is_dihedral_of_order_6(self):
        ex = example_presentation("quartic-b3p1")
        central_square = ((0, 1), (1, 1), (0, 2), (1, 1), (0, 1))  # (xyx)^2
        q = quotient_by_relators(ex.presentation, [central_square])
        assert group_order(q, 1000) == 6
        assert abelianization_of_presentation(q) == AbelianGroup(0, (2,))

    def test_noncentral_square_quotient_collapses_to_z4(self):
        # quotienting by (xy)^2 instead kills the normal subgroup of order
        # 3: the result is cyclic of order 4, not the hexagonal dihedral
        # quotient, which pins down which square is central
        ex = example_presentation("quartic-b3p1")
        q = quotient_by_relators(ex.presentation, [((0, 1), (1, 1), (0, 1), (1, 1))])
        assert group_order(q, 1000) == 4
        assert abelianization_of_presentation(q) == AbelianGroup(0, (4,))

    def test_report_all_pass(self):
        report = verify_example("quartic-b3p1")
        assert report.passed
        assert [f.fact for f in report.facts[:2]] == ["order == 12", "quotient order == 6"]
        assert len(report.facts) == 3


class TestSexticExample:
    def test_quotient_abelianization_is_z6(self):
        report = verify_example("sextic-b4p1")
        assert report.passed

    def test_full_group_abelianization(self):
        ex = example_presentation("sextic-b4p1")
        # degree-6 irreducible curve complement: cyclic of order 6
        assert abelianization_of_presentation(ex.presentation) == AbelianGroup(0, (6,))


class TestQuinticExample:
    def test_abelianization_z5(self):
        ex = example_presentation("quintic-237")
        assert abelianization_of_presentation(ex.presentation) == AbelianGroup(0, (5,))

    def test_quotient_by_center_matches_triangle_group(self):
        report = verify_example("quintic-237")
        assert report.passed
        fact = [f for f in report.facts if "matches presentation" in f.fact][0]
        assert fact.detail == "word maps checked: 19 words, 38 relator conjugates"

    def test_quotient_fact_rejects_wrong_triangle_group(self):
        # (2,3,11) is perfect and infinite like (2,3,7), so abelianizations
        # and bounded enumeration cannot tell them apart; the word maps can
        ex = example_presentation("quintic-237")
        fact = next(f for f in ex.facts if isinstance(f, QuotientPresentationFact))
        for m in [(2, 3, 11), (2, 5, 7), (3, 5, 7)]:
            wrong = QuotientPresentationFact(fact.extra, OrbSignature(0, 0, m), fact.maps)
            result = _check_fact(ex.presentation, wrong)
            assert not result.passed
            assert result.detail.startswith("word maps rejected: ")


class TestArtalFamily:
    def test_parameter_validation(self):
        for bad in [(3, 1, 0), (4, 0, 2), (5, 1, 1), (4, 2, 1), (6, 1, 3)]:
            with pytest.raises(BadParameters):
                example_presentation(f"artal({bad[0]},{bad[1]},{bad[2]})")

    def test_gcd_one_edge_case_facts_restricted(self):
        ex = example_presentation("artal(5,2,1)")
        assert len(ex.facts) == 1
        assert isinstance(ex.facts[0], AbelianizationFact)
        assert ex.facts[0].expected == AbelianGroup(0, (5,))
        assert verify_example("artal(5,2,1)").passed

    def test_spherical_quotients(self):
        # (4,1,1): triangle (2,2,3), order 6; (7,4,1): triangle (2,3,5), order 60
        for name in ("artal(4,1,1)", "artal(7,4,1)"):
            report = verify_example(name)
            assert report.passed, report.facts

    def test_hyperbolic_quotient(self):
        report = verify_example("artal(10,7,1)")
        assert report.passed
        assert any("checked in both directions by free reduction" in n for n in report.notes)

    def test_family_quotients_proved_and_wrong_triangle_rejected(self):
        # every gcd(2a+1, 2b+1) = q > 1 with 1 <= b <= a <= 14, spherical
        # ones included; the certificate must fail once d - 2 becomes d - 1
        names = []
        for a in range(1, 15):
            for b in range(1, a + 1):
                q = math.gcd(2 * a + 1, 2 * b + 1)
                if q == 1:
                    continue
                d = a + b + 2
                ex = example_presentation(f"artal({d},{a},{b})")
                fact = ex.facts[1]
                assert fact.signature.m == tuple(sorted((2, q, d - 2)))
                result = _check_fact(ex.presentation, fact)
                assert result.passed, (ex.name, result.detail)
                wrong = OrbSignature(0, 0, tuple(sorted((2, q, d - 1))))
                wrong_fact = QuotientPresentationFact(fact.extra, wrong, fact.maps)
                assert not _check_fact(ex.presentation, wrong_fact).passed, ex.name
                names.append(ex.name)
        assert len(names) == 28
        assert {"artal(4,1,1)", "artal(7,4,1)", "artal(10,7,1)"} <= set(names)

    def test_degree_abelianization(self):
        for d, a, b in [(6, 3, 1), (8, 4, 2), (9, 4, 3)]:
            ex = example_presentation(f"artal({d},{a},{b})")
            assert abelianization_of_presentation(ex.presentation) == AbelianGroup(0, (d,))

    def test_degree_six_report(self):
        report = verify_example("artal(6,3,1)")
        assert report.passed
        assert len(report.facts) == 1  # gcd(7,3) = 1: abelianization only


def test_unknown_example():
    with pytest.raises(UnknownExample):
        example_presentation("dodecic")
    with pytest.raises(UnknownExample):
        verify_example("artal(5, 2)")


def hyperbolic_triples(limit):
    out = []
    for m1 in range(2, 13):
        for m2 in range(m1, 13):
            for m3 in range(m2, 13):
                if 1 / m1 + 1 / m2 + 1 / m3 < 0.999999:
                    out.append((m1, m2, m3))
    return out[:limit]


class TestTriangleRepresentation:
    def test_237_rep(self):
        rep = triangle_representation(2, 3, 7)
        checks = check_triangle_rep(rep)
        assert checks.passed
        assert checks.product_deviation <= 1e-9
        assert all(d <= 1e-9 for d in checks.order_deviations)
        assert all(c > 1e-6 for c in checks.premature_closeness)

    def test_euclidean_and_spherical_rejected(self):
        for triple in [(2, 3, 6), (2, 4, 4), (3, 3, 3), (2, 2, 7), (2, 3, 5)]:
            with pytest.raises(NotHyperbolic):
                triangle_representation(*triple)

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf])
    def test_bad_tolerance_or_margin_rejected(self, bad):
        with pytest.raises(ValueError, match="tolerance"):
            triangle_representation(2, 3, 7, tolerance=bad)
        rep = triangle_representation(2, 3, 7)
        with pytest.raises(ValueError, match="tolerance"):
            TriangleRep(rep.orders, rep.matrices, bad)
        with pytest.raises(ValueError, match="reject margin"):
            check_triangle_rep(rep, reject_margin=bad)
        # zero is a bound, not an error
        assert check_triangle_rep(rep, reject_margin=0.0).passed

    def test_334_small_powers_far_from_identity(self):
        rep = triangle_representation(3, 3, 4)
        checks = check_triangle_rep(rep, reject_margin=1e-6)
        assert checks.passed

    def test_determinants_unit(self):
        rep = triangle_representation(2, 4, 5)
        for m in rep.matrices:
            det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
            assert abs(det - 1.0) < 1e-12

    def test_product_is_identity(self):
        rep = triangle_representation(3, 4, 5)
        x1, x2, x3 = rep.matrices
        prod = [
            [
                sum(x1[i][a] * x2[a][b] * x3[b][j] for a in range(2) for b in range(2))
                for j in range(2)
            ]
            for i in range(2)
        ]
        assert projective_distance((tuple(prod[0]), tuple(prod[1]))) < 1e-12

    def test_twenty_triples(self):
        triples = hyperbolic_triples(20)
        assert len(triples) == 20
        for triple in triples:
            assert check_triangle_rep(triangle_representation(*triple)).passed, triple

    def test_rotation_angles(self):
        # x1 rotates about i by 2*pi/m1: its trace is 2*cos(pi/m1)
        rep = triangle_representation(2, 3, 7)
        for m, mat in zip(rep.orders, rep.matrices):
            assert abs(abs(mat[0][0] + mat[1][1]) - 2 * math.cos(math.pi / m)) < 1e-12

    def test_orders_within_resolution_certified_quickly(self):
        # at 1e-9 the angle gap pi/m - pi/(m+1) exceeds twice the tolerance up to m = 39632
        start = time.perf_counter()
        for m in (470, 2895, 3000, 10**4, 3 * 10**4, 39632):
            checks = check_triangle_rep(triangle_representation(2, 3, m))
            assert checks.passed, (m, checks)
        assert time.perf_counter() - start < 1.0

    def test_orders_beyond_resolution_not_certified(self):
        for m in (39633, 10**5, 10**9):
            checks = check_triangle_rep(triangle_representation(2, 3, m, tolerance=1e-9))
            assert not checks.passed, m
            assert checks.order_resolutions[2] < 1e-9
        # a finer tolerance resolves m = 10^5 again
        assert check_triangle_rep(triangle_representation(2, 3, 10**5, tolerance=1e-11)).passed

    def test_default_tolerance_from_the_orders(self):
        # min(1e-9, pi/(4m(m+1))): half the resolution, so it never hides an order
        assert triangle_representation(2, 3, 7).tolerance == 1e-9
        for m in (39633, 99058):
            rep = triangle_representation(2, 3, m)
            assert rep.tolerance == math.pi / (4 * m * (m + 1)) < 1e-9
            checks = check_triangle_rep(rep)
            assert checks.passed, (m, checks)
            assert rep.tolerance < checks.order_resolutions[2] == 2 * rep.tolerance
        # beyond about 2e5 float rounding exceeds the derived tolerance
        for m in (3 * 10**5, 10**9):
            assert not check_triangle_rep(triangle_representation(2, 3, m)).passed, m

    def test_wrong_order_label_rejected(self):
        rep = triangle_representation(2, 3, 7)
        relabelled = TriangleRep((2, 3, 8), rep.matrices, rep.tolerance)
        checks = check_triangle_rep(relabelled)
        assert not checks.passed
        assert checks.order_deviations[2] > 1e-2
        for m in (3000, 30000, 10**9):
            rep = triangle_representation(2, 3, m)
            for label in (m - 1, m + 1):
                checks = check_triangle_rep(TriangleRep((2, 3, label), rep.matrices, 1e-9))
                assert not checks.passed and checks.order_deviations[2] > 1e-9, (m, label)

    def test_parabolic_generator_rejected(self):
        parabolic = ((1.0, 1.0), (0.0, 1.0))
        for m in (7, 3000, 10**9):
            x1, x2, _ = triangle_representation(2, 3, m).matrices
            checks = check_triangle_rep(TriangleRep((2, 3, m), (x1, x2, parabolic), 1e-9))
            assert not checks.passed and checks.order_deviations[2] > 1e-9, m

    def test_perturbed_generator_rejected(self):
        rep = triangle_representation(2, 3, 7)
        x1, x2, x3 = rep.matrices
        bumped = ((x2[0][0] + 1e-6, x2[0][1]), x2[1])
        checks = check_triangle_rep(TriangleRep(rep.orders, (x1, bumped, x3), rep.tolerance))
        assert not checks.passed


    def test_scaled_generators_keep_their_angle(self):
        # x / sqrt(det x) carries the angle: a scalar within tolerance changes no order
        x1, x2, x3 = triangle_representation(2, 3, 30000).matrices
        c = 1.0 + 2.5e-10
        scaled = tuple(tuple(c * v for v in row) for row in x3)
        checks = check_triangle_rep(TriangleRep((2, 3, 30000), (x1, x2, scaled), 1e-9))
        assert checks.passed, checks
        assert checks.order_deviations[2] < 1e-11
        # far outside the tolerance, and so large a power would overflow a float
        doubled = tuple(tuple(2.0 * v for v in row) for row in x3)
        assert not check_triangle_rep(TriangleRep((2, 3, 10**9), (x1, x2, doubled), 1e-9)).passed

    def test_premature_closeness_bounds_smaller_powers(self):
        # against the distance of every x^j, 0 < j < m, from +-I; exact at det 1
        def rotation(theta, c):
            return ((c * math.cos(theta), c * math.sin(theta)),
                    (-c * math.sin(theta), c * math.cos(theta)))

        rep = triangle_representation(2, 3, 7)
        cases = [(x, m, True) for x, m in zip(rep.matrices, rep.orders)]
        cases += [(rotation(math.pi / m + delta, c), m, c == 1.0)
                  for m in (5, 7, 12) for delta in (-0.01, 0.0, 0.01) for c in (1.0, 0.97)]
        for x, m, unit_det in cases:
            power, closest = x, math.inf
            for _ in range(m - 1):
                closest = min(closest, projective_distance(power))
                power = mat_mul(power, x)
            bound = check_triangle_rep(TriangleRep((m, m, m), (x, x, x), 1e-9)).premature_closeness
            assert bound[0] <= closest + 1e-12, (m, bound[0], closest)
            assert not unit_det or bound[0] >= closest - 1e-9, (m, bound[0], closest)
