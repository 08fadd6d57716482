from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_cases import PSL27
from orbicurve import (
    ArityMismatch,
    Exceeded,
    LcmNotDividing,
    NonIntegralRank,
    NotOpenGroup,
    OrbSignature,
    PermutationImages,
    UnsupportedKind,
    euler_characteristic,
    lcm_cover_for_free_product,
    permutation_group_order,
    presentation_of,
    projective_triangle_fixture,
    torsion_free_subgroup_rank,
    verify_torsion_free_kernel,
)
from orbicurve.cosets import identity_perm, parse_cycles, perm_inverse, perm_mul
from orbicurve.covers import KernelCheck, _mobius_perm
from test_cosets import reference_order, reference_power


def rho_by_hand(sig, d):
    # independent evaluation of the cover identities
    chi = euler_characteristic(sig)
    rho = 1 - Fraction(d) * chi / 2 if sig.r == 0 else 1 - Fraction(d) * chi
    assert rho.denominator == 1
    return int(rho)


class TestRankArithmetic:
    @pytest.mark.parametrize(
        "sig, d, rho",
        [
            (OrbSignature(0, 1, (2, 3)), 6, 2),
            (OrbSignature(0, 2, (2, 3)), 6, 8),
            (OrbSignature(0, 0, (2, 3, 7)), 168, 3),
            (OrbSignature(2, 0, ()), 1, 2),
            (OrbSignature(0, 0, (2, 2, 2)), 4, 0),
            (OrbSignature(1, 0, ()), 5, 1),
        ],
    )
    def test_values(self, sig, d, rho):
        report = torsion_free_subgroup_rank(sig, d)
        assert report.rho == rho == rho_by_hand(sig, d)
        assert report.d == d
        assert report.compact == (sig.r == 0)

    def test_riemann_hurwitz_identity_holds_exactly(self):
        for sig, d in [
            (OrbSignature(0, 0, (2, 3, 7)), 168),
            (OrbSignature(0, 0, (2, 3, 7)), 336),
            (OrbSignature(1, 1, (2, 2)), 4),
        ]:
            report = torsion_free_subgroup_rank(sig, d)
            chi = euler_characteristic(sig)
            if sig.r == 0:
                assert 2 - 2 * report.rho == d * chi
            else:
                assert 1 - report.rho == d * chi

    def test_lcm_must_divide(self):
        with pytest.raises(LcmNotDividing):
            torsion_free_subgroup_rank(OrbSignature(0, 0, (2, 3, 7)), 100)

    def test_non_integral_rank(self):
        # lcm(2,2,2) = 2 divides 2, but rho = 1/2
        with pytest.raises(NonIntegralRank):
            torsion_free_subgroup_rank(OrbSignature(0, 0, (2, 2, 2)), 2)

    def test_negative_rank_rejected(self):
        # spherical: larger indices would force a negative invariant
        with pytest.raises(NonIntegralRank):
            torsion_free_subgroup_rank(OrbSignature(0, 0, (2, 2, 2)), 8)


class TestLcmCover:
    @pytest.mark.parametrize(
        "sig, d, rho",
        [
            (OrbSignature(0, 1, (2, 3)), 6, 2),
            (OrbSignature(1, 1, ()), 1, 2),
            (OrbSignature(0, 3, (2, 2)), 2, 5),
            (OrbSignature(0, 1, (5,)), 5, 0),
            (OrbSignature(0, 2, ()), 1, 1),
            (OrbSignature(0, 1, (2, 2)), 2, 1),
        ],
    )
    def test_values(self, sig, d, rho):
        report = lcm_cover_for_free_product(sig)
        assert (report.d, report.rho, report.compact) == (d, rho, False)
        # must also pass the plain arithmetic route
        assert torsion_free_subgroup_rank(sig, report.d).rho == report.rho

    def test_compact_rejected(self):
        with pytest.raises(NotOpenGroup):
            lcm_cover_for_free_product(OrbSignature(1, 0, ()))


def regular_z6_images():
    """(0,1,(2,3)) mapped onto the regular representation of the cyclic
    group of order 6: x1 -> r^3, x2 -> r^2, y1 -> r."""
    r = tuple((i + 1) % 6 for i in range(6))
    r2 = tuple((i + 2) % 6 for i in range(6))
    r3 = tuple((i + 3) % 6 for i in range(6))
    return PermutationImages(6, (r3, r2, r))


class TestVerifyTorsionFreeKernel:
    def test_projective_fixture_certifies(self):
        result = verify_torsion_free_kernel(
            OrbSignature(0, 0, (2, 3, 7)), projective_triangle_fixture()
        )
        assert result.verdict == "torsion_free_kernel"
        assert result.index == 168

    def test_modular_group_onto_z6(self):
        result = verify_torsion_free_kernel(OrbSignature(0, 1, (2, 3)), regular_z6_images())
        assert result.verdict == "torsion_free_kernel"
        assert result.index == 6

    def test_collapsed_torsion_detected(self):
        images = PermutationImages(8, (identity_perm(8),) * 3)
        result = verify_torsion_free_kernel(OrbSignature(0, 0, (2, 3, 7)), images)
        assert result.verdict == "torsion_in_kernel"
        assert result.generator == 1

    def test_non_homomorphism_detected(self):
        fixture = projective_triangle_fixture()
        # swap x1 and x2: orders no longer match the relators
        images = PermutationImages(
            8, (fixture.images[1], fixture.images[0], fixture.images[2])
        )
        result = verify_torsion_free_kernel(OrbSignature(0, 0, (2, 3, 7)), images)
        assert result.verdict == "not_homomorphism"

    def test_spherical_refused(self):
        images = PermutationImages(2, ((1, 0), (1, 0), (1, 0)))
        with pytest.raises(UnsupportedKind):
            verify_torsion_free_kernel(OrbSignature(0, 0, (2, 2, 2)), images)

    def test_open_spherical_allowed(self):
        # Z3 mapping faithfully onto its regular representation: the kernel
        # is trivial, hence torsion-free, index 3
        r = (1, 2, 0)
        images = PermutationImages(3, (r, perm_inverse(r)))
        result = verify_torsion_free_kernel(OrbSignature(0, 1, (3,)), images)
        assert result.verdict == "torsion_free_kernel"
        assert result.index == 3

    def test_euclidean_allowed(self):
        # (2,2,2,2) onto Z2, killing no torsion generator: x_j -> swap
        swap = (1, 0)
        images = PermutationImages(2, (swap, swap, swap, swap))
        result = verify_torsion_free_kernel(OrbSignature(0, 0, (2, 2, 2, 2)), images)
        assert result.verdict == "torsion_free_kernel"
        assert result.index == 2

    def test_cap_propagates(self):
        result = verify_torsion_free_kernel(
            OrbSignature(0, 0, (2, 3, 7)), projective_triangle_fixture(), cap=50
        )
        assert isinstance(result, Exceeded)

    @pytest.mark.parametrize("cap", [0, -5])
    @pytest.mark.parametrize("images", [
        projective_triangle_fixture(),
        PermutationImages(8, (identity_perm(8),) * 3),  # torsion_in_kernel
        PermutationImages(8, (identity_perm(8),) * 2 + (parse_cycles("(1 2)", 8),)),
    ], ids=["fixture", "identities", "not-homomorphism"])
    def test_bad_cap_refused_before_any_verdict(self, images, cap):
        # whatever the images, not only when the closure is reached
        with pytest.raises(ValueError, match="cap must be >= 1"):
            verify_torsion_free_kernel(OrbSignature(0, 0, (2, 3, 7)), images, cap=cap)

    def test_singular_mobius_matrix_refused(self):
        # det 1*4 - 2*2 = 0: no permutation of the projective line
        with pytest.raises(ValueError, match="singular mod p"):
            _mobius_perm(((1, 2), (2, 4)), 7)

    def test_certified_index_passes_rank_arithmetic(self):
        # Riemann-Hurwitz consistency between the two operations
        sig = OrbSignature(0, 0, (2, 3, 7))
        result = verify_torsion_free_kernel(sig, projective_triangle_fixture())
        report = torsion_free_subgroup_rank(sig, result.index)
        assert report.rho == 3

    def test_z6_kernel_passes_rank_arithmetic(self):
        sig = OrbSignature(0, 1, (2, 3))
        result = verify_torsion_free_kernel(sig, regular_z6_images())
        report = torsion_free_subgroup_rank(sig, result.index)
        assert report.rho == 2


def reference_kernel_check(sig, images):
    """Every relator by repeated products, then the first torsion generator
    whose image has too small an order, then the order of the group."""
    for w in presentation_of(sig).relators:
        value = identity_perm(images.degree)
        for g, e in w:
            value = perm_mul(value, reference_power(images.images[g], e))
        if value != identity_perm(images.degree):
            return KernelCheck("not_homomorphism")
    for j, mj in enumerate(sig.m):
        if reference_order(images.images[2 * sig.g + j]) != mj:
            return KernelCheck("torsion_in_kernel", generator=j + 1)
    order = permutation_group_order(images)
    return order if isinstance(order, Exceeded) else KernelCheck("torsion_free_kernel",
                                                                 index=order)


@st.composite
def kernel_cases(draw):
    """A signature with g, r <= 1 and orders 2..8 (not spherical when
    compact), images on at most 12 points that satisfy the long relator,
    and the same images with one of them perturbed."""
    sig = draw(st.builds(OrbSignature, st.integers(0, 1), st.integers(0, 1),
                         st.lists(st.integers(2, 8), max_size=4).map(sorted).map(tuple))
               .filter(lambda s: s.r or euler_characteristic(s) <= 0))
    degree = draw(st.integers(1, 12))
    ngens = 2 * sig.g + len(sig.m) + sig.r
    images = [tuple(draw(st.permutations(list(range(degree))))) for _ in range(ngens)]
    long = presentation_of(sig).relators[-1]
    if sig.g == 1 and ngens == 2:  # the torus: b commutes with a, as a power of it
        images[1] = reference_power(images[0], draw(st.integers(0, 12)))
    else:
        # the last generator is one letter L^-1 of the long relator C L^-1 R,
        # which holds when L = R C
        at = [s for s, _ in long].index(ngens - 1)
        value = identity_perm(degree)
        for s, e in long[at + 1:] + long[:at]:
            value = perm_mul(value, reference_power(images[s], e))
        images[-1] = value
    # the same images with one of them followed by a transposition
    broken = list(images)
    if degree > 1:
        k = draw(st.integers(0, ngens - 1))
        i, j = draw(st.lists(st.integers(0, degree - 1), min_size=2, max_size=2, unique=True))
        swap = list(range(degree))
        swap[i], swap[j] = j, i
        broken[k] = perm_mul(broken[k], swap)
    return sig, PermutationImages(degree, images), PermutationImages(degree, broken)


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_kernel_check_matches_reference(case):
    sig, images, broken = case
    for perms in (images, broken):
        assert verify_torsion_free_kernel(sig, perms) == reference_kernel_check(sig, perms)
    for wrong in (images.images[:-1], images.images + (identity_perm(images.degree),)):
        with pytest.raises(ArityMismatch, match="generators but"):
            verify_torsion_free_kernel(sig, PermutationImages(images.degree, wrong))


def test_sign_law_over_produced_reports():
    reports = []
    for sig, d in [
        (OrbSignature(0, 0, (2, 3, 7)), 168),
        (OrbSignature(0, 1, (2, 3)), 6),
        (OrbSignature(0, 0, (2, 2, 2)), 4),
        (OrbSignature(1, 0, ()), 3),
        (OrbSignature(0, 1, (2, 2)), 2),
        (OrbSignature(0, 1, (5,)), 5),
        (OrbSignature(2, 0, ()), 1),
    ]:
        reports.append((sig, torsion_free_subgroup_rank(sig, d)))
    for sig, report in reports:
        chi = euler_characteristic(sig)
        assert (report.rho >= 2) == (chi < 0)
        assert (report.rho == 1) == (chi == 0)
        assert (report.rho == 0) == (chi > 0)


def test_perm_file_cycles_parse():
    fixture = projective_triangle_fixture()
    # the fixture written in cycle notation parses back to itself, and is
    # the permutation file of the golden CLI cases
    from orbicurve.cosets import format_cycles

    for image in fixture.images:
        assert parse_cycles(format_cycles(image), 8) == image
    assert f"degree {fixture.degree}\n" + "".join(
        f"{name} = {format_cycles(image)}\n"
        for name, image in zip(("x1", "x2", "x3"), fixture.images)) == PSL27


def test_perm_file_cycles_may_be_separated_by_whitespace():
    tight = parse_cycles("(1 8)(2 7)(3 4)(5 6)", 8)
    assert parse_cycles("(1 8) (2 7)(3 4)  \t(5 6)", 8) == tight
