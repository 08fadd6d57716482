from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from orbicurve import (
    INFINITE,
    KindName,
    MalformedSignature,
    NinfStatus,
    NinfVerdict,
    OrbSignature,
    classify_kind,
    euler_characteristic,
    finite_order,
    h_matrix,
    is_finite_cyclic,
    satisfies_ninf,
)

small_sigs = st.builds(
    OrbSignature,
    st.integers(0, 4),
    st.integers(0, 4),
    st.lists(st.integers(2, 12), max_size=5).map(lambda m: tuple(sorted(m))),
)


def chi_by_hand(g, r, m):
    # independent evaluation of the defining formula
    return Fraction(2) - 2 * g - r - sum(Fraction(e - 1, e) for e in m)


def test_unsorted_multiplicities_refused():
    for m in [(7, 2, 3), (5, 5, 2), (3, 2)]:
        with pytest.raises(MalformedSignature, match="multiplicities must be sorted"):
            OrbSignature(0, 0, m)


@given(st.lists(st.integers(2, 12), min_size=2, max_size=5).flatmap(st.permutations))
def test_every_unsorted_arrangement_refused(m):
    if m == sorted(m):
        assert OrbSignature(0, 0, tuple(m)).m == tuple(m)
    else:
        with pytest.raises(MalformedSignature, match="multiplicities must be sorted"):
            OrbSignature(0, 0, tuple(m))


@pytest.mark.parametrize(
    "g, r, m",
    [
        (0, 0, (2.9, 3, 7)),
        (0.5, 0, ()),
        (0, 1.0, ()),
        (True, 0, ()),
        (0, False, ()),
        (0, 0, (True, 3)),
        (0, 0, ("2", 3)),
        (0, 0, 7),
    ],
)
def test_non_integers_refused(g, r, m):
    with pytest.raises(MalformedSignature, match="must be integers"):
        OrbSignature(g, r, m)


def test_integer_like_fields_become_ints():
    class Two:
        def __index__(self):
            return 2

    sig = OrbSignature(Two(), 0, [Two(), 3])
    assert sig == OrbSignature(2, 0, (2, 3))
    assert type(sig.g) is int and type(sig.m) is tuple


def test_bad_entries_rejected():
    with pytest.raises(MalformedSignature):
        OrbSignature(0, 0, (1, 3))
    with pytest.raises(MalformedSignature):
        OrbSignature(0, 0, (0,))
    with pytest.raises(MalformedSignature):
        OrbSignature(-1, 0, ())


def test_non_canonical_rejected_by_decisions():
    with pytest.raises(MalformedSignature):
        finite_order(OrbSignature(0, 0, (3, 2)))


@pytest.mark.parametrize(
    "sig, expected",
    [
        (OrbSignature(0, 0, (2, 3, 7)), Fraction(-1, 42)),
        (OrbSignature(1, 0, ()), Fraction(0)),
        (OrbSignature(0, 1, ()), Fraction(1)),
        (OrbSignature(0, 0, (2, 2, 2, 2)), Fraction(0)),
    ],
)
def test_euler_characteristic_values(sig, expected):
    assert euler_characteristic(sig) == expected
    assert euler_characteristic(sig) == chi_by_hand(sig.g, sig.r, sig.m)


@given(
    st.integers(0, 4),
    st.integers(0, 4),
    st.lists(st.one_of(st.integers(2, 12), st.integers(10**1999, 10**2001)), max_size=5),
)
def test_euler_characteristic_permutation_invariant(g, r, m):
    # the sorted signature stands for every arrangement of its multiplicities,
    # and its one Fraction over lcm(m) is the term-by-term sum, also for
    # orders of 2000 or more digits
    sig = OrbSignature(g, r, tuple(sorted(m)))
    assert euler_characteristic(sig) == chi_by_hand(g, r, m)


@pytest.mark.parametrize(
    "sig, name, finite, order",
    [
        (OrbSignature(0, 0, (2, 3, 6)), KindName.EUCLIDEAN, False, None),
        (OrbSignature(0, 0, (2, 3, 7)), KindName.HYPERBOLIC, False, None),
        (OrbSignature(0, 0, (2, 2, 5)), KindName.SPHERICAL, True, 10),
        (OrbSignature(1, 0, ()), KindName.EUCLIDEAN, False, None),
        (OrbSignature(0, 1, ()), KindName.SPHERICAL, True, 1),
    ],
)
def test_classify_kind(sig, name, finite, order):
    kind = classify_kind(sig)
    assert kind.name is name
    assert kind.finite == finite
    assert kind.order == order


@pytest.mark.parametrize(
    "sig, order",
    [
        (OrbSignature(0, 0, (4, 6)), 2),
        (OrbSignature(0, 0, (2, 3, 5)), 60),
        (OrbSignature(0, 0, (2, 3, 3)), 12),
        (OrbSignature(0, 0, (2, 3, 4)), 24),
        (OrbSignature(0, 0, (2, 2, 2)), 4),
        (OrbSignature(0, 1, (9,)), 9),
        (OrbSignature(0, 0, ()), 1),
        (OrbSignature(0, 0, (5,)), 1),
        (OrbSignature(0, 1, ()), 1),
        (OrbSignature(1, 0, ()), INFINITE),
        (OrbSignature(0, 2, ()), INFINITE),
        (OrbSignature(0, 1, (2, 2)), INFINITE),
        (OrbSignature(0, 0, (3, 3, 3)), INFINITE),
        # 2 / chi on the spherical triangles, and infinite past them
        *((OrbSignature(0, 0, (2, 2, n)), 2 * n) for n in range(3, 13)),
        (OrbSignature(0, 0, (2, 3, 7)), INFINITE),
    ],
)
def test_finite_order(sig, order):
    assert finite_order(sig) == order


def test_infinite_is_a_named_singleton():
    assert type(INFINITE)() is INFINITE
    assert repr(INFINITE) == "Infinite"


@given(small_sigs)
def test_finiteness_dichotomy(sig):
    # infinite exactly when chi <= 0, across compact and open signatures
    assert (finite_order(sig) is INFINITE) == (euler_characteristic(sig) <= 0)


@given(small_sigs)
def test_kind_consistent_with_chi(sig):
    kind = classify_kind(sig)
    chi = euler_characteristic(sig)
    expected = (
        KindName.SPHERICAL if chi > 0
        else KindName.EUCLIDEAN if chi == 0
        else KindName.HYPERBOLIC
    )
    assert kind.name is expected
    assert kind.finite == (finite_order(sig) is not INFINITE)


def test_finite_cyclic_predicate():
    assert is_finite_cyclic(OrbSignature(0, 0, (4, 6)))
    assert is_finite_cyclic(OrbSignature(0, 1, (9,)))
    assert is_finite_cyclic(OrbSignature(0, 0, ()))
    assert not is_finite_cyclic(OrbSignature(0, 0, (2, 2, 2)))
    assert not is_finite_cyclic(OrbSignature(0, 1, (2, 2)))
    assert not is_finite_cyclic(OrbSignature(1, 0, ()))


COMPACT_EUCLIDEAN = [
    OrbSignature(1, 0, ()),
    OrbSignature(0, 0, (2, 2, 2, 2)),
    OrbSignature(0, 0, (3, 3, 3)),
    OrbSignature(0, 0, (2, 4, 4)),
    OrbSignature(0, 0, (2, 3, 6)),
]
WITNESS = "<translation> ~ Z normal, f.g., infinite index"


class TestNinf:
    def test_hyperbolic_satisfies(self):
        assert satisfies_ninf(OrbSignature(0, 0, (2, 3, 7))).verdict is NinfVerdict.SATISFIES

    def test_torus_fails_with_witness(self):
        status = satisfies_ninf(OrbSignature(1, 0, ()))
        assert status.verdict is NinfVerdict.FAILS
        assert "normal" in status.witness

    def test_2222_fails(self):
        assert satisfies_ninf(OrbSignature(0, 0, (2, 2, 2, 2))).verdict is NinfVerdict.FAILS

    @pytest.mark.parametrize("m", [(3, 3, 3), (2, 4, 4), (2, 3, 6)])
    def test_euclidean_triangles_satisfy(self, m):
        # Z^2 x|_h Z_k for k = 3, 4, 6 has no nontrivial normal subgroup of
        # infinite index, so NINF holds vacuously
        assert satisfies_ninf(OrbSignature(0, 0, m)) == NinfStatus(NinfVerdict.SATISFIES)

    def test_compact_euclidean_signatures_are_the_five(self):
        sigs = (OrbSignature(g, 0, m)
                for g in range(3)
                for n in range(5)
                for m in combinations_with_replacement(range(2, 13), n))
        assert {sig for sig in sigs if euler_characteristic(sig) == 0} == set(COMPACT_EUCLIDEAN)

    @pytest.mark.parametrize("k, eigenvalue_pm1", [(2, True), (3, False), (4, False), (6, False)])
    def test_rotation_eigenvalue_pm1_only_for_k2(self, k, eigenvalue_pm1):
        # the rotation h of Z^2 x|_h Z_k fixes or reverses a translation line
        # exactly when det(h - I) det(h + I) = 0
        (a, b), (c, d) = h_matrix(k)
        product = ((a - 1) * (d - 1) - b * c) * ((a + 1) * (d + 1) - b * c)
        assert (product == 0) == eigenvalue_pm1

    @given(small_sigs)
    @example(OrbSignature(1, 0, ()))
    @example(OrbSignature(0, 0, (2, 2, 2, 2)))
    @example(OrbSignature(0, 0, (3, 3, 3)))
    @example(OrbSignature(0, 0, (2, 4, 4)))
    @example(OrbSignature(0, 0, (2, 3, 6)))
    @example(OrbSignature(0, 1, (2, 2)))
    def test_fails_iff_compact_euclidean_with_lcm_at_most_2(self, sig):
        status = satisfies_ninf(sig)
        if sig.r == 0 and euler_characteristic(sig) == 0 and lcm(*sig.m) <= 2:
            assert status == NinfStatus(NinfVerdict.FAILS, WITNESS)
        else:
            assert status == NinfStatus(NinfVerdict.SATISFIES)
