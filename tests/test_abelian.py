from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicurve import (
    AbelianGroup,
    FinitePresentation,
    IntMatrix,
    OrbSignature,
    abelianization,
    abelianization_of_presentation,
    divisor_chain,
    presentation_of,
    smith_normal_form,
)


def det_int(rows):
    # exact determinant by cofactor expansion; fine at test sizes
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_int(minor)
    return total


def minors_gcd(rows, k):
    """gcd of all k x k minors; the classical determinantal-divisor oracle:
    d_1 * ... * d_k equals this gcd."""
    m, n = len(rows), len(rows[0]) if rows else 0
    out = 0
    for ris in combinations(range(m), k):
        for cjs in combinations(range(n), k):
            sub = [[rows[i][j] for j in cjs] for i in ris]
            out = gcd(out, det_int(sub))
    return out


def snf_diagonal_via_minors(rows):
    """Independent oracle: divisors from determinantal divisors."""
    m, n = len(rows), len(rows[0]) if rows else 0
    diag = []
    previous = 1
    for k in range(1, min(m, n) + 1):
        dk = minors_gcd(rows, k)
        if dk == 0:
            break
        diag.append(dk // previous)
        previous = dk
    while len(diag) < min(m, n):
        diag.append(0)
    return diag


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-30, 30), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


class TestSmithNormalForm:
    def test_diag_2_3(self):
        D, U, V = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert D.diagonal() == [1, 6]

    def test_zero_matrix(self):
        M = IntMatrix.zero(2, 2)
        D, U, V = smith_normal_form(M)
        assert D.entries == (0, 0, 0, 0)
        assert U.entries == (1, 0, 0, 1)
        assert V.entries == (1, 0, 0, 1)

    def test_rectangular(self):
        rows = [[2, 0], [0, 3], [4, 4]]
        D, U, V = smith_normal_form(IntMatrix.from_rows(rows))
        assert D.diagonal() == [1, 2]
        assert D.diagonal() == snf_diagonal_via_minors(rows)

    @settings(max_examples=150)
    @given(small_matrices)
    def test_umv_identity_and_divisor_chain(self, rows):
        M = IntMatrix.from_rows(rows)
        D, U, V = smith_normal_form(M)
        assert U.mul(M).mul(V).entries == D.entries
        assert abs(det_int(U.to_rows())) == 1
        assert abs(det_int(V.to_rows())) == 1
        diag = D.diagonal()
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
        # off-diagonal zero
        for i in range(D.rows):
            for j in range(D.cols):
                if i != j:
                    assert D.at(i, j) == 0

    @settings(max_examples=60)
    @given(small_matrices)
    def test_against_minors_oracle(self, rows):
        D, _, _ = smith_normal_form(IntMatrix.from_rows(rows))
        assert D.diagonal() == snf_diagonal_via_minors(rows)


class TestAbelianGroup:
    def test_divisor_chain_enforced(self):
        with pytest.raises(ValueError):
            AbelianGroup(0, (4, 2))
        with pytest.raises(ValueError):
            AbelianGroup(0, (1,))

    def test_divisor_chain_normalization(self):
        assert divisor_chain((2, 3)) == (6,)
        assert divisor_chain((2, 4, 4)) == (2, 4, 4)
        assert divisor_chain((6, 10, 15)) == (30, 30)
        assert divisor_chain((1, 1)) == ()

    @settings(max_examples=60)
    @given(st.lists(st.integers(2, 60), max_size=8))
    def test_divisor_chain_matches_diagonal_snf(self, orders):
        n = len(orders)
        diagonal = IntMatrix(n, n, tuple(
            orders[i] if i == j else 0 for i in range(n) for j in range(n)
        ))
        D, _, _ = smith_normal_form(diagonal)
        assert divisor_chain(orders) == tuple(d for d in D.diagonal() if d >= 2)


# rows of the abelianization table for the non-realizable compact groups
TABLE = [
    (OrbSignature(0, 0, (2, 3, 4)), AbelianGroup(0, (2,))),
    (OrbSignature(0, 0, (2, 3, 3)), AbelianGroup(0, (3,))),
    (OrbSignature(0, 0, (2, 3, 6)), AbelianGroup(0, (6,))),
    (OrbSignature(0, 0, (3, 3, 3)), AbelianGroup(0, (3, 3))),
    (OrbSignature(0, 0, (2, 2, 2, 2)), AbelianGroup(0, (2, 2, 2))),
    (OrbSignature(0, 0, (2, 4, 4)), AbelianGroup(0, (2, 4))),
]
TABLE += [
    (OrbSignature(0, 0, (2, 2, 2 * k + 1)), AbelianGroup(0, (2,))) for k in range(1, 6)
]
TABLE += [
    (OrbSignature(0, 0, (2, 2, 2 * k)), AbelianGroup(0, (2, 2))) for k in range(1, 6)
]


class TestAbelianization:
    @pytest.mark.parametrize("sig, expected", TABLE)
    def test_table_rows(self, sig, expected):
        assert abelianization(sig) == expected

    def test_235_is_trivial(self):
        # the enumerated group of order 60 is perfect; SNF of the relation
        # lattice confirms a trivial abelianization
        assert abelianization(OrbSignature(0, 0, (2, 3, 5))) == AbelianGroup(0)
        rows = [[2, 0], [0, 3], [5, 5]]
        assert snf_diagonal_via_minors(rows) == [1, 1]

    def test_surface_group(self):
        assert abelianization(OrbSignature(2, 0, ())) == AbelianGroup(4)

    @pytest.mark.parametrize(
        "sig, expected",
        [
            (OrbSignature(0, 3, (2, 2)), AbelianGroup(2, (2, 2))),
            (OrbSignature(1, 1, ()), AbelianGroup(2)),
            (OrbSignature(0, 1, (2, 3)), AbelianGroup(0, (6,))),
            (OrbSignature(0, 2, (4, 6)), AbelianGroup(1, (2, 12))),
        ],
    )
    def test_open_groups(self, sig, expected):
        assert abelianization(sig) == expected

    @given(
        st.integers(0, 3),
        st.integers(1, 3),
        st.lists(st.integers(2, 10), max_size=4),
    )
    def test_open_torsion_order_and_rank(self, g, r, m):
        sig = OrbSignature(g, r, tuple(sorted(m)))
        ab = abelianization(sig)
        assert ab.rank == 2 * g + r - 1
        product = 1
        for e in m:
            product *= e
        assert ab.torsion_order() == product


def grid_signatures():
    from itertools import combinations_with_replacement

    for g in range(4):
        for r in range(4):
            for n in range(5):
                for m in combinations_with_replacement(range(2, 11), n):
                    yield OrbSignature(g, r, m)


def test_presentation_route_agrees_on_grid():
    # independent routes: the signature route is the closed form from the
    # divisor chain of m, the presentation route the Smith normal form of
    # the relator exponent matrix
    count = 0
    for sig in grid_signatures():
        assert abelianization(sig) == abelianization_of_presentation(
            presentation_of(sig)
        ), sig
        count += 1
    assert count > 3000


# orders sharing prime powers, so that chains with repeated primes occur;
# drawing from a small pool of them first makes repeated entries common
SHARED_PRIME_POWER_ORDERS = (2, 3, 4, 6, 8, 9, 12, 16, 27, 30, 36, 60)
shared_prime_power_orders = st.lists(
    st.sampled_from(SHARED_PRIME_POWER_ORDERS), min_size=1, max_size=4
).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=8))


@settings(max_examples=300)
@given(st.integers(0, 2), st.integers(0, 2), shared_prime_power_orders)
def test_presentation_route_agrees_on_shared_prime_powers(g, r, m):
    sig = OrbSignature(g, r, tuple(sorted(m)))
    assert abelianization(sig) == abelianization_of_presentation(presentation_of(sig))


def test_single_torsion_generator_presentation():
    p = FinitePresentation(("x",), (((0, 3),),))
    assert abelianization_of_presentation(p) == AbelianGroup(0, (3,))


def abelianized_presentation(p):
    """Append all pairwise commutators: presents the abelianization."""
    commutators = [
        ((i, 1), (j, 1), (i, -1), (j, -1))
        for i in range(p.ngens)
        for j in range(i + 1, p.ngens)
    ]
    return FinitePresentation(p.generators, p.relators + tuple(commutators))


def test_enumerator_recounts_torsion_orders():
    # second, SNF-free route to the abelianization order: enumerate the
    # presentation with commutator relators added; works even for infinite
    # groups whose abelianization is finite, such as the Euclidean ones
    from orbicurve import group_order

    for sig in [
        OrbSignature(0, 0, (2, 3, 4)),
        OrbSignature(0, 0, (2, 3, 5)),
        OrbSignature(0, 0, (2, 3, 6)),
        OrbSignature(0, 0, (3, 3, 3)),
        OrbSignature(0, 0, (2, 4, 4)),
        OrbSignature(0, 0, (2, 2, 2, 2)),
        OrbSignature(0, 0, (2, 2, 7)),
        OrbSignature(0, 0, (2, 3, 7)),
        OrbSignature(0, 1, (2, 3)),
        OrbSignature(0, 1, (4, 6)),
    ]:
        ab = abelianization(sig)
        assert ab.rank == 0
        enumerated = group_order(abelianized_presentation(presentation_of(sig)), 10**4)
        assert enumerated == ab.torsion_order(), sig
