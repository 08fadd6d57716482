import random
import time
from itertools import combinations
from math import gcd, prod

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


def det_bareiss(rows):
    """Exact determinant by fraction-free (Bareiss) elimination: polynomial
    time, so it serves at sizes where the cofactor expansion cannot."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


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


@st.composite
def large_matrices(draw, max_dim=12):
    """Up to max_dim x max_dim, rectangular as often as square; the last
    `dependent` rows are integer combinations of the rows before them, so
    singular and rank-deficient matrices are common."""
    r = draw(st.integers(1, max_dim))
    c = draw(st.one_of(st.just(r), st.integers(1, max_dim)))
    dependent = draw(st.integers(0, r - 1))
    entry = st.integers(-30, 30)
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                         min_size=r - dependent, max_size=r - dependent))
    for _ in range(dependent):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        rows.append([sum(k * row[j] for k, row in zip(coeffs, rows)) for j in range(c)])
    return rows


@st.composite
def unit_heavy_matrices(draw, max_dim=10):
    """(rows, cols, entries) with entries from {-1, 0, 1} as often as from
    [-9, 9], so the unit pass fires before and between Hermite steps;
    shapes 0..max_dim, rectangular as often as square, and the last
    `dependent` rows integer combinations of the rows before them."""
    r = draw(st.integers(0, max_dim))
    c = draw(st.one_of(st.just(r), st.integers(0, max_dim)))
    dependent = draw(st.integers(0, max(r - 1, 0)))
    entry = st.one_of(st.sampled_from((-1, 0, 1)), st.integers(-9, 9))
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                         min_size=r - dependent, max_size=r - dependent))
    for _ in range(dependent):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        rows.append([sum(k * row[j] for k, row in zip(coeffs, rows)) for j in range(c)])
    return r, c, rows


def unit_heavy(seed, n):
    """Seeded n x n matrix, each entry from {-1, 0, 1} or [-9, 9] by a coin."""
    rng = random.Random(seed)
    return [[rng.choice((-1, 0, 1)) if rng.random() < 0.5 else rng.randint(-9, 9)
             for _ in range(n)] for _ in range(n)]


def dense(seed, n, m=None):
    """Seeded n x m (default n x n) matrix with entries in [-9, 9]."""
    rng = random.Random(seed)
    return [[rng.randint(-9, 9) for _ in range(n if m is None else m)] for _ in range(n)]


def presentation_of_rows(rows, ncols):
    """The presentation whose relator i has exponent sums rows[i]."""
    return FinitePresentation(
        tuple(f"x{j}" for j in range(ncols)),
        tuple(tuple((j, e) for j, e in enumerate(row) if e) for row in rows),
    )


def group_of_diagonal(diag, ncols):
    """Z^ncols modulo the rows of a Smith normal form with this diagonal."""
    nonzero = [d for d in diag if d]
    return AbelianGroup(ncols - len(nonzero), tuple(d for d in nonzero if d >= 2))


def assert_smith_form(M, D, U, V):
    assert U.mul(M).mul(V).entries == D.entries
    assert abs(det_bareiss(U.to_rows())) == 1
    assert abs(det_bareiss(V.to_rows())) == 1
    assert all(D.at(i, j) == 0 for i in range(D.rows) for j in range(D.cols) if i != j)
    diag = D.diagonal()
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0)


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
        assert_smith_form(M, *smith_normal_form(M))

    @settings(max_examples=60)
    @given(small_matrices)
    def test_against_minors_oracle(self, rows):
        D, _, _ = smith_normal_form(IntMatrix.from_rows(rows))
        assert D.diagonal() == snf_diagonal_via_minors(rows)

    @settings(max_examples=60)
    @given(small_matrices)
    def test_bareiss_matches_cofactor_determinant(self, rows):
        n = min(len(rows), len(rows[0]))
        square = [row[:n] for row in rows[:n]]
        assert det_bareiss(square) == det_int(square)

    @settings(max_examples=200, deadline=None)
    @given(large_matrices())
    def test_large_umv_identity_and_divisor_chain(self, rows):
        M = IntMatrix.from_rows(rows)
        D, U, V = smith_normal_form(M)
        assert_smith_form(M, D, U, V)
        if M.rows == M.cols:
            assert prod(D.diagonal()) == abs(det_bareiss(rows))
        # the bare-matrix route reads the same invariant factors
        assert abelianization_of_presentation(
            presentation_of_rows(rows, M.cols)
        ) == group_of_diagonal(D.diagonal(), M.cols)

    @settings(max_examples=300, deadline=None)
    @given(unit_heavy_matrices())
    def test_unit_heavy_matrices(self, case):
        r, c, rows = case
        M = IntMatrix(r, c, tuple(x for row in rows for x in row))
        D, U, V = smith_normal_form(M)
        assert_smith_form(M, D, U, V)
        assert abelianization_of_presentation(
            presentation_of_rows(rows, c)
        ) == group_of_diagonal(D.diagonal(), c)
        if max(r, c) <= 5:
            assert D.diagonal() == snf_diagonal_via_minors(rows)

    @pytest.mark.parametrize("rows, diagonal", [
        ([[2, 0], [-1, -1]], [1, 2]),  # relator matrix of (0, 1, (2,))
        ([[-1, 0], [0, -2]], [1, 2]),
        ([[-1, 0, 0], [0, -1, 0], [0, 0, -1]], [1, 1, 1]),
        ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], [1, 1, 1]),  # permutation matrix
        ([[0, -1, 0], [0, 0, 3], [-2, 0, 0]], [1, 1, 6]),
        # the unit pass after a Hermite step leaves -6 and -2 on the diagonal
        ([[-2, 2], [0, 3]], [1, 6]),
        ([[-1, 1, 1], [1, -1, 1], [2, 0, 5], [-1, 7, -1], [1, -3, -1]], [1, 1, 2]),
    ])
    def test_unit_pivots_leave_no_negative_diagonal(self, rows, diagonal):
        M = IntMatrix.from_rows(rows)
        D, U, V = smith_normal_form(M)
        assert D.diagonal() == diagonal
        assert_smith_form(M, D, U, V)
        assert abelianization_of_presentation(
            presentation_of_rows(rows, M.cols)
        ) == group_of_diagonal(diagonal, M.cols)

    @pytest.mark.parametrize("sig, expected", [
        (OrbSignature(0, 1, (2,)), AbelianGroup(0, (2,))),  # [[2, 0], [-1, -1]]
        (OrbSignature(0, 1, (3, 6, 8)), AbelianGroup(0, (6, 24))),
    ])
    def test_unit_pivot_signs_on_signature_routes(self, sig, expected):
        assert abelianization_of_presentation(presentation_of(sig)) == expected
        assert abelianization(sig) == expected

    @pytest.mark.parametrize("seed, shape, kind", [
        *((n, (n, n), "dense") for n in range(1, 11)),
        (20, (6, 9), "dense"), (21, (9, 6), "dense"),
        (22, (10, 7), "dependent"), (23, (8, 8), "dependent"), (24, (10, 10), "dependent"),
        (25, (7, 7), "scaled"), (26, (9, 9), "scaled"), (27, (8, 10), "scaled"),
    ])
    def test_against_sympy(self, seed, shape, kind):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rows = dense(seed, *shape)
        if kind == "dependent":  # a combination of two other rows: rank-deficient
            rows[-1] = [2 * x - 3 * y for x, y in zip(rows[0], rows[1])]
        if kind == "scaled":  # row multiples make chains with several entries >= 2
            rows = [[(1, 2, 4, 6, 12)[i % 5] * x for x in row] for i, row in enumerate(rows)]
        S = sympy_snf(sympy.Matrix(rows))
        D, _, _ = smith_normal_form(IntMatrix.from_rows(rows))
        assert D.diagonal() == [abs(S[i, i]) for i in range(min(shape))]


class TestCoefficientGrowth:
    """Regression guards: the smallest-pivot Euclid loop this replaced took
    14 s on a 12x12 matrix and did not finish a 13x13 one in 120 s."""

    def test_13x13_dense_under_a_second_on_both_paths(self):
        rows = dense(13, 13)
        M = IntMatrix.from_rows(rows)
        start = time.perf_counter()
        D, U, V = smith_normal_form(M)
        assert time.perf_counter() - start < 1.0
        assert_smith_form(M, D, U, V)
        start = time.perf_counter()
        ab = abelianization_of_presentation(presentation_of_rows(rows, 13))
        assert time.perf_counter() - start < 1.0
        assert ab == group_of_diagonal(D.diagonal(), 13)
        assert prod(D.diagonal()) == abs(det_bareiss(rows))

    @pytest.mark.parametrize("seed", range(5))
    def test_12x12_transform_bits_stay_small(self, seed):
        _, U, V = smith_normal_form(IntMatrix.from_rows(dense(100 + seed, 12)))
        assert max(abs(e).bit_length() for e in U.entries + V.entries) <= 256


    @pytest.mark.parametrize("seed", range(5))
    def test_12x12_unit_heavy_transform_bits_stay_small(self, seed):
        rows = unit_heavy(200 + seed, 12)
        M = IntMatrix.from_rows(rows)
        D, U, V = smith_normal_form(M)
        assert_smith_form(M, D, U, V)
        assert max(abs(e).bit_length() for e in U.entries + V.entries) <= 256


class TestIntMatrixEntries:
    @pytest.mark.parametrize("entries", [(2.7, 1), (2, 3.0), ("2", 1), (2, True), (False, 0)])
    def test_non_integer_entries_rejected(self, entries):
        with pytest.raises(TypeError):
            IntMatrix(1, 2, entries)

    @pytest.mark.parametrize("rows", [[[2.9, 0], [0, "3"]], [[2.5, 0], [0, 3.9]], [[True]]])
    def test_from_rows_rejects_non_integers(self, rows):
        with pytest.raises(TypeError):
            IntMatrix.from_rows(rows)

    def test_index_types_become_ints(self):
        class Three:
            def __index__(self):
                return 3

        M = IntMatrix(1, 2, [Three(), 4])
        assert M.entries == (3, 4) and type(M.entries[0]) is int
        assert smith_normal_form(M)[0].diagonal() == [1]


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
