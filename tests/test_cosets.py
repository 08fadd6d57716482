import collections
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicurve import (
    ArityMismatch,
    Exceeded,
    FinitePresentation,
    OrbSignature,
    PermutationImages,
    UnknownGenerator,
    coset_enumeration,
    group_order,
    permutation_group_order,
    presentation_of,
    projective_triangle_fixture,
    verify_homomorphism,
)
from orbicurve.cosets import (
    DEFAULT_MAX_COSETS,
    CosetTable,
    _abelian_order,
    _Enumerator,
    _is_regular,
    _StabilizerChain,
    cycle_points,
    cycles_of,
    evaluate_word,
    format_cycles,
    identity_perm,
    parse_cycles,
    perm_inverse,
    perm_mul,
    perm_order,
    perm_power,
)
from orbicurve.covers import _mobius_perm
from orbicurve.presentations import invert_word, parse_presentation

import orbicurve
from hlt_reference import ReferenceEnumerator, reference_coset_enumeration


def closure_order(perms, cap=DEFAULT_MAX_COSETS):
    """Reference: the breadth-first closure that computed the order before
    Schreier-Sims.  It stores every group element."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    ident = identity_perm(perms.degree)
    seen = {ident}
    frontier = [ident]
    while frontier:
        new_frontier = []
        for p in frontier:
            for q in perms.images:
                r = perm_mul(p, q)
                if r not in seen:
                    seen.add(r)
                    if len(seen) > cap:
                        return Exceeded(cap)
                    new_frontier.append(r)
        frontier = new_frontier
    return len(seen)


def chain_order(perms, cap=DEFAULT_MAX_COSETS):
    """The Schreier-Sims route alone, without the regularity certificate
    that `permutation_group_order` tries first."""
    return _StabilizerChain(perms.degree).schreier_sims(perms.images, cap)


def psl2_order(q):
    return q * (q * q - 1) // 2


def hurwitz_triple(q):
    """Images of orders 2, 3, 7 with x1 x2 x3 = 1 in PSL(2, q), q prime, on
    the projective line: x1 = z -> -1/z and the first trace-1 matrix, in a
    fixed search order, whose product with x1 has order 7.  (2,3,7) is
    perfect, so they generate all of PSL(2, q)."""
    x1 = _mobius_perm(((0, -1), (1, 0)), q)
    for a in range(q):
        for b in range(1, q):
            c = (a * (1 - a) - 1) * pow(b, -1, q) % q  # det = 1, trace = 1
            x2 = _mobius_perm(((a, b), (c, 1 - a)), q)
            x3 = perm_inverse(perm_mul(x1, x2))
            if perm_order(x3) == 7:
                return PermutationImages(q + 1, (x1, x2, x3))
    raise AssertionError(f"no Hurwitz triple in PSL(2, {q})")


def random_pair(n, seed):
    """Two seeded random permutations of degree n."""
    rng = random.Random(seed)
    return PermutationImages(n, tuple(tuple(rng.sample(range(n), n)) for _ in range(2)))


def symmetric_200():
    """<(0 1), (0 1 ... 199)>, the symmetric group of degree 200."""
    swap = (1, 0) + tuple(range(2, 200))
    cycle = tuple(range(1, 200)) + (0,)
    return PermutationImages(200, (swap, cycle))


def permutation_groups(max_degree):
    """Groups of degree 1..max_degree, about half of them within 2 of the
    largest degree, with 0-3 generators, each the identity, a permutation
    of a subset of the points or of all of them."""

    def generator(n):
        ident = tuple(range(n))

        def on_subset(args):
            points, images = args
            p = list(ident)
            for x, y in zip(points, images):
                p[x] = y
            return tuple(p)

        subset = st.lists(st.integers(0, n - 1), unique=True, min_size=1).flatmap(
            lambda pts: st.tuples(st.just(pts), st.permutations(pts)))
        return st.one_of(st.just(ident), subset.map(on_subset),
                         st.permutations(list(range(n))).map(tuple))

    degree = st.one_of(st.integers(1, max_degree), st.integers(max(1, max_degree - 2), max_degree))
    return degree.flatmap(
        lambda n: st.lists(generator(n), max_size=3).map(
            lambda gens: PermutationImages(n, tuple(gens))))


METACYCLIC12 = FinitePresentation(
    ("x", "y"),
    (
        ((0, 1), (1, 1), (0, 1), (1, -1), (0, -1), (1, -1)),  # xyx = yxy
        ((0, 1), (1, 2), (0, 1)),  # x y^2 x
    ),
)


class TestCosetEnumeration:
    def test_trivial_relator_group(self):
        p = FinitePresentation(("x",), (((0, 1),),))
        table = coset_enumeration(p, (), 100)
        assert table.rows == 1

    def test_a4_has_12_cosets(self):
        table = coset_enumeration(presentation_of(OrbSignature(0, 0, (2, 3, 3))), (), 10**4)
        assert table.rows == 12
        assert table.complete

    def test_metacyclic_order_12(self):
        table = coset_enumeration(METACYCLIC12, (), 10**4)
        assert table.rows == 12

    def test_torus_group_exceeds(self):
        result = coset_enumeration(presentation_of(OrbSignature(1, 0, ())), (), 10**4)
        assert isinstance(result, Exceeded)
        assert result.bound == 10**4

    def test_subgroup_index(self):
        # index of <x1> in the (2,3,3) group is 12 / 2 = 6
        p = presentation_of(OrbSignature(0, 0, (2, 3, 3)))
        table = coset_enumeration(p, (((0, 1),),), 10**4)
        assert table.rows == 6

    @pytest.mark.parametrize("letter", [(3, 1), (3, -1)])
    def test_subgroup_word_over_missing_generator_refused(self, letter):
        # x4 and x4^-1 would read past the three generators of the flat
        # table: the parent slot of coset 0, or past the row
        p = presentation_of(OrbSignature(0, 0, (2, 3, 3)))
        with pytest.raises(UnknownGenerator) as info:
            coset_enumeration(p, (((0, 1),), (letter,)), 10**4)
        assert str(info.value) == "generator index 3 out of range for ('x1', 'x2', 'x3')"
        with pytest.raises(UnknownGenerator):
            coset_enumeration(p, (((-1, 1),),), 10**4)

    @pytest.mark.parametrize("letter", [(0, 1.0), (False, 1), (0, True)])
    def test_subgroup_word_with_non_int_letter_refused(self, letter):
        p = presentation_of(OrbSignature(0, 0, (2, 3, 3)))
        with pytest.raises(TypeError, match="must be ints"):
            coset_enumeration(p, ((letter,),), 10**4)

    def test_exceeded_on_small_bound(self):
        result = coset_enumeration(presentation_of(OrbSignature(0, 0, (2, 3, 3))), (), 10)
        assert isinstance(result, Exceeded)

    def test_large_collapse_compacts_table(self):
        # x^1000 builds a 1000-cycle, x^1001 then collapses everything to
        # the identity through a long coincidence cascade; exercises the
        # union-find merging and the mid-run compaction
        p = FinitePresentation(("x",), (((0, 1000),), ((0, 1001),)))
        table = coset_enumeration(p, (), 10**4)
        assert table.rows == 1

    def test_partial_collapse(self):
        p = FinitePresentation(("x",), (((0, 12),), ((0, 18),)))
        table = coset_enumeration(p, (), 10**4)
        assert table.rows == 6  # gcd(12, 18)

    def test_enumeration_is_deterministic(self):
        p = presentation_of(OrbSignature(0, 0, (2, 3, 4)))
        first = coset_enumeration(p, (), 10**4)
        second = coset_enumeration(p, (), 10**4)
        assert first == second

    def test_relators_trace_closed_from_every_coset(self):
        # exhaustive post-hoc closure check
        for sig in (
            OrbSignature(0, 0, (2, 3, 3)),
            OrbSignature(0, 0, (2, 2, 6)),
            OrbSignature(0, 1, (4,)),
        ):
            p = presentation_of(sig)
            table = coset_enumeration(p, (), 10**4)
            ident = identity_perm(table.rows)
            for rel in p.relators:
                assert evaluate_word(rel, table) == ident


ORDER_CASES = [
    (OrbSignature(0, 0, (2, 3, 4)), 24),
    (OrbSignature(0, 0, (2, 3, 5)), 60),
    (OrbSignature(0, 0, (2, 2, 9)), 18),
    (OrbSignature(0, 0, (4, 6)), 2),
    (OrbSignature(0, 1, (9,)), 9),
]


@pytest.fixture
def enumerations(monkeypatch):
    """(subgroup generators, index or None when the bound tripped) of every
    enumeration that `group_order` runs, in order."""
    runs = []

    class Recording(_Enumerator):
        def __init__(self, presentation, subgroup_generators, *args):
            super().__init__(presentation, subgroup_generators, *args)
            self.words = tuple(subgroup_generators)

        def enumerate(self):
            index = super().enumerate()
            runs.append((self.words, index))
            return index

    monkeypatch.setattr(orbicurve.cosets, "_Enumerator", Recording)
    return runs


class TestGroupOrder:
    @pytest.mark.parametrize("sig, order", ORDER_CASES)
    def test_known_orders(self, sig, order):
        assert group_order(presentation_of(sig)) == order

    def test_metacyclic(self):
        assert group_order(METACYCLIC12) == 12

    def test_bound_returns_exceeded(self):
        assert isinstance(group_order(presentation_of(OrbSignature(2, 0, ())), 5000), Exceeded)

    def test_order_through_cyclic_subgroup_where_hlt_trips(self):
        # <x, y | x^2, y^8, (xy)^3, [x,y]^4> has order 336: HLT over the
        # trivial subgroup passes 500 live cosets, the cosets of <y> do not
        p = FinitePresentation(("x", "y"), (((0, 2),), ((1, 8),), ((0, 1), (1, 1)) * 3,
                                            ((0, -1), (1, -1), (0, 1), (1, 1)) * 4))
        assert group_order(p, 500) == 336
        assert coset_enumeration(p, (), 500) == Exceeded(500)
        assert coset_enumeration(p, (), 10**5).rows == 336

    def test_candidate_without_certificate_is_skipped(self):
        # x^600 and x^400 make x of order 200, one candidate x^gcd: the 3
        # cosets of <x> fit under the cap 10^4 // 200, and G^ab certifies
        # that x has order 200; neither 3 * 600 nor 3 * 400 may be counted
        p = FinitePresentation(("x", "y"), (((0, 600),), ((0, 400),),
                                            ((0, -1), (1, -1), (0, 1), (1, 1)), ((1, 3),)))
        assert coset_enumeration(p, (((0, 1),),), 10**4 // 600).rows == 3
        assert group_order(p, 10**4) == 600

    def test_order_10752_counted_on_commutator_cosets(self, enumerations):
        # [x,y]^8 is the longest power, so <[x,y]> (index 1344) is tried
        # first and its permutation certifies |<[x,y]>| = 8; the integer
        # alone does not pin this route, since HLT or the 3584 cosets of
        # <y> give 10752 too
        p = parse_presentation(G10752_TEXT).presentation
        commutator = p.relators[3][:4]
        assert group_order(p) == 10752
        assert enumerations == [((), None), ((max(commutator, invert_word(commutator)),), 1344)]

    def test_word_candidate_without_certificate_is_skipped(self, enumerations):
        # x^200 y^200 and [x,y] make xy of order 200: the 3 cosets of <xy>
        # fit under the cap 10^6 // 600, but the candidate (xy)^600 may not
        # count 3 * 600 = 1800; y is certified in G^ab
        xy = ((0, 1), (1, 1))
        p = FinitePresentation(("x", "y"), (((0, -1), (1, -1), (0, 1), (1, 1)), ((1, 3),),
                                            xy * 600, ((0, 200), (1, 200))))
        assert group_order(p, 10**6) == 600
        sub = max(xy, invert_word(xy))  # <xy> is enumerated on one of xy, (xy)^-1
        assert enumerations == [((), None), ((sub,), 3), ((((1, 1),),), 200)]

    def test_powers_of_one_root_make_one_candidate(self, enumerations):
        # (xy)^600 and (xy)^400 give (xy)^200 = 1: one run over <xy>, where
        # G^ab certifies 3 * 200
        xy = ((0, 1), (1, 1))
        p = FinitePresentation(("x", "y"), (((0, -1), (1, -1), (0, 1), (1, 1)), ((1, 3),),
                                            xy * 600, xy * 400))
        assert group_order(p, 10**4) == 600
        assert enumerations == [((), None), ((max(xy, invert_word(xy)),), 3)]

    def test_root_with_coprime_powers_is_no_candidate(self, enumerations):
        # x^2 and x^3 give x = 1, so <x> is no candidate; y^900 is one but
        # y^300 x makes y of order 300, so HLT counts Z_300
        p = FinitePresentation(("x", "y"), (((0, 2),), ((0, 3),), ((1, 900),),
                                            ((1, 300), (0, 1))))
        assert group_order(p, 10**4) == 300
        assert enumerations == [((), None), ((((1, 1),),), 1), ((), 300)]

    def test_central_word_certified_by_abelianization(self, enumerations):
        # xy is central, so it fixes each of the 2 cosets of <xy>; only
        # G^ab = Z_300 x Z_2 shows that it has order 300
        xy = ((0, 1), (1, 1))
        p = FinitePresentation(("x", "y"), (xy * 300, ((0, -1), (1, -1), (0, 1), (1, 1)),
                                            ((1, 2),)))
        enumerator = _Enumerator(p, (xy,), 10**4 // 300)
        assert enumerator.enumerate() == 2
        assert perm_order(evaluate_word(xy, enumerator.coset_table())) == 1
        assert _abelian_order(p, xy) == 300
        assert group_order(p, 10**4) == 600
        assert enumerations[1:] == [((max(xy, invert_word(xy)),), 2)]

    def test_trivial_root_is_never_certified(self, enumerations):
        # x x^-1 x x^-1 reduces to the empty word, which is no power; and an
        # unreduced root x x^-1 has order 1 in both images, so it could not
        # count 300 * 2 either
        p = parse_presentation("gens x\nrel x x^-1 x x^-1\nrel x^300\n").presentation
        assert p.relators == ((), ((0, 300),))
        assert group_order(p, 10**6) == 300
        assert enumerations == [((), None), ((((0, 1),),), 1)]
        root = ((0, 1), (0, -1))
        enumerator = _Enumerator(p, (root,), 10**4)
        assert enumerator.enumerate() == 300
        assert perm_order(evaluate_word(root, enumerator.coset_table())) == 1
        assert _abelian_order(p, root) == 1

    def test_one_syllable_candidates_by_exponent_then_generator(self, enumerations):
        # y^25 and z^25 tie: y, the lower generator, is tried first, and G^ab
        # certifies it on the 400 cosets of <y>
        assert group_order(_abelian3(16, 25, 25), 10**6) == 10**4
        assert enumerations == [((), None), ((((1, 1),),), 400)]

    # the (2,2,n) bands and Z_a x Z_b x Z_c products of certbench `enumerate`
    @pytest.mark.parametrize("n", [n for band in ((400, 404), (500, 505), (600, 606),
                                                  (700, 707), (800, 808)) for n in band])
    def test_dihedral_orders(self, n):
        # <x3> is normal of index 2 and x3 has order 2 in G^ab, so neither
        # certificate holds for it; x1 reflects the n cosets of <x1>
        assert group_order(presentation_of(OrbSignature(0, 0, (2, 2, n))), 10**6) == 2 * n

    @pytest.mark.parametrize("orders", [(10, 20, 50), (10, 25, 40), (16, 25, 25),
                                        (20, 20, 25), (8, 25, 50)])
    def test_abelian_orders(self, orders):
        # every <g> is central, so its permutation is trivial: G^ab
        # certifies, also at a bound that HLT over the trivial subgroup
        # passes; there the lookahead at LOOKAHEAD_LIVE live cosets lets
        # `coset_enumeration` finish, with HLT's table
        p = _abelian3(*orders)
        assert group_order(p, 10**6) == group_order(p, 2 * 10**4) == math.prod(orders)
        assert reference_coset_enumeration(p, (), 2 * 10**4) == Exceeded(2 * 10**4)
        assert coset_enumeration(p, (), 2 * 10**4) == reference_coset_enumeration(p, (), 10**6)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_order_10752_memory(self):
        # HLT over the trivial subgroup holds 272,596 rows at its first
        # compaction and grows a fresh process by about 21 MB; the 1344
        # cosets of <[x,y]> need a fraction of that
        script = (
            "import sys\n"
            "from orbicurve import group_order\n"
            "from orbicurve.presentations import parse_presentation\n"
            "p = parse_presentation(sys.argv[1]).presentation\n"
            "before = peak_kib()\n"
            "order = group_order(p)\n"
            "growth = peak_kib() - before\n"
            "print(order, growth // 1024)\n"
        )
        order, growth_mb = map(int, _fresh_python(script, G10752_TEXT).split())
        assert order == 10752
        assert growth_mb < 14


# <x, y | x^2, y^3, (xy)^7, [x,y]^8> has order 10752
G10752_TEXT = (
    "gens x y\nrel x^2\nrel y^3\nrel " + " ".join(["x y"] * 7)
    + "\nrel " + " ".join(["x^-1 y^-1 x y"] * 8) + "\n"
)


def _abelian3(a, b, c) -> FinitePresentation:
    words = [((0, a),), ((1, b),), ((2, c),)]
    words += [((i, 1), (j, 1), (i, -1), (j, -1)) for i in range(3) for j in range(i + 1, 3)]
    return FinitePresentation(("x", "y", "z"), tuple(words))


_G10752_X = parse_presentation(G10752_TEXT + "sub x\n")
PINNED_TABLES = [
    pytest.param(_G10752_X.presentation, (), 10752,
                 "425aa5ea3f7dc0fa504c632cd5710bf25e205284aa99a106860088d059e03f52",
                 id="order-10752"),
    pytest.param(_G10752_X.presentation, _G10752_X.subgroup_generators, 5376,
                 "65a272e0adca5d980a9cfbd07f685481207bd1497616c27a57daa67370b9fcb7",
                 id="x-in-order-10752"),
    pytest.param(_abelian3(16, 25, 25), (), 10000,
                 "a4650dce9dd47b2429ae57401a9113074ef7d6710676f3f8b68aa1bdbae33da8",
                 id="Z16xZ25xZ25"),
    pytest.param(presentation_of(OrbSignature(0, 0, (2, 2, 101))), (), 202,
                 "10f521f4a8eb5a6e40d0d6009cd73989e3e83622ebe13c48d6cb6f166ba1357a",
                 id="(2,2,101)"),
    pytest.param(FinitePresentation(("x",), (((0, 1000),), ((0, 1001),))), (), 1,
                 "5a86e376cdc22fced25465c7e18e2923bb113ffec700c0dfd3bed6ce0908e2d3",
                 id="x^1000,x^1001"),
    # order 13: holes are left after the relator scans, so the numbering
    # depends on the order in which they are filled
    pytest.param(FinitePresentation(("x", "y", "z"), (((1, -2), (2, -1)),
                                                      ((2, -1), (0, 1), (2, -2), (1, 2)),
                                                      ((0, 2), (1, 3)))), (), 13,
                 "87b6ca8857d72648e96cee4388074ef1416101d5d8d2f3db4fba5ec31a429c2f",
                 id="hole-fill-order"),
]


def _table_digest(table) -> str:
    """The digest of the rows as the enumerator with one list per row
    stored them: the image of each coset under each generator, then under
    its inverse."""
    columns = [c for p in table.images for c in (p, perm_inverse(p))]
    rows = tuple(tuple(column[c] for column in columns) for c in range(table.rows))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class TestTableIdentity:
    """The coset numbering is part of the output (`todd-coxeter --table`):
    these digests of the rows (`_table_digest`) were taken from the
    enumerator with one list per row, and any rewrite must reproduce them."""

    @pytest.mark.parametrize("p, subgroup, rows, digest", PINNED_TABLES)
    def test_pinned_tables(self, p, subgroup, rows, digest):
        table = coset_enumeration(p, subgroup, 10**6)
        assert (table.rows, table.complete) == (rows, True)
        assert _table_digest(table) == digest

    @pytest.mark.parametrize("p, subgroup, rows, digest", PINNED_TABLES)
    def test_pinned_tables_with_lookahead_at_every_doubling(self, monkeypatch, p, subgroup,
                                                            rows, digest):
        # a lookahead pass at 1, 2, 4, ... live cosets merges and deduces
        # from the start, and the numbering still comes out the same
        monkeypatch.setattr(orbicurve.cosets, "LOOKAHEAD_LIVE", 1)
        self.test_pinned_tables(p, subgroup, rows, digest)

    def test_pinned_bounded_run(self):
        p = _G10752_X.presentation
        assert coset_enumeration(p, (), 3000) == Exceeded(3000)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_x_cosets_memory(self):
        # HLT alone holds 147,908 rows at its first compaction and grows a
        # fresh process by about 11 MB; the lookahead passes at 16384 and
        # 32768 live cosets merge back to near the index of 5376
        script = (
            "import sys\n"
            "from orbicurve import coset_enumeration\n"
            "from orbicurve.presentations import parse_presentation\n"
            "parsed = parse_presentation(sys.argv[1])\n"
            "before = peak_kib()\n"
            "table = coset_enumeration(parsed.presentation, parsed.subgroup_generators)\n"
            "growth = peak_kib() - before\n"
            "print(table.rows, growth // 1024)\n"
        )
        rows, growth_mb = map(int, _fresh_python(script, G10752_TEXT + "sub x\n").split())
        assert rows == 5376
        assert growth_mb < 5

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_expanded_word_memory(self):
        # a scanned word is one tuple of its 3,000,000 letters, about 24 MB;
        # a second, inverse copy of each letter would double that
        script = (
            "from orbicurve import Exceeded, group_order\n"
            "from orbicurve.presentations import FinitePresentation\n"
            "before = peak_kib()\n"
            "order = group_order(FinitePresentation(('x',), (((0, 3000000),),)), 10)\n"
            "growth = peak_kib() - before\n"
            "print(order == Exceeded(10), growth // 1024)\n"
        )
        exceeded, growth_mb = _fresh_python(script).split()
        assert exceeded == "True"
        assert int(growth_mb) < 36


_D806 = presentation_of(OrbSignature(0, 0, (2, 2, 806)))


@pytest.mark.parametrize("p, subgroup, rows, digest, scans, lookahead, bounded", [
    pytest.param(_D806, (), 1612,
                 "a9bf0bc9782b7a843ecc7bf478ab6d917c06d8fa457cc69d4da6d50c686234a9",
                 [1610, 1609, 3, 1612], [0, 0, 0, 0], True, id="(2,2,806)"),
    pytest.param(_abelian3(16, 25, 25), (), 10000,
                 "a4650dce9dd47b2429ae57401a9113074ef7d6710676f3f8b68aa1bdbae33da8",
                 [625, 400, 400, 10000, 10000, 10000], [8215] * 6,
                 True, id="Z16xZ25xZ25"),
    pytest.param(_G10752_X.presentation, (), 10752,
                 "425aa5ea3f7dc0fa504c632cd5710bf25e205284aa99a106860088d059e03f52",
                 [6529, 6807, 6808, 7326], [45109, 45109, 45096, 45095], False, id="order-10752"),
    pytest.param(_G10752_X.presentation, _G10752_X.subgroup_generators, 5376,
                 "65a272e0adca5d980a9cfbd07f685481207bd1497616c27a57daa67370b9fcb7",
                 [3200, 3324, 3325, 3562], [20172, 20172, 20160, 20160], False,
                 id="x-in-order-10752"),
])
def test_power_relator_scans_skip_closed_cycles(monkeypatch, p, subgroup, rows, digest, scans,
                                                lookahead, bounded):
    # a power w^n is not scanned at a coset alpha when alpha * w^-1 is
    # defined and smaller than alpha, so a long one-letter power is scanned
    # about once per cycle, index/n times, where every coset used to scan
    # it; the table is unchanged.  On (2,2,806) most cosets have no x1- or
    # x2-edge yet when they are processed, so the squares are still scanned
    # almost everywhere: their counts are pinned and the bound is asserted
    # for one-letter powers with n >= 3 only.  In the order-10752 group
    # most cosets are reached along other letters than y, so y^3 is still
    # scanned at most cosets HLT processes, and the word powers (xy)^7 and
    # [x,y]^8 skip at some of them only: no bound there.  `scans` counts
    # HLT's scans, `lookahead` the scans of the passes at LOOKAHEAD_LIVE
    # live cosets and its doublings, which define nothing and skip no
    # power; (2,2,806) never reaches the limit
    counts = collections.Counter()
    scan = _Enumerator.scan_and_fill

    def counting(self, alpha, word, cap):
        counts[word, cap > 0] += 1
        return scan(self, alpha, word, cap)

    monkeypatch.setattr(_Enumerator, "scan_and_fill", counting)
    table = coset_enumeration(p, subgroup, 10**6)
    assert (table.rows, table.complete) == (rows, True)
    assert _table_digest(table) == digest
    words = [w for w, *_ in _Enumerator(p, (), 1).relators]
    assert [counts[w, True] for w in words] == scans
    assert [counts[w, False] for w in words] == lookahead
    for w in words:
        if bounded and len(w) >= 3 and len(set(w)) == 1:
            assert counts[w, True] <= rows // len(w) + 1


class TestEnumeratorEdgeCases:
    def test_no_generators(self):
        table = coset_enumeration(FinitePresentation((), ()), (), 1)
        assert table == CosetTable(1, ())
        assert group_order(FinitePresentation((), ()), 1) == 1

    def test_bound_one_on_free_cyclic_group(self):
        assert coset_enumeration(FinitePresentation(("x",), ()), (), 1) == Exceeded(1)

    def test_subgroup_scan_trips_the_bound(self):
        # scanning x^5 from coset 0 of the free group defines a new coset
        # per letter, so the bound trips before any relator is scanned
        p = FinitePresentation(("x",), ())
        result = coset_enumeration(p, (((0, 5),),), 3)
        assert result == Exceeded(3) == reference_coset_enumeration(p, (((0, 5),),), 3)

    def test_compaction_resumes_at_the_cursor_row(self):
        # <x, y | y^2 x^-2 y^2, y^-2> is infinite dihedral and <y^3> = <y>
        # has infinite index; the enumeration collapses enough to compact
        # mid-run, and resuming one row late leaves a short, incomplete
        # table instead of reaching the bound
        p = FinitePresentation(("x", "y"), (((1, 2), (0, -2), (1, 2)), ((1, -2),)))
        assert coset_enumeration(p, (((1, 3),),), 500) == Exceeded(500)

    def test_one_letter_relator(self):
        table = coset_enumeration(FinitePresentation(("x",), (((0, 1),),)), (), 10)
        assert table == CosetTable(1, ((0,),))


class TestPermutations:
    def test_z2_regular_action(self):
        p = FinitePresentation(("x",), (((0, 2),),))
        table = coset_enumeration(p, (), 100)
        assert table.degree == 2
        assert table.images[0] == (1, 0)

    def test_klein_double_transpositions(self):
        table = coset_enumeration(presentation_of(OrbSignature(0, 0, (2, 2, 2))), (), 100)
        assert table.degree == 4
        for image in table.images:
            assert perm_order(image) == 2
            assert len(cycles_of(image)) == 2  # two 2-cycles: no fixed points

    def test_regular_representation_order_matches(self):
        table = coset_enumeration(presentation_of(OrbSignature(0, 0, (2, 3, 3))), (), 10**4)
        assert table.degree == 12
        assert permutation_group_order(table) == 12

    def test_regular_representation_across_finite_family(self):
        # closure of the coset action is an independent recount of the order
        for sig in (
            OrbSignature(0, 0, (2, 3, 4)),
            OrbSignature(0, 0, (2, 3, 5)),
            OrbSignature(0, 0, (2, 2, 7)),
            OrbSignature(0, 0, (6, 8)),
            OrbSignature(0, 1, (8,)),
        ):
            table = coset_enumeration(presentation_of(sig), (), 10**4)
            assert permutation_group_order(table) == table.rows

    def test_full_subgroup_gives_one_coset_in_infinite_group(self):
        p = FinitePresentation(("x", "y"), (((0, 2),), ((1, 3),)))
        table = coset_enumeration(p, (((0, 1),), ((1, 1),)), 100)
        assert table.rows == 1

    def test_unfinished_table_is_no_permutation(self):
        # in the free group on x, y the subgroup scan closes a y-loop at
        # coset 0, and the bound 1 trips before its x-edge is defined; the
        # hole must fail the permutation check, not be read as the slot
        # before the parent column, the y^-1 edge, which would make x fix 0
        enumerator = _Enumerator(FinitePresentation(("x", "y"), ()), (((1, 1),),), 1)
        assert enumerator.enumerate() is None
        with pytest.raises(ArityMismatch):
            enumerator.coset_table()

    @pytest.mark.parametrize("text, rows", [
        ("gens x y\nrel x^2\nrel y^3\nrel x y x y x y\n", 12),
        # compacted twice during the run
        (f"gens x y\nrel x^2\nrel y^3\nrel {'x y ' * 7}\nrel {'x^-1 y^-1 x y ' * 8}\nsub x\n",
         5376),
    ], ids=["a4", "order-10752-over-x"])
    def test_coset_table_read_twice(self, text, rows):
        # building the table only reads the enumerator, so a second build
        # gives the same table
        pf = parse_presentation(text)
        enumerator = _Enumerator(pf.presentation, pf.subgroup_generators, 10**6)
        assert enumerator.enumerate() == rows
        first = enumerator.coset_table()
        assert first.rows == rows and enumerator.coset_table() == first

    def test_not_a_permutation_rejected(self):
        with pytest.raises(ArityMismatch):
            PermutationImages(2, ((0, 0),))

    @pytest.mark.parametrize("degree, images", [
        (3, ((1.0, 0, 2),)),
        (2, ((True, False),)),
    ], ids=["float-point", "bool-points"])
    def test_non_int_points_refused(self, degree, images):
        # sorted() compares 1.0 and True equal to 1, so the permutation
        # test alone would pass both
        with pytest.raises(TypeError, match="points must be ints"):
            PermutationImages(degree, images)

    @pytest.mark.parametrize("degree", [True, 1.0], ids=["bool-degree", "float-degree"])
    def test_non_int_degree_refused(self, degree):
        # a bool degree passed as 1, and a float one failed only inside range()
        with pytest.raises(TypeError, match=f"degree must be an int, bools excluded: {degree}"):
            PermutationImages(degree, ((0,),))

    @pytest.mark.parametrize("degree, images, order", [
        (3, ([0, 1, 2],), 1),
        (4, ([1, 0, 2, 3], [0, 1, 2, 3]), 2),
    ], ids=["identity", "transposition-and-identity"])
    def test_list_images_become_tuples(self, degree, images, order):
        # a list identity compared unequal to the tuple identity and reached
        # `add`, which found no moved point and raised StopIteration
        perms = PermutationImages(degree, images)
        assert permutation_group_order(perms) == order
        assert perms.images == tuple(map(tuple, images))
        assert hash(perms) == hash(PermutationImages(degree, perms.images))


class TestPermutationGroupOrder:
    def test_transposition(self):
        assert permutation_group_order(PermutationImages(2, ((1, 0),))) == 2

    def test_symmetric_group_on_3(self):
        perms = PermutationImages(3, ((1, 2, 0), (1, 0, 2)))
        assert permutation_group_order(perms) == 6

    def test_projective_fixture_is_psl27(self):
        fixture = projective_triangle_fixture()
        assert [perm_order(p) for p in fixture.images] == [2, 3, 7]
        assert permutation_group_order(fixture) == 168

    def test_cap(self):
        fixture = projective_triangle_fixture()
        assert isinstance(permutation_group_order(fixture, cap=100), Exceeded)

    @pytest.mark.parametrize("q", [7, 13, 29])
    def test_hurwitz_triple_gives_psl2(self, q):
        perms = hurwitz_triple(q)
        assert [perm_order(p) for p in perms.images] == [2, 3, 7]
        assert permutation_group_order(perms) == psl2_order(q)
        assert closure_order(perms) == psl2_order(q)

    @pytest.mark.parametrize("perms", [projective_triangle_fixture(), hurwitz_triple(29)],
                             ids=["psl2_7_fixture", "psl2_29_triple"])
    def test_cap_equal_to_order_returns_it(self, perms):
        order = closure_order(perms)
        assert permutation_group_order(perms, cap=order) == order
        assert permutation_group_order(perms, cap=order - 1) == Exceeded(order - 1)

    def test_symmetric_200_exceeds_default_cap_quickly(self):
        # the closure would hold 10**6 tuples of 200 points before tripping
        start = time.perf_counter()
        result = permutation_group_order(symmetric_200())
        assert result == Exceeded(DEFAULT_MAX_COSETS)
        assert time.perf_counter() - start < 1.0


def z2_times_a4():
    """Z2 x A4 on {0, 1} x the six edges of a tetrahedron, (i, e) as point
    6i + e: generators (t, 1), (t, a) and (t, b), with t the swap of {0, 1}
    and a, b 3-cycles of the vertices, which fix no edge."""
    edges = list(itertools.combinations(range(4), 2))

    def generator(v):
        e = [edges.index(tuple(sorted((v[i], v[j])))) for i, j in edges]
        return tuple(6 * (1 - i) + e[k] for i in (0, 1) for k in range(6))

    return PermutationImages(12, tuple(map(generator, [(0, 1, 2, 3), (1, 2, 0, 3), (0, 2, 3, 1)])))


def _orbit_of_0(perms):
    orbit = {0}
    todo = [0]
    for x in todo:
        for s in perms.images:
            if s[x] not in orbit:
                orbit.add(s[x])
                todo.append(s[x])
    return len(orbit)


# the 102 finite signatures of test_acceptance.finite_signatures()
FINITE_GRID = (
    [OrbSignature(0, 0, ()), OrbSignature(0, 1, ())]
    + [OrbSignature(0, r, (m,)) for r in (0, 1) for m in range(2, 13)]
    + [OrbSignature(0, 0, (a, b)) for a in range(2, 13) for b in range(a, 13)]
    + [OrbSignature(0, 0, (2, 2, n)) for n in range(2, 11)]
    + [OrbSignature(0, 0, (2, 3, c)) for c in (3, 4, 5)]
)


class TestOrderRoutes:
    """`permutation_group_order` answers a regular group by the centralizer
    certificate and every other group by Schreier-Sims; each route is
    checked against the other and against the closure."""

    def test_routes_agree_on_grid_regular_actions(self):
        assert len(FINITE_GRID) == 102
        for sig in FINITE_GRID:
            table = coset_enumeration(presentation_of(sig), (), 10**4)
            assert _is_regular(table), sig
            assert (permutation_group_order(table) == chain_order(table)
                    == closure_order(table) == table.rows), sig

    @pytest.mark.parametrize("q", [5, 7, 13, 17])
    def test_certificate_declines_psl2_on_projective_line(self, q):
        # z -> z + 1 fixes infinity
        perms = PermutationImages(q + 1, (_mobius_perm(((1, 1), (0, 1)), q),
                                          _mobius_perm(((0, -1), (1, 0)), q)))
        assert not _is_regular(perms)
        assert permutation_group_order(perms) == chain_order(perms) == psl2_order(q)

    def test_certificate_declines_fixed_point_free_psl2_83(self):
        # q = 83 is 3 mod 4, 2 mod 3 and -1 mod 7: the Hurwitz generators
        # move every point of the transitive action, so the decision falls
        # to the first centralizer candidate
        perms = hurwitz_triple(83)
        assert all(p[x] != x for p in perms.images for x in range(84))
        assert not _is_regular(perms)
        assert permutation_group_order(perms) == psl2_order(83)

    @pytest.mark.parametrize("perms, order", [
        (PermutationImages(4, ((1, 2, 3, 0), (1, 0, 3, 2))), 8),  # D4: transitive, fixed-point free
        (PermutationImages(4, ((1, 0, 3, 2),)), 2),  # intransitive, fixed-point free
        (PermutationImages(5, ((1, 0, 2, 3, 4), (0, 1, 3, 4, 2))), 6),  # intransitive
        (PermutationImages(3, ((1, 2, 0), (1, 0, 2))), 6),  # S3: a fixed point
        (PermutationImages(3, ()), 1),  # no generators
        (PermutationImages(0, ()), 1),  # no points
    ], ids=["d4", "z2-two-orbits", "z2xz3-intransitive", "s3", "trivial-on-3", "degree-0"])
    def test_certificate_declines_and_chain_answers(self, perms, order):
        assert not _is_regular(perms)
        assert permutation_group_order(perms) == chain_order(perms) == closure_order(perms) == order

    def test_certificate_declines_z2_times_a4_on_12_points(self):
        # transitive, every generator fixed-point free, order 24 on 12
        # points; the first generator is central, so its candidate alone
        # commutes with every generator
        perms = z2_times_a4()
        assert all(p[x] != x for p in perms.images for x in range(12))
        assert _orbit_of_0(perms) == 12
        t = perms.images[0]
        assert all(perm_mul(t, s) == perm_mul(s, t) for s in perms.images)
        assert not _is_regular(perms)
        assert permutation_group_order(perms) == chain_order(perms) == closure_order(perms) == 24

    def test_trivial_group_on_one_point_is_regular(self):
        perms = PermutationImages(1, ((0,),))
        assert _is_regular(perms)
        assert permutation_group_order(perms) == 1

    def test_cap_boundary_on_regular_action(self):
        perms = coset_enumeration(presentation_of(OrbSignature(0, 0, (2, 3, 5))), (), 10**4)
        assert _is_regular(perms) and perms.degree == 60
        for route in (permutation_group_order, chain_order):
            assert route(perms, 60) == 60
            assert route(perms, 59) == Exceeded(59)

    @pytest.mark.parametrize("n, seed", [(20, 0), (20, 1), (30, 0), (30, 1)])
    def test_each_schreier_generator_is_sifted_once(self, n, seed):
        # the Schreier generators of a level are the pairs (orbit point,
        # generator), and none is taken twice, whatever number of strong
        # generators joins the level after it was tested
        chain = _StabilizerChain(n)
        assert chain.schreier_sims(random_pair(n, seed).images, 10**80) == math.factorial(n)
        pairs = sum(len(invs) * len(gens) for invs, gens in zip(chain.invs, chain.gens))
        assert 0 < chain.sifted <= pairs

    @pytest.mark.parametrize("perms, base, orbits, gens, sifted, digest", [
        (hurwitz_triple(29), [0, 1, 2], [30, 29, 14], [3, 3, 2], 135,
         "a602a33fcc37d29b2e98aaaf23c1631f8fa2fffbb1ba4b51a42b04c1a7076cf1"),
        (random_pair(20, 0), [0, 1, 2, 3, 4, 5, 6, 8, 10, 9, 11, 13, 17, 14, 16, 7, 12, 15, 18],
         list(range(20, 1, -1)), [2, 2, 2, 2, 3, 4, 5, 5, 5, 5, 5, 6, 6, 5, 4, 3, 3, 2, 1], 562,
         "453a3209fbad1a6c1d975f35d66b4d3a26760dadfc9b04defabc19c28b7c0871"),
    ], ids=["psl2_29_triple", "s20_seed0"])
    def test_pinned_chain(self, perms, base, orbits, gens, sifted, digest):
        # the whole chain, not only its order: a different sift would give
        # other residues, so other strong generators or another base
        chain = _StabilizerChain(perms.degree)
        assert chain.schreier_sims(perms.images, 10**80) == math.prod(orbits)
        assert chain.base == base
        assert [len(invs) for invs in chain.invs] == orbits
        assert [len(level) for level in chain.gens] == gens
        assert chain.sifted == sifted
        strong = repr([[y for y, _ in level] for level in chain.gens])
        assert hashlib.sha256(strong.encode()).hexdigest() == digest

    def test_regular_order_10752_action_within_budget(self):
        # with a base of length 1 the Schreier generators alone cost |G|^2
        # point operations (about 30 s); the certificate costs a few
        # O(degree x generators) passes
        table = coset_enumeration(_G10752_X.presentation, (), 10**6)
        start = time.perf_counter()
        assert permutation_group_order(table) == 10752
        assert time.perf_counter() - start < 1.0
        assert permutation_group_order(table, 10751) == Exceeded(10751)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_transitive_3584_action_memory(self):
        # the order-10752 group on the 3584 cosets of <y> is not regular, so
        # Schreier-Sims keeps a 3584-point orbit of 3584-point permutations:
        # about 93 MB with one permutation per orbit point, about 191 MB
        # when each point also stored its representative.  The peak is the
        # whole process's, so the run gets a fresh one.
        script = (
            "import sys\n"
            "from orbicurve import coset_enumeration, permutation_group_order\n"
            "from orbicurve.presentations import parse_presentation\n"
            "pf = parse_presentation(sys.argv[1])\n"
            "perms = coset_enumeration(pf.presentation, pf.subgroup_generators, 10**6)\n"
            "before = peak_kib()\n"
            "order = permutation_group_order(perms)\n"
            "growth = peak_kib() - before\n"
            "print(perms.degree, order, growth // 1024)\n"
        )
        degree, order, growth_mb = map(int, _fresh_python(script, G10752_TEXT + "sub y\n").split())
        assert (degree, order) == (3584, 10752)
        assert growth_mb < 150


# the peak resident size of the process's own memory, in KiB.  ru_maxrss
# would start at the peak of the process that spawned it, which an exec
# keeps, so a growth below that peak would not show
PEAK_KIB = """
def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
"""


def _fresh_python(script: str, *args: str) -> str:
    """stdout of `script` run in a new interpreter that imports this
    orbicurve and has `peak_kib()`, for measurements of a whole process."""
    src = os.path.dirname(os.path.dirname(orbicurve.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", PEAK_KIB + script, *args],
                          capture_output=True, text=True, check=True, env=env).stdout


class TestVerifyHomomorphism:
    def test_all_identity_images(self):
        p = presentation_of(OrbSignature(0, 0, (2, 3, 7)))
        images = PermutationImages(3, (identity_perm(3),) * 3)
        assert verify_homomorphism(p, images)

    def test_fixture_satisfies_triangle_relators(self):
        p = presentation_of(OrbSignature(0, 0, (2, 3, 7)))
        assert verify_homomorphism(p, projective_triangle_fixture())

    def test_wrong_order_image_fails(self):
        p = presentation_of(OrbSignature(0, 0, (2, 3, 7)))
        fixture = projective_triangle_fixture()
        # replace x3 by an order-6 permutation: x3^7 cannot die
        order6 = parse_cycles("(1 2)(3 4 5)", 8)
        assert perm_order(order6) == 6
        images = PermutationImages(8, (fixture.images[0], fixture.images[1], order6))
        assert not verify_homomorphism(p, images)

    def test_arity_mismatch(self):
        p = presentation_of(OrbSignature(0, 0, (2, 3, 7)))
        with pytest.raises(ArityMismatch):
            verify_homomorphism(p, PermutationImages(3, (identity_perm(3),) * 2))


perms_st = st.integers(3, 6).flatmap(
    lambda n: st.permutations(list(range(n)))
).map(tuple)


@given(perms_st)
def test_perm_inverse_round_trip(p):
    assert perm_mul(p, perm_inverse(p)) == identity_perm(len(p))
    assert perm_inverse(perm_inverse(p)) == p


@given(perms_st)
def test_cycle_format_round_trip(p):
    assert parse_cycles(format_cycles(p), len(p)) == p


@pytest.mark.parametrize("text, points", [
    ("(1 8)(2 7)", [[1, 8], [2, 7]]),
    ("(1,2) (3 4 5)", [[1, 2], [3, 4, 5]]),
    ("(1 -2)", [[1, -2]]),  # int() accepts it; parse_cycles finds it out of range
    ("()", []),
    ("id", []),
])
def test_cycle_points_as_written(text, points):
    assert cycle_points(text) == points


@pytest.mark.parametrize("text", ["(1 8) x (2 7)", "(1 2.5)", "(1 (2 3)", "(1 2))", "(a b)"])
def test_token_that_int_rejects_is_bad_notation(text):
    # these used to escape as int()'s own ValueError
    for parse in (cycle_points, lambda t: parse_cycles(t, 8)):
        with pytest.raises(ArityMismatch, match=r"^bad cycle notation: "):
            parse(text)


def reference_order(p):
    order, q = 1, p
    while q != identity_perm(len(p)):
        q = perm_mul(q, p)
        order += 1
    return order


def reference_power(p, e):
    base = p if e >= 0 else perm_inverse(p)
    out = identity_perm(len(p))
    for _ in range(abs(e)):
        out = perm_mul(out, base)
    return out


@pytest.mark.parametrize("p", [(), (0,), (1, 0), (0, 1), (1, 2, 0)])
def test_perm_mul_gathers_q_own_items(p):
    # below degree 2 the gather takes the list form; at any degree the
    # product is a tuple of q's own objects, for a tuple or a list q
    items = [object() for _ in p]
    for q in (items, tuple(items)):
        r = perm_mul(p, q)
        assert type(r) is tuple
        assert len(r) == len(p) and all(r[x] is q[p[x]] for x in range(len(p)))
    assert perm_mul(p, list(p)) == tuple(p[p[x]] for x in range(len(p)))


@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_identity_has_order_one(n):
    assert perm_order(identity_perm(n)) == 1


wide_perms_st = st.integers(1, 30).flatmap(
    lambda n: st.permutations(list(range(n)))
).map(tuple)


@settings(max_examples=60)
@given(wide_perms_st, st.integers(-50, 50))
def test_order_and_power_match_repeated_products(p, e):
    assert perm_order(p) == reference_order(p)
    assert perm_power(p, e) == reference_power(p, e)


@settings(max_examples=30)
@given(st.integers(2, 10), st.integers(2, 10))
def test_cyclic_gcd_orders_match_enumeration(m1, m2):
    sig = OrbSignature(0, 0, tuple(sorted((m1, m2))))
    from math import gcd

    assert group_order(presentation_of(sig), 1000) == gcd(m1, m2)


@settings(max_examples=40)
@given(st.lists(st.integers(2, 8), min_size=1, max_size=3))
def test_enumerator_on_direct_products_of_cyclics(orders):
    # presentation of Z_{a_1} x ... x Z_{a_k}: the order is the product,
    # an independent ground truth for fuzzing the enumerator
    names = tuple(f"g{i}" for i in range(len(orders)))
    relators = [((i, a),) for i, a in enumerate(orders)]
    relators += [
        ((i, 1), (j, 1), (i, -1), (j, -1))
        for i in range(len(orders))
        for j in range(i + 1, len(orders))
    ]
    p = FinitePresentation(names, tuple(relators))
    expected = 1
    for a in orders:
        expected *= a
    assert group_order(p, 10**4) == expected
    # regular action recount, by the certificate and by the chain
    perms = coset_enumeration(p, (), 10**4)
    assert _is_regular(perms)
    assert permutation_group_order(perms) == chain_order(perms) == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(2, 12), st.integers(1, 11))
def test_enumerator_on_dihedral_style_presentations(n, m, shift):
    # <s, t | s^2, t^n, (s t^shift)^m>: a two-generator family whose tables
    # are cross-checked through the regular permutation action
    p = FinitePresentation(
        ("s", "t"),
        (((0, 2),), ((1, n),), ((0, 1), (1, shift)) * m),
    )
    result = coset_enumeration(p, (), 800)
    if isinstance(result, Exceeded):
        return
    assert _is_regular(result)
    assert (permutation_group_order(result, 1000) == chain_order(result, 1000)
            == closure_order(result) == result.rows)
    assert verify_homomorphism(p, result)


@settings(max_examples=40, deadline=None)
@given(permutation_groups(9), st.integers(-2, 2))
def test_order_matches_closure(perms, offset):
    order = closure_order(perms)
    assert permutation_group_order(perms) == chain_order(perms) == order
    cap = max(1, order + offset)  # the cap contract at its boundary
    expected = order if order <= cap else Exceeded(cap)
    assert permutation_group_order(perms, cap) == chain_order(perms, cap) == expected


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    permutation_groups(9),
    st.sampled_from(FINITE_GRID).map(lambda sig: coset_enumeration(presentation_of(sig), (), 10**4)),
))
def test_regular_iff_transitive_of_order_degree(perms):
    regular = _orbit_of_0(perms) == perms.degree and chain_order(perms) == perms.degree
    assert _is_regular(perms) == regular


def _sympy_order(perms):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    gens = [combinatorics.Permutation(list(p)) for p in perms.images]
    ident = combinatorics.Permutation(list(range(perms.degree)))
    return combinatorics.PermutationGroup(gens or [ident]).order()


PRIMES_TO_71 = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]


@pytest.mark.parametrize("q", PRIMES_TO_71)
def test_psl2_order_matches_sympy(q):
    # z -> z + 1 and z -> -1/z generate PSL(2, q) for prime q
    perms = PermutationImages(q + 1, (_mobius_perm(((1, 1), (0, 1)), q),
                                      _mobius_perm(((0, -1), (1, 0)), q)))
    assert permutation_group_order(perms) == psl2_order(q) == _sympy_order(perms)


@settings(max_examples=25, deadline=None)
@given(permutation_groups(30))
def test_order_matches_sympy(perms):
    order, cap = _sympy_order(perms), 10**12
    assert permutation_group_order(perms, cap) == (order if order <= cap else Exceeded(cap))


_words = st.lists(st.tuples(st.integers(0, 2), st.integers(-3, 3)), max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.lists(_words, max_size=4), st.lists(_words, max_size=2),
       st.sampled_from((50, 500, 5000)))
def test_enumerator_matches_reference(ngens, relators, subgroup, bound):
    # the flat-table enumerator must return the same CosetTable as the one
    # with a list per row, coset numbering included
    _assert_matches_reference(ngens, relators, subgroup, bound)


def _drawn(ngens, relators, subgroup):
    """The drawn presentation on `ngens` generators and its subgroup."""
    def over(word):
        return tuple((g % ngens, e) for g, e in word)

    return (FinitePresentation(tuple(f"g{i}" for i in range(ngens)),
                               tuple(over(w) for w in relators)),
            tuple(over(w) for w in subgroup))


def _assert_is_coset_action(p, subgroup, table):
    """Checks of a completed table that need no second enumerator: the
    generators' permutations kill every relator, and each subgroup
    generator fixes coset 0, the subgroup's."""
    if not isinstance(table, Exceeded):
        assert verify_homomorphism(p, table)
        assert all(evaluate_word(w, table)[0] == 0 for w in subgroup)


def _live_rows(enumerator):
    """The live rows of a flat table in order, each edge as the rank of its
    target among them or -1 for a hole."""
    table, width = enumerator.table, enumerator.width
    live = [c for c in range(0, len(table), width + 1) if table[c + width] == c]
    rank = dict(zip(live, itertools.count()))
    return [[-1 if x < 0 else rank[x] for x in table[c:c + width]] for c in live]


def _reference_live_rows(oracle):
    """The same rows of the reference table, whose entries may name dead
    cosets and are read through find()."""
    live = [c for c in range(len(oracle.table)) if oracle.find(c) == c]
    rank = dict(zip(live, itertools.count()))
    return [[-1 if x is None else rank[oracle.find(x)] for x in oracle.table[c]] for c in live]


def _assert_matches_reference(ngens, relators, subgroup, bound):
    p, subgroup = _drawn(ngens, relators, subgroup)
    assert bound < orbicurve.cosets.LOOKAHEAD_LIVE  # no lookahead pass: HLT alone
    oracle = ReferenceEnumerator(p, subgroup, bound)
    reference = oracle.run()
    enumerator = _Enumerator(p, subgroup, bound)
    if enumerator.enumerate() is None:
        # Exceeded carries only the bound, so a run that trips at another
        # point would compare equal: the partial tables must match as well
        assert reference == Exceeded(bound)
        assert _live_rows(enumerator) == _reference_live_rows(oracle)
    else:
        result = enumerator.coset_table()
        assert result == reference
        _assert_is_coset_action(p, subgroup, result)
    if all(e == 0 for w in subgroup for _, e in w):  # no letters: the trivial subgroup
        order = group_order(p, bound)
        if not isinstance(reference, Exceeded):
            assert order == reference.rows
        elif not isinstance(order, Exceeded):
            # counted through a cyclic subgroup where HLT passes the bound:
            # the order must be the one HLT finds with room to spare
            assert order <= bound
            assert order == reference_coset_enumeration(p, (), 50 * bound).rows
        else:
            assert order == Exceeded(bound)


_exponents = st.integers(1, 40).flatmap(lambda n: st.sampled_from((n, -n)))
_g = st.integers(0, 2)
# x^n or x^-n, two powers of one generator, a short word, or a word power
# w^n with |w| >= 2 and n >= 2 written out letter by letter: (g0 g1)^n,
# [g0, g1]^n or a drawn w
_power_heavy = st.one_of(
    st.tuples(_g, _exponents).map(lambda ge: [(ge,)]),
    st.tuples(_g, _exponents, _exponents).map(
        lambda gab: [((gab[0], gab[1]),), ((gab[0], gab[2]),)]),
    _words.map(lambda w: [w]),
    st.tuples(_g, _g, st.integers(2, 12)).map(
        lambda abn: [((abn[0], 1), (abn[1], 1)) * abn[2]]),
    st.tuples(_g, _g, st.integers(2, 8)).map(
        lambda abn: [((abn[0], -1), (abn[1], -1), (abn[0], 1), (abn[1], 1)) * abn[2]]),
    st.tuples(_words.filter(lambda w: sum(abs(e) for _, e in w) >= 2), st.integers(2, 5)).map(
        lambda wn: [wn[0] * wn[1]]),
    # g0^a, g1^b, (g0 g1)^c: finite often enough for the skip to shape the table
    st.tuples(_g, _g, st.integers(2, 5), st.integers(2, 5), st.integers(2, 8)).map(
        lambda t: [((t[0], t[2]),), ((t[1], t[3]),), ((t[0], 1), (t[1], 1)) * t[4]]),
)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.lists(_power_heavy, min_size=1, max_size=4),
       st.lists(_words, max_size=2), st.sampled_from((50, 500, 5000)))
def test_enumerator_matches_reference_on_powers(ngens, groups, subgroup, bound):
    # power relators are where scans are skipped on closed cycles; the
    # table, its numbering and every Exceeded must still match
    _assert_matches_reference(ngens, [w for g in groups for w in g], subgroup, bound)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.lists(_power_heavy, max_size=4), st.lists(_words, max_size=2),
       st.sampled_from((50, 500, 5000)))
def test_lookahead_at_every_doubling_matches_reference(ngens, groups, subgroup, bound):
    # with a lookahead pass at 1, 2, 4, ... live cosets: a completed table
    # is HLT's; where HLT passes the bound and the lookahead lets the run
    # finish, the table is the one HLT finds with room to spare; Exceeded
    # only where HLT trips too
    p, subgroup = _drawn(ngens, [w for g in groups for w in g], subgroup)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(orbicurve.cosets, "LOOKAHEAD_LIVE", 1)
        result = coset_enumeration(p, subgroup, bound)
    reference = reference_coset_enumeration(p, subgroup, bound)
    _assert_is_coset_action(p, subgroup, result)
    if isinstance(result, Exceeded):
        assert reference == result
    elif isinstance(reference, Exceeded):
        assert result == reference_coset_enumeration(p, subgroup, 50 * bound)
    else:
        assert result == reference


_spherical = st.one_of(st.integers(2, 1200).map(lambda n: (2, 2, n)),
                       st.sampled_from(((2, 3, 3), (2, 3, 4), (2, 3, 5)))).flatmap(st.permutations)


@settings(max_examples=30, deadline=None)
@given(_spherical)
def test_group_order_on_finite_triangle_family(abc):
    # <g0, g1 | g0^a, g1^b, (g0 g1)^c> with 1/a + 1/b + 1/c > 1, in any
    # order: the dihedral groups past SMALL_TABLE are counted through a
    # cyclic subgroup, and must match the full table
    a, b, c = abc
    p = FinitePresentation(("g0", "g1"), (((0, a),), ((1, b),), ((0, 1), (1, 1)) * c))
    assert group_order(p, 5000) == coset_enumeration(p, (), 10**5).rows


@pytest.mark.parametrize("w", [[(0, 1), (1, 1)], [(0, -1), (1, -1), (0, 1), (1, 1)],
                               [(0, 1), (1, 1), (0, 1), (1, -1)]],
                         ids=("xy", "commutator", "xyxY"))
def test_enumerator_matches_reference_on_word_power_grid(w):
    # <x, y | x^a, y^b, w^c>: the finite ones, (2,3,4) and (2,3,5) among
    # them, are where a wrong closed-cycle test for w^c changes the table
    for a, b, c in itertools.product(range(2, 5), range(2, 5), range(2, 7)):
        _assert_matches_reference(2, [[(0, a)], [(1, b)], w * c], [], 3000)


@pytest.mark.parametrize("call, message", [
    (lambda: coset_enumeration(presentation_of(OrbSignature(0, 0, (2, 3, 3))), (), 0),
     "max_cosets must be >= 1"),
    (lambda: permutation_group_order(projective_triangle_fixture(), 0), "cap must be >= 1"),
], ids=["coset-enumeration", "permutation-group-order"])
def test_zero_bound_refused_by_the_library(call, message):
    # the CLI refuses a zero bound before the library sees it
    with pytest.raises(ValueError, match=message):
        call()
