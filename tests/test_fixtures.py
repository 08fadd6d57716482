import hashlib
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
    _derive,
    _relator_power,
    artal_parameters,
    projective_distance,
)
from orbicurve.presentations import free_reduce, invert_word, presentation_of
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

    def test_unknown_fact_type_raises(self):
        ex = example_presentation("quintic-237")
        with pytest.raises(TypeError, match="unknown fact type"):
            _check_fact(ex.presentation, object())


class TestArtalFamily:
    def test_parameter_validation(self):
        for bad in [(3, 1, 0), (4, 0, 2), (5, 1, 1), (4, 2, 1), (6, 1, 3)]:
            with pytest.raises(BadParameters):
                example_presentation(f"artal({bad[0]},{bad[1]},{bad[2]})")

    def test_parameters_read_from_the_name(self):
        assert artal_parameters(" artal( 10 ,7, 1) ") == (10, 7, 1)
        assert artal_parameters(f"artal({10**400},-1,0)") == (10**400, -1, 0)
        assert artal_parameters("artal(10,7)") is None
        assert artal_parameters("quintic-237") is None

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


class TestDerive:
    # the (2,3,7) triangle group spelled a, b, c: relators aa, bbb, ccccccc, CBA
    P = presentation_of(OrbSignature(0, 0, (2, 3, 7)))

    def product(self, proof):
        pairs = []
        for u, i, e in proof:
            r = self.P.relators[i]
            pairs += [*u, *(r if e == 1 else invert_word(r)), *invert_word(u)]
        return free_reduce(pairs)

    @pytest.mark.parametrize("t, word", [
        ("Baab", ((1, -1), (0, 2), (1, 1))),  # b^-1 a^2 b
        ("ACBACB", ((0, -1), (2, -1), (1, -1)) * 2),  # (CBA)^2 rotated
        ("bcabca", ((1, 1), (2, 1), (0, 1)) * 2),  # its inverse
        ("", ()),
    ])
    def test_relator_power_multiplies_out(self, t, word):
        assert self.product(_relator_power(self.P, t)) == word

    @pytest.mark.parametrize("t", ["ab", "aaa", "Bab", "cbac"])
    def test_rule_off_every_relator_power_refused(self, t):
        with pytest.raises(ValueError, match=f"^{t} is not conjugate to a power of a relator$"):
            _relator_power(self.P, t)
        with pytest.raises(ValueError, match="is not conjugate to a power of a relator"):
            _derive(self.P, t, (f"{t}>",))

    def test_rules_that_stop_short_refused(self):
        assert self.product(_derive(self.P, "abbba", ("bbb>", "aa>"))) == ((0, 1), (1, 3), (0, 1))
        with pytest.raises(ValueError, match="^aabbbc rewrites to c, not to the empty word$"):
            _derive(self.P, "aabbbc", ("bbb>", "aa>"))


# SHA-256 of repr(example_presentation(name)), which spells out the
# presentation, the facts and every word-map proof: a rewrite of the
# derivation must reproduce each certificate exactly
PINNED_EXAMPLES = {
    "quartic-b3p1": "3e09d1e548ba6e09df5431df12faf9ad4345948ddbf19111278dd31faf09c426",
    "sextic-b4p1": "0b314096e29c6c09c86cdbabae06ff6b0d47adeae71aa24ff620cc2a62555d96",
    "quintic-237": "15e1f715e3cedd9ed623f513f3468d9b0e3bf7fda8d5ed4a7f863fb907fc628b",
    "artal(4,1,1)": "b2d9f1cfb2503714f8ce44d5dc48e7689028fea9ee3334f7dc83d9ebb24a9b3c",
    "artal(5,2,1)": "f354eebecab44888cafa1d3cf7db66682f09ec23aace2ae5178749e1a30edbe1",
    "artal(6,2,2)": "5ff88e2ce31c0b8b3dd53ab5da49335d75e57da5c011892a4ccc886e299e1174",
    "artal(6,3,1)": "b3b2d67da7a32911b46e2f0c6c88589df350caefbb900bf15f5d6a875d1b6102",
    "artal(7,3,2)": "6360405ad7f8f3be0fcd0a5359ca35012c3f30167120fb54ed5cdd70ca64e5ba",
    "artal(8,3,3)": "9c1a546ff3e7f899225f9b7e63c4a50020f725537299e583669b0168a446e09f",
    "artal(7,4,1)": "9b4668f73dcfad3bb1547f63c1c70e99c3c9f5e6555f3ab7f84c956eaba3af30",
    "artal(8,4,2)": "141c0c90963779fa26559db2a0b219315902bea0408e6a44bf027b19e6e3b33d",
    "artal(9,4,3)": "d1681c16e0ca8147dcb2ace0b433479931e776ad53c456e43e5f5ea6b4028e5d",
    "artal(10,4,4)": "30ddb8308c4286385e0290e3a42706a641dc4c43025d57ebf0af0308750f3e96",
    "artal(8,5,1)": "9c34d3084c6c317bd1660a03b67a7c728f3fb84ef06124993ff229c56202c3ea",
    "artal(9,5,2)": "4853ea2adbfad1728c5496b04e9d5ad443b10a75e8f9a56d16f481b26a198964",
    "artal(10,5,3)": "5b9dbfaf6ab652341a5717121980bd65fc177bdee754bb91236fa3e3f98d4143",
    "artal(11,5,4)": "f2a57baa2368d1abe682b8561e875c2f6cb5e0c29f908546513666e006fac25d",
    "artal(12,5,5)": "9b08384b6ddd2a4d279599c2e876a5074546062ea1ee9a2d071cad6d777b4427",
    "artal(9,6,1)": "ca186d6473f5cdbc905f48fc7c96dda5e194c9ddf0627bfeab5da444bb2bffde",
    "artal(10,6,2)": "8093f91866f014a68125cf6aeb281c34ee38a7b50cdfefe61c8bd649b80443c4",
    "artal(11,6,3)": "a2bb3d732016b388aa439a428654b575721aadeb90cfabdf0044423fbea2b766",
    "artal(12,6,4)": "1067d8c91c1d252472c157337af095ff8520ab15cd5e229fe6d98781c28c5bd9",
    "artal(13,6,5)": "87ae58b611e591528324a2272e6f46f892230cd55fc30b343b859b7e7cd8d7d6",
    "artal(14,6,6)": "576e0d8e0468b220de3cd4756164a4d0ae2e9cc331759682134cffe6bf3d3578",
    "artal(10,7,1)": "d3df1f552a8c74329c2758d7ce57c5cff472472accb96ab98bca273d59b11a55",
    "artal(11,7,2)": "f2c19fa196a2020599e2370da919c08212fdb628d97a21cfc2c5c89107529c13",
    "artal(12,7,3)": "06c95f2c3c72939d6644898c064b74878b2d5aa3a07abce6f0173d3e5337f69d",
    "artal(13,7,4)": "69b666aecb6a72067a5371e50cd8726c387f97853aa634e2e46bfd7edd427e0e",
    "artal(14,7,5)": "418d3bda58b189e1a061a68bc450d5ce4f5412c880859a85ab1889d61c4b09f0",
    "artal(15,7,6)": "0d35273328e0c700b8040ff87e437d2f10b5ac0366407675fb345061671ae94f",
    "artal(16,7,7)": "6de3b702c67dece94a1070525e63eff22a2f6c0e8f14f57e8387b0d9ee67ec32",
    "artal(11,8,1)": "8f56f8c50ce3b054c8454cf510aea5bdc9174e3dd4f9071d19a2e6d59f23d047",
    "artal(12,8,2)": "ed215ce9983e8b610f624e450f933aeff2209767eaaab3aa8eff82a244070c7a",
    "artal(13,8,3)": "151c5f9f04139c2067b5d3c43b56491d92047a43c3956562cc5764d505806651",
    "artal(14,8,4)": "8571d469589c6d752d122a593817df38795c7862c865a7ed1903aaafe190772a",
    "artal(15,8,5)": "eeccb5638dca95eaf16c2f223539098868c89cf5991dfa2384e2e5258fda158d",
    "artal(16,8,6)": "2a87ae761b966b8a9bc73eed598eb494e37c2bf483f9a6382ec78532097ce652",
    "artal(17,8,7)": "cb7261afa71f6fef4f4253d5758285ff878bf549b128367df14b1ce9efdd328f",
    "artal(18,8,8)": "1195765b54dbdc34766b73fdeb43317101704c09e503b8b747fca9af63a16827",
    "artal(12,9,1)": "329b7f1d7f2fbacbf2e7b310ea52652722744f9018b7c43405ed086f764e1b0f",
    "artal(13,9,2)": "46847885ff11e2cd5ca0c48e781ddaa091d41d83ee746852b17c63f09150fefa",
    "artal(14,9,3)": "aa3c00b3a955b4eb943a65a0c4b8016b3da52d5f64680c1c4173775882ddc0da",
    "artal(15,9,4)": "ccdcd8ee92082e8ce3b0f37036b581d28fdc0bb50a891493fea8392c58328667",
    "artal(16,9,5)": "bf3d6e0aaaab0cf1c8c6fc763f0ae7a8e58c935bc31e9a1fa429d8b94482f39a",
    "artal(17,9,6)": "96755fe8265b4659b6673a63764e81a57c9002cf015836f94f6b0fe95aa1f066",
    "artal(18,9,7)": "4948378e47333f3412a1cdd4dd1ef275fdad69b6075276e1f376c17c5bf4821e",
    "artal(19,9,8)": "d12354beb34725880e5e9f75e77f5a82aae10945aec11b5fa5eecef30ae57a9a",
    "artal(20,9,9)": "eb57f813da9e5ffd7786c47ebbb7834208c9b6bcc6b4e965a2b79e331d85e3ff",
    "artal(13,10,1)": "8d94697b22aa7899a548d4f86dce32b7ab99052427ea1930369cc0d6c6ce670a",
    "artal(14,10,2)": "28cfe196488652ffb10c22551be543dfd5522bbfa5a7f1a3cfdbba49d196ce9b",
    "artal(15,10,3)": "0d4102f6f1aef2cf23e58f0a270dcad34011bf41ecb1a1b90342449cca44236e",
    "artal(16,10,4)": "937f125a36b6227634211b2cfff88d4d2c0c63ac67bcb73d7c3d62aeecfa7378",
    "artal(17,10,5)": "090943a6fe2c254234799c7e268e21780d5b821cf0cf9fe7771c0c1681a3e984",
    "artal(18,10,6)": "bd32ed3261c6c64367fcb2982c499f3076f41d6951831e6f783a047bd7d72035",
    "artal(19,10,7)": "972e2d9a66af6110ec757d82d82e9908cb8b157a550b44001b27b20634e2726e",
    "artal(20,10,8)": "0d3eb40e6ed0599f15c48901c8593dfd63ab92e66021022e61fcf481f3111423",
    "artal(21,10,9)": "f924bac440c5cd04d23f235c3e5b587de74c87b52adcd8155402185ef3c96d28",
    "artal(22,10,10)": "b91dd725f96d7f564a4e8b78599acf4b757cf862acc4b3f7d0ec393e2c0b71b5",
    "artal(14,11,1)": "3a94f374ec7418b0357feebe588362d949da7f6bcf949a7f29259edd4311684e",
    "artal(15,11,2)": "b25486c09e5cad9edc869ea8187377d2d476d1b2d49230266c29d9a3ed07cbed",
    "artal(16,11,3)": "79218c5dd47defeb2da2ef2d1a4e154fc870e07d77ab18a29d0b2899d4e57b24",
    "artal(17,11,4)": "0a01f2494c584551ce80a701e967586c3c8d5043604e2d50b33208509efa350a",
    "artal(18,11,5)": "fe7a6c29a026fb77a7a3a47a15a6db479df52ba5c16274d8abe81f10b520caa0",
    "artal(19,11,6)": "d2492e4dd0e52d492a3343ce586822a982516f14576842f2cc6475979a6b6c08",
    "artal(20,11,7)": "e27fa3247c156796aba1d18ebbb63b2cc3aa8ce6cab897f0c48cd45dfb5959ee",
    "artal(21,11,8)": "706adb286af34d15c6a3a34355406943ce599490790351bfdff418d9c045888b",
    "artal(22,11,9)": "fdebc4845341ef3f0fb472b062d246b95fb1e8eb097d12a0c08c2b95b1ef12d2",
    "artal(23,11,10)": "113cdf1add85dd9f53c3214ca2bc29ad4e76fa0b911b2b5c8138510cfdb359f6",
    "artal(24,11,11)": "c0dcefe1e0c7bb4dabfae7bfcf542f15330909c9f4c8704daa676695c0c90acc",
    "artal(15,12,1)": "e0f8e23d5d0ca14065fc80846c7ad03f8de100e92556358ecd89046a7aaf98f2",
    "artal(16,12,2)": "401b213d0a0baa035255f2c54f8a5b5477f631570c2d99f406febb314477329c",
    "artal(17,12,3)": "6790920be83d42c58e8ca88f0fcd708c68cfd6ab6bcb4264e89b9b772ccbf1d5",
    "artal(18,12,4)": "3e69eb95fe38b6298158d04fada83ba92791f5bfa5a7575e4bbef29344b0a6cf",
    "artal(19,12,5)": "613ba3fcded72b5748485a6bdf6df40d871f9823499d4c16859c8b01abf82c3b",
    "artal(20,12,6)": "16cde6776645103d3b457ca6c7830b1e6a3a46b4267e996904844737761482ef",
    "artal(21,12,7)": "4535b53c102bb44c66d532cb8a7ea7a0d1279872abb6afc717e3e9b13876c405",
    "artal(22,12,8)": "aac01030e401d96cfcd773d0c6bf2fe5864c642327b9077d5db89615021b0803",
    "artal(23,12,9)": "7aef211e326777dd4fe2001037325dd08f35e5cc99f6186a5639362506545ace",
    "artal(24,12,10)": "7c6474a9241644e1fac7a04b38cb3d562dde342b084c77295e086024424af6eb",
    "artal(25,12,11)": "10b0fb0e084b7503eb45f4fca78808db2cbf2085b424780b4f5b15727a6cf255",
    "artal(26,12,12)": "432e291f5115164b4d1ea4a72da602770ad69e58b4c932f81223b166ffc0b697",
    "artal(16,13,1)": "0d9bc77a3a561a516ca3b552eed8b28f0000090f46fd96c65eace3a77389dceb",
    "artal(17,13,2)": "96ad1615c0e48af9a74a4de7952e26f8e67d7e248f002ea8b38526cb0ad0bd44",
    "artal(18,13,3)": "032f7c236643c16edcb1ed898957232aabd472a082de4f42516edde88e000f7c",
    "artal(19,13,4)": "e5d541e80c88b57edb2ad9a3737e9c8bd9d0de998619693947de86a8021e1f28",
    "artal(20,13,5)": "8f8a5e081435c934aeace51582cd710eab58a898c8f3ad39fe666bb6fe9d6c20",
    "artal(21,13,6)": "7422d69bfa72a71508b74f2104e4e428f7800a66b09e6b68c67b912735dbcbca",
    "artal(22,13,7)": "cad1cad6a2e3fb24c177a495b9d5fea8feb8f86090e9ef65ca4a038d5b264e68",
    "artal(23,13,8)": "c5b86c07728fa48e2f1f766b6dfcdfe17675a5457f7bc27d6eb30bae2ab06bde",
    "artal(24,13,9)": "7a86e3beb37869046a1a1453a7b2dbdeec2f4cc4ff9d62ba2a882fca091f72cf",
    "artal(25,13,10)": "1929c7662872553f083c767bb979b8df4c68cdc84ab7aafc2faabad367410832",
    "artal(26,13,11)": "a27b0a5e0e1b6d5a512ff47e50cd1fb4d89f9e3115629df4863f7d0c54b484cd",
    "artal(27,13,12)": "c472d73f54867eb4cb5bbf09fc7d10aab1700f897712679a5289e8f6a6c1ca4e",
    "artal(28,13,13)": "344a3fc0d30aee261976d82682b3026afac94f59d1babbedf7ce58f5e30dec7c",
    "artal(17,14,1)": "23f6ac409372d785342db2b32bdf9c454bddcb335a927da6e27b788037357a8b",
    "artal(18,14,2)": "2bd3578f29f1af7fedefd8009c0a4a244fc6fa8061b76504faee51aa677e9c11",
    "artal(19,14,3)": "a1acb55d5b13148d46b23e5cb6d45df141ed4f67e1754ba3738ce4e11cdbec86",
    "artal(20,14,4)": "75d6ad092acdc7863d7f061ebff7a463e2ef26612f0029a56d9af37ce15b2cc1",
    "artal(21,14,5)": "20cce9a5d7d0a8079f9d7303f00f67c783c2faf2bc10bf4026568f5cd8d993fd",
    "artal(22,14,6)": "04f30d026b1687f6b9fc9b966347e6740f4b31467bebe9103d140c3eb6bc0749",
    "artal(23,14,7)": "b0c88b169a3c26efb2327761a348219160f7d76496502c1503761e9d762f6475",
    "artal(24,14,8)": "d8c08e91db68381f4706a4f366d56d550a38b4ea8d791f9aeb18cadde248a1f7",
    "artal(25,14,9)": "3a23dec8c2deab45e2d9a288dfb146ed8084905b409b6c99e1b1bf4df1dc6a73",
    "artal(26,14,10)": "b6b570e54fd0312ab6b0b9eacddbd3816bcef0f9dd95d68bd6a02d8fd98b6fd2",
    "artal(27,14,11)": "75e70f99daafb4846d8baa21920a65266301e09b3933e3e2bd33449b7101b5a0",
    "artal(28,14,12)": "f2f82ec07bf9fa9f1dfe182c5ee17aa744d293f0b65b72a80e3fa2921ce0d45a",
    "artal(29,14,13)": "89898e6a39c1aadf59cc2f2c3f5e7918055634ce13cb5a114cb8f31d427e6a4e",
    "artal(30,14,14)": "450512112af4d5d5c3d1f3c82b93c8fc01f62b070d746a720daaf6d0215f6ac8",
}


@pytest.mark.parametrize("name, digest", PINNED_EXAMPLES.items())
def test_pinned_example_certificates(name, digest):
    assert hashlib.sha256(repr(example_presentation(name)).encode()).hexdigest() == digest


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

    def test_orders_above_two_to_the_53_refused(self):
        # m and m + 1 round to one float there, so no angle check means anything
        assert triangle_representation(2, 3, 2**53).orders == (2, 3, 2**53)
        for triple in [(2, 3, 2**53 + 1), (2**53 + 1, 3, 2), (2, 3, 10**400)]:
            with pytest.raises(BadParameters, match="must be <= 2\\^53"):
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

    def test_generator_of_nonpositive_determinant_rejected(self):
        # neither a reflection (det -1) nor the zero matrix is a rotation
        x1, x2, _ = triangle_representation(2, 3, 7).matrices
        for x3 in (((1.0, 0.0), (0.0, -1.0)), ((0.0, 0.0), (0.0, 0.0))):
            checks = check_triangle_rep(TriangleRep((2, 3, 7), (x1, x2, x3), 1e-9))
            assert not checks.passed
            assert checks.order_deviations[2] == math.pi / 7
            assert checks.premature_closeness[2] == 0.0

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
