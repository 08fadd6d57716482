import ast
import functools
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fixtures import PINNED_EXAMPLES

from orbicurve import FinitePresentation, OrbSignature, UnknownGenerator, presentation_of
from orbicurve.presentations import (
    WordMaps,
    check_word_maps,
    concat_words,
    free_reduce,
    invert_word,
    parse_presentation,
    parse_word,
    substitute,
    word_map_claims,
)

pairs = st.lists(st.tuples(st.integers(0, 3), st.integers(-4, 4)), max_size=12)


@given(pairs)
def test_free_reduce_merges_adjacent(ps):
    word = free_reduce(ps)
    assert all(e != 0 for _, e in word)
    assert all(a != b for (a, _), (b, _) in zip(word, word[1:]))
    # idempotent
    assert free_reduce(word) == word


@given(pairs)
def test_word_times_inverse_cancels(ps):
    word = free_reduce(ps)
    assert concat_words(word, invert_word(word)) == ()


def test_presentation_of_examples():
    p = presentation_of(OrbSignature(0, 0, (2, 3)))
    assert p.generators == ("x1", "x2")
    assert p.relators == (((0, 2),), ((1, 3),), ((1, -1), (0, -1)))

    p = presentation_of(OrbSignature(1, 0, ()))
    assert p.generators == ("a1", "b1")
    assert p.relators == (((0, 1), (1, 1), (0, -1), (1, -1)),)

    p = presentation_of(OrbSignature(0, 1, (2,)))
    assert p.generators == ("x1", "y1")
    # x1^2 and the long relator (x1 y1)^(-1)
    assert p.relators == (((0, 2),), ((1, -1), (0, -1)))


def test_presentation_of_generic_shape():
    sig = OrbSignature(2, 2, (2, 3, 4))
    p = presentation_of(sig)
    assert p.generators == ("a1", "b1", "a2", "b2", "x1", "x2", "x3", "y1", "y2")
    assert p.relators[0] == ((4, 2),)
    assert p.relators[1] == ((5, 3),)
    assert p.relators[2] == ((6, 4),)
    long = p.relators[3]
    # two expanded commutators, then inverses of y2 y1 x3 x2 x1
    assert long[:4] == ((0, 1), (1, 1), (0, -1), (1, -1))
    assert long[4:8] == ((2, 1), (3, 1), (2, -1), (3, -1))
    assert long[8:] == ((8, -1), (7, -1), (6, -1), (5, -1), (4, -1))


def test_trivial_compact_presentation_has_no_generators():
    p = presentation_of(OrbSignature(0, 0, ()))
    assert p.generators == ()
    assert p.relators == ()


def test_out_of_range_relator_rejected():
    with pytest.raises(UnknownGenerator):
        FinitePresentation(("x",), (((1, 2),),))


@pytest.mark.parametrize("letter", [(0, 2.5), (0, 0.9), (0.0, 2), (0, True)])
def test_non_int_letters_refused(letter):
    # int() would store x^2.5 as x^2 and drop x^0.9, leaving a free group
    with pytest.raises(TypeError, match="must be ints"):
        FinitePresentation(("x",), ((letter,),))


def test_duplicate_generators_rejected():
    with pytest.raises(UnknownGenerator):
        FinitePresentation(("x", "x"), ())


def test_word_parsing():
    p = FinitePresentation(("x", "y"), ())
    assert p.word("x y^-2 x") == ((0, 1), (1, -2), (0, 1))
    assert p.word("x x") == ((0, 2),)
    with pytest.raises(UnknownGenerator):
        p.word("z")
    with pytest.raises(UnknownGenerator):
        p.word("x^two")


def test_presentation_file_parses():
    text = """\
# the (2,3,3) von Dyck presentation
gens x1 x2 x3
rel x1^2
rel x2^3
rel x3^3
rel x3^-1 x2^-1 x1^-1
sub x1 x2
"""
    # words are whitespace-separated tokens, and so is the line keyword
    for pf in (parse_presentation(text), parse_presentation(text.replace(" ", "\t"))):
        assert pf.presentation.generators == ("x1", "x2", "x3")
        assert len(pf.presentation.relators) == 4
        assert pf.presentation.relators[3] == ((2, -1), (1, -1), (0, -1))
        assert pf.subgroup_generators == (((0, 1), (1, 1)),)


def test_presentation_file_errors():
    with pytest.raises(UnknownGenerator):
        parse_presentation("rel x\n")
    with pytest.raises(UnknownGenerator):
        parse_presentation("gens x\nbogus x\n")
    with pytest.raises(UnknownGenerator):
        parse_presentation("gens x\nrel y\n")


def test_parse_word_requires_known_names():
    with pytest.raises(UnknownGenerator):
        parse_word("x1", ("a", "b"))


def test_parsed_words_are_reduced():
    pf = parse_presentation("gens x y\nrel x x^-1 y y\nrel y^0 x^2 x\nsub y^-1 y x x\n")
    assert pf.presentation.relators == (((1, 2),), ((0, 3),))
    assert pf.subgroup_generators == (((0, 2),),)
    assert parse_word("y x^-1 x y^2", ("x", "y")) == ((1, 3),)


@pytest.mark.parametrize("text, message", [
    ("gens x y\nrel x z\n", "no generator named 'z'"),
    ("gens x y\nrel x^two\n", "bad exponent in token 'x^two'"),
    ("gens x y\nrel ^2\n", "no generator named ''"),
    ("gens x x\nrel x^2\n", "duplicate generator names: ('x', 'x')"),
    ("gens x x\nrel y\n", "no generator named 'y'"),
    # a name with '^' could never be written in a word: refused at the gens line
    ("gens x^2 y\nrel y\n", "generator name 'x^2' cannot contain '^'"),
    ("gens x^2 y\nrel x^2\n", "generator name 'x^2' cannot contain '^'"),
    ("gens x\ngens y\n", "more than one gens line"),
    ("rel x\n", "gens line must come first"),
    ("gens x\nbogus x\n", "unknown line keyword 'bogus'"),
    ("# empty\n", "missing gens line"),
])
def test_presentation_file_error_messages(text, message):
    with pytest.raises(UnknownGenerator) as info:
        parse_presentation(text)
    assert str(info.value) == message


@pytest.mark.parametrize("sign", ["", "+", "-"])
def test_exponent_of_any_length(sign):
    # int() reads at most 4300 digits; a longer exponent is read in full,
    # and a longer token that is no integer is still refused
    digits = "1" + "0" * 4300
    pf = parse_presentation(f"gens x\nrel x^{sign}{digits}\n")
    assert pf.presentation.relators == (((0, (-1 if sign == "-" else 1) * 10**4300),),)
    for bad in (sign + digits + ".5", sign + digits + "x", "+-" + digits):
        with pytest.raises(UnknownGenerator, match="bad exponent in token"):
            parse_presentation(f"gens x\nrel x^{bad}\n")


def test_caret_generator_name_refused_in_code():
    # the check of the gens line, also when a presentation is built directly
    with pytest.raises(UnknownGenerator) as info:
        FinitePresentation(("y", "x^2"), ())
    assert str(info.value) == "generator name 'x^2' cannot contain '^'"


# ---------------------------------------------------------------------------
# word-map certificates


def _z2_maps():
    # <x | x^2> and <a, b | a^2, b a^-1>: x -> a; a, b -> x
    p = FinitePresentation(("x",), (((0, 2),),))
    q = FinitePresentation(("a", "b"), (((0, 2),), ((1, 1), (0, -1))))
    maps = WordMaps(
        phi=(((0, 1),),),
        psi=(((0, 1),), ((0, 1),)),
        proofs=(
            (((), 0, 1),),  # phi(x^2) = a^2
            (((), 0, 1),),  # psi(a^2) = x^2
            (),  # psi(b a^-1) = x x^-1
            (),  # psi(phi(x)) x^-1
            (),  # phi(psi(a)) a^-1
            (((), 1, -1),),  # phi(psi(b)) b^-1 = a b^-1
        ),
    )
    return p, q, maps


def _named_maps(name):
    from orbicurve.fixtures import (
        QuotientPresentationFact,
        example_presentation,
        quotient_by_relators,
    )

    ex = example_presentation(name)
    fact = next(f for f in ex.facts if isinstance(f, QuotientPresentationFact))
    quotient = quotient_by_relators(ex.presentation, fact.extra)
    return quotient, presentation_of(fact.signature), fact.maps


NAMED = ["quartic-b3p1", "sextic-b4p1", "quintic-237", "artal(4,1,1)", "artal(7,4,1)",
         "artal(10,7,1)"]


@functools.cache
def _pinned_quotient_names():
    from orbicurve.fixtures import QuotientPresentationFact, example_presentation

    return [name for name in PINNED_EXAMPLES if any(
        isinstance(f, QuotientPresentationFact) for f in example_presentation(name).facts)]


def _with_proof(maps, k, proof):
    return replace(maps, proofs=maps.proofs[:k] + (proof,) + maps.proofs[k + 1:])


def _float_letter(word, s, c):
    """`word` with component c (0 the index, 1 the exponent) of letter s a float."""
    letter = list(word[s])
    letter[c] = float(letter[c])
    return word[:s] + (tuple(letter),) + word[s + 1:]


# one malformed field of _z2_maps each, and the image or claim its rejection
# names
MALFORMED = {
    "bool-image-letter": (lambda m: replace(m, phi=(((0, True),),)), "phi(generator 0): "),
    "float-image-letter": (lambda m: replace(m, phi=(((0, 1.0),),)), "phi(generator 0): "),
    "float-index": (lambda m: _with_proof(m, 5, (((), 1.0, -1),)), "phi(psi(generator 1)): "),
    "bool-index": (lambda m: _with_proof(m, 5, (((), True, -1),)), "phi(psi(generator 1)): "),
    "float-sign": (lambda m: _with_proof(m, 5, (((), 1, -1.0),)), "phi(psi(generator 1)): "),
    "bool-sign": (lambda m: _with_proof(m, 0, (((), 0, True),)), "phi(relator 0): "),
    # a^0.5 a^2 a^-0.5 reduces to a^2.0, which equals a^2
    "fractional-conjugator": (lambda m: _with_proof(m, 0, ((((0, 0.5),), 0, 1),)),
                              "phi(relator 0): "),
    # p has no generator 5, and the two conjugates cancel to the empty claim
    "cancelling-foreign-conjugator": (
        lambda m: _with_proof(m, 3, ((((5, 1),), 0, 1), (((5, 1),), 0, -1))),
        "psi(phi(generator 0)): "),
    "letter-not-a-pair": (lambda m: replace(m, psi=(((0, 1, 2),), ((0, 1),))),
                          "psi(generator 0): "),
    # check_words would consume an iterator before the substitution reads it
    "iterator-image": (lambda m: replace(m, phi=(iter(((0, 1),)),)), "phi(generator 0): "),
    "phi-none": (lambda m: replace(m, phi=None), "phi: "),
    "proofs-none": (lambda m: replace(m, proofs=None), "proofs: "),
    "proofs-generator": (lambda m: replace(m, proofs=(proof for proof in m.proofs)),
                         "proofs: "),
}


class TestWordMaps:
    def test_small_certificate_checks(self):
        assert check_word_maps(*_z2_maps()) is None

    def test_wrong_target_rejected(self):
        p, _, maps = _z2_maps()
        q = FinitePresentation(("a", "b"), (((0, 3),), ((1, 1), (0, -1))))
        failure = check_word_maps(p, q, maps)
        assert failure == "phi(relator 0): its proof multiplies out to another word"

    @pytest.mark.parametrize("name", NAMED)
    def test_named_certificates_check(self, name):
        assert check_word_maps(*_named_maps(name)) is None

    @pytest.mark.parametrize("name", NAMED)
    def test_every_conjugator_letter_matters(self, name):
        p, q, maps = _named_maps(name)
        sides = [side for _, _, side in word_map_claims(p, q, maps.phi, maps.psi)]
        mutated = 0
        for k, proof in enumerate(maps.proofs):
            for j, (u, i, e) in enumerate(proof):
                for s, (g, x) in enumerate(u):
                    letter = ((g + 1) % sides[k].ngens, x)
                    bad = proof[:j] + ((u[:s] + (letter,) + u[s + 1:], i, e),) + proof[j + 1:]
                    proofs = maps.proofs[:k] + (bad,) + maps.proofs[k + 1:]
                    assert check_word_maps(p, q, replace(maps, proofs=proofs)) is not None
                    mutated += 1
        assert mutated > 0

    @pytest.mark.parametrize("name", NAMED)
    def test_every_generator_image_matters(self, name):
        p, q, maps = _named_maps(name)
        for field, target in (("phi", q), ("psi", p)):
            images = getattr(maps, field)
            for g in range(len(images)):
                for other in range(target.ngens):
                    changed = images[g] + ((other, 1),)
                    bad = replace(maps, **{field: images[:g] + (changed,) + images[g + 1:]})
                    assert check_word_maps(p, q, bad) is not None

    @pytest.mark.parametrize("name", NAMED)
    def test_dropped_proof_or_conjugate_rejected(self, name):
        p, q, maps = _named_maps(name)
        claims = word_map_claims(p, q, maps.phi, maps.psi)
        for k, proof in enumerate(maps.proofs):
            dropped = replace(maps, proofs=maps.proofs[:k] + maps.proofs[k + 1:])
            assert "proofs for" in check_word_maps(p, q, dropped)
            for j in range(len(proof)):
                bad = proof[:j] + proof[j + 1:]
                proofs = maps.proofs[:k] + (bad,) + maps.proofs[k + 1:]
                # reported under the name of the claim whose proof lost it
                assert check_word_maps(p, q, replace(maps, proofs=proofs)) == (
                    f"{claims[k][0]}: its proof multiplies out to another word"
                )

    @pytest.mark.parametrize("index", [-1, 2, 99])
    def test_relator_index_out_of_range_rejected(self, index):
        p, q, maps = _z2_maps()
        proofs = maps.proofs[:5] + ((((), index, -1),),)
        failure = check_word_maps(p, q, replace(maps, proofs=proofs))
        assert failure == f"phi(psi(generator 1)): no relator conjugate ({index}, -1)"

    @pytest.mark.parametrize("sign", [-2, 0, 2])
    def test_exponent_must_be_a_sign(self, sign):
        # -2 in place of the valid -1 would still multiply out to the word
        p, q, maps = _z2_maps()
        proofs = maps.proofs[:5] + ((((), 1, sign),),)
        failure = check_word_maps(p, q, replace(maps, proofs=proofs))
        assert failure == f"phi(psi(generator 1)): no relator conjugate (1, {sign})"

    @pytest.mark.parametrize("mutate, where", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_field_rejected(self, mutate, where):
        p, q, maps = _z2_maps()
        failure = check_word_maps(p, q, mutate(maps))
        assert isinstance(failure, str) and failure.startswith(where)

    def test_z2_is_not_z4(self):
        # psi(y) = x^0.5 gives psi(y^4) = x^2.0, which equals the relator x^2
        p = FinitePresentation(("x",), (((0, 2),),))
        q = FinitePresentation(("y",), (((0, 4),),))
        maps = WordMaps((((0, 2),),), (((0, 0.5),),), ([((), 0, 1)], [((), 0, 1)], [], []))
        assert check_word_maps(p, q, maps) == (
            "psi(generator 0): letter (0, 0.5): index and exponent must be ints")

    @settings(deadline=None)
    @given(st.data())
    def test_float_letter_in_named_certificate_rejected(self, data):
        p, q, maps = _named_maps(data.draw(st.sampled_from(_pinned_quotient_names())))
        where = data.draw(st.sampled_from(("phi", "psi", "conjugator")))
        c = data.draw(st.sampled_from((0, 1)))
        if where == "conjugator":
            k, j, s = data.draw(st.sampled_from([
                (k, j, s) for k, proof in enumerate(maps.proofs)
                for j, (u, _, _) in enumerate(proof) for s in range(len(u))]))
            u, i, e = maps.proofs[k][j]
            proof = maps.proofs[k]
            bad = _with_proof(maps, k, proof[:j] + ((_float_letter(u, s, c), i, e),) + proof[j + 1:])
        else:
            images = getattr(maps, where)
            g, s = data.draw(st.sampled_from(
                [(g, s) for g, w in enumerate(images) for s in range(len(w))]))
            changed = images[:g] + (_float_letter(images[g], s, c),) + images[g + 1:]
            bad = replace(maps, **{where: changed})
        assert isinstance(check_word_maps(p, q, bad), str)

    def test_images_must_use_known_generators(self):
        p, q, maps = _z2_maps()
        for bad in (replace(maps, phi=(((2, 1),),)), replace(maps, psi=(((0, 1),), ((-1, 1),))),
                    replace(maps, phi=())):
            assert check_word_maps(p, q, bad) is not None

    def test_checker_imports_no_oracle(self):
        # the checker must stay independent of the oracles it checks; decimal
        # reads an exponent longer than int() takes
        import orbicurve.presentations as module

        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                     for a in node.names}
        assert imported == {"__future__", "dataclasses", "decimal", "errors", "signature"}


def test_substitute_powers_conjugates_without_repeating():
    # v -> x y^2 x^-1 raised to -1000 stays three syllables
    image = ((0, 1), (1, 2), (0, -1))
    assert substitute(((0, -1000),), (image,)) == ((0, 1), (1, -2000), (0, -1))
    assert substitute(((0, 2), (1, -1)), (((1, 1), (0, 1)), ((0, 1),))) == ((1, 1), (0, 1), (1, 1))
