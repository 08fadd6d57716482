import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbicurve import FinitePresentation, OrbSignature, UnknownGenerator, presentation_of
from orbicurve.presentations import (
    concat_words,
    free_reduce,
    invert_word,
    parse_presentation,
    parse_word,
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
    pf = parse_presentation(text)
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
    ("gens x\ngens y\n", "more than one gens line"),
    ("rel x\n", "gens line must come first"),
    ("gens x\nbogus x\n", "unknown line keyword 'bogus'"),
    ("# empty\n", "missing gens line"),
])
def test_presentation_file_error_messages(text, message):
    with pytest.raises(UnknownGenerator) as info:
        parse_presentation(text)
    assert str(info.value) == message
