"""Finite presentations and words.

A word is a tuple of (generator index, nonzero exponent) pairs, stored in
merged form: no two consecutive pairs share a generator index and no pair
has exponent 0.  Presentations normalize their relators on construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

from .errors import UnknownGenerator
from .signature import OrbSignature

Word = tuple[tuple[int, int], ...]


def free_reduce(pairs) -> Word:
    """Merge adjacent powers of the same generator and drop zero exponents."""
    out: list[tuple[int, int]] = []
    for gen, exp in pairs:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            exp += out[-1][1]
            if exp:
                out[-1] = (gen, exp)
            else:
                out.pop()
        else:
            out.append((gen, exp))
    return tuple(out)


def invert_word(word: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(word))


def concat_words(*words: Word) -> Word:
    pairs = []
    for w in words:
        pairs.extend(w)
    return free_reduce(pairs)


def _power(word: Word, e: int) -> Word:
    """word^e, not yet reduced; a conjugate c g^f c^-1 of one syllable
    becomes c g^(fe) c^-1 without repeating the word."""
    k = len(word) // 2
    if len(word) % 2 and word[:k] == invert_word(word[k + 1:]):
        return word[:k] + ((word[k][0], word[k][1] * e),) + word[k + 1:]
    return (word if e > 0 else invert_word(word)) * abs(e)


def substitute(word: Word, images) -> Word:
    """The image of `word` when generator g goes to the word images[g]."""
    pairs = []
    for g, e in word:
        pairs.extend(_power(images[g], e))
    return free_reduce(pairs)


def word_exponent_sums(word: Word, ngens: int) -> list[int]:
    sums = [0] * ngens
    for g, e in word:
        sums[g] += e
    return sums


def check_generator_names(generators: tuple[str, ...]) -> None:
    """Refuse a name with '^': a word token splits at its first '^', so
    such a name could never be written in a word."""
    for name in generators:
        if "^" in name:
            raise UnknownGenerator(f"generator name {name!r} cannot contain '^'")


def check_words(words, generators: tuple[str, ...]) -> None:
    """Refuse a letter whose generator index or exponent is not an int, or
    is a bool, with TypeError, and an index that `generators` lacks with
    UnknownGenerator."""
    for word in words:
        for g, e in word:
            if type(g) is not int or type(e) is not int:
                raise TypeError(f"letter ({g!r}, {e!r}): index and exponent must be ints")
            if not 0 <= g < len(generators):
                raise UnknownGenerator(f"generator index {g} out of range for {generators}")


@dataclass(frozen=True)
class FinitePresentation:
    """Generators by name plus relator words over their indices."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise UnknownGenerator(f"duplicate generator names: {self.generators}")
        check_generator_names(self.generators)
        check_words(self.relators, self.generators)
        object.__setattr__(self, "relators", tuple(map(free_reduce, self.relators)))

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def index_of(self, name: str) -> int:
        try:
            return self.generators.index(name)
        except ValueError:
            raise UnknownGenerator(f"no generator named {name!r}") from None

    def word(self, text: str) -> Word:
        """Parse a word like 'x1 y1^-2 x1' over this presentation."""
        return parse_word(text, self.generators)


# ---------------------------------------------------------------------------
# word-map certificates: an isomorphism of presented groups by Tietze
# transformations (Magnus-Karrass-Solitar, Combinatorial Group Theory,
# section 1.5; Lyndon-Schupp, chapter II)

Conjugate = tuple[Word, int, int]  # (u, i, e) stands for u r_i^e u^-1: ints, e = +-1


@dataclass(frozen=True)
class WordMaps:
    """Generator maps phi: P -> Q and psi: Q -> P, as words, with proofs.

    `proofs` gives, in this order, a product of conjugates of relators that
    freely equals each of:
    - phi(r) for every relator r of P, over Q's relators;
    - psi(s) for every relator s of Q, over P's relators;
    - psi(phi(g)) g^-1 for every generator g of P, over P's relators;
    - phi(psi(x)) x^-1 for every generator x of Q, over Q's relators.
    The first two make phi and psi homomorphisms, the last two make them
    inverse to each other, so P and Q present isomorphic groups.
    """

    phi: tuple[Word, ...]
    psi: tuple[Word, ...]
    proofs: tuple[tuple[Conjugate, ...], ...]


def word_map_claims(
    p: FinitePresentation, q: FinitePresentation, phi, psi
) -> list[tuple[str, Word, FinitePresentation]]:
    """(name, word, side) for each word that a `WordMaps` with images phi and
    psi must prove, in the order of its proofs: the word is a product of
    conjugates of the relators of side, p or q."""
    claims = [(f"phi(relator {i})", substitute(r, phi), q) for i, r in enumerate(p.relators)]
    claims += [(f"psi(relator {i})", substitute(s, psi), p) for i, s in enumerate(q.relators)]
    claims += [(f"psi(phi(generator {g}))", concat_words(substitute(w, psi), ((g, -1),)), p)
               for g, w in enumerate(phi)]
    claims += [(f"phi(psi(generator {x}))", concat_words(substitute(w, phi), ((x, -1),)), q)
               for x, w in enumerate(psi)]
    return claims


def check_word_maps(p: FinitePresentation, q: FinitePresentation, maps: WordMaps) -> str | None:
    """None when `maps` proves that p and q present isomorphic groups, else why
    the first image, or claim of `word_map_claims`, fails `check_words` over its
    side or its proof: free reduction, linear in maps, proofs and substituted relators.
    A field, image or proof that is not a tuple or a list is refused first."""
    for name in ("phi", "psi", "proofs"):
        field = getattr(maps, name)
        if not isinstance(field, (tuple, list)):
            return f"{name}: a {type(field).__name__}, not a tuple or list"
        for i, item in enumerate(field):
            if not isinstance(item, (tuple, list)):
                where = f"proof {i}" if name == "proofs" else f"{name}(generator {i})"
                return f"{where}: a {type(item).__name__}, not a tuple or list"
    if len(maps.phi) != p.ngens or len(maps.psi) != q.ngens:
        return f"{len(maps.phi)} + {len(maps.psi)} images for {p.ngens} + {q.ngens} generators"
    for name, images, side in (("phi", maps.phi, q), ("psi", maps.psi, p)):
        for g, image in enumerate(images):
            try:
                check_words((image,), side.generators)
            except (TypeError, ValueError, UnknownGenerator) as error:
                return f"{name}(generator {g}): {error}"
    claims = word_map_claims(p, q, maps.phi, maps.psi)
    if len(maps.proofs) != len(claims):
        return f"{len(maps.proofs)} proofs for {len(claims)} words"
    for (claim, word, side), proof in zip(claims, maps.proofs):
        pairs = []
        try:
            for u, i, e in proof:
                if not (type(i) is type(e) is int and 0 <= i < len(side.relators) and e in (1, -1)):
                    return f"{claim}: no relator conjugate ({i!r}, {e!r})"
                check_words((u,), side.generators)
                pairs += u
                pairs += side.relators[i] if e == 1 else invert_word(side.relators[i])
                pairs += invert_word(u)
        except (TypeError, ValueError, UnknownGenerator) as error:
            return f"{claim}: {error}"
        if free_reduce(pairs) != word:
            return f"{claim}: its proof multiplies out to another word"
    return None


def presentation_of(sig: OrbSignature) -> FinitePresentation:
    """The standard presentation of the curve orbifold group of `sig`.

    Generators a_1, b_1, ..., a_g, b_g, x_1, ..., x_n, y_1, ..., y_r.
    Relators: x_j^{m_j} for each j, then the long relator
    [a_1,b_1]...[a_g,b_g] (x_1...x_n y_1...y_r)^{-1} with each commutator
    expanded to a 4-letter word.  The long relator is dropped when it
    reduces to the empty word.
    """
    g, r, m = sig.g, sig.r, sig.m
    names: list[str] = []
    for i in range(1, g + 1):
        names += [f"a{i}", f"b{i}"]
    names += [f"x{j}" for j in range(1, len(m) + 1)]
    names += [f"y{k}" for k in range(1, r + 1)]

    x0 = 2 * g
    y0 = 2 * g + len(m)
    relators: list[Word] = []
    for j, mj in enumerate(m):
        relators.append(((x0 + j, mj),))

    long_pairs: list[tuple[int, int]] = []
    for i in range(g):
        a, b = 2 * i, 2 * i + 1
        long_pairs += [(a, 1), (b, 1), (a, -1), (b, -1)]
    for k in reversed(range(r)):
        long_pairs.append((y0 + k, -1))
    for j in reversed(range(len(m))):
        long_pairs.append((x0 + j, -1))
    long = free_reduce(long_pairs)
    if long:
        relators.append(long)
    return FinitePresentation(tuple(names), tuple(relators))


# ---------------------------------------------------------------------------
# text format: `gens`, `rel` and `sub` lines; words are whitespace-separated
# tokens `name` or `name^<int>`; `#` starts a comment.


def _letters(text: str, index: dict[str, int]) -> list[tuple[int, int]]:
    """The (generator index, exponent) pair of each token, not yet reduced."""
    pairs = []
    for token in text.split():
        name, caret, exp_text = token.partition("^")
        if caret:
            try:
                exp = int(exp_text)
            except ValueError:
                # int() refuses more than 4300 digits; Decimal reads any length
                digits = exp_text[1:] if exp_text[:1] in ("+", "-") else exp_text
                if not (digits.isascii() and digits.isdigit()):
                    raise UnknownGenerator(f"bad exponent in token {token!r}") from None
                exp = int(Decimal(exp_text))
        else:
            exp = 1
        g = index.get(name)
        if g is None:
            raise UnknownGenerator(f"no generator named {name!r}")
        pairs.append((g, exp))
    return pairs


def parse_word(text: str, generators: tuple[str, ...]) -> Word:
    index = {g: i for i, g in reversed(list(enumerate(generators)))}  # first of a repeat
    return free_reduce(_letters(text, index))


@dataclass(frozen=True)
class PresentationFile:
    """Parse result of the line-oriented presentation format."""

    presentation: FinitePresentation
    subgroup_generators: tuple[Word, ...] = ()


def parse_presentation(text: str) -> PresentationFile:
    generators: tuple[str, ...] | None = None
    relators: list[list[tuple[int, int]]] = []
    subgens: list[Word] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword = line.split()[0]  # any whitespace ends it, as in a word
        rest = line[len(keyword):]
        if keyword == "gens":
            if generators is not None:
                raise UnknownGenerator("more than one gens line")
            generators = tuple(rest.split())
            check_generator_names(generators)  # before a word can misread the name
            index = {g: i for i, g in enumerate(generators)}  # duplicates raise below
        elif keyword in ("rel", "sub"):
            if generators is None:
                raise UnknownGenerator("gens line must come first")
            word = _letters(rest, index)
            # relators are reduced once, by FinitePresentation
            if keyword == "rel":
                relators.append(word)
            else:
                subgens.append(free_reduce(word))
        else:
            raise UnknownGenerator(f"unknown line keyword {keyword!r}")
    if generators is None:
        raise UnknownGenerator("missing gens line")
    return PresentationFile(
        FinitePresentation(generators, tuple(relators)), tuple(subgens)
    )
