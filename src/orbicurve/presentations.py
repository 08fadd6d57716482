"""Finite presentations and words.

A word is a tuple of (generator index, nonzero exponent) pairs, stored in
merged form: no two consecutive pairs share a generator index and no pair
has exponent 0.  Presentations normalize their relators on construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnknownGenerator
from .signature import OrbSignature

Word = tuple[tuple[int, int], ...]


def free_reduce(pairs) -> Word:
    """Merge adjacent powers of the same generator and drop zero exponents."""
    out: list[list[int]] = []
    for gen, exp in pairs:
        exp = int(exp)
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            out[-1][1] += exp
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([gen, exp])
    return tuple((g, e) for g, e in out)


def invert_word(word: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(word))


def concat_words(*words: Word) -> Word:
    pairs = []
    for w in words:
        pairs.extend(w)
    return free_reduce(pairs)


def word_exponent_sums(word: Word, ngens: int) -> list[int]:
    sums = [0] * ngens
    for g, e in word:
        sums[g] += e
    return sums


@dataclass(frozen=True)
class FinitePresentation:
    """Generators by name plus relator words over their indices."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise UnknownGenerator(f"duplicate generator names: {self.generators}")
        normalized = []
        for rel in self.relators:
            for g, _ in rel:
                if not 0 <= g < len(self.generators):
                    raise UnknownGenerator(
                        f"generator index {g} out of range for {self.generators}"
                    )
            normalized.append(free_reduce(rel))
        object.__setattr__(self, "relators", tuple(normalized))

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
                raise UnknownGenerator(f"bad exponent in token {token!r}") from None
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
        keyword, _, rest = line.partition(" ")
        if keyword == "gens":
            if generators is not None:
                raise UnknownGenerator("more than one gens line")
            generators = tuple(rest.split())
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
