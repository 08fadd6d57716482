"""The HLT coset enumerator as it was before the flat-table rewrite, kept as
an oracle: `tests/test_cosets.py` checks that `coset_enumeration` returns
the very same `CosetTable` (same coset numbering) on drawn presentations.

One Python list per row, `None` for holes, and `find()` on every table
entry read during a scan.
"""

from __future__ import annotations

from orbicurve.cosets import CosetTable, Exceeded
from orbicurve.presentations import FinitePresentation, Word


def _letters(word: Word) -> tuple[int, ...]:
    """Flatten to letters: generator g is 2g, its inverse 2g+1."""
    out = []
    for g, e in word:
        letter = 2 * g if e > 0 else 2 * g + 1
        out.extend([letter] * abs(e))
    return tuple(out)


def _inv(letter: int) -> int:
    return letter ^ 1


class ReferenceEnumerator:
    def __init__(self, presentation: FinitePresentation, subgroup_generators,
                 max_cosets: int):
        if max_cosets < 1:
            raise ValueError("max_cosets must be >= 1")
        self.width = 2 * presentation.ngens
        self.relators = [_letters(w) for w in presentation.relators]
        self.subgens = [_letters(w) for w in subgroup_generators]
        self.max_cosets = max_cosets
        self.table: list[list[int | None]] = []
        self.parent: list[int] = []
        self.live = 0
        self.exceeded = False

    # -- union-find ---------------------------------------------------
    def find(self, c: int) -> int:
        root = c
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[c] != root:
            self.parent[c], c = root, self.parent[c]
        return root

    # -- table management ----------------------------------------------
    def define(self, c: int, letter: int) -> int | None:
        if self.live + 1 > self.max_cosets:
            self.exceeded = True
            return None
        new = len(self.table)
        self.table.append([None] * self.width)
        self.parent.append(new)
        self.live += 1
        self.table[c][letter] = new
        self.table[new][_inv(letter)] = c
        return new

    def _merge(self, a: int, b: int, queue: list[int]) -> None:
        a, b = self.find(a), self.find(b)
        if a == b:
            return
        lo, hi = (a, b) if a < b else (b, a)
        self.parent[hi] = lo
        self.live -= 1
        queue.append(hi)

    def coincidence(self, a: int, b: int) -> None:
        queue: list[int] = []
        self._merge(a, b, queue)
        qi = 0
        while qi < len(queue):
            dead = queue[qi]
            qi += 1
            for letter in range(self.width):
                delta = self.table[dead][letter]
                if delta is None:
                    continue
                # drop the back edge before transplanting
                if self.table[delta][_inv(letter)] == dead:
                    self.table[delta][_inv(letter)] = None
                mu, nu = self.find(dead), self.find(delta)
                if self.table[mu][letter] is not None:
                    self._merge(nu, self.table[mu][letter], queue)
                elif self.table[nu][_inv(letter)] is not None:
                    self._merge(mu, self.table[nu][_inv(letter)], queue)
                else:
                    self.table[mu][letter] = nu
                    self.table[nu][_inv(letter)] = mu

    def scan_and_fill(self, alpha: int, word: tuple[int, ...]) -> None:
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j and self.table[f][word[i]] is not None:
                f = self.find(self.table[f][word[i]])
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and self.table[b][_inv(word[j])] is not None:
                b = self.find(self.table[b][_inv(word[j])])
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                self.table[f][word[i]] = b
                self.table[b][_inv(word[i])] = f
                return
            new = self.define(f, word[i])
            if new is None:
                return
            f = new
            i += 1

    def compact(self, cursor: int) -> int:
        """Renumber live cosets in order; returns the relocated cursor."""
        mapping: dict[int, int] = {}
        for c in range(len(self.table)):
            if self.find(c) == c:
                mapping[c] = len(mapping)
        new_table = []
        for c in range(len(self.table)):
            if c not in mapping:
                continue
            row = self.table[c]
            new_table.append([
                None if x is None else mapping[self.find(x)] for x in row
            ])
        new_cursor = sum(1 for c in mapping if c < cursor)
        self.table = new_table
        self.parent = list(range(len(new_table)))
        return new_cursor

    def run(self) -> CosetTable | Exceeded:
        self.table.append([None] * self.width)
        self.parent.append(0)
        self.live = 1
        for word in self.subgens:
            self.scan_and_fill(0, word)
            if self.exceeded:
                return Exceeded(self.max_cosets)
        alpha = 0
        while alpha < len(self.table):
            dead = len(self.table) - self.live
            if dead > max(self.live, 256):
                alpha = self.compact(alpha)
                continue  # bound and liveness must be re-checked
            if self.find(alpha) != alpha:
                alpha += 1
                continue
            for word in self.relators:
                self.scan_and_fill(alpha, word)
                if self.exceeded:
                    return Exceeded(self.max_cosets)
                if self.find(alpha) != alpha:
                    break
            if self.find(alpha) == alpha:
                for letter in range(self.width):
                    if self.table[alpha][letter] is None:
                        if self.define(alpha, letter) is None:
                            return Exceeded(self.max_cosets)
            alpha += 1
        self.compact(0)
        # a hole becomes -1, which fails CosetTable's permutation check
        return CosetTable(len(self.table), tuple(
            tuple(-1 if row[letter] is None else row[letter] for row in self.table)
            for letter in range(0, self.width, 2)))


def reference_coset_enumeration(p: FinitePresentation, subgroup_generators=(),
                                max_cosets: int = 10**6) -> CosetTable | Exceeded:
    return ReferenceEnumerator(p, subgroup_generators, max_cosets).run()
