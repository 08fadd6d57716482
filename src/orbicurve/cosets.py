"""Bounded Todd-Coxeter coset enumeration, permutation utilities and the
capped order of a permutation group.

The enumerator is the HLT strategy: process live cosets in definition
order, scan-and-fill every relator, then define any still-missing neighbor,
with a lookahead pass at a doubling live-coset limit (below).
Coincidences go through a union-find with queued edge transfer; the table
is compacted whenever dead rows outnumber live ones, so memory stays linear
in the live-coset count.  Everything is deterministic.

The table is one flat list of rows.  With width = 2 * number of
generators, a row is `width` edge slots and one parent slot, and coset c
is stored as its row offset c * (width + 1): `table[c + letter]` is the
offset of its neighbor, or -1 for a hole, so one scan step is
`f = table[f + letter]`, and `table[c + width]` is its union-find parent,
c itself while c is live.  A definition appends one row.  Every edge is
stored together with its back edge, and processing a dead coset deletes
every back edge into it, so outside `coincidence` every entry of a live
row is a hole or a live coset: scans and compaction read the table without
find().  Compaction overwrites the parent column with the new offsets,
which maps every edge in one pass.  The forward columns, read through a
map from live row offsets to their rank, are the finished table: a
`CosetTable`, which is the permutation action of the generators on the
cosets.  `coset_enumeration` returns it, and `group_order` reads the
permutation of w from it in each run over a cyclic subgroup <w>.

A relator given as a proper power w^n (one letter l^n, or syllables that
repeat with a period) is not scanned at a live coset alpha when
beta = alpha * w^-1 is defined, traced back through |w| edges, and
beta < alpha.  beta is live (live rows point at live cosets) and was
processed before alpha (rows are processed in offset order, new rows go
after alpha, compaction keeps the order), so beta * w^n = beta with every
edge defined, either by beta's own scan or, by induction, because beta too
was skipped.  Coincidences map the table onto a quotient, where a closed
w-cycle stays closed with a length dividing n.  alpha = beta * w lies on
beta's w-cycle, so its scan would trace n|w| defined edges back to alpha
and change nothing: skipping it keeps every definition, deduction and
coincidence of the run, hence its table and its numbering.

HLT pauses for a lookahead pass when the live count reaches LOOKAHEAD_LIVE,
a limit that doubles after each pass.  The pass scans every relator at each
live coset from the cursor on, the rows HLT has not processed (a processed
row has every relator closed), and deduces edges and merges cosets but
defines none.  Compaction then runs as usual.  The numbering is HLT's:
- Every row stands for a coset of H, and a merge joins two rows of one coset
  and keeps the smaller, so the first row of each coset of H survives.  A
  completed table holds exactly those rows, so its numbering is the order
  in which the cosets of H first get a row.
- A row that HLT processes after an earlier row of the same coset of H gives
  no new coset of H: every relator path and every neighbor at that earlier
  row was already defined.
- Lookahead only merges and deduces, so when the run reaches the next first
  row, the same cosets of H have rows as in HLT alone.  Scans and fills at
  that row define rows along the same relator prefixes and letters in the
  same order, and a prefix that one run already reaches has a row in both.
  So the sequence of first appearances is unchanged, and the table with it
  whenever the run completes.
The live count is not HLT's, so a run may complete under a bound that HLT
alone passes: Exceeded means that the work bound tripped.  A run under a
bound below LOOKAHEAD_LIVE never pauses and is HLT's, to the point where the
bound trips.

`group_order` counts a group that outgrows a small HLT run as
|G| = [G:<w>] * |<w>| for a word w with a relator w^n, one letter (g^e)
or a longer root ((xy)^7, [x,y]^8).  The index comes from a completed
enumeration of the cosets of <w>, and |<w>| = n is proved by a homomorphic
image in which w has order exactly n: its permutation of those cosets, or
the abelianization.  Otherwise HLT over the trivial subgroup runs under
the full bound.  Every order it returns is proved, and equals the one HLT
alone returns when HLT completes; since the cosets of <w> can fit under a
bound that HLT over the trivial subgroup passes, Exceeded(bound) from
`group_order` means that the work bound tripped, not that the order
passes it.

The order of a permutation group is found by one of two routes, with the
same integer and the same cap rule on both.  A regular group is certified
by one centralizing permutation per generator, in O(degree x generators)
each (`_is_regular`); any other group goes to Schreier-Sims, whose Schreier
trees are extended rather than rebuilt and which tests each (orbit point,
generator) pair of a level once (`_StabilizerChain`).  A Schreier generator
is sifted by its images of the base points, read off the two stored
permutations it is the quotient of, and is built point by point only when
its residue joins the chain; a product of two permutations is one C-level
gather (`perm_mul`).

The rest of the permutation arithmetic is walks and gathers.  An order is
one walk over each cycle (`perm_order`).  A word is evaluated from one
identity: a syllable g^e is |e| gathers of g's image while |e| is at most
GATHER_POWER, and `perm_power`'s squaring above that; a syllable with
e < 0 first inverts the image (`evaluate_word`).  A relator w holds iff
w^-1 does, so `verify_homomorphism` evaluates whichever of the two has
fewer inverse letters.
"""

from __future__ import annotations

import itertools
import math
import re
from operator import itemgetter

from .errors import DEFAULT_MAX_COSETS, ArityMismatch, frozen
from .presentations import FinitePresentation, Word, check_words, invert_word

# live cosets below which a table is never compacted, and the cap of
# `group_order`'s first run over the trivial subgroup
SMALL_TABLE = 256
# live cosets at which HLT first pauses for a lookahead pass; the limit
# doubles after each pass
LOOKAHEAD_LIVE = 16384
# the largest |e| for which `evaluate_word` applies g^e as |e| gathers; from
# |e| = 4 on, `perm_power`'s squaring takes fewer
GATHER_POWER = 3


@frozen
class Exceeded:
    """Bounded-resource outcome: the computation hit its configured cap."""

    bound: int


def _letters(word: Word) -> tuple[int, ...]:
    """Generator g is letter 2g, its inverse 2g+1."""
    return tuple(itertools.chain.from_iterable(
        itertools.repeat(2 * g if e > 0 else 2 * g + 1, abs(e)) for g, e in word))


def _root(word: Word) -> tuple[Word, int] | None:
    """(w, n) when the word is w^n with n >= 2 as given: one syllable l^n,
    or syllables that repeat with a period p (word[p:] == word[:-p])
    dividing their number, n times.  Only syllables are compared, never
    expanded letters."""
    if len(word) == 1:
        (g, e), = word
        return (((g, 1 if e > 0 else -1),), abs(e)) if abs(e) > 1 else None
    for p in range(1, len(word) // 2 + 1):
        if len(word) % p == 0 and word[p:] == word[:-p]:
            return word[:p], len(word) // p
    return None


class _Enumerator:
    """A scanned word is one tuple of letters.  A relator is (letters,
    back), where back is the letters of w^-1 when the relator is a proper
    power w^n, for the skip in `enumerate`, else None; a subgroup word is
    its letters alone."""

    def __init__(self, presentation: FinitePresentation, subgroup_generators, max_cosets: int):
        if max_cosets < 1:
            raise ValueError("max_cosets must be >= 1")
        self.width = 2 * presentation.ngens
        self.relators = [(_letters(w), None if (root := _root(w)) is None
                          else _letters(invert_word(root[0])))
                         for w in presentation.relators]
        self.subgens = [_letters(w) for w in subgroup_generators]
        self.max_cosets = max_cosets
        self.holes = [-1] * (self.width + 1)  # a new row; its parent is set after
        self.table = self.holes[1:] + [0]  # coset 0, the subgroup's
        self.live = 1

    def find(self, c: int) -> int:
        table, width = self.table, self.width
        root = c
        while table[root + width] != root:
            root = table[root + width]
        while table[c + width] != root:
            table[c + width], c = root, table[c + width]
        return root

    def coincidence(self, a: int, b: int) -> None:
        """Merge the distinct live cosets a and b and every pair that merge
        forces; the smaller coset of each pair survives.  Each dead coset's
        edges move to its representative and its back edges are deleted, so
        on return no live row points at a dead coset."""
        table, width, find = self.table, self.width, self.find
        if b < a:
            a, b = b, a
        table[b + width] = a
        queue = [b]
        for dead in queue:  # grows while it is walked
            for letter in range(width):
                delta = table[dead + letter]
                if delta < 0:
                    continue
                back = letter ^ 1
                if table[delta + back] == dead:
                    table[delta + back] = -1
                mu = table[dead + width]
                if table[mu + width] != mu:
                    mu = find(mu)
                nu = delta if table[delta + width] == delta else find(delta)
                a = table[mu + letter]
                if a >= 0:
                    b = nu
                else:
                    a = table[nu + back]
                    if a < 0:
                        table[mu + letter] = nu
                        table[nu + back] = mu
                        continue
                    b = mu
                # merge a and b; b is mu or nu, found above
                if table[a + width] != a:
                    a = find(a)
                if a != b:
                    if b < a:
                        a, b = b, a
                    table[b + width] = a
                    queue.append(b)
        self.live -= len(queue)

    def scan_and_fill(self, alpha: int, word: tuple[int, ...], cap: int) -> bool:
        """Trace the letters of `word` from alpha forwards and, through the
        inverse letter word[j] ^ 1, backwards; deduce the one missing edge
        or define cosets until the word closes.  Returns False when a
        definition would pass `cap` live cosets (at cap 0, the lookahead's,
        the scan only deduces and merges)."""
        table = self.table
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j:
                x = table[f + word[i]]
                if x < 0:
                    break
                f = x
                i += 1
            while j >= i:
                x = table[b + (word[j] ^ 1)]
                if x < 0:
                    break
                b = x
                j -= 1
            if j < i:
                if f != b:
                    self.coincidence(f, b)
                return True
            if j == i:
                table[f + word[i]] = b
                table[b + (word[i] ^ 1)] = f
                return True
            if self.live >= cap:
                return False
            new = len(table)
            table += self.holes
            table[new + self.width] = new
            self.live += 1
            table[f + word[i]] = new
            table[new + (word[i] ^ 1)] = f
            f = new
            i += 1

    def compact(self, cursor: int) -> int:
        """Renumber live cosets in order; returns the relocated cursor.
        The parent column, which find() no longer needs, is overwritten
        with the new offsets: the k-th live row gets k * stride, a dead
        row -1."""
        table, width, stride = self.table, self.width, self.width + 1
        offset = 0
        for c in range(0, len(table), stride):
            if table[c + width] == c:
                table[c + width], offset = offset, offset + stride
            else:
                table[c + width] = -1
        cursor = stride * sum(table[c + width] >= 0 for c in range(0, cursor, stride))
        # the parent slot is mapped like an edge, to a wrong value, and then
        # set again from the renumbered column, whose int objects it shares
        self.table = [-1 if x < 0 else table[x + width]
                      for c in range(0, len(table), stride) if table[c + width] >= 0
                      for x in table[c:c + stride]]
        self.table[width::stride] = [x for x in table[width::stride] if x >= 0]
        return cursor

    def lookahead(self, cursor: int) -> None:
        """Scan every relator at each live coset from the cursor on, the
        rows HLT has not processed, with deductions and coincidences only.
        No power is skipped: HLT's closed-cycle skip saves the pass only a
        few percent of its scans."""
        table, width = self.table, self.width
        for gamma in range(cursor, len(table), width + 1):
            for word, _ in self.relators:
                if table[gamma + width] != gamma:
                    break
                self.scan_and_fill(gamma, word, 0)

    def enumerate(self) -> int | None:
        """Run HLT to the end: the number of live cosets, or None when a
        definition would pass the bound.  A lookahead pass runs whenever
        the live count reaches a limit, LOOKAHEAD_LIVE at first and
        doubled after each pass."""
        width, stride = self.width, self.width + 1
        for word in self.subgens:
            if not self.scan_and_fill(0, word, self.max_cosets):
                return None
        table, holes = self.table, self.holes
        alpha, limit = 0, LOOKAHEAD_LIVE
        while alpha < len(table):
            if len(table) - self.live * stride > max(self.live, SMALL_TABLE) * stride:
                alpha = self.compact(alpha)
                table = self.table
                continue  # bound and liveness must be re-checked
            if self.live >= limit:
                self.lookahead(alpha)
                limit *= 2
                continue  # compaction and liveness must be re-checked
            if table[alpha + width] != alpha:
                alpha += stride
                continue
            for word, back in self.relators:
                if back is not None:
                    beta = alpha
                    for letter in back:
                        beta = table[beta + letter]
                        if beta < 0:
                            break
                    else:
                        if beta < alpha:
                            continue  # alpha is on a closed w-cycle (module docstring)
                if not self.scan_and_fill(alpha, word, self.max_cosets):
                    return None
                if table[alpha + width] != alpha:
                    break
            else:
                for letter in range(width):
                    if table[alpha + letter] < 0:
                        if self.live >= self.max_cosets:
                            return None
                        new = len(table)
                        table += holes
                        table[new + width] = new
                        self.live += 1
                        table[alpha + letter] = new
                        table[new + (letter ^ 1)] = alpha
            alpha += stride
        return self.live

    def coset_table(self) -> CosetTable:
        """The live cosets numbered 0, 1, ... in order, with each
        generator's forward column as its permutation of them.  A hole
        stays -1, which is no coset, so an unfinished table fails the
        permutation check with ArityMismatch.  The table is only read, so
        the enumerator can build it again."""
        table, width = self.table, self.width
        live = [c for c in range(0, len(table), width + 1) if table[c + width] == c]
        number = dict(zip(live, range(len(live))))
        return CosetTable(len(live), tuple(
            tuple(-1 if table[c + letter] < 0 else number[table[c + letter]] for c in live)
            for letter in range(0, width, 2)))


def coset_enumeration(
    p: FinitePresentation,
    subgroup_generators=(),
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> CosetTable | Exceeded:
    """Enumerate cosets of the subgroup generated by the given words.

    On completion the row count is the index of the subgroup and the
    table, numbering included, is the one HLT alone gives.  Returns
    Exceeded when the live-coset count would pass `max_cosets`: the work
    bound tripped.  Above LOOKAHEAD_LIVE the lookahead passes keep the count
    lower than HLT's, so a run may complete where HLT alone passes the bound
    (module docstring).  A subgroup word over a generator that p lacks is
    refused with UnknownGenerator, and one with a letter that is not a pair
    of ints with TypeError.
    """
    check_words(subgroup_generators, p.generators)
    enumerator = _Enumerator(p, subgroup_generators, max_cosets)
    if enumerator.enumerate() is None:
        return Exceeded(max_cosets)
    return enumerator.coset_table()


def group_order(p: FinitePresentation, bound: int = DEFAULT_MAX_COSETS) -> int | Exceeded:
    """Order of the presented group when it is at most `bound`; Exceeded(bound)
    when the work bound trips.  Stages 1 and 3 only count live cosets.

    1. HLT over the trivial subgroup, capped at min(bound, SMALL_TABLE)
       live cosets: its count when it completes.
    2. For each root w that `_root` reads in relators w^a, w^b, ... (of w
       and w^-1 the larger tuple, so g^-1 becomes g) with n = gcd(a, b, ...)
       >= 2, since w^a = w^b = 1 gives w^n = 1 (by -n, then w), the cosets
       of <w> under the cap bound // n.  A run that trips ends this
       stage.  A completed run gives the index i = [G:<w>], and i * n
       is returned when w has order exactly n in a homomorphic image of G:
       its permutation of the cosets of <w> (`evaluate_word` on the run's
       `coset_table`), or G^ab (`_abelian_order`).  Then |<w>| >= n, and
       |<w>| <= n because w^n = 1, so |G| = i * n <= bound.
    3. HLT over the trivial subgroup under the full bound.

    Stages 2 and 3 prove the true order, so every integer returned is the
    one that HLT alone returns whenever HLT completes.  A group whose HLT
    run passes `bound` but whose order does not may still be counted in
    stage 2, so Exceeded(bound) says that the work bound tripped, not that
    the order passes `bound`; a bound equal to the order can trip too
    (Z_10 x Z_20 x Z_50 at 10**4: HLT's transient cosets overshoot the
    index).
    """
    rows = _Enumerator(p, (), min(bound, SMALL_TABLE)).enumerate()
    if rows is not None or bound <= SMALL_TABLE:
        return Exceeded(bound) if rows is None else rows
    powers = {}
    for word in p.relators:
        root = _root(word)
        if root is not None:  # w and w^-1 generate one subgroup
            w, n = root
            w = max(w, invert_word(w))
            powers[w] = math.gcd(powers.get(w, 0), n)
    for w, n in sorted(powers.items(), key=lambda wn: (-wn[1], wn[0])):
        if n < 2 or n > bound:
            continue
        enumerator = _Enumerator(p, (w,), bound // n)
        if enumerator.enumerate() is None:
            break
        table = enumerator.coset_table()
        if perm_order(evaluate_word(w, table)) == n or _abelian_order(p, w) == n:
            return table.rows * n
    rows = _Enumerator(p, (), bound).enumerate()
    return Exceeded(bound) if rows is None else rows


def _abelian_order(p: FinitePresentation, w: Word) -> int:
    """The order of w's image in G^ab, when a relator w^n makes it a torsion
    element: G^ab = Z^r + T with the image in T, and adding the relator w
    divides T by the cyclic group it generates."""
    from .abelian import abelianization_of_presentation  # stage 2 alone needs it
    quotient = FinitePresentation(p.generators, p.relators + (w,))
    return (abelianization_of_presentation(p).torsion_order()
            // abelianization_of_presentation(quotient).torsion_order())


# ---------------------------------------------------------------------------
# permutations, stored as image tuples on 0..k-1


def identity_perm(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


def perm_mul(p, q) -> tuple[int, ...]:
    """Apply p, then q: one C-level gather of q's own items.  Below degree 2
    `itemgetter` would not return a tuple, so those take the list form."""
    if len(p) < 2:
        return tuple([q[x] for x in p])
    return itemgetter(*p)(q)


def perm_inverse(p) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def perm_order(p) -> int:
    """The lcm of the cycle lengths, from one walk over each cycle.  A walk
    ends at a point it has seen, not at its start, so it ends on any tuple
    of in-range points, a permutation or not.  `seen` is a list of bools,
    which reads and writes faster than a bytearray."""
    seen = [False] * len(p)
    lengths = set()
    for start in range(len(p)):
        if seen[start]:
            continue
        seen[start] = True
        n, x = 1, p[start]
        while not seen[x]:
            seen[x] = True
            x = p[x]
            n += 1
        lengths.add(n)
    return math.lcm(*lengths)


def perm_power(p, e: int) -> tuple[int, ...]:
    """p^e for any integer e, by repeated squaring."""
    if e < 0:
        p, e = perm_inverse(p), -e
    out = identity_perm(len(p))
    while e:
        if e & 1:
            out = perm_mul(out, p)
        e >>= 1
        if e:
            p = perm_mul(p, p)
    return out


def cycles_of(p) -> list[tuple[int, ...]]:
    """Nontrivial cycles, 0-based points."""
    seen = set()
    cycles = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cycle = [i]
        seen.add(i)
        j = p[i]
        while j != i:
            cycle.append(j)
            seen.add(j)
            j = p[j]
        cycles.append(tuple(cycle))
    return cycles


@frozen
class PermutationImages:
    """One permutation per presentation generator, all of the same degree."""

    degree: int
    images: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if type(self.degree) is not int:
            raise TypeError(f"permutation degree must be an int, bools excluded: {self.degree!r}")
        # tuple() returns a tuple argument itself, so tuple images are kept
        object.__setattr__(self, "images", tuple(map(tuple, self.images)))
        for p in self.images:
            if set(map(type, p)) - {int}:
                raise TypeError(f"permutation points must be ints, bools excluded: {p}")
            if sorted(p) != list(range(self.degree)):
                raise ArityMismatch(f"not a permutation of degree {self.degree}: {p}")


class CosetTable(PermutationImages):
    """A completed coset table, which is the permutation action of the
    generators on the cosets (Holt-Eick-O'Brien, Handbook of Computational
    Group Theory, 5.1): `images[g][c]` is the coset c * g, and coset 0 is
    the coset of the subgroup.  A generator's inverse acts by the inverse
    permutation.  `rows` is the index of the subgroup, and `complete` is
    always true, because a table with a hole is no permutation."""

    complete = True

    @property
    def rows(self) -> int:
        return self.degree


class _StabilizerChain:
    """Base and strong generating set under construction.

    Level i holds the base point `base[i]`, the strong generators fixing
    `base[:i]` paired with their inverses, and their Schreier tree, one
    permutation per orbit point: gamma maps to u_gamma^-1 (`invs`), where
    u_gamma takes `base[i]` to gamma.  A tree is extended, never rebuilt,
    when a generator joins its level, so a representative keeps its value
    once set.  `pending[i]` holds the (point, generator index) pairs of
    level i whose Schreier generator is still untested, and `sifted`
    counts the pairs taken from those lists.  A Schreier generator is
    sifted by its base images alone (`residue`): it becomes a permutation
    only when its residue joins the chain as a strong generator.
    """

    def __init__(self, degree: int):
        self.ident = identity_perm(degree)
        self.base: list[int] = []
        self.gens: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = []
        self.invs: list[dict[int, tuple[int, ...]]] = []
        self.pending: list[list[tuple[int, int]]] = []
        self.sifted = 0

    def schreier_sims(self, images, cap: int) -> int | Exceeded:
        """The order of the group generated by `images`, by deterministic
        Schreier-Sims, or Exceeded(cap) once it is known to pass `cap`.

        Holt's SCHREIERSIMS (Handbook of Computational Group Theory, 4.4)
        with the incremental Schreier trees of 4.1.1: every Schreier
        generator of every level must sift to the identity through the
        levels below it, a nontrivial residue becomes a new strong
        generator, and each (point, generator) pair is tested once.  The
        order is the product of the basic orbit lengths.  That product over
        the orbits found so far is a lower bound on the order, so
        Exceeded(cap) is returned as soon as it passes `cap`, before memory
        grows: the chain holds one permutation per orbit point, at most
        base length x degree^2 points, never `cap` group elements.
        """
        for s in images:
            if s != self.ident:
                self.add(s, 0)
        i = len(self.base) - 1
        while self.order_bound() <= cap:
            if i < 0:
                return self.order_bound()
            y = self.residue(i)
            i = i - 1 if y is None else self.add(y, i + 1)
        return Exceeded(cap)

    def order_bound(self) -> int:
        """Product of the orbit lengths: a lower bound on the group order,
        equal to it once every level is complete."""
        return math.prod(len(invs) for invs in self.invs)

    def add(self, y, first_level: int) -> int:
        """Make y a strong generator on levels `first_level` through the
        first base point y moves, opening a new level when y fixes the
        whole base.  Returns the last level changed."""
        j = next((j for j, b in enumerate(self.base) if y[b] != b), None)
        if j is None:
            j = len(self.base)
            b = next(x for x, yx in enumerate(y) if yx != x)
            self.base.append(b)
            self.gens.append([])
            self.invs.append({b: self.ident})
            self.pending.append([])
        y_inv = perm_inverse(y)
        for level in range(first_level, j + 1):
            self._extend(level, y, y_inv)
        return j

    def _extend(self, level: int, y, y_inv) -> None:
        """Add y to the level's generators and grow its tree breadth-first.
        Each pair that is not a tree edge becomes pending: (beta, y) for
        every point already in the orbit, (gamma, s) for every new point
        gamma and every generator s.  A new inverse is s^-1 u_beta^-1, a
        product of stored tuples, so it shares their int objects; the
        fresh ints of `perm_inverse` cost 28 bytes per entry, four times
        the tuple itself, at degrees above 256."""
        gens, invs = self.gens[level], self.invs[level]
        pending = self.pending[level]
        gens.append((y, y_inv))
        new = []  # read by `pairs` while it grows, so the walk is breadth-first
        pairs = itertools.chain([(beta, len(gens) - 1) for beta in invs],
                                ((gamma, k) for gamma in new for k in range(len(gens))))
        for beta, k in pairs:
            s, s_inv = gens[k]
            gamma = s[beta]
            if gamma in invs:
                pending.append((beta, k))
            else:
                invs[gamma] = perm_mul(s_inv, invs[beta])
                new.append(gamma)

    def residue(self, level: int) -> tuple[int, ...] | None:
        """Test the level's pending Schreier generators g = u_beta s u_{beta s}^-1
        until one does not sift to the identity through the levels below;
        return it sifted, or None when the list runs out.  A tested
        generator stays in the group of the levels below, because trees
        and generating sets only grow, so no pair is tested twice.

        g is sifted by its base images alone.  With v = u_beta^-1, g is
        v^-1 w for w = s u_{beta s}^-1, so g takes b to w[v.index(b)], and
        sifting g by t is w -> w t.  g sifts to the identity iff the final
        w equals v; only a residue that joins the chain is built, as
        v^-1 w."""
        pending, gens, invs = self.pending[level], self.gens[level], self.invs[level]
        below = list(zip(self.base, self.invs))[level + 1:]
        while pending:
            beta, k = pending.pop()
            self.sifted += 1
            s = gens[k][0]
            v, w = invs[beta], perm_mul(s, invs[s[beta]])
            if w == v:
                continue
            for b, level_invs in below:
                t = level_invs.get(w[v.index(b)])
                if t is None:  # g moves b out of its orbit, so w != v
                    break
                w = perm_mul(w, t)
            if w != v:
                return perm_mul(perm_inverse(v), w)
        return None


def _is_regular(perms: PermutationImages) -> bool:
    """True when the group G is regular, so that its order is the degree;
    False otherwise.

    G is refused at once when a non-identity generator has a fixed point
    or when G is intransitive.  Otherwise each non-identity generator t
    gets one candidate c_t: c_t(0) = t(0), forced along a Schreier vector
    of 0 by c_t(s(beta)) = s(c_t(beta)).  G is regular iff every c_t
    commutes with every generator:
    - If so, each c_t centralizes G, and is onto, as its image is
      G-invariant.  0^(c_t1...c_tk) = 0^(t_k...t_1), and as G is finite
      every point is 0^u for a positive word u, so <c_t> is transitive.
      Its centralizer, which contains G, is semiregular (Dixon-Mortimer,
      Permutation Groups, Thm 4.2A), so the transitive G is regular.
    - If G is regular, its centralizer in Sym(Omega) is regular too:
      exactly one centralizing permutation takes 0 to t(0), and as it
      satisfies the tree equations it is c_t.
    So the certificate is |S| permutations, each O(degree x generators).
    """
    n, ident = perms.degree, identity_perm(perms.degree)
    gens = [s for s in perms.images if s != ident]
    if n == 0 or any(s[x] == x for s in gens for x in range(n)):
        return False
    tree = [None] * n  # tree[gamma] = (beta, s) with gamma = s[beta]
    order = [0]
    tree[0] = (0, None)
    for beta in order:
        for s in gens:
            if tree[s[beta]] is None:
                tree[s[beta]] = (beta, s)
                order.append(s[beta])
    if len(order) < n:
        return False
    for t in gens:
        c = [0] * n
        c[0] = t[0]
        for gamma in order[1:]:
            beta, s = tree[gamma]
            c[gamma] = s[c[beta]]
        if any(c[s[x]] != s[c[x]] for s in gens for x in range(n)):
            return False
    return True


def permutation_group_order(perms: PermutationImages, cap: int = DEFAULT_MAX_COSETS) -> int | Exceeded:
    """Order of the generated group, capped: the order when it is at most
    `cap`, Exceeded(cap) otherwise.

    A regular group is recognised first by one centralizing permutation per
    generator (`_is_regular`), and its order is the degree.  Every other
    group goes to Schreier-Sims (`_StabilizerChain.schreier_sims`).
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if _is_regular(perms):
        return perms.degree if perms.degree <= cap else Exceeded(cap)
    return _StabilizerChain(perms.degree).schreier_sims(perms.images, cap)


def evaluate_word(word: Word, perms: PermutationImages) -> tuple[int, ...]:
    """The image of the word, by gathers (module docstring)."""
    out = identity_perm(perms.degree)
    for g, e in word:
        p = perms.images[g]
        if e < 0:
            p, e = perm_inverse(p), -e
        if e > GATHER_POWER:
            out = perm_mul(out, perm_power(p, e))
        else:
            for _ in range(e):
                out = perm_mul(out, p)
    return out


def verify_homomorphism(p: FinitePresentation, images: PermutationImages) -> bool:
    """True iff sending each generator to its image kills every relator.
    w = 1 iff w^-1 = 1, so of the two the one with fewer inverse letters
    (exponent sum >= 0) is evaluated."""
    if len(images.images) != p.ngens:
        raise ArityMismatch(
            f"{p.ngens} generators but {len(images.images)} images"
        )
    ident = identity_perm(images.degree)
    return all(evaluate_word(w if sum(e for _, e in w) >= 0 else invert_word(w), images)
               == ident for w in p.relators)


# ---------------------------------------------------------------------------
# cycle-notation text format (1-based points), used by the CLI


def format_cycles(p) -> str:
    cycles = cycles_of(p)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cycles)


def cycle_points(text: str) -> list[list[int]]:
    """The 1-based points of each cycle of '(1 2)(3 4)', '(1 2) (3 4)' or '(1,2)';
    '()', 'id' and '' have none.  A token that int() rejects is bad notation."""
    text = text.strip()
    if text in ("()", "id", ""):
        return []
    if not (text.startswith("(") and text.endswith(")")):
        raise ArityMismatch(f"bad cycle notation: {text!r}")
    try:
        return [[int(tok) for tok in chunk.replace(",", " ").split()]
                for chunk in re.split(r"\)\s*\(", text[1:-1])]
    except ValueError:
        raise ArityMismatch(f"bad cycle notation: {text!r}") from None


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Parse '(1 2)(3 4)' or '(1 2) (3 4)' into an image tuple on 0..degree-1."""
    text = text.strip()
    images = list(range(degree))
    for cycle in cycle_points(text):
        points = [x - 1 for x in cycle]
        if any(not 0 <= x < degree for x in points):
            raise ArityMismatch(f"point out of range in {text!r}")
        if len(set(points)) != len(points):
            raise ArityMismatch(f"repeated point in {text!r}")
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    p = tuple(images)
    if sorted(p) != list(range(degree)):
        raise ArityMismatch(f"cycles do not define a permutation: {text!r}")
    return p
