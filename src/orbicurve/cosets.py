"""Bounded Todd-Coxeter coset enumeration, permutation utilities and the
capped order of a permutation group.

The enumerator is the HLT strategy: process live cosets in definition
order, scan-and-fill every relator, then define any still-missing neighbor.
Coincidences go through a union-find with queued edge transfer; the table
is compacted whenever dead rows outnumber live ones, so memory stays linear
in the live-coset count.  Everything is deterministic.

The table is one flat list.  Coset c is stored as its row offset c * width
(width = 2 * number of generators): `table[c * width + letter]` is the
offset of its neighbor, or -1 for a hole, so one scan step is
`f = table[f + letter]`.  The union-find `parent` is indexed by the same
offsets and holds -1 off the row starts.  Every edge is stored together
with its back edge, and processing a dead coset deletes every back edge
into it, so outside `coincidence` every entry of a live row is a hole or a
live coset: scans and compaction read the table without find().

A relator given as one power l^n of a letter is not scanned at a live coset
alpha when beta = alpha * l^-1 is defined and beta < alpha.  beta is live
(live rows point at live cosets) and was processed before alpha (rows are
processed in offset order, new rows go after alpha, compaction keeps the
order), so beta * l^n = beta with every edge defined, either by beta's own
scan or, by induction, because beta too was skipped.  Coincidences map the
table onto a quotient, where a closed l-cycle stays closed with a length
dividing n.  alpha lies on beta's l-cycle, so its scan would trace n
defined edges back to alpha and change nothing: skipping it keeps every
definition, deduction and coincidence, hence the table, its numbering and
the point where the bound trips.

The order of a permutation group is found by one of two routes, with the
same integer and the same cap rule on both.  A regular group is certified
by a transitive centralizer, in O(degree x generators) per candidate
(`_is_regular`); any other group goes to Schreier-Sims, whose Schreier
trees are extended rather than rebuilt and which tests each (orbit point,
generator) pair of a level once (`_StabilizerChain`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import ArityMismatch, IncompleteTable
from .presentations import FinitePresentation, Word

DEFAULT_MAX_COSETS = 10**6
DEFAULT_CLOSURE_CAP = 10**6


@dataclass(frozen=True)
class Exceeded:
    """Bounded-resource outcome: the computation hit its configured cap."""

    bound: int


def _scan_word(word: Word) -> tuple[tuple[int, ...], tuple[int, ...], int, int | None]:
    """A word ready to scan: its letters (generator g is 2g, its inverse
    2g+1), the inverse of each letter, its last index and, when the word is
    one nonzero power l^n, the inverse of l for the skip in `run` (else
    None)."""
    letters = tuple(itertools.chain.from_iterable(
        itertools.repeat(2 * g if e > 0 else 2 * g + 1, abs(e)) for g, e in word))
    inverse = tuple(x ^ 1 for x in letters)
    back = inverse[0] if len(word) == 1 and letters else None
    return letters, inverse, len(letters) - 1, back


@dataclass(frozen=True)
class CosetTable:
    """Completed coset table: `action[c][2g]` is the image of coset c under
    generator g, `action[c][2g+1]` under its inverse.  Coset 0 is the coset
    of the subgroup."""

    presentation: FinitePresentation
    rows: int
    action: tuple[tuple[int, ...], ...]
    complete: bool


class _Enumerator:
    def __init__(self, presentation: FinitePresentation, subgroup_generators,
                 max_cosets: int):
        if max_cosets < 1:
            raise ValueError("max_cosets must be >= 1")
        self.presentation = presentation
        self.width = 2 * presentation.ngens
        self.relators = [_scan_word(w) for w in presentation.relators]
        self.subgens = [_scan_word(w) for w in subgroup_generators]
        self.max_cosets = max_cosets
        self.holes = [-1] * self.width
        self.table = list(self.holes)  # coset 0, the subgroup's
        self.parent = [0] + self.holes[1:]
        self.live = 1

    def find(self, c: int) -> int:
        parent = self.parent
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def coincidence(self, a: int, b: int) -> None:
        """Merge the distinct live cosets a and b and every pair that merge
        forces; the smaller coset of each pair survives.  Each dead coset's
        edges move to its representative and its back edges are deleted, so
        on return no live row points at a dead coset."""
        table, parent, find = self.table, self.parent, self.find
        if b < a:
            a, b = b, a
        parent[b] = a
        queue = [b]
        for dead in queue:  # grows while it is walked
            for letter in range(self.width):
                delta = table[dead + letter]
                if delta < 0:
                    continue
                back = letter ^ 1
                if table[delta + back] == dead:
                    table[delta + back] = -1
                mu = parent[dead]
                if parent[mu] != mu:
                    mu = find(mu)
                nu = delta if parent[delta] == delta else find(delta)
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
                # merge a and b
                if parent[a] != a:
                    a = find(a)
                if parent[b] != b:
                    b = find(b)
                if a != b:
                    if b < a:
                        a, b = b, a
                    parent[b] = a
                    queue.append(b)
        self.live -= len(queue)

    def scan_and_fill(self, alpha: int, word: tuple[int, ...],
                      inverse: tuple[int, ...], last: int) -> bool:
        """Trace `word` from alpha forwards and backwards, deduce the one
        missing edge or define cosets until the word closes.  Returns False
        when a definition would pass the bound."""
        table = self.table
        f, i = alpha, 0
        b, j = alpha, last
        while True:
            while i <= j:
                x = table[f + word[i]]
                if x < 0:
                    break
                f = x
                i += 1
            else:
                if f != b:
                    self.coincidence(f, b)
                return True
            while j >= i:
                x = table[b + inverse[j]]
                if x < 0:
                    break
                b = x
                j -= 1
            else:
                if f != b:
                    self.coincidence(f, b)
                return True
            if j == i:
                table[f + word[i]] = b
                table[b + inverse[i]] = f
                return True
            if self.live >= self.max_cosets:
                return False
            new = len(table)
            table += self.holes
            self.parent += self.holes
            self.parent[new] = new
            self.live += 1
            table[f + word[i]] = new
            table[new + inverse[i]] = f
            f = new
            i += 1

    def renumber(self, step: int) -> list[int]:
        """Turn `parent`, which find() no longer needs, into the renumbering:
        the offset of the k-th live row maps to k * step, the start of a dead
        row to -1.  Every other slot of `parent` is -1 already, so a hole
        maps to -1 as well."""
        remap, rank = self.parent, 0
        for c in range(0, len(self.table), self.width):
            if remap[c] == c:
                remap[c], rank = rank, rank + step
            else:
                remap[c] = -1
        return remap

    def compact(self, cursor: int) -> int:
        """Renumber live cosets in order; returns the relocated cursor."""
        table, width = self.table, self.width
        remap = self.renumber(width)
        cursor = width * sum(remap[c] >= 0 for c in range(0, cursor, width))
        self.table = [remap[x] for c in range(0, len(table), width) if remap[c] >= 0
                      for x in table[c:c + width]]
        self.parent = [-1] * len(self.table)
        self.parent[::width] = range(0, len(self.table), width)
        return cursor

    def run(self) -> CosetTable | Exceeded:
        width = self.width
        if width == 0:
            return CosetTable(self.presentation, 1, ((),), True)
        for word, inverse, last, _ in self.subgens:
            if not self.scan_and_fill(0, word, inverse, last):
                return Exceeded(self.max_cosets)
        table, parent, holes = self.table, self.parent, self.holes
        alpha = 0
        while alpha < len(table):
            if len(table) - self.live * width > max(self.live, 256) * width:
                alpha = self.compact(alpha)
                table, parent = self.table, self.parent
                continue  # bound and liveness must be re-checked
            if parent[alpha] != alpha:
                alpha += width
                continue
            for word, inverse, last, back in self.relators:
                if back is not None and -1 < table[alpha + back] < alpha:
                    continue  # alpha is on a closed l-cycle (module docstring)
                if not self.scan_and_fill(alpha, word, inverse, last):
                    return Exceeded(self.max_cosets)
                if parent[alpha] != alpha:
                    break
            else:
                for letter in range(width):
                    if table[alpha + letter] < 0:
                        if self.live >= self.max_cosets:
                            return Exceeded(self.max_cosets)
                        new = len(table)
                        table += holes
                        parent += holes
                        parent[new] = new
                        self.live += 1
                        table[alpha + letter] = new
                        table[new + (letter ^ 1)] = alpha
            alpha += width
        number = self.renumber(1)
        action = tuple(
            tuple(None if x < 0 else number[x] for x in table[c:c + width])
            for c in range(0, len(table), width) if number[c] >= 0
        )
        complete = all(None not in row for row in action)
        return CosetTable(self.presentation, len(action), action, complete)




def coset_enumeration(
    p: FinitePresentation,
    subgroup_generators=(),
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> CosetTable | Exceeded:
    """Enumerate cosets of the subgroup generated by the given words.

    On completion the row count is the index of the subgroup.  Returns
    Exceeded when the live-coset count would pass `max_cosets`.
    """
    return _Enumerator(p, subgroup_generators, max_cosets).run()


def group_order(p: FinitePresentation, bound: int = DEFAULT_MAX_COSETS) -> int | Exceeded:
    """Order of the presented group by enumeration over the trivial subgroup."""
    result = coset_enumeration(p, (), bound)
    if isinstance(result, Exceeded):
        return result
    return result.rows


# ---------------------------------------------------------------------------
# permutations, stored as image tuples on 0..k-1


def identity_perm(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


def perm_mul(p, q) -> tuple[int, ...]:
    """Apply p, then q."""
    return tuple([q[x] for x in p])


def perm_inverse(p) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def perm_order(p) -> int:
    """The lcm of the cycle lengths."""
    return math.lcm(*(len(c) for c in cycles_of(p)))


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


@dataclass(frozen=True)
class PermutationImages:
    """One permutation per presentation generator, all of the same degree."""

    degree: int
    images: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for p in self.images:
            if sorted(p) != list(range(self.degree)):
                raise ArityMismatch(f"not a permutation of degree {self.degree}: {p}")


def generator_permutations(t: CosetTable) -> PermutationImages:
    """Right-multiplication action of each generator on the cosets."""
    if not t.complete:
        raise IncompleteTable("coset table has undefined entries")
    images = tuple(
        tuple(t.action[c][2 * g] for c in range(t.rows))
        for g in range(t.presentation.ngens)
    )
    return PermutationImages(t.rows, images)


class _StabilizerChain:
    """Base and strong generating set under construction.

    Level i holds the base point `base[i]`, the strong generators fixing
    `base[:i]` paired with their inverses, and their Schreier tree: each
    point of the orbit of `base[i]` mapped to a representative u taking
    `base[i]` there (`reps`) and to u's inverse (`invs`).  A tree is
    extended, never rebuilt, when a generator joins its level, so a
    representative keeps its value once set.  `pending[i]` holds the
    (point, generator index) pairs of level i whose Schreier generator is
    still untested, and `sifted` counts the pairs taken from those lists.
    """

    def __init__(self, degree: int):
        self.ident = identity_perm(degree)
        self.base: list[int] = []
        self.gens: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = []
        self.reps: list[dict[int, tuple[int, ...]]] = []
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
        grows: the chain holds about 2 x base length x degree^2 points,
        never `cap` group elements.
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
        return math.prod(len(reps) for reps in self.reps)

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
            self.reps.append({b: self.ident})
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
        gens, reps, invs = self.gens[level], self.reps[level], self.invs[level]
        pending = self.pending[level]
        gens.append((y, y_inv))
        new = []

        def visit(beta, k, s, s_inv):
            gamma = s[beta]
            if gamma in reps:
                pending.append((beta, k))
            else:
                reps[gamma] = perm_mul(reps[beta], s)
                invs[gamma] = perm_mul(s_inv, invs[beta])
                new.append(gamma)

        for beta in list(reps):
            visit(beta, len(gens) - 1, y, y_inv)
        for gamma in new:
            for k, (s, s_inv) in enumerate(gens):
                visit(gamma, k, s, s_inv)

    def residue(self, level: int) -> tuple[int, ...] | None:
        """Test the level's pending Schreier generators u_beta s u_{beta s}^-1
        until one does not sift to the identity through the levels below;
        return it sifted, or None when the list runs out.  A tested
        generator stays in the group of the levels below, because trees
        and generating sets only grow, so no pair is tested twice."""
        pending, gens = self.pending[level], self.gens[level]
        reps, invs, ident = self.reps[level], self.invs[level], self.ident
        while pending:
            beta, k = pending.pop()
            self.sifted += 1
            s = gens[k][0]
            t = invs[s[beta]]
            g = tuple([t[s[x]] for x in reps[beta]])
            if g != ident:
                y = self._sift(g, level + 1)
                if y != ident:
                    return y
        return None

    def _sift(self, g, level: int) -> tuple[int, ...]:
        for j in range(level, len(self.base)):
            t = self.invs[j].get(g[self.base[j]])
            if t is None:
                return g
            g = perm_mul(g, t)
        return g


def _is_regular(perms: PermutationImages) -> bool:
    """True when the group is certified regular, so that its order is the
    degree; False when the certificate does not apply.

    A transitive G is regular when its centralizer in Sym(Omega) is
    transitive (Dixon-Mortimer, Permutation Groups, Thm 4.2A: that
    centralizer is semiregular).  An element c of the centralizer taking 0
    to delta satisfies (0^u)^c = delta^u for all u in G, so it is forced
    along a Schreier vector of 0, and it centralizes G iff it commutes with
    every generator.  Candidates are built for points outside the orbit of
    0 under the centralizing elements found so far, which at least doubles
    that orbit each time.  The test gives up at once on a non-identity
    generator with a fixed point, on an intransitive group and on a
    candidate that does not commute.
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
    found, centralizing = [True] + [False] * (n - 1), []
    orbit = [0]
    for delta in range(1, n):
        if found[delta]:
            continue
        c = [0] * n
        c[0] = delta
        for gamma in order[1:]:
            beta, s = tree[gamma]
            c[gamma] = s[c[beta]]
        if any(c[s[x]] != s[c[x]] for s in gens for x in range(n)):
            return False
        centralizing.append(c)
        for x in orbit:
            for z in centralizing:
                if not found[z[x]]:
                    found[z[x]] = True
                    orbit.append(z[x])
    return True


def permutation_group_order(perms: PermutationImages, cap: int = DEFAULT_CLOSURE_CAP) -> int | Exceeded:
    """Order of the generated group, capped: the order when it is at most
    `cap`, Exceeded(cap) otherwise.

    A regular group is recognised first by a centralizer certificate
    (`_is_regular`), and its order is the degree.  Every other group goes
    to Schreier-Sims (`_StabilizerChain.schreier_sims`).
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if _is_regular(perms):
        return perms.degree if perms.degree <= cap else Exceeded(cap)
    return _StabilizerChain(perms.degree).schreier_sims(perms.images, cap)


def evaluate_word(word: Word, perms: PermutationImages) -> tuple[int, ...]:
    out = identity_perm(perms.degree)
    for g, e in word:
        out = perm_mul(out, perm_power(perms.images[g], e))
    return out


def verify_homomorphism(p: FinitePresentation, images: PermutationImages) -> bool:
    """True iff sending each generator to its image kills every relator."""
    if len(images.images) != p.ngens:
        raise ArityMismatch(
            f"{p.ngens} generators but {len(images.images)} images"
        )
    ident = identity_perm(images.degree)
    return all(evaluate_word(w, images) == ident for w in p.relators)


# ---------------------------------------------------------------------------
# cycle-notation text format (1-based points), used by the CLI


def format_cycles(p) -> str:
    cycles = cycles_of(p)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cycles)


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Parse '(1 2)(3 4)' into an image tuple on 0..degree-1."""
    text = text.strip()
    if text in ("()", "id", ""):
        return identity_perm(degree)
    if not (text.startswith("(") and text.endswith(")")):
        raise ArityMismatch(f"bad cycle notation: {text!r}")
    images = list(range(degree))
    for chunk in text[1:-1].split(")("):
        points = [int(tok) - 1 for tok in chunk.replace(",", " ").split()]
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
