"""Integer Smith normal form and abelianizations.

All arithmetic is over Python ints.  The Smith normal form clears +-1
pivots by elimination (Havas, Holt and Rees, Linear Algebra Appl. 192, 1993)
before and between row and column Hermite steps (Kannan and Bachem, SIAM J.
Comput. 8, 1979); both keep entries small, and the steps are deterministic,
so U and V are reproducible.  Presentations are abelianized through the Smith
normal form of their relator matrix; signatures in closed form from the
divisor chain of their cone orders, which makes the two routes independent.
"""

from __future__ import annotations

import math
import operator

from .errors import frozen
from .presentations import FinitePresentation, word_exponent_sums
from .signature import OrbSignature


@frozen
class IntMatrix:
    """Immutable integer matrix, row-major entries; an entry that is not an
    integer (`operator.index`), or is a bool, raises TypeError."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entries length must be rows*cols")
        if type(self.entries) is not tuple or set(map(type, self.entries)) - {int}:
            if any(isinstance(e, bool) for e in self.entries):
                raise TypeError("matrix entries must be integers, not bool")
            object.__setattr__(self, "entries", tuple(map(operator.index, self.entries)))

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, tuple(e for r in rows for e in r))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        return [
            list(self.entries[i * self.cols : (i + 1) * self.cols])
            for i in range(self.rows)
        ]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        b = other.to_rows()
        return IntMatrix(self.rows, other.cols, tuple(
            sum(x * b[k][j] for k, x in enumerate(row))
            for row in self.to_rows()
            for j in range(other.cols)
        ))

    def diagonal(self) -> list[int]:
        return [self.at(i, i) for i in range(min(self.rows, self.cols))]


def _hermite(w, nrows, ncols, s):
    """Row Hermite step: row operations on rows s..nrows-1 of w put the
    block of rows s..nrows-1 and columns s..ncols-1 in echelon form, with
    positive pivots, entries above each pivot reduced into [0, pivot) and
    zero rows last.  Rows join one at a time (Kannan-Bachem order) and the
    rows above are reduced again after each, which keeps entries small."""
    piv = []  # pivot column of each echelon row; echelon row r is w[s + r]
    for i in range(s, nrows):
        row = w[i]
        lo, r = nrows, 0  # lo: first echelon row that changes
        for c in range(s, ncols):
            if not row[c]:
                continue
            while r < len(piv) and piv[r] < c:
                r += 1
            if r == len(piv) or piv[r] != c:
                break  # row leads at c: it becomes echelon row r
            top = w[s + r]
            g = math.gcd(top[c], row[c])
            a, b = top[c] // g, row[c] // g
            if a > 1:  # pivot does not divide entry: [[u, t], [-b, a]] unimodular
                u = pow(a, -1, abs(b))
                t = (1 - u * a) // b
                w[s + r] = [u * x + t * y for x, y in zip(top, row)]
                lo = min(lo, r)
            row = [a * y - b * x for x, y in zip(top, row)]
        else:
            w[i] = row  # a zero row stays where it is
            continue
        del w[i]
        w.insert(s + r, row if row[c] > 0 else [-x for x in row])
        piv.insert(r, c)
        for r in range(min(lo, r), len(piv)):
            c, pivot = piv[r], w[s + r]
            for above in range(s, s + r):
                q = w[above][c] // pivot[c]
                if q:
                    w[above] = [y - q * x for x, y in zip(pivot, w[above])]


def _units(w, nrows, ncols, k):
    """Unit pass: while the block from (k, k) holds a +-1, swap the first
    one to (k, k) (rows among the top rows, columns in every row of w),
    make it 1, clear column k below it by full-width row operations and
    row k by column operations on it and on the bottom rows w[nrows:] (the
    other top rows are 0 in column k), and go on at k + 1; return that k."""
    while True:
        for i in range(k, nrows):
            block = w[i][k:ncols]
            hits = [block.index(u) for u in (1, -1) if u in block]
            if hits:
                break
        else:
            return k
        j = k + min(hits)
        w[k], w[i] = w[i], w[k]
        if j != k:
            for row in w:
                row[k], row[j] = row[j], row[k]
        pivot = w[k] = w[k] if w[k][k] == 1 else [-x for x in w[k]]
        for i in range(k + 1, nrows):
            q = w[i][k]
            if q:
                w[i] = [y - q * x for x, y in zip(pivot, w[i])]
        bottom = w[nrows:]
        for j in range(k + 1, ncols):
            q = pivot[j]
            if q:
                pivot[j] = 0
                for row in bottom:
                    row[j] -= q * row[k]
        k += 1


def _diagonalize(w, nrows, ncols):
    """Reduce the leading nrows x ncols block of w to Smith normal form;
    return w.  Row and column Hermite steps (row steps on the transpose)
    alternate on the block left by a unit pass, which also runs after each
    step and clears the echelon form's unit pivots, so a cyclic cokernel
    needs no column step.  After k +-1 pivots each entry left is, up to
    sign, a (k+1)-minor of the permuted block B the pass started from (a
    Schur complement over a +-1 minor), and each transform entry built so
    far one of [B, U] or [B; V], so Hadamard's bound holds for both.  A
    diagonal block with d_i not dividing d_j gets row j added to row i;
    the next step, on the other side, puts gcd(d_i, d_j) in place of d_i."""
    k = _units(w, nrows, ncols, 0)
    flipped = False
    while True:
        _hermite(w, nrows, ncols, k)
        k = _units(w, nrows, ncols, k)
        if not any(w[i][j] for i in range(k, nrows) for j in range(k, ncols) if i != j):
            for i in range(k, min(nrows, ncols)):
                if w[i][i] < 0:  # a unit pass can leave a negative diagonal entry
                    w[i] = [-x for x in w[i]]
            d = [w[i][i] for i in range(min(nrows, ncols))]
            fold = next(((i, j) for i, a in enumerate(d) if a
                         for j in range(i + 1, len(d)) if d[j] % a), None)
            if fold is None:
                return [list(col) for col in zip(*w)] if flipped else w
            i, j = fold
            w[i] = [x + y for x, y in zip(w[i], w[j])]
        w = [list(col) for col in zip(*w)]
        nrows, ncols, flipped = ncols, nrows, not flipped


def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (D, U, V) with U*M*V = D, U and V unimodular, D diagonal with
    non-negative entries forming a divisor chain d1 | d2 | ...

    Elimination runs on the one work matrix [[M, I], [I, 0]]: row operations
    on its top rows carry U in the top-right block, and column operations on
    its left columns carry V in the bottom-left block.  Column steps run on
    the transpose, which has the same shape [[M^T, I], [I, 0]].  Unit
    pivots are cleared by elimination before and between the Hermite
    steps; entries stay within Hadamard's bound (see `_diagonalize`).
    """
    nrows, ncols = M.rows, M.cols
    w = [row + [0] * i + [1] + [0] * (nrows - 1 - i) for i, row in enumerate(M.to_rows())]
    w += [[0] * i + [1] + [0] * (ncols + nrows - 1 - i) for i in range(ncols)]
    w = _diagonalize(w, nrows, ncols)
    top, bottom = w[:nrows], w[nrows:]
    return (
        IntMatrix(nrows, ncols, tuple(x for row in top for x in row[:ncols])),
        IntMatrix(nrows, nrows, tuple(x for row in top for x in row[ncols:])),
        IntMatrix(ncols, ncols, tuple(x for row in bottom for x in row[:ncols])),
    )


@frozen
class AbelianGroup:
    """Finitely generated abelian group in divisor-chain normal form.

    Equality of values decides isomorphism of the groups.
    """

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion entries must be >= 2")
        for d, e in zip(self.torsion, self.torsion[1:]):
            if e % d:
                raise ValueError(f"torsion {self.torsion} is not a divisor chain")

    def torsion_order(self) -> int:
        out = 1
        for d in self.torsion:
            out *= d
        return out


def divisor_chain(values) -> tuple[int, ...]:
    """Divisor-chain normal form of a product of cyclic groups Z_v: each v
    enters the chain by Z_d + Z_v = Z_gcd(d,v) + Z_lcm(d,v), carrying the
    lcm upward, which keeps every prime's exponents sorted."""
    values = [abs(int(v)) for v in values if int(v) != 1]
    if any(v == 0 for v in values):
        raise ValueError("divisor_chain expects finite orders")
    chain: list[int] = []
    for v in values:
        inserted = []
        for d in chain:
            inserted.append(math.gcd(d, v))
            v = math.lcm(d, v)
        chain = inserted + [v]
    return tuple(d for d in chain if d >= 2)


def abelianization(sig: OrbSignature) -> AbelianGroup:
    """Abelianization straight from the signature, in closed form.

    Open case: free of rank 2g + r - 1 times the product of the cyclic
    factors.  Compact case: Z^{2g} times the product of the cyclic factors
    modulo their diagonal element (1, ..., 1).  That element has order
    lcm(m) and generates a cyclic direct summand, so the quotient drops the
    last entry of the divisor chain.
    """
    if sig.r >= 1:
        return AbelianGroup(2 * sig.g + sig.r - 1, divisor_chain(sig.m))
    return AbelianGroup(2 * sig.g, divisor_chain(sig.m)[:-1])


def abelianization_of_presentation(p: FinitePresentation) -> AbelianGroup:
    """Z^ngens modulo the row lattice of the relator exponent-sum matrix,
    read off its Smith normal form, reduced without transforms."""
    rows = [word_exponent_sums(w, p.ngens) for w in p.relators]
    w = _diagonalize(rows, len(rows), p.ngens)
    nonzero = [d for d in (w[i][i] for i in range(min(len(rows), p.ngens))) if d]
    return AbelianGroup(p.ngens - len(nonzero), tuple(d for d in nonzero if d >= 2))
