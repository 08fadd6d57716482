"""Integer Smith normal form and abelianizations.

All arithmetic is over Python ints, so intermediate entries may grow without
overflow.  The pivot rule (smallest nonzero absolute value, first position
on ties) makes the transform matrices reproducible.  Presentations are
abelianized through the Smith normal form of their relator matrix;
signatures are abelianized in closed form from the divisor chain of their
cone orders, which makes the two routes independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .presentations import FinitePresentation, word_exponent_sums
from .signature import OrbSignature, _require_canonical


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entries length must be rows*cols")
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))

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


def _pivot(rows, start, nrows, ncols):
    """Position of the smallest nonzero |entry| in the trailing block,
    scanning row-major so ties break left-to-right."""
    best = best_val = None
    for i in range(start, nrows):
        for j in range(start, ncols):
            v = abs(rows[i][j])
            if v and (best_val is None or v < best_val):
                best, best_val = (i, j), v
                if v == 1:
                    return best
    return best


def smith_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (D, U, V) with U*M*V = D, U and V unimodular, D diagonal with
    non-negative entries forming a divisor chain d1 | d2 | ...

    Elimination runs on the one work matrix [[M, I], [I, 0]]: row operations
    on its top rows carry U in the top-right block, and column operations on
    its left columns carry V in the bottom-left block.
    """
    nrows, ncols = M.rows, M.cols
    w = [row + [int(i == j) for j in range(nrows)] for i, row in enumerate(M.to_rows())]
    w += [[int(i == j) for j in range(ncols)] + [0] * nrows for i in range(ncols)]

    def swap_cols(i, j):
        for row in w:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nrows, ncols):
        pos = _pivot(w, t, nrows, ncols)
        if pos is None:
            break
        pi, pj = pos
        w[pi], w[t] = w[t], w[pi]
        if pj != t:
            swap_cols(pj, t)
        while True:
            # clear column t by the pivot, re-pivoting while remainders appear
            moved = False
            for i in range(t + 1, nrows):
                if w[i][t]:
                    q = w[i][t] // w[t][t]
                    w[i] = [x - q * y for x, y in zip(w[i], w[t])]
                    if w[i][t]:
                        w[i], w[t] = w[t], w[i]
                        moved = True
            if moved:
                continue
            for j in range(t + 1, ncols):
                if w[t][j]:
                    q = w[t][j] // w[t][t]
                    for row in w:
                        row[j] -= q * row[t]
                    if w[t][j]:
                        swap_cols(j, t)
                        moved = True
            if not moved:
                break
        # pivot must divide every later entry; fold an offending row in
        d = w[t][t]
        offender = next(
            (i for i in range(t + 1, nrows) if any(w[i][j] % d for j in range(t + 1, ncols))),
            None,
        )
        if offender is not None:
            w[t] = [x + y for x, y in zip(w[t], w[offender])]
            continue
        if d < 0:
            w[t] = [-x for x in w[t]]
        t += 1

    top, bottom = w[:nrows], w[nrows:]
    return (
        IntMatrix(nrows, ncols, tuple(x for row in top for x in row[:ncols])),
        IntMatrix(nrows, nrows, tuple(x for row in top for x in row[ncols:])),
        IntMatrix(ncols, ncols, tuple(x for row in bottom for x in row[:ncols])),
    )


@dataclass(frozen=True)
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
    _require_canonical(sig)
    if sig.r >= 1:
        return AbelianGroup(2 * sig.g + sig.r - 1, divisor_chain(sig.m))
    return AbelianGroup(2 * sig.g, divisor_chain(sig.m)[:-1])


def abelianization_of_presentation(p: FinitePresentation) -> AbelianGroup:
    """Z^ngens modulo the row lattice of the relator exponent-sum matrix,
    read off its Smith normal form."""
    rows = [word_exponent_sums(w, p.ngens) for w in p.relators]
    M = IntMatrix(len(rows), p.ngens, tuple(e for row in rows for e in row))
    nonzero = [d for d in smith_normal_form(M)[0].diagonal() if d]
    return AbelianGroup(p.ngens - len(nonzero), tuple(d for d in nonzero if d >= 2))
