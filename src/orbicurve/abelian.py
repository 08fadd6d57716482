"""Integer Smith normal form and abelianizations.

All arithmetic is over Python ints, so intermediate entries may grow without
overflow.  The pivot rule (smallest nonzero absolute value, first position
on ties) makes the transform matrices reproducible.
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
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

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
        a, b = self.to_rows(), other.to_rows()
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                row.append(sum(a[i][k] * b[k][j] for k in range(self.cols)))
            out.append(row)
        return IntMatrix.from_rows(out) if out else IntMatrix.zero(0, other.cols)

    def diagonal(self) -> list[int]:
        return [self.at(i, i) for i in range(min(self.rows, self.cols))]


def _pivot(rows, start, nrows, ncols):
    """Position of the smallest nonzero |entry| in the trailing block,
    scanning row-major so ties break left-to-right."""
    best = None
    best_val = None
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
    non-negative entries forming a divisor chain d1 | d2 | ..."""
    nrows, ncols = M.rows, M.cols
    a = M.to_rows()
    u = IntMatrix.identity(nrows).to_rows()
    v = IntMatrix.identity(ncols).to_rows()

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row dst += c * row src
        for j in range(ncols):
            a[dst][j] += c * a[src][j]
        for j in range(nrows):
            u[dst][j] += c * u[src][j]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while True:
        pos = _pivot(a, t, nrows, ncols)
        if pos is None:
            break
        pi, pj = pos
        if pi != t:
            swap_rows(pi, t)
        if pj != t:
            swap_cols(pj, t)
        while True:
            # clear column t by the pivot, re-pivoting while remainders appear
            moved = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(i, t)
                        moved = True
            if moved:
                continue
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(j, t)
                        moved = True
            if not moved:
                break
        # pivot must divide every later entry; fold an offending row in
        d = a[t][t]
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if d < 0:
            negate_row(t)
        t += 1
        if t >= min(nrows, ncols):
            break

    D = IntMatrix.from_rows(a) if a else IntMatrix.zero(0, ncols)
    U = IntMatrix.from_rows(u) if u else IntMatrix.zero(0, 0)
    V = IntMatrix.from_rows(v) if v else IntMatrix.zero(0, 0)
    return D, U, V


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


def cokernel(M: IntMatrix) -> AbelianGroup:
    """Z^cols modulo the row lattice of M, in normal form."""
    D, _, _ = smith_normal_form(M)
    diag = D.diagonal()
    nonzero = [d for d in diag if d != 0]
    return AbelianGroup(
        rank=M.cols - len(nonzero),
        torsion=tuple(d for d in nonzero if d >= 2),
    )


def abelianization(sig: OrbSignature) -> AbelianGroup:
    """Abelianization straight from the signature.

    Open case: free of rank 2g + r - 1 times the product of the cyclic
    factors.  Compact case: Z^{2g} plus the cokernel of the lattice spanned
    by {m_i e_i} and e_1 + ... + e_n.
    """
    _require_canonical(sig)
    if sig.r >= 1:
        return AbelianGroup(2 * sig.g + sig.r - 1, divisor_chain(sig.m))
    n = sig.n
    if n == 0:
        return AbelianGroup(2 * sig.g)
    rows = []
    for i, mi in enumerate(sig.m):
        rows.append([mi if j == i else 0 for j in range(n)])
    rows.append([1] * n)
    marked = cokernel(IntMatrix.from_rows(rows))
    return AbelianGroup(2 * sig.g + marked.rank, marked.torsion)


def abelianization_of_presentation(p: FinitePresentation) -> AbelianGroup:
    """Cokernel of the relator exponent-sum matrix."""
    if p.ngens == 0:
        return AbelianGroup(0)
    if not p.relators:
        return AbelianGroup(p.ngens)
    rows = [word_exponent_sums(w, p.ngens) for w in p.relators]
    return cokernel(IntMatrix.from_rows(rows))
