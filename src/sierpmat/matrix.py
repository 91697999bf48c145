"""Dense exact matrices over any ring whose elements supply +, *, ==, hash
and truth (an entry is zero exactly when it is falsy).

Entries may be ints, Fractions, or Polynomials (mixed freely, since those
types coerce each other); nothing here ever rounds. Storage is dense, but
the product and matvec do work only on nonzero entries: A * B forms one
entry product per pair (A[i][k], B[k][j]) with both factors nonzero, and
A.matvec(v) one per nonzero A[i][k]. Every family in this package is
supported on the digit-dominance pattern, so nearly all entries are zero.
A.map(fn) calls fn once per distinct entry, which is why entries must be
hashable: S(x) at base 2, depth 6 has 4096 entries but 8 distinct values.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

DEFAULT_CAP = 4096


def checked_dim(b: int, depth: int, cap: int = DEFAULT_CAP) -> int:
    """Validate a (base, depth) pair and return b**depth, guarding blowup."""
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    # stop as soon as cap is passed, so a huge depth builds no huge integer
    dim = 1
    for _ in range(depth):
        dim *= b
        if dim > cap:
            raise ValueError(f"dimension {b}^{depth} exceeds cap {cap}")
    return dim


def kron_power(
    seed: Callable[[int], Matrix], b: int, depth: int, cap: int = DEFAULT_CAP
) -> Matrix:
    """depth-fold Kronecker power of the b x b matrix seed(b).

    The cap is checked before seed(b) runs, so an oversized base is refused
    without building its seed.
    """
    checked_dim(b, depth, cap)
    base = seed(b)
    acc = base
    for _ in range(depth - 1):
        acc = base.kron(acc)
    return acc


def _zero_of(*row_sets) -> object:
    """The zero a dense sum of products of these entries gives: 0 times one
    entry of each type present (int 0, Fraction(0) or the zero Polynomial)."""
    samples = {}
    for rows in row_sets:
        for row in rows:
            samples.update(zip(map(type, row), row))
    zero = 0
    for e in samples.values():
        zero = zero * e
    return zero


class Matrix:
    """Immutable dense matrix with exact entrywise arithmetic."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("rows have unequal lengths")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", width)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int, one=1, zero=0) -> Matrix:
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.first_mismatch(other) is None
        )

    def first_mismatch(self, other: Matrix) -> Optional[tuple]:
        """(row, col, self entry, other entry) of the first row-major
        difference, or None when the matrices are equal."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix comparison")
        for i, (ra, rb) in enumerate(zip(self.rows, other.rows)):
            for j, (a, b) in enumerate(zip(ra, rb)):
                if a != b:
                    return i, j, a, b
        return None

    def __add__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix addition")
        return Matrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: Matrix) -> Matrix:
        return self + (-other)

    def __neg__(self) -> Matrix:
        return Matrix([[-a for a in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in matrix product")
            # row by row (Gustavson): row i of the product sums a * (row k of
            # other) over the nonzero a = self[i][k], touching only nonzeros
            nonzeros = [[(j, e) for j, e in enumerate(row) if e] for row in other.rows]
            zero = _zero_of(self.rows, other.rows)
            cols = range(other.ncols)
            out = []
            for row in self.rows:
                acc = {}
                for a, pairs in zip(row, nonzeros):
                    if a:
                        for j, e in pairs:
                            p = a * e
                            acc[j] = acc[j] + p if j in acc else p
                out.append([acc.get(j, zero) for j in cols])
            return Matrix(out)
        return self.map(lambda e: e * other)

    def __rmul__(self, other):
        return self.map(lambda e: other * e)

    def power(self, k: int) -> Matrix:
        """k-th power by repeated multiplication (k is small here)."""
        if self.nrows != self.ncols:
            raise ValueError("power requires a square matrix")
        if k < 0:
            raise ValueError(f"power must be non-negative, got {k}")
        if k == 0:
            return Matrix.identity(self.nrows)
        acc = self
        for _ in range(k - 1):
            acc = acc * self
        return acc

    def kron(self, other: Matrix) -> Matrix:
        """Kronecker product; the left factor indexes the blocks."""
        rows = []
        for arow in self.rows:
            for brow in other.rows:
                rows.append([a * b for a in arow for b in brow])
        return Matrix(rows)

    def transpose(self) -> Matrix:
        return Matrix(list(zip(*self.rows)))

    def skew_transpose(self) -> Matrix:
        """Reflection across the anti-diagonal: out[i][j] = self[n-1-j][n-1-i]."""
        if self.nrows != self.ncols:
            raise ValueError("skew transpose requires a square matrix")
        n = self.nrows
        return Matrix(
            [[self.rows[n - 1 - j][n - 1 - i] for j in range(n)] for i in range(n)]
        )

    def map(self, fn: Callable) -> Matrix:
        """Apply fn entrywise, calling it once per distinct (type, value):
        0, Fraction(0) and the zero Polynomial are equal but print apart,
        so each keeps its own result.

        >>> calls = []
        >>> Matrix([[2, 0], [2, 0]]).map(lambda e: calls.append(e) or e + 1).rows
        ((3, 1), (3, 1))
        >>> calls
        [2, 0]
        """
        memo = {}

        def once(e):
            key = (type(e), e)
            try:
                return memo[key]
            except KeyError:
                result = memo[key] = fn(e)
                return result

        return Matrix([[once(e) for e in row] for row in self.rows])

    def matvec(self, vec: Sequence) -> list:
        if len(vec) != self.ncols:
            raise ValueError("vector length does not match matrix width")
        zero = _zero_of(self.rows, (vec,))
        return [sum((a * v for a, v in zip(row, vec) if a), zero) for row in self.rows]

    def is_lower_triangular(self, strict: bool = False) -> bool:
        for i, row in enumerate(self.rows):
            first_banned = i + (0 if strict else 1)
            if any(row[first_banned:]):
                return False
        return True

    def diagonal(self) -> list:
        return [self.rows[i][i] for i in range(min(self.nrows, self.ncols))]

    def __str__(self):
        body = "\n".join("  ".join(str(e) for e in row) for row in self.rows)
        return body

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})\n{self}"
