"""Sparse exact matrices over any ring whose elements supply +, *, ==, hash
and truth (an entry is zero exactly when it is falsy).

Entries may be ints, Fractions, or Polynomials (mixed freely, since those
types coerce each other); nothing here ever rounds. Each row is a
{col: entry} dict of its nonzeros, and each matrix carries one zero that
absent cells read as; a zero of another type stays stored, so zeros that
print apart keep their types. Every family in this package is supported on
the digit-dominance pattern (S(x) at base 2 has 3^N nonzeros in 4^N cells),
so every operation touches stored entries only: A * B runs row by row
(Gustavson), over each pair (A[i][k], B[k][j]) of stored entries. When
every stored entry of both factors is exactly a Polynomial, each output
cell sums its pairs on integer numerators (exactpoly.product_rows) and
forms one Polynomial; any other entries take the generic loop, one entry
product and one sum per pair. A.map(fn) calls fn once per distinct entry,
which is why entries must be hashable. `rows` is a dense view, built on
each access.
"""

from __future__ import annotations

from functools import reduce
from operator import mul
from typing import Callable, Optional, Sequence

from .digits import _check_base, _check_depth
from .exactpoly import Polynomial, product_rows

DEFAULT_CAP = 4096


def checked_dim(b: int, depth: int, cap: int = DEFAULT_CAP) -> int:
    """Validate a (base, depth) pair and return b**depth, guarding blowup."""
    _check_base(b)
    _check_depth(depth)
    # stop as soon as cap is passed, so a huge depth builds no huge integer
    dim = 1
    for _ in range(depth):
        dim *= b
        if dim > cap:
            raise ValueError(f"dimension {b}^{depth} exceeds cap {cap}")
    return dim


def _all_polynomial(rows: Sequence[dict]) -> bool:
    # exactly Polynomial: a subclass such as ptm.UniPoly keeps its own class
    return all(type(e) is Polynomial for r in rows for e in r.values())


class Matrix:
    """Immutable sparse matrix with exact entrywise arithmetic."""

    __slots__ = ("_rows", "zero", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence]):
        rows = [tuple(r) for r in rows]
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("rows have unequal lengths")
        # the first zero given is the matrix zero; with none, 0 times an entry
        zero = next((e for r in rows for e in r if not e), 0 * rows[0][0])
        self._set([dict(enumerate(r)) for r in rows], width, zero)

    @classmethod
    def _of(cls, rows: list[dict], ncols: int, zero) -> Matrix:
        m = object.__new__(cls)
        m._set(rows, ncols, zero)
        return m

    def _set(self, rows: list[dict], ncols: int, zero) -> None:
        """Store rows, dropping each zero of the same type as the matrix zero."""
        ty = type(zero)
        kept = tuple({j: e for j, e in r.items() if e or type(e) is not ty} for r in rows)
        for name, value in (("_rows", kept), ("zero", zero), ("nrows", len(rows)), ("ncols", ncols)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def rows(self) -> tuple[tuple, ...]:
        """Dense view: every cell, absent ones read as the matrix zero."""
        cols, zero = range(self.ncols), self.zero
        return tuple(tuple(r.get(j, zero) for j in cols) for r in self._rows)

    @property
    def nnz(self) -> int:
        """Stored entries: the nonzeros, plus any zero of another type."""
        return sum(map(len, self._rows))

    @classmethod
    def identity(cls, n: int, one=1, zero=0) -> Matrix:
        return cls._of([{i: one} for i in range(n)], n, zero)

    def __getitem__(self, key):
        i, j = key
        # range indexing bounds-checks j and resolves a negative one
        return self._rows[i].get(range(self.ncols)[j], self.zero)

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
        za, zb = self.zero, other.zero
        for i, (ra, rb) in enumerate(zip(self._rows, other._rows)):
            # equal dicts are equal rows; otherwise only stored cells can differ
            if ra != rb:
                for j in sorted(ra.keys() | rb.keys()):
                    a, b = ra.get(j, za), rb.get(j, zb)
                    if a != b:
                        return i, j, a, b
        return None

    def __add__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix addition")
        zero = self.zero + other.zero
        ty = type(zero)

        def lone(e):
            # a cell stored on one side only: e, or e + zero where that changes its type
            return e if type(e) is ty else e + zero

        out = []
        for ra, rb in zip(self._rows, other._rows):
            row = {j: lone(a) for j, a in ra.items()}
            for j, b in rb.items():
                row[j] = ra[j] + b if j in ra else lone(b)
            out.append(row)
        return Matrix._of(out, self.ncols, zero)

    def __sub__(self, other: Matrix) -> Matrix:
        return self + (-other)

    def __neg__(self) -> Matrix:
        return self.map(lambda e: -e)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in matrix product")
            # row by row (Gustavson): row i of the product sums a * (row k of
            # other) over the stored a = self[i][k]
            brows = other._rows
            if _all_polynomial(self._rows) and _all_polynomial(brows):
                # each cell summed on integer numerators, one Polynomial per cell
                out = product_rows(self._rows, brows)
            else:
                out = []
                for row in self._rows:
                    acc = {}
                    for k, a in row.items():
                        for j, e in brows[k].items():
                            p = a * e
                            acc[j] = acc[j] + p if j in acc else p
                    out.append(acc)
            return Matrix._of(out, other.ncols, self.zero * other.zero)
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
        w = other.ncols
        rows = [
            {ja * w + jb: a * b for ja, a in ra.items() for jb, b in rb.items()}
            for ra in self._rows
            for rb in other._rows
        ]
        return Matrix._of(rows, self.ncols * w, self.zero * other.zero)

    def transpose(self) -> Matrix:
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self._rows):
            for j, e in row.items():
                cols[j][i] = e
        return Matrix._of(cols, self.nrows, self.zero)

    def map(self, fn: Callable) -> Matrix:
        """Apply fn entrywise, calling it once per distinct (type, value):
        0, Fraction(0) and the zero Polynomial are equal but print apart,
        so each keeps its own result. The matrix zero counts as an entry
        when some cell is absent; where fn maps it to a nonzero, the result
        is dense.

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

        out = [{j: once(e) for j, e in row.items()} for row in self._rows]
        full = self.nnz == self.nrows * self.ncols
        zero = None if full else fn(self.zero)  # fn never sees an unread zero
        if full or zero:
            return Matrix([[row.get(j, zero) for j in range(self.ncols)] for row in out])
        return Matrix._of(out, self.ncols, zero)

    def matvec(self, vec: Sequence) -> list:
        if len(vec) != self.ncols:
            raise ValueError("vector length does not match matrix width")
        # the zero a dense sum gives: the matrix zero times one entry of each vec type
        zero = reduce(mul, {type(v): v for v in vec}.values(), self.zero)
        return [sum((a * vec[j] for j, a in row.items()), zero) for row in self._rows]

    def is_lower_triangular(self, strict: bool = False) -> bool:
        shift = 0 if strict else 1
        return not any(
            e for i, row in enumerate(self._rows) for j, e in row.items() if j >= i + shift
        )

    def __str__(self):
        body = "\n".join("  ".join(str(e) for e in row) for row in self.rows)
        return body

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})\n{self}"


class Record:
    """Base of the immutable value types: each subclass lists its fields in
    __slots__ and sets them once, through _set. A record equals only a record
    of its own type with equal fields; its hash and repr are its fields'."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


class KroneckerChain(Record):
    """The depth-fold Kronecker power of a square seed, held as (seed, depth);
    every family here but the Kronecker sum X(x) is one. Immutable, and
    unhashable as its Matrix seed is; equal when seed and depth are equal."""

    __slots__ = ("base_factor", "depth")

    def __init__(self, base_factor: Matrix, depth: int):
        if base_factor.nrows != base_factor.ncols:
            raise ValueError("chain factor must be square")
        _check_depth(depth)
        self._set(base_factor, depth)

    @property
    def dim(self) -> int:
        return self.base_factor.nrows**self.depth

    def dense(self) -> Matrix:
        """The power itself: seed (x) (seed (x) ... seed)."""
        acc = self.base_factor
        for _ in range(self.depth - 1):
            acc = self.base_factor.kron(acc)
        return acc

    def power(self, k: int) -> KroneckerChain:
        """The k-th power, which is the chain of the seed's k-th power
        (mixed-product property); only b x b products are formed."""
        return KroneckerChain(self.base_factor.power(k), self.depth)


def kron_chain(
    seed: Callable[[int], Matrix], b: int, depth: int, cap: int = DEFAULT_CAP
) -> KroneckerChain:
    """The chain of the b x b matrix seed(b), depth deep. The cap is checked
    before seed(b) runs, so an oversized base is refused without building it."""
    checked_dim(b, depth, cap)
    return KroneckerChain(seed(b), depth)
