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
cell gathers its factor objects and is summed on integer numerators
(exactpoly.sum_of_products) once per distinct sequence of them; cells with
the same sequence share the result, and equal results are kept as one
object. Any other entries take the generic loop, one entry product and one
sum per pair. A.kron(B) forms one product per pair of stored objects and
keeps one object per distinct value, so a Kronecker power holds one object
per value (S(x) at base 2, depth 6: 729 cells, 7 objects); A + B forms one
sum per distinct pair of objects, and A.map(fn) calls fn once per distinct
entry (looked up by identity before it is hashed), which is why entries must
be hashable. No stored cell is a zero of the matrix zero's type: rows from
outside are tested cell by cell, and each operation tests each distinct
result once. `rows` is a dense view, built on each access.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import repeat
from operator import add, mul
from typing import Callable, Optional, Sequence

from .digits import _check_base, _check_depth
from .exactpoly import Polynomial, over_common_denominator, sum_of_products

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


class _Results:
    """The distinct results of one operation under the matrix zero `zero`,
    each passed in once through intern: a zero of zero's type comes back as
    None, for a cell that is not stored, and equal results (same type and
    value) come back as one object, which lives as long as this one."""

    __slots__ = ("ty", "values", "dropped")

    def __init__(self, zero):
        self.ty, self.values, self.dropped = type(zero), {}, False

    def intern(self, p):
        if not p and type(p) is self.ty:
            self.dropped = True
            return None
        return self.values.setdefault((type(p), p), p)

    def rows(self, rows: list[dict]) -> list[dict]:
        """rows without their None cells; as they are when none was dropped."""
        if not self.dropped:
            return rows
        return [{j: p for j, p in r.items() if p is not None} for r in rows]


class Record:
    """Base of the immutable value types: each subclass lists its fields in
    __slots__ and sets them once, through _set. Unless a subclass defines ==, a
    record equals a same-type record with equal fields; hash and repr are its fields'."""

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


class Matrix(Record):
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
        # rows from outside are the one place each cell is tested for a zero
        ty = type(zero)
        kept = tuple({j: e for j, e in enumerate(r) if e or type(e) is not ty} for r in rows)
        self._set(kept, zero, len(rows), width)

    @classmethod
    def _of(cls, rows: list[dict], ncols: int, zero) -> Matrix:
        """A matrix on rows that already hold no zero of zero's type: each
        operation drops those itself, once per distinct result."""
        m = object.__new__(cls)
        m._set(tuple(rows), zero, len(rows), ncols)
        return m

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
        # a zero of zero's type on the diagonal leaves nothing stored
        stored = bool(one) or type(one) is not type(zero)
        return cls._of([{i: one} if stored else {} for i in range(n)], n, zero)

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
        results = _Results(zero)
        # one result per distinct lone object, keyed by its id, and per distinct
        # overlapping pair, keyed by both ids; both operands hold them all call
        sums = {}

        def lone(e):
            # a cell stored on one side only: e, or e + zero where that changes its type
            try:
                return sums[id(e)]
            except KeyError:
                s = sums[id(e)] = results.intern(e if type(e) is ty else e + zero)
                return s

        out = []
        for ra, rb in zip(self._rows, other._rows):
            row = {j: lone(a) for j, a in ra.items()}
            for j, b in rb.items():
                if j in ra:
                    key = (id(ra[j]), id(b))
                    try:
                        row[j] = sums[key]
                    except KeyError:
                        row[j] = sums[key] = results.intern(ra[j] + b)
                else:
                    row[j] = lone(b)
            out.append(row)
        return Matrix._of(results.rows(out), self.ncols, zero)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in matrix product")
            # row by row (Gustavson): row i of the product sums a * (row k of
            # other) over the stored a = self[i][k]
            brows = other._rows
            zero = self.zero * other.zero
            if _all_polynomial(self._rows) and _all_polynomial(brows):
                # gather each cell's factors [a1, e1, a2, e2, ...]; a cell depends
                # on nothing else, so it is summed once per distinct sequence of
                # factor objects (both operands hold them all call, so no id is
                # reused), on integer numerators, and kept one object per value
                results, sums, out = _Results(zero), {}, []
                for row in self._rows:
                    cells = {}
                    for k, a in row.items():
                        for j, e in brows[k].items():
                            factors = cells.get(j)
                            if factors is None:
                                cells[j] = [a, e]
                            else:
                                factors.append(a)
                                factors.append(e)
                    done = {}
                    for j, factors in cells.items():
                        key = tuple(map(id, factors))
                        try:
                            done[j] = sums[key]
                        except KeyError:
                            pairs = zip(factors[::2], factors[1::2])
                            done[j] = sums[key] = results.intern(sum_of_products(pairs))
                    out.append(done)
                out = results.rows(out)
            else:
                ty = type(zero)
                out = []
                for row in self._rows:
                    acc = {}
                    for k, a in row.items():
                        for j, e in brows[k].items():
                            p = a * e
                            acc[j] = acc[j] + p if j in acc else p
                    # every cell is its own sum here: test each for a zero
                    out.append({j: s for j, s in acc.items() if s or type(s) is not ty})
            return Matrix._of(out, other.ncols, zero)
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
        """Kronecker product; the left factor indexes the blocks.

        Each product a * b is formed once per pair of stored objects (a, b),
        and tested for a zero once; equal products share one object, so
        every cell of one value holds the same result. Both factors hold
        their entries for the whole call, so the ids of the memo stay unique.
        """
        w = other.ncols
        zero = self.zero * other.zero
        results = _Results(zero)
        memo = {}  # id(a) -> {id(b): a * b, or None for a zero of zero's type}
        rows = []
        for ra in self._rows:
            for rb in other._rows:
                row = {}
                for ja, a in ra.items():
                    by_b = memo.setdefault(id(a), {})
                    base = ja * w
                    for jb, b in rb.items():
                        try:
                            p = by_b[id(b)]
                        except KeyError:
                            p = by_b[id(b)] = results.intern(a * b)
                        row[base + jb] = p
                rows.append(row)
        return Matrix._of(results.rows(rows), self.ncols * w, zero)

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
        # a shared object (as Kronecker products share them) is looked up by
        # id first and hashed once; the (type, value) memo joins equal values
        by_id, memo = {}, {}

        def once(e):
            try:
                return by_id[id(e)]
            except KeyError:
                key = (type(e), e)
                try:
                    result = memo[key]
                except KeyError:
                    result = memo[key] = fn(e)
                by_id[id(e)] = result
                return result

        out = [{j: once(e) for j, e in row.items()} for row in self._rows]
        full = self.nnz == self.nrows * self.ncols
        zero = None if full else fn(self.zero)  # fn never sees an unread zero
        if full or zero:
            return Matrix([[row.get(j, zero) for j in range(self.ncols)] for row in out])
        # each distinct result is tested for a zero of zero's type once
        ty = type(zero)
        dropped = {id(r) for r in memo.values() if not r and type(r) is ty}
        if dropped:
            out = [{j: r for j, r in row.items() if id(r) not in dropped} for row in out]
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

    def map(self, fn: Callable) -> KroneckerChain:
        """The chain of seed.map(fn). It expands to dense().map(fn) only where
        fn is a ring homomorphism, as evaluating a Polynomial at a point is."""
        return KroneckerChain(self.base_factor.map(fn), self.depth)

    def apply(self, vec: Sequence) -> list:
        """Multiply the chain's Kronecker power into vec, factor by factor.

        Each round applies the factor along one digit position of the index and
        rotates that position out; depth rounds restore the original layout.
        Denominators are cleared once (da for the factor, dv for vec), the
        rounds run on Python ints over the factor's nonzero entries only
        (b(b+1)/2 of them for a lower-triangular seed), and each entry is
        divided once by da^depth * dv at the end: O(depth * nnz * b^(depth-1))
        integer operations in all. A unit entry adds its block unmultiplied,
        and each row's sum starts from its first term, not from zeros.
        Entries must be int or Fraction (TypeError otherwise); the result is
        a list of Fractions.
        """
        b = self.base_factor.nrows
        if len(vec) != self.dim:
            raise ValueError(
                f"vector length {len(vec)} does not match dimension {self.dim}"
            )
        flat, da = over_common_denominator([e for row in self.base_factor.rows for e in row], "factor")
        v, dv = over_common_denominator(vec, "vector")
        # each factor row as (t, integer entry) pairs over its nonzeros
        rows = [[(t, c) for t, c in enumerate(flat[i * b : (i + 1) * b]) if c] for i in range(b)]
        m = self.dim // b
        for _ in range(self.depth):
            # out[j*b + i] = sum_t a[i][t] * v[t*m + j]: block t of v is v[t*m : (t+1)*m]
            blocks = [v[t * m : (t + 1) * m] for t in range(b)]
            out = [0] * len(v)
            for i, pairs in enumerate(rows):
                if not pairs:
                    continue  # a zero row leaves its zeros
                # the first term starts the sum; a unit entry adds its block as it is
                (t, c), *rest = pairs
                acc = blocks[t] if c == 1 else list(map(mul, repeat(c), blocks[t]))
                for t, c in rest:
                    acc = list(map(add, acc, blocks[t] if c == 1 else map(mul, repeat(c), blocks[t])))
                out[i::b] = acc
            v = out
        d = da**self.depth * dv
        return [Fraction(n, d) for n in v]


def kron_chain(
    seed: Callable[[int], Matrix], b: int, depth: int, cap: int = DEFAULT_CAP
) -> KroneckerChain:
    """The chain of the b x b matrix seed(b), depth deep. The cap is checked
    before seed(b) runs, so an oversized base is refused without building it."""
    checked_dim(b, depth, cap)
    return KroneckerChain(seed(b), depth)
