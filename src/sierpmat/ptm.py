"""Thue-Morse coefficient polynomials and the matrix algebra behind them.

A zero-sum coefficient tuple A feeds a polynomial F whose n-th coefficient is
A[digit_sum(n) mod b]. F factors as P * prod_{m<N} (1 - x^(b^m)), each a
UniPoly (a Polynomial in x with a coefficient-list view). P's coefficients
come from dominated-digit sums or from the integer Sierpinski matrix, two
routes kept apart to be checked against each other. Also here: the bidiagonal
factor matrix M, the generator pair products U = S T and V = T S with
T = M^t, their power relations, and equal-power-sum partitions of
{0, ..., b^(M+1) - 1}. Each family is the Kronecker power of its b x b
seed (m_base, t_base, u_base, v_base), and the seed of U, V or a braid
product is the product of seeds.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub
from random import Random
from typing import Optional, Sequence

from .digits import _check_base, dominated_set, parity_w, ptm, to_digits
from .exactpoly import Polynomial, over_common_denominator
from .matrix import DEFAULT_CAP, Matrix, Record, checked_dim, kron_chain

__all__ = [
    "ZeroSumVector",
    "UniPoly",
    "m_base",
    "t_base",
    "u_base",
    "v_base",
    "s_int",
    "f_vector",
    "coefficients_by_formula",
    "coefficients_by_matrix",
    "factorization",
    "base3_corollary_check",
    "prouhet_partition",
    "power_sums",
    "power_relation_check",
    "eigen_poly_annihilation_check",
    "braid_check",
    "square_relation_check",
    "random_zero_sum",
]


class ZeroSumVector(Record):
    """b exact rationals that sum to zero. Immutable and hashable; equal
    when base and entries are equal."""

    __slots__ = ("base", "entries")

    def __init__(self, base: int, entries: Sequence):
        _check_base(base)
        entries = tuple(Fraction(e) for e in entries)
        if len(entries) != base:
            raise ValueError(f"need {base} entries for base {base}, got {len(entries)}")
        total = sum(entries)
        if total != 0:
            raise ValueError(f"entries sum to {total}, expected 0")
        self._set(base, entries)


class UniPoly(Polynomial):
    """A Polynomial in x alone, built from and read as ascending Fraction
    coefficients. +, - and * keep the left operand's class; equality is by
    terms, so UniPoly([0, 1]) == X and UniPoly([5]) == 5."""

    __slots__ = ()

    def __init__(self, coeffs: Sequence):
        super().__init__({(i, 0): c for i, c in enumerate(coeffs)})

    # bench/tracing.py reads this entry of the class's own __dict__ to time
    # ptm.UniPoly.mul; without it, a --trace 1 run raises KeyError
    __mul__ = Polynomial.__mul__

    @property
    def degree(self) -> int:
        """Highest power of x; -1 for the zero polynomial."""
        return max((i for i, _ in self._num), default=-1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Dense ascending coefficients, without trailing zeros."""
        out = [Fraction(0)] * (self.degree + 1)
        for (i, _), c in self.terms.items():
            out[i] = c
        return tuple(out)

    def derivative(self) -> UniPoly:
        return type(self)._reduced(
            {(i - 1, j): i * c for (i, j), c in self._num.items() if i}, self._den
        )

    def __str__(self):
        if not self._num:
            return "0"
        parts = []
        for (i, _), c in sorted(self.terms.items()):
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def m_base(b: int) -> Matrix:
    """The bidiagonal seed M_1 (1 on the diagonal, -1 just below it); its
    Kronecker power M is the inverse of s_int."""
    return Matrix(
        [
            [1 if j == k else (-1 if j == k + 1 else 0) for k in range(b)]
            for j in range(b)
        ]
    )


def t_base(b: int) -> Matrix:
    """T_1 = M_1^t, the seed of T."""
    return m_base(b).transpose()


def _s_int_base(b: int) -> Matrix:
    return Matrix([[1 if j >= k else 0 for k in range(b)] for j in range(b)])


def u_base(b: int) -> Matrix:
    """S_1 T_1, the seed of U = S T."""
    return _s_int_base(b) * t_base(b)


def v_base(b: int) -> Matrix:
    """T_1 S_1, the seed of V = T S."""
    return t_base(b) * _s_int_base(b)


def s_int(b: int, depth: int, cap: int = DEFAULT_CAP) -> Matrix:
    """Kronecker power of the lower-triangular all-ones seed; the 0/1
    dominance-pattern matrix, and the x = 1 value of the symbolic family."""
    return kron_chain(_s_int_base, b, depth, cap).dense()


def f_vector(b: int, depth: int, a: ZeroSumVector, cap: int = DEFAULT_CAP) -> list[Fraction]:
    """Coefficient vector (A[u(0)], A[u(1)], ..., A[u(b^depth - 1)])."""
    if a.base != b:
        raise ValueError(f"vector has base {a.base}, expected {b}")
    dim = checked_dim(b, depth, cap)
    return [a.entries[ptm(n, b)] for n in range(dim)]


def coefficients_by_formula(
    b: int, depth: int, a: ZeroSumVector, cap: int = DEFAULT_CAP
) -> list[Fraction]:
    """c_n as the sum of A[u(k)] over all k whose digits sit below n's.

    A's denominators are cleared once by their lcm d, the dominated sums
    run on Python ints, and each c_n is one Fraction(sum, d)."""
    return _dominated_sums(f_vector(b, depth, a, cap), b)


def _dominated_sums(values: list[Fraction], b: int) -> list[Fraction]:
    f, d = over_common_denominator(values, "coefficient")
    return [Fraction(sum(map(f.__getitem__, dominated_set(n, b))), d) for n in range(len(f))]


def coefficients_by_matrix(
    b: int, depth: int, a: ZeroSumVector, cap: int = DEFAULT_CAP
) -> list[Fraction]:
    """Same vector via the matrix route c = S a, with S = s_int(b, depth)
    applied factor by factor as a Kronecker chain, never built densely; kept
    separate from the dominated-sum route so the two can be cross-checked."""
    return kron_chain(_s_int_base, b, depth, cap).apply(f_vector(b, depth, a, cap))


def factorization(
    b: int, depth: int, a: ZeroSumVector, cap: int = DEFAULT_CAP
) -> tuple[UniPoly, list[Fraction], UniPoly]:
    """(F, c, P * prod(1 - x^(b^m))) where P has the dominated-sum
    coefficients c; the factorization holds when the first and last agree.
    P's coefficients are cleared to integers over their lcm d, each factor
    (1 - x^s) is one shifted subtraction on them, and the product of the
    factors alone is never formed. f_vector is built once, for F and for
    the dominated sums."""
    values = f_vector(b, depth, a, cap)
    f = UniPoly(values)
    c = _dominated_sums(values, b)
    nums, d = over_common_denominator(c, "coefficient")
    for m in range(depth):
        pad = [0] * b**m
        nums = list(map(sub, nums + pad, pad + nums))
    return f, c, UniPoly([Fraction(v, d) for v in nums])


def base3_corollary_check(n: int, a: ZeroSumVector, c_n: Fraction) -> bool:
    """For base 3 and n with digits in {0,1}: the dominated-sum coefficient
    c_n (coefficients_by_formula(3, depth, a)[n]) equals
    (-1)^parity_w(n) * A[u(2n)]."""
    if a.base != 3:
        raise ValueError(f"vector has base {a.base}, expected 3")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if 2 in to_digits(n, 3):
        raise ValueError(f"n = {n} contains digit 2 in base 3")
    sign = -1 if parity_w(n) else 1
    return c_n == sign * a.entries[ptm(2 * n, 3)]


def prouhet_partition(b: int, m_degree: int, cap: int = DEFAULT_CAP) -> list[list[int]]:
    """Split {0, ..., b^(m_degree+1) - 1} into b classes by u_b(n); the
    classes have equal power sums for exponents 0..m_degree."""
    if m_degree < 0:
        raise ValueError(f"degree must be non-negative, got {m_degree}")
    size = checked_dim(b, m_degree + 1, cap)
    sets: list[list[int]] = [[] for _ in range(b)]
    for n in range(size):
        sets[ptm(n, b)].append(n)
    return sets


def power_sums(sets: Sequence[Sequence[int]], max_degree: int) -> list[list[int]]:
    """Row m holds sum(n^m) for each class; rows 0..max_degree."""
    return [[sum(n**m for n in s) for s in sets] for m in range(max_degree + 1)]


def _sts_base(b: int) -> Matrix:
    return u_base(b) * _s_int_base(b)


def _tst_base(b: int) -> Matrix:
    return v_base(b) * t_base(b)


def _powers_are_signed_identity(seeds, b: int, depth: int, k: int, sign: int, cap: int) -> bool:
    """Is the chain of seed(b)^k, expanded, sign^depth * I for every seed?
    Each power is the chain of its seed's power (mixed-product property), so
    only b x b products are formed."""
    target = Matrix.identity(checked_dim(b, depth, cap), one=sign**depth)
    return all(kron_chain(seed, b, depth, cap).power(k).dense() == target for seed in seeds)


def power_relation_check(b: int, depth: int, cap: int = DEFAULT_CAP) -> bool:
    """U^(b+1) == V^(b+1) == (-1)^(depth*(b+1)) * I, exactly."""
    sign = (-1) ** (b + 1)
    return _powers_are_signed_identity((u_base, v_base), b, depth, b + 1, sign, cap)


def eigen_poly_annihilation_check(b: int) -> bool:
    """p(r) = -1 + r - r^2 + ... + (-1)^(b+1) r^b kills both seeds S_1 T_1
    and T_1 S_1 (their eigenvalues are exactly the roots of p)."""
    _check_base(b)
    zero = Matrix([[0] * b for _ in range(b)])
    for mat in (u_base(b), v_base(b)):
        # one running power: a mat.power(j) per j would form b^2/2 products, not b
        acc = Matrix.identity(b) * (-1)
        power = Matrix.identity(b)
        for j in range(1, b + 1):
            power = power * mat
            acc = acc + power * (1 if j % 2 else -1)
        if acc != zero:
            return False
    return True


def braid_check(b: int, depth: int, cap: int = DEFAULT_CAP) -> tuple[bool, Optional[tuple]]:
    """Does S T S == T S T? True for b = 2, false for b > 2; on failure the
    witness is (row, col, lhs, rhs) of the first row-major mismatch. The
    sides are the Kronecker powers of the seeds S_1 T_1 S_1 and T_1 S_1 T_1."""
    sts, tst = (kron_chain(seed, b, depth, cap).dense() for seed in (_sts_base, _tst_base))
    mismatch = sts.first_mismatch(tst)
    return mismatch is None, mismatch


def square_relation_check(depth: int, cap: int = DEFAULT_CAP) -> bool:
    """At base 2, (S T S)^2 == (T S T)^2 == (-1)^depth * I, exactly."""
    return _powers_are_signed_identity((_sts_base, _tst_base), 2, depth, 2, -1, cap)


def random_zero_sum(b: int, rng: Random) -> ZeroSumVector:
    """b - 1 random small rationals plus a balancing last entry."""
    head = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(b - 1)]
    return ZeroSumVector(b, tuple(head + [-sum(head)]))
