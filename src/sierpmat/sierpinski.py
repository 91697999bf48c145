"""Lower-triangular digit matrices, their one-parameter group law, and the
nilpotent generators whose exponential recovers them.

Everything is exact: matrix entries are Polynomial (variables x, y) or
Fraction, never floats. Whole matrices go through the Kronecker
recursion; closed-form entries come straight from digit expansions, and the
two routes are checked against each other in the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import comb, factorial
from operator import add, mul
from typing import Optional, Sequence

from .digits import _check_base, _check_depth, dominated_set, dominates, to_digits
from .exactpoly import (
    ONE, X, Y, ZERO, Polynomial, Rational, binom_rising, over_common_denominator, rising_table,
    sum_of_products,
)
from .matrix import DEFAULT_CAP, KroneckerChain, Matrix, checked_dim, kron_chain

__all__ = [
    "s_base",
    "s_matrix",
    "s_entry",
    "verify_one_parameter",
    "digital_binomial_sides",
    "multiplicity_identity_sides",
    "gould_check",
    "shifted_gould_check",
    "stirling_first",
    "stirling_identity_check",
    "x_base",
    "x_matrix",
    "x_power_entry_check",
    "matrix_exp_nilpotent",
    "s_chain",
    "structured_apply",
]


def s_base(b: int) -> Matrix:
    """b x b lower-triangular seed: entry (j,k) = binom_rising(j-k, x)."""
    _check_base(b)
    table = rising_table(b - 1, X)
    return Matrix([[table[j - k] if j >= k else ZERO for k in range(b)] for j in range(b)])


def s_matrix(b: int, depth: int, cap: int = DEFAULT_CAP) -> Matrix:
    """The depth-fold Kronecker power of s_base(b)."""
    return kron_chain(s_base, b, depth, cap).dense()


def s_chain(b: int, depth: int, x0: Rational, cap: int = DEFAULT_CAP) -> KroneckerChain:
    """S(x0) as the chain of s_base(b) with x evaluated at x0 (Fractions)."""
    return kron_chain(lambda base: s_base(base).map(lambda p: p.eval(x0)), b, depth, cap)


def _short(n: int) -> str:
    # str() refuses ints past 4300 digits; a long one is named by its size
    return str(n) if n.bit_length() <= 64 else f"<{n.bit_length()}-bit int>"


def s_entry(b: int, depth: int, j: int, k: int) -> Polynomial:
    """Closed-form entry: prod_i binom_rising(d_i(j-k), x) when the digits of
    k sit below those of j, else 0."""
    # checked_dim's checks without its cap: one entry costs O(depth) at any b**depth
    _check_base(b)
    _check_depth(depth)
    dim = b**depth
    if not (0 <= j < dim and 0 <= k < dim):
        j, k, b, depth = map(_short, (j, k, b, depth))
        raise IndexError(f"entry ({j},{k}) out of range for dimension {b}^{depth}")
    if not dominates(k, j, b):
        return ZERO
    acc = ONE
    for d in to_digits(j - k, b):
        acc = acc * binom_rising(d, X)
    return acc


def verify_one_parameter(
    b: int, depth: int, cap: int = DEFAULT_CAP
) -> tuple[bool, Optional[tuple]]:
    """Check S(x) S(y) == S(x+y) entrywise as bivariate polynomials.

    Returns (True, None) or (False, (j, k, product_entry, target_entry)).
    """
    s_x = s_matrix(b, depth, cap)
    s_y = s_x.map(lambda p: p.compose(px=Y))
    s_sum = s_x.map(lambda p: p.compose(px=X + Y))
    mismatch = (s_x * s_y).first_mismatch(s_sum)
    return mismatch is None, mismatch


def _prefix_products(
    digits: Sequence[int], table: Sequence[Polynomial], b: int
) -> dict[int, Polynomial]:
    """{k: prod_i table[d_i(k)]} for every k whose digits sit below digits.

    Built a digit position at a time, as dominated_set builds its list: each
    product of the first i + 1 positions is one product of the first i, times
    one table entry, and c = 0 keeps it (table[0] is 1). A part depends only
    on which digits k takes, not where, so each product part * table[c] is
    formed once per (part object, c) and equal parts share one object.
    """
    parts = {0: ONE}
    memo: dict[tuple[int, int], Polynomial] = {}  # (id(part), c) -> part * table[c]
    values: dict[Polynomial, Polynomial] = {}  # holds every part, so no id is reused
    weight = 1
    for d in digits:
        level = dict(parts)
        for c in range(1, d + 1):
            factor, shift = table[c], c * weight
            for k, p in parts.items():
                try:
                    level[k + shift] = memo[id(p), c]
                except KeyError:
                    q = p * factor
                    level[k + shift] = memo[id(p), c] = values.setdefault(q, q)
        parts = level
        weight *= b
    return parts


def digital_binomial_sides(n: int, b: int) -> tuple[Polynomial, Polynomial]:
    """Both sides of the digit-product expansion of n in base b.

    Left: prod_i binom_rising(d_i(n), x+y). Right: sum over all m whose
    digits sit below n's, of the split product in x and y. Each x-part and
    y-part is built once per digit prefix; the sum over m runs on integer
    numerators (exactpoly.sum_of_products).
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    digits = to_digits(n, b)
    tx, ty, txy = (rising_table(max(digits), arg) for arg in (X, Y, X + Y))
    lhs = ONE
    for d in digits:
        lhs = lhs * txy[d]
    px, py = _prefix_products(digits, tx, b), _prefix_products(digits, ty, b)
    rhs = sum_of_products((p, py[n - m]) for m, p in px.items())
    return lhs, rhs


def _multiplicities(n: int, b: int) -> tuple[int, ...]:
    # the nonzero base-b digits of n in increasing order: one tuple per multiplicity vector
    return tuple(sorted(d for d in to_digits(n, b) if d))


def _power_product(table: Sequence[Polynomial], key: tuple[int, ...]) -> Polynomial:
    """prod_j table[j] ** (multiplicity of j in key)."""
    acc = ONE
    for j in set(key):
        acc = acc * table[j] ** key.count(j)
    return acc


def multiplicity_identity_sides(n: int, b: int) -> tuple[Polynomial, Polynomial]:
    """Regrouped form of digital_binomial_sides: factors collected by digit
    value j with exponent = multiplicity of j. The j = 0 factor is 1.

    The digits of each m and n - m are read once; each x-part and y-part is
    built once per multiplicity vector within a call, and the sum over m runs
    on integer numerators.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    dominated = dominated_set(n, b)  # checks b before the tables are built
    tx, ty, txy = (rising_table(b - 1, arg) for arg in (X, Y, X + Y))
    lhs = _power_product(txy, _multiplicities(n, b))
    keys = {k: _multiplicities(k, b) for m in dominated for k in (m, n - m)}
    xparts = {key: _power_product(tx, key) for key in set(keys.values())}
    yparts = {key: _power_product(ty, key) for key in xparts}
    rhs = sum_of_products((xparts[keys[m]], yparts[keys[n - m]]) for m in dominated)
    return lhs, rhs


def gould_check(n: int) -> bool:
    """Convolution identity
    sum_k C(x+k, k) C(y+n-k, n-k) == C(x+y+n+1, n), checked symbolically."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    # C(x+k, k) is the rising binomial in x+1
    tx, ty = rising_table(n, X + 1), rising_table(n, Y + 1)
    lhs = sum_of_products((tx[k], ty[n - k]) for k in range(n + 1))
    return lhs == binom_rising(n, X + Y + 2)


def shifted_gould_check(p: int, q: int) -> bool:
    """Shifted-index form:
    sum_{v=q}^{p} C(x+p-v-1, p-v) C(y+v-q-1, v-q) == C(x+y+p-q-1, p-q)."""
    if not 1 <= q <= p:
        raise ValueError(f"need 1 <= q <= p, got p={p}, q={q}")
    tx, ty = rising_table(p - q, X), rising_table(p - q, Y)
    lhs = sum_of_products((tx[p - v], ty[v - q]) for v in range(q, p + 1))
    return lhs == binom_rising(p - q, X + Y)


def stirling_first(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind c(n, k): coefficient of x^k
    in x(x+1)...(x+n-1), equivalently n-permutations with k cycles."""
    if n < 0 or k < 0:
        raise ValueError(f"indices must be non-negative, got n={n}, k={k}")
    if k > n:
        raise ValueError(f"need k <= n, got n={n}, k={k}")
    return _stirling_rows(n)[n][k]


def _stirling_rows(top: int) -> list[list[int]]:
    """The rows [c(m, 0), ..., c(m, m)] for m = 0..top, each from the last
    by c(m, j) = c(m-1, j-1) + (m-1) c(m-1, j)."""
    rows = [[1]]
    for m in range(1, top + 1):
        new = [0] * (m + 1)
        for j, c in enumerate(rows[-1]):
            new[j] += (m - 1) * c
            new[j + 1] += c
        rows.append(new)
    return rows


def stirling_identity_check(l: int, n: int) -> bool:
    """sum_{i=1}^{l-n+1} (i-1)! C(l,i) c(l-i, n-1) == n c(l, n), exactly."""
    if not 1 <= n <= l:
        raise ValueError(f"need 1 <= n <= l, got l={l}, n={n}")
    lhs = sum(
        factorial(i - 1) * comb(l, i) * stirling_first(l - i, n - 1)
        for i in range(1, l - n + 2)
    )
    return lhs == n * stirling_first(l, n)


def x_base(b: int) -> Matrix:
    """Strictly lower-triangular generator seed: entry (j,k) = x/(j-k), one
    object per difference j - k, as s_base holds its table."""
    _check_base(b)
    by_diff = [ZERO] + [X * Fraction(1, d) for d in range(1, b)]
    return Matrix([[by_diff[j - k] if j > k else ZERO for k in range(b)] for j in range(b)])


def x_matrix(b: int, depth: int, cap: int = DEFAULT_CAP) -> Matrix:
    """Kronecker sum of depth copies of x_base(b):
    X_{N+1} = X_1 (x) I + I (x) X_N. Strictly lower-triangular."""
    checked_dim(b, depth, cap)
    seed = x_base(b)
    acc = seed
    for _ in range(depth - 1):
        dim = acc.nrows
        eye_b = Matrix.identity(b, one=ONE, zero=ZERO)
        eye_d = Matrix.identity(dim, one=ONE, zero=ZERO)
        acc = seed.kron(eye_d) + eye_b.kron(acc)
    return acc


def x_power_entry_check(b: int) -> tuple[bool, Optional[int]]:
    """Compare each power x_base(b)^n, 1 <= n <= b-1, against its closed
    form (n!/(j-k)!) c(j-k, n) x^n for j >= k+n, zero elsewhere.

    Each power is the previous one times x_base(b), b - 2 products in all,
    each closed form is built once per difference j - k, and the c(d, n)
    come from one Stirling triangle. Returns (True, None) or (False, n) for
    the first n whose power differs.
    """
    seed = x_base(b)
    power = seed
    cycles = _stirling_rows(b - 1)
    for n in range(1, b):
        if n > 1:
            power = power * seed
        xn = X**n
        by_diff = [ZERO] * n + [
            xn * (Fraction(factorial(n), factorial(d)) * cycles[d][n]) for d in range(n, b)
        ]
        closed = Matrix([[by_diff[j - k] if j >= k else ZERO for k in range(b)] for j in range(b)])
        if power != closed:
            return False, n
    return True, None


def matrix_exp_nilpotent(x_mat: Matrix) -> Matrix:
    """exp of a strictly lower-triangular matrix: sum_n X^n / n!, up to its
    first zero term (X^dim = 0 bounds it)."""
    if x_mat.nrows != x_mat.ncols:
        raise ValueError("matrix exponential requires a square matrix")
    if not x_mat.is_lower_triangular(strict=True):
        raise ValueError("matrix is not strictly lower-triangular")
    result = Matrix.identity(x_mat.nrows, one=ONE, zero=ZERO)
    term = result
    for n in range(1, x_mat.nrows):
        # scale X, whose Kronecker entries are shared, rather than each fresh cell of the term
        term = term * (x_mat * Fraction(1, n))
        if not term.nnz:
            break
        result = result + term
    return result


def structured_apply(chain: KroneckerChain, vec: Sequence) -> list:
    """Multiply the chain's Kronecker power into vec, factor by factor.

    Each round applies the factor along one digit position of the index and
    rotates that position out; depth rounds restore the original layout.
    Denominators are cleared once (da for the factor, dv for vec), the
    rounds run on Python ints over the factor's nonzero entries only
    (b(b+1)/2 of them for a lower-triangular seed), and each entry is
    divided once by da^depth * dv at the end: O(depth * nnz * b^(depth-1))
    integer operations in all. A unit entry adds its block unmultiplied,
    and each row's sum starts from its first term, not from zeros. Entries must be int or Fraction (TypeError
    otherwise); the result is a list of Fractions.
    """
    b = chain.base_factor.nrows
    if len(vec) != chain.dim:
        raise ValueError(
            f"vector length {len(vec)} does not match dimension {chain.dim}"
        )
    flat, da = over_common_denominator([e for row in chain.base_factor.rows for e in row], "factor")
    v, dv = over_common_denominator(vec, "vector")
    # each factor row as (t, integer entry) pairs over its nonzeros
    rows = [[(t, c) for t, c in enumerate(flat[i * b : (i + 1) * b]) if c] for i in range(b)]
    m = chain.dim // b
    for _ in range(chain.depth):
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
    d = da**chain.depth * dv
    return [Fraction(n, d) for n in v]
