"""Base-b digit tuples, digit statistics, and the digital-dominance order.

A digit tuple lists the base-b digits of a non-negative integer, least
significant first; zero is (0,), so the tuple is never empty.
"""

from __future__ import annotations


def _check_base(b: int) -> None:
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")


def _check_depth(depth: int) -> None:
    # depth counts base-b digit positions, the Kronecker factors of a family
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")


def to_digits(n: int, b: int) -> tuple[int, ...]:
    """The base-b digits of n, least significant first; (0,) for zero."""
    _check_base(b)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n == 0:
        return (0,)
    digits = []
    while n:
        n, d = divmod(n, b)
        digits.append(d)
    return tuple(digits)


def digit_sum(n: int, b: int) -> int:
    """Sum of the base-b digits of n."""
    return sum(to_digits(n, b))


def ptm(n: int, b: int) -> int:
    """Generalized Prouhet-Thue-Morse value: base-b digit sum of n, mod b."""
    return digit_sum(n, b) % b


def parity_w(n: int) -> int:
    """Parity of the base-3 digit sum of n."""
    return digit_sum(n, 3) % 2


def _padded_digits(m: int, n: int, b: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    dm = to_digits(m, b)
    dn = to_digits(n, b)
    width = max(len(dm), len(dn))
    return dm + (0,) * (width - len(dm)), dn + (0,) * (width - len(dn))


def dominates(m: int, n: int, b: int) -> bool:
    """True iff every base-b digit of m is <= the matching digit of n."""
    dm, dn = _padded_digits(m, n, b)
    return all(x <= y for x, y in zip(dm, dn))


def carry_free(j: int, k: int, b: int) -> bool:
    """True iff adding j and k in base b produces no carries.

    Equivalent to digit_sum(j) + digit_sum(k) == digit_sum(j + k), and to
    j being digitally dominated by j + k.
    """
    return digit_sum(j, b) + digit_sum(k, b) == digit_sum(j + k, b)


def multiplicity(n: int, j: int, b: int) -> int:
    """Number of base-b digits of n equal to j, for 1 <= j <= b - 1."""
    _check_base(b)
    if not 1 <= j <= b - 1:
        raise ValueError(f"digit value must be in [1, {b - 1}], got {j}")
    return sum(1 for d in to_digits(n, b) if d == j)


def dominated_set(n: int, b: int) -> list[int]:
    """All k digitally dominated by n, in increasing numeric order.

    Built one digit at a time from the least significant: every value so
    far lies below b^i, so placing c = 0..d_i at position i in the outer
    loop keeps the list sorted. It has prod(d_i + 1) members.
    """
    values = [0]
    weight = 1
    for d in to_digits(n, b):
        values = [v + c * weight for c in range(d + 1) for v in values]
        weight *= b
    return values
