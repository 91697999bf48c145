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


def dominates(m: int, n: int, b: int) -> bool:
    """True iff every base-b digit of m is <= the matching digit of n."""
    dm, dn = to_digits(m, b), to_digits(n, b)
    # past its top digit n reads 0, so m must not be longer
    return len(dm) <= len(dn) and all(x <= y for x, y in zip(dm, dn))


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
