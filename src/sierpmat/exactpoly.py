"""Exact sparse polynomials in the two variables x and y over rationals.

Coefficients are arbitrary-precision ``fractions.Fraction`` values, exported
here as ``Rational``. Every operation canonicalizes its result (no stored
zero coefficients), so structural equality is semantic equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Sequence

Rational = Fraction

_SCALARS = (int, Fraction)


class Polynomial:
    """Sparse bivariate polynomial keyed by (x-exponent, y-exponent).

    >>> str((X + 1) * (X - 1))
    'x^2 - 1'
    >>> binom_rising(2, X).eval(3)
    Fraction(6, 1)
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean: dict[tuple[int, int], Fraction] = {}
        for (ex, ey), c in (terms or {}).items():
            if ex < 0 or ey < 0:
                raise ValueError(f"exponents must be non-negative, got ({ex}, {ey})")
            c = Fraction(c)
            if c:
                clean[(ex, ey)] = c
        self._terms = clean

    @classmethod
    def _raw(cls, terms: dict[tuple[int, int], Fraction]) -> Polynomial:
        # internal fast path: terms already canonical
        p = object.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def constant(cls, c) -> Polynomial:
        return cls({(0, 0): Fraction(c)})

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        terms = dict(self._terms)
        for key, c in other._terms.items():
            s = terms.get(key, 0) + c
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        return type(self)._raw(terms)

    __radd__ = __add__

    def __neg__(self):
        return type(self)._raw({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if not self._terms or not other._terms:
            return type(self)._raw({})
        out: dict[tuple[int, int], Fraction] = {}
        for (ax, ay), ac in self._terms.items():
            for (bx, by), bc in other._terms.items():
                key = (ax + bx, ay + by)
                s = out.get(key, 0) + ac * bc
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return type(self)._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {n}")
        result = ONE
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if not self._terms:
            return 0  # hash(0) == hash(Fraction(0)), without building one
        if len(self._terms) == 1 and (0, 0) in self._terms:
            # constants hash like their scalar value
            return hash(self._terms[(0, 0)])
        return hash(frozenset(self._terms.items()))

    def eval(self, x0, y0=0) -> Fraction:
        """Exact evaluation at a rational point; a ring homomorphism.

        Sparse Horner: one step per term in x within each power of y, then
        one step per power of y, so x^1000 + 1 costs two steps, not 1000.
        """
        x0 = Fraction(x0)
        rows: dict[int, list[tuple[int, Fraction]]] = {}
        for (ex, ey), c in self._terms.items():
            rows.setdefault(ey, []).append((ex, c))
        return _horner([(ey, _horner(row, x0)) for ey, row in rows.items()], Fraction(y0))

    def compose(self, px=None, py=None) -> Polynomial:
        """Substitute polynomials (or scalars) for x and y."""
        px = X if px is None else _as_poly_strict(px)
        py = Y if py is None else _as_poly_strict(py)
        total = Polynomial._raw({})
        for (ex, ey), c in self._terms.items():
            total = total + px**ex * py**ey * c
        return total

    def __str__(self):
        if not self._terms:
            return "0"
        ordered = sorted(
            self._terms.items(),
            key=lambda kv: (kv[0][0] + kv[0][1], kv[0][0]),
            reverse=True,
        )
        pieces = []
        for (ex, ey), c in ordered:
            bits = []
            if ex:
                bits.append("x" if ex == 1 else f"x^{ex}")
            if ey:
                bits.append("y" if ey == 1 else f"y^{ey}")
            variables = "*".join(bits)
            magnitude = abs(c)
            if not variables:
                body = str(magnitude)
            elif magnitude == 1:
                body = variables
            elif magnitude.denominator == 1:
                body = f"{magnitude}*{variables}"
            else:
                body = f"({magnitude})*{variables}"
            if not pieces:
                pieces.append(f"-{body}" if c < 0 else body)
            else:
                pieces.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(pieces)

    def __repr__(self):
        return str(self)


def _horner(pairs: list[tuple[int, Fraction]], t: Fraction) -> Fraction:
    """sum of c * t**e over (e, c) pairs with distinct e: acc = acc * t**gap + c
    down the exponents in descending order."""
    if not pairs:
        return Fraction(0)
    pairs.sort(key=itemgetter(0), reverse=True)
    top = pairs[0][0]
    acc = Fraction(0)
    for e, c in pairs:
        gap = top - e
        acc = (acc * t if gap == 1 else acc * t**gap) + c
        top = e
    return acc * t**top if top else acc


def over_common_denominator(values: Sequence, what: str) -> tuple[list[int], int]:
    """(numerators over d, d) for int or Fraction values, d the lcm of their
    denominators; any other value is a TypeError naming what the values are.

    >>> over_common_denominator([Fraction(1, 2), -3, Fraction(2, 3)], "vector")
    ([3, -18, 4], 6)
    """
    for v in values:
        if not isinstance(v, _SCALARS):
            raise TypeError(f"expected int or Fraction {what} entries, got {type(v).__name__}")
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _as_poly(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, _SCALARS):
        return Polynomial.constant(value)
    return None


def _as_poly_strict(value) -> Polynomial:
    poly = _as_poly(value)
    if poly is None:
        raise TypeError(f"cannot interpret {value!r} as a polynomial")
    return poly


ZERO = Polynomial()
ONE = Polynomial.constant(1)
X = Polynomial({(1, 0): 1})
Y = Polynomial({(0, 1): 1})


def rising_table(top: int, arg) -> list[Polynomial]:
    """[binom_rising(d, arg) for d in 0..top], one product per entry by
    t[d+1] = t[d] * (arg + d) / (d + 1).

    >>> [str(p) for p in rising_table(2, X)]
    ['1', 'x', '(1/2)*x^2 + (1/2)*x']
    """
    if top < 0:
        raise ValueError(f"rising-factorial index must be non-negative, got {top}")
    arg = _as_poly_strict(arg)
    table = [ONE]
    for d in range(top):
        table.append(table[d] * ((arg + d) * Fraction(1, d + 1)))
    return table


def binom_rising(d: int, arg) -> Polynomial:
    """Rising-factorial binomial: arg * (arg+1) * ... * (arg+d-1) / d!.

    For integer arg = m >= 1 this is the ordinary binomial C(m+d-1, d);
    binom_rising(0, anything) is 1.
    """
    return rising_table(d, arg)[d]
