"""Exact sparse polynomials in the two variables x and y over rationals.

A polynomial is stored as integer numerators over one positive common
denominator, so products and sums multiply and add Python ints and form no
``fractions.Fraction``. The form is canonical: no zero numerator, and the
denominator is coprime to the numerators (1 for the zero polynomial), so
structural equality is semantic equality. Coefficients are read back as
``Fraction`` values, exported here as ``Rational``. ``sum_of_products`` is
the one kernel that sums many products on the numerators: the cells of a
Polynomial matrix product and the digital-binomial sides.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Rational = Fraction

_SCALARS = (int, Fraction)


class Polynomial:
    """Sparse bivariate polynomial keyed by (x-exponent, y-exponent).

    >>> str((X + 1) * (X - 1))
    'x^2 - 1'
    >>> binom_rising(2, X).eval(3)
    Fraction(6, 1)
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms=None):
        coeffs: dict[tuple[int, int], Fraction] = {}
        for (ex, ey), c in (terms or {}).items():
            if ex < 0 or ey < 0:
                raise ValueError(f"exponents must be non-negative, got ({ex}, {ey})")
            c = Fraction(c)
            if c:
                coeffs[(ex, ey)] = c
        nums, self._den = over_common_denominator(list(coeffs.values()), "coefficient")
        self._num = dict(zip(coeffs, nums))

    @classmethod
    def _raw(cls, num: dict[tuple[int, int], int], den: int = 1) -> Polynomial:
        # internal fast path: num over den already canonical
        p = object.__new__(cls)
        p._num = num
        p._den = den
        return p

    @classmethod
    def _reduced(cls, num: dict[tuple[int, int], int], den: int) -> Polynomial:
        # num has no zero value; divide out the common factor of num and den
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {key: c // g for key, c in num.items()}
                den //= g
        return cls._raw(num, den)

    @classmethod
    def constant(cls, c) -> Polynomial:
        if not isinstance(c, _SCALARS):
            c = Fraction(c)
        return cls._raw({(0, 0): c.numerator} if c else {}, c.denominator)

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        den = self._den
        return {key: Fraction(c, den) for key, c in self._num.items()}

    def __bool__(self) -> bool:
        return bool(self._num)

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        # one rescale to the lcm of the denominators, none when they agree
        da, db = self._den, other._den
        den = da if da == db else lcm(da, db)
        fa, fb = den // da, den // db
        num = dict(self._num) if fa == 1 else {key: c * fa for key, c in self._num.items()}
        for key, c in other._num.items():
            s = num.get(key, 0) + c * fb
            if s:
                num[key] = s
            else:
                del num[key]
        return type(self)._reduced(num, den)

    __radd__ = __add__

    def __neg__(self):
        return type(self)._raw({key: -c for key, c in self._num.items()}, self._den)

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
        if not self._num or not other._num:
            return type(self)._raw({})
        out: dict[tuple[int, int], int] = {}
        for (ax, ay), ac in self._num.items():
            for (bx, by), bc in other._num.items():
                key = (ax + bx, ay + by)
                s = out.get(key, 0) + ac * bc
                if s:
                    out[key] = s
                else:
                    del out[key]
        return type(self)._reduced(out, self._den * other._den)

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
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        num = self._num
        if not num:
            return 0  # hash(0) == hash(Fraction(0)), without building one
        if len(num) == 1 and (0, 0) in num:
            # constants hash like their scalar value
            c = num[(0, 0)]
            return hash(c) if self._den == 1 else hash(Fraction(c, self._den))
        return hash((frozenset(num.items()), self._den))

    def eval(self, x0, y0=0) -> Fraction:
        """Exact evaluation at a rational point; a ring homomorphism. With
        x0 = p/q and y0 = r/s, each term c x^ex y^ey is c p^ex q^(dx-ex) r^ey
        s^(dy-ey) over den q^dx s^dy: one integer sum and one Fraction."""
        p, q = Fraction(x0).as_integer_ratio()
        r, s = Fraction(y0).as_integer_ratio()
        dx = max((ex for ex, _ in self._num), default=0)
        dy = max((ey for _, ey in self._num), default=0)
        total = sum(
            c * p**ex * q ** (dx - ex) * r**ey * s ** (dy - ey)
            for (ex, ey), c in self._num.items()
        )
        return Fraction(total, self._den * q**dx * s**dy)

    def compose(self, px=None, py=None) -> Polynomial:
        """Substitute polynomials (or scalars) for x and y."""
        px = X if px is None else _as_poly_strict(px)
        py = Y if py is None else _as_poly_strict(py)
        total = Polynomial._raw({})
        for (ex, ey), c in self.terms.items():
            total = total + px**ex * py**ey * c
        return total

    def __str__(self):
        if not self._num:
            return "0"
        ordered = sorted(
            self.terms.items(),
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


def over_common_denominator(values: Sequence, what: str) -> tuple[list[int], int]:
    """(numerators over d, d) for int or Fraction values, d the lcm of their
    denominators; any other value is a TypeError naming what the values are.

    >>> over_common_denominator([Fraction(1, 2), -3, Fraction(2, 3)], "vector")
    ([3, -18, 4], 6)
    """
    for v in values:
        if not isinstance(v, _SCALARS):
            raise TypeError(f"expected int or Fraction {what} entries, got {type(v).__name__}")
    # one division of the lcm per distinct denominator
    dens = {v.denominator for v in values}
    d = lcm(*dens)
    scale = {q: d // q for q in dens}
    return [v.numerator * scale[v.denominator] for v in values], d


def sum_of_products(pairs: Iterable[tuple[Polynomial, Polynomial]]) -> Polynomial:
    """sum of a * e over the (a, e) pairs, on the integer numerators: every
    pair is convolved into one dict at the running lcm of the pairs'
    denominators, and the sum is reduced once. No Polynomial is formed per
    pair or per partial sum; products that cancel leave the zero Polynomial.

    >>> str(sum_of_products([(X, Y), (X * Fraction(1, 2), X + 1), (Y, -X)]))
    '(1/2)*x^2 + (1/2)*x'
    """
    num: dict[tuple[int, int], int] = {}
    den = 1
    for a, e in pairs:
        d = a._den * e._den
        if den % d:
            # d does not divide the running denominator: rescale to their lcm
            new = lcm(den, d)
            f = new // den
            for key in num:
                num[key] *= f
            den = new
        scale = den // d
        eterms = e._num.items()
        for (ax, ay), ac in a._num.items():
            ac *= scale
            for (bx, by), bc in eterms:
                key = (ax + bx, ay + by)
                num[key] = num.get(key, 0) + ac * bc
    return Polynomial._reduced({key: c for key, c in num.items() if c}, den)


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
