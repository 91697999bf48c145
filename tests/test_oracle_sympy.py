"""sympy as an outside oracle for the exact core.

The library never imports sympy; these tests skip where it is not installed.
"""

from fractions import Fraction
from math import factorial
from random import Random

import pytest

sympy = pytest.importorskip("sympy")

from sierpmat.exactpoly import ONE, X, Y, Polynomial, binom_rising  # noqa: E402
from sierpmat.ptm import coefficients_by_formula, f_vector, random_zero_sum  # noqa: E402
from sierpmat.sierpinski import stirling_first  # noqa: E402

x, y = sympy.symbols("x y")


def _q(c: Fraction):
    return sympy.Rational(c.numerator, c.denominator)


def _to_sympy(p: Polynomial) -> sympy.Poly:
    terms = {ij: _q(c) for ij, c in p.terms.items()} or {(0, 0): 0}
    return sympy.Poly.from_dict(terms, x, y, domain="QQ")


def _random_poly(rng: Random) -> Polynomial:
    return Polynomial(
        {
            (rng.randint(0, 4), rng.randint(0, 3)): Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            for _ in range(rng.randint(0, 5))
        }
    )


@pytest.mark.parametrize("b", [2, 3, 4])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_ptm_factorization_by_exact_division(b, depth):
    # F / prod_{m<N} (1 - x^(b^m)) divides exactly, and the quotient is P
    rng = Random(31 * b + depth)
    divisor = sympy.prod(1 - x ** (b**m) for m in range(depth))
    for _ in range(3):
        a = random_zero_sum(b, rng)
        f = sum(_q(c) * x**n for n, c in enumerate(f_vector(b, depth, a)))
        quotient, remainder = sympy.div(
            sympy.Poly(f, x, domain="QQ"), sympy.Poly(divisor, x, domain="QQ")
        )
        assert remainder.is_zero
        coeffs = [quotient.coeff_monomial(x**n) for n in range(b**depth)]
        assert coeffs == [_q(c) for c in coefficients_by_formula(b, depth, a)]


def test_polynomial_products_and_compose_match_sympy():
    rng = Random(2015)
    for _ in range(40):
        p, q, px, py = (_random_poly(rng) for _ in range(4))
        assert _to_sympy(p * q) == _to_sympy(p) * _to_sympy(q)
        subs = {x: _to_sympy(px).as_expr(), y: _to_sympy(py).as_expr()}
        composed = _to_sympy(p).as_expr().subs(subs, simultaneous=True)
        assert _to_sympy(p.compose(px, py)) == sympy.Poly(composed, x, y, domain="QQ")


@pytest.mark.parametrize("d", range(7))
def test_binom_rising_matches_sympy_rf(d):
    for arg in (X, X + Y, X + ONE, Polynomial.constant(Fraction(-1, 2)), Polynomial.constant(3)):
        expected = sympy.expand(sympy.rf(_to_sympy(arg).as_expr(), d) / factorial(d))
        assert _to_sympy(binom_rising(d, arg)) == sympy.Poly(expected, x, y, domain="QQ")


def test_stirling_first_matches_sympy():
    from sympy.functions.combinatorial.numbers import stirling

    for n in range(10):
        for k in range(n + 1):
            assert stirling_first(n, k) == stirling(n, k, kind=1)
