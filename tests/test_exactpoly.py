from fractions import Fraction
from math import comb, factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sierpmat.exactpoly import (
    ONE, X, Y, ZERO, Polynomial, binom_rising, over_common_denominator, rising_table,
    sum_of_products,
)
from sierpmat.matrix import Matrix
from sierpmat.ptm import UniPoly

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)

exponents = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
)

polynomials = st.dictionaries(exponents, rationals, max_size=4).map(Polynomial)


def test_basic_identities():
    assert X * Y + ZERO == X * Y
    assert (X + 1) * (X - 1) == X * X - 1
    assert X * Fraction(1, 2) == Polynomial({(1, 0): Fraction(1, 2)})


def test_zero_coefficients_never_stored():
    p = (X + Y) * (X - Y)  # x^2 - y^2, the xy terms cancel
    assert set(p.terms) == {(2, 0), (0, 2)}
    assert not (X - X)
    assert (X - X) == 0


def test_scalar_interop():
    assert 1 + X == X + 1
    assert 2 * X == X + X
    assert Fraction(1, 2) * X == X * Fraction(1, 2)
    assert Polynomial.constant(Fraction(3, 4)) == Fraction(3, 4)


@given(p=polynomials, q=polynomials, r=polynomials)
@settings(max_examples=150, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + ZERO == p
    assert p * ONE == p
    assert p + (-p) == ZERO


@given(p=polynomials, q=polynomials, x0=rationals, y0=rationals)
@settings(max_examples=150, deadline=None)
def test_eval_is_ring_homomorphism(p, q, x0, y0):
    assert (p + q).eval(x0, y0) == p.eval(x0, y0) + q.eval(x0, y0)
    assert (p * q).eval(x0, y0) == p.eval(x0, y0) * q.eval(x0, y0)


def test_eval_examples():
    assert (X * X + Y).eval(2, 3) == 7
    assert binom_rising(2, X).eval(1) == 1
    assert ZERO.eval(Fraction(7, 3), Fraction(-2, 5)) == 0


def test_binom_rising_small_cases():
    assert binom_rising(0, X) == ONE
    assert binom_rising(1, X) == X
    half = Fraction(1, 2)
    assert binom_rising(2, X) == Polynomial({(2, 0): half, (1, 0): half})
    # shifted argument keeps the same shape: y -> 0 recovers the x case
    p = binom_rising(2, X + Y)
    assert p.compose(py=ZERO) == binom_rising(2, X)


@pytest.mark.parametrize("d", range(7))
@pytest.mark.parametrize("m", range(1, 9))
def test_binom_rising_matches_factorial_binomial(d, m):
    # oracle: C(m+d-1, d) from factorials via math.comb
    assert binom_rising(d, X).eval(m) == comb(m + d - 1, d)


def test_compose_substitutes_both_variables():
    p = X * X + Y
    assert p.compose(px=Y, py=X) == Y * Y + X
    assert p.compose(px=X + Y) == (X + Y) * (X + Y) + Y
    assert p.compose(px=2, py=3) == 7


def test_pow():
    assert (X + Y) ** 0 == ONE
    assert (X + Y) ** 2 == X * X + 2 * X * Y + Y * Y
    with pytest.raises(ValueError):
        X ** (-1)


def test_rendering():
    assert str(ZERO) == "0"
    assert str(binom_rising(2, X)) == "(1/2)*x^2 + (1/2)*x"
    assert str(X * X - 1) == "x^2 - 1"
    assert str((X + Y) ** 2) == "x^2 + 2*x*y + y^2"
    assert str(-X) == "-x"
    assert str(Polynomial.constant(Fraction(-3, 7))) == "-3/7"


def test_rejects_negative_exponents():
    with pytest.raises(ValueError):
        Polynomial({(-1, 0): 1})


# --- integer-sum eval against a per-term reference ---

sparse_polynomials = st.dictionaries(
    st.tuples(st.integers(0, 40), st.integers(0, 6)), rationals, max_size=8
).map(Polynomial)

uni_polynomials = st.lists(
    st.one_of(st.just(Fraction(0)), rationals), max_size=14
).map(UniPoly)


def _per_term_eval(p, x0, y0):
    x0, y0 = Fraction(x0), Fraction(y0)
    return sum((c * x0**ex * y0**ey for (ex, ey), c in p.terms.items()), Fraction(0))


@given(
    p=st.one_of(sparse_polynomials, uni_polynomials, st.just(ZERO)),
    x0=st.one_of(rationals, st.sampled_from([0, 1, -1, Fraction(-1, 2), Fraction(7, 3)])),
    y0=st.one_of(rationals, st.sampled_from([0, 1, -2, Fraction(-3, 4)])),
)
@settings(max_examples=300, deadline=None)
def test_eval_matches_per_term_sum(p, x0, y0):
    got = p.eval(x0, y0)
    assert got == _per_term_eval(p, x0, y0)
    assert type(got) is Fraction


def test_eval_sparse_high_degree():
    p = X**1000 + 1
    assert p.eval(2) == 2**1000 + 1
    assert p.eval(Fraction(-1, 3)) == Fraction(-1, 3) ** 1000 + 1
    q = 5 * X**7 * Y**300 - Y + 2 * X**3
    assert q.eval(Fraction(1, 2), -1) == _per_term_eval(q, Fraction(1, 2), -1)
    assert q.eval(0, 0) == 0 and (q + 3).eval(0, 0) == 3
    assert type(ZERO.eval(1)) is Fraction and UniPoly([]).eval(2) == 0


def test_zero_hashes_like_scalar_zero():
    assert hash(ZERO) == hash(0) == hash(Fraction(0)) == 0
    assert hash(UniPoly([])) == 0
    assert hash(Polynomial.constant(Fraction(3, 4))) == hash(Fraction(3, 4))


# --- one rising-factorial table against the per-d product ---


def _rising_product(d, arg):
    acc = ONE
    for i in range(d):
        acc = acc * (arg + i)
    return acc * Fraction(1, factorial(d))


@pytest.mark.parametrize("arg", [X, Y, X + Y, X + 1, 3, Fraction(-1, 2)], ids=str)
@pytest.mark.parametrize("top", range(9))
def test_rising_table_matches_binom_rising(arg, top):
    table = rising_table(top, arg)
    assert table == [binom_rising(d, arg) for d in range(top + 1)]
    assert table == [_rising_product(d, arg) for d in range(top + 1)]
    assert all(type(p) is Polynomial for p in table)


def test_rising_table_rejects_negative_top():
    with pytest.raises(ValueError, match="non-negative"):
        rising_table(-1, X)
    with pytest.raises(ValueError, match="non-negative"):
        binom_rising(-1, X)
    with pytest.raises(TypeError):
        rising_table(2, "x")


# --- integer scaling over a common denominator ---


def test_over_common_denominator_ints_only():
    assert over_common_denominator([3, -4, 0], "vector") == ([3, -4, 0], 1)


def test_over_common_denominator_mixed():
    values = [Fraction(-1, 4), 2, Fraction(5, 6), -3, Fraction(-7, 10)]
    nums, d = over_common_denominator(values, "vector")
    assert d == 60
    assert nums == [-15, 120, 50, -180, -42]
    assert [Fraction(n, d) for n in nums] == values


def test_over_common_denominator_empty():
    assert over_common_denominator([], "vector") == ([], 1)


@pytest.mark.parametrize("bad", [0.5, X])
def test_over_common_denominator_refuses_non_rational(bad):
    with pytest.raises(TypeError) as info:
        over_common_denominator([1, bad], "coefficient")
    assert str(info.value) == (
        f"expected int or Fraction coefficient entries, got {type(bad).__name__}"
    )


# --- integer numerators over one denominator, against {key: Fraction} arithmetic ---


def _ref_add(a, b):
    out = dict(a)
    for key, c in b.items():
        s = out.get(key, 0) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _ref_neg(a):
    return {key: -c for key, c in a.items()}


def _ref_mul(a, b):
    out = {}
    for (ax, ay), ac in a.items():
        for (bx, by), bc in b.items():
            key = (ax + bx, ay + by)
            s = out.get(key, 0) + ac * bc
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def _ref_pow(a, n):
    out = {(0, 0): Fraction(1)}
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _ref_compose(a, px, py):
    out = {}
    for (ex, ey), c in a.items():
        term = _ref_mul(_ref_mul(_ref_pow(px, ex), _ref_pow(py, ey)), {(0, 0): c})
        out = _ref_add(out, term)
    return out


def _assert_canonical(p):
    num, den = p._num, p._den
    assert type(den) is int and den >= 1
    assert all(type(c) is int and c for c in num.values())
    assert gcd(den, *num.values()) == 1  # so den == 1 for the zero polynomial


@given(p=polynomials, q=polynomials, r=polynomials, c=rationals, n=st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_ops_match_fraction_reference(p, q, r, c, n):
    a, b, e = p.terms, q.terms, r.terms
    cases = [
        (p, a),
        (p + q, _ref_add(a, b)),
        (p * q, _ref_mul(a, b)),
        (-p, _ref_neg(a)),
        (p - q, _ref_add(a, _ref_neg(b))),
        (p + c, _ref_add(a, {(0, 0): c})),
        (c * p, _ref_mul(a, {(0, 0): c})),
        (c - p, _ref_add({(0, 0): c}, _ref_neg(a))),
        (p**n, _ref_pow(a, n)),
        (p.compose(q, r), _ref_compose(a, b, e)),
        (p.compose(py=c), _ref_compose(a, {(1, 0): Fraction(1)}, {(0, 0): c})),
    ]
    for got, want in cases:
        _assert_canonical(got)
        assert got.terms == {key: v for key, v in want.items() if v}
        assert all(type(v) is Fraction for v in got.terms.values())


@given(pairs=st.lists(st.tuples(polynomials, polynomials), max_size=6))
@settings(max_examples=150, deadline=None)
def test_sum_of_products_matches_pairwise_sum(pairs):
    want = ZERO
    for a, e in pairs:
        want = want + a * e
    got = sum_of_products(iter(pairs))
    _assert_canonical(got)
    assert type(got) is Polynomial and (got._num, got._den) == (want._num, want._den)
    # every pair again with its sign flipped: the sum cancels to the zero polynomial
    cancelled = sum_of_products(pairs + [(-a, e) for a, e in pairs])
    assert (cancelled._num, cancelled._den) == ({}, 1)


def test_sum_of_products_rescales_to_the_lcm_of_denominators():
    # pair denominators 10, then 21 (the sum is rescaled to 210), then 10
    half, third = X * Fraction(1, 2), X * Fraction(1, 3)
    pairs = [(half, Y * Fraction(1, 5)), (third, Y * Fraction(1, 7) + 1), (Y, -X * Fraction(1, 10))]
    got = sum_of_products(pairs)
    assert got.terms == {(1, 1): Fraction(1, 21), (1, 0): Fraction(1, 3)}
    want = half * Y * Fraction(1, 5) + third * (Y * Fraction(1, 7) + 1) - Y * X * Fraction(1, 10)
    assert got == want
    assert (sum_of_products([])._num, sum_of_products([])._den) == ({}, 1)


@given(coeffs=st.lists(rationals, max_size=8))
@settings(max_examples=100, deadline=None)
def test_unipoly_derivative_is_canonical(coeffs):
    f = UniPoly(coeffs)
    d = f.derivative()
    _assert_canonical(d)
    assert d.terms == {(i - 1, 0): i * v for (i, _), v in f.terms.items() if i}
    assert type(d) is UniPoly


def test_equal_polynomials_from_different_routes_hash_alike():
    sixth = Fraction(1, 6)
    want = X**2 - 1
    routes = [
        (X + 1) * (X - 1),
        (X * sixth + sixth) * (6 * X - 6),
        (6 * X + 6) * (X * sixth - sixth),
        (X + 1) * sixth * (X - 1) * 6,
        X * X * Fraction(5, 6) + X**2 * sixth - sixth * 6,
        Polynomial({(2, 0): Fraction(3, 3), (0, 0): -1}),
        UniPoly([-1, 0, 1]),
    ]
    for p in routes:
        assert p == want and hash(p) == hash(want)
        assert (p._num, p._den) == (want._num, want._den)
    scaled = [want * sixth, (X + 1) * (X * sixth - sixth), X**2 * sixth - sixth]
    for p in scaled:
        assert p == scaled[0] and hash(p) == hash(scaled[0])
        assert (p._num, p._den) == ({(2, 0): 1, (0, 0): -1}, 6)
    calls = []
    Matrix([[routes[0], routes[1]], [scaled[0], scaled[1]]]).map(lambda e: calls.append(e) or e)
    assert calls == [want, want * sixth]


@pytest.mark.parametrize("c", [0, 1, -7, 2**70, Fraction(3, 4), Fraction(-5, 6), Fraction(2**70, 3)])
def test_constants_hash_like_their_scalar(c):
    for p in (Polynomial.constant(c), ZERO + c, X * 0 + c, (X + c) - X, ONE * c):
        assert hash(p) == hash(Fraction(c)) == hash(c)
        assert p == c and p.terms == ({(0, 0): Fraction(c)} if c else {})
