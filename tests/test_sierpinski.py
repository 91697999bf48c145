from fractions import Fraction
from itertools import permutations
from math import factorial
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sierpmat import sierpinski
from sierpmat.digits import digit_sum, dominated_set, dominates, to_digits
from sierpmat.exactpoly import ONE, X, Y, ZERO, Polynomial, binom_rising, rising_table
from sierpmat.matrix import KroneckerChain, Matrix
from sierpmat.sierpinski import (
    digital_binomial_sides,
    gould_check,
    matrix_exp_nilpotent,
    multiplicity_identity_sides,
    s_base,
    s_chain,
    s_entry,
    s_matrix,
    shifted_gould_check,
    stirling_first,
    stirling_identity_check,
    structured_apply,
    verify_one_parameter,
    x_base,
    x_matrix,
    x_power_entry_check,
)

# handy atoms for frozen displays
x = X
x2 = X**2
x3 = X**3
q = binom_rising(2, X)  # x(x+1)/2


def test_s_base_b2():
    assert s_base(2) == Matrix([[1, 0], [x, 1]])


def test_s_base_b3():
    m = s_base(3)
    assert m == Matrix([[1, 0, 0], [x, 1, 0], [q, x, 1]])
    assert m[2, 0] == q
    assert m[0, 2] == 0


def test_s_base_rejects_small_base():
    with pytest.raises(ValueError):
        s_base(1)


def test_s_matrix_depth1_is_base():
    for b in (2, 3, 4, 5):
        assert s_matrix(b, 1) == s_base(b)


def test_s2_display():
    assert s_matrix(2, 2) == Matrix(
        [
            [1, 0, 0, 0],
            [x, 1, 0, 0],
            [x, 0, 1, 0],
            [x2, x, x, 1],
        ]
    )


def test_s3_display():
    assert s_matrix(2, 3) == Matrix(
        [
            [1, 0, 0, 0, 0, 0, 0, 0],
            [x, 1, 0, 0, 0, 0, 0, 0],
            [x, 0, 1, 0, 0, 0, 0, 0],
            [x2, x, x, 1, 0, 0, 0, 0],
            [x, 0, 0, 0, 1, 0, 0, 0],
            [x2, x, 0, 0, x, 1, 0, 0],
            [x2, 0, x, 0, x, 0, 1, 0],
            [x3, x2, x2, x, x2, x, x, 1],
        ]
    )
    assert s_matrix(2, 3)[7, 4] == x2


def test_s32_display():
    xx = x * x
    xq = x * q
    qq = q * q
    assert s_matrix(3, 2) == Matrix(
        [
            [1, 0, 0, 0, 0, 0, 0, 0, 0],
            [x, 1, 0, 0, 0, 0, 0, 0, 0],
            [q, x, 1, 0, 0, 0, 0, 0, 0],
            [x, 0, 0, 1, 0, 0, 0, 0, 0],
            [xx, x, 0, x, 1, 0, 0, 0, 0],
            [xq, xx, x, q, x, 1, 0, 0, 0],
            [q, 0, 0, x, 0, 0, 1, 0, 0],
            [xq, q, 0, xx, x, 0, x, 1, 0],
            [qq, xq, q, xq, xx, x, q, x, 1],
        ]
    )
    assert s_entry(3, 2, 8, 0) == q * q


def test_kronecker_alias_and_block_identity():
    a = s_base(2)
    eye = Matrix.identity(2, one=ONE, zero=ZERO)
    blk = eye.kron(a)
    assert blk == Matrix(
        [
            [1, 0, 0, 0],
            [x, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, x, 1],
        ]
    )


def test_closed_form_matches_recursion():
    for b in (2, 3, 4, 5):
        for depth in (1, 2, 3):
            if b**depth > 125:
                continue
            m = s_matrix(b, depth)
            for j in range(m.nrows):
                for k in range(m.ncols):
                    assert m[j, k] == s_entry(b, depth, j, k), (b, depth, j, k)


def test_s_entry_binary_power_form():
    for j in range(8):
        for k in range(8):
            e = s_entry(2, 3, j, k)
            if dominates(k, j, 2):
                assert e == X ** digit_sum(j - k, 2)
            else:
                assert e == ZERO


def test_s_entry_diagonal_and_range():
    assert s_entry(5, 2, 17, 17) == 1
    with pytest.raises(IndexError):
        s_entry(2, 2, 4, 0)
    with pytest.raises(IndexError):
        s_entry(2, 2, 0, -1)


def test_s_entry_at_huge_depth():
    # the checks cost one power, not a loop up to b**depth
    assert s_entry(2, 10**6, 1, 0) == X
    assert s_entry(3, 10**6, 2, 0) == binom_rising(2, X)
    with pytest.raises(IndexError):
        s_entry(2, 10**6, 0, -1)


def test_s_entry_index_error_for_indices_past_str_limit():
    # 2**10**6 has 301030 digits, past the 4300 str() accepts
    with pytest.raises(IndexError) as info:
        s_entry(2, 10**6, 2**10**6, 0)
    assert str(info.value) == "entry (<1000001-bit int>,0) out of range for dimension 2^1000000"


def test_s_chain_dense_matches_symbolic_eval():
    for b, depth in ((2, 3), (3, 2)):
        x0 = Fraction(3, 2)
        sym = s_matrix(b, depth).map(lambda p: p.eval(x0))
        assert s_chain(b, depth, x0).dense() == sym


def test_one_parameter_small():
    ok, witness = verify_one_parameter(2, 2)
    assert ok and witness is None
    s_x = s_matrix(2, 2)
    s_y = s_x.map(lambda p: p.compose(px=Y))
    assert (s_x * s_y)[3, 0] == (X + Y) ** 2


@pytest.mark.parametrize("b,depth", [(2, 1), (3, 1), (4, 1), (5, 1), (2, 3), (3, 2)])
def test_one_parameter_sweep(b, depth):
    ok, witness = verify_one_parameter(b, depth)
    assert ok, witness


def test_digital_binomial_n3_b2():
    lhs, rhs = digital_binomial_sides(3, 2)
    assert lhs == rhs == (X + Y) ** 2


def test_digital_binomial_trivial_and_base3():
    lhs, rhs = digital_binomial_sides(0, 2)
    assert lhs == rhs == ONE
    lhs, rhs = digital_binomial_sides(7, 3)
    assert lhs == rhs


@pytest.mark.parametrize("b", [2, 3])
def test_digital_binomial_sweep(b):
    for n in range(b**3):
        lhs, rhs = digital_binomial_sides(n, b)
        assert lhs == rhs, (b, n)
        if b == 2:
            assert lhs == (X + Y) ** digit_sum(n, 2)


def test_digital_binomial_rejects_negative():
    with pytest.raises(ValueError):
        digital_binomial_sides(-1, 2)


def test_multiplicity_identity():
    lhs, rhs = multiplicity_identity_sides(4, 3)
    assert lhs == rhs
    dlhs, _ = digital_binomial_sides(4, 3)
    assert lhs == dlhs
    for n in range(16):
        lhs, rhs = multiplicity_identity_sides(n, 2)
        tlhs, trhs = digital_binomial_sides(n, 2)
        assert lhs == rhs == tlhs == trhs


def _digital_binomial_reference(n, b):
    """digital_binomial_sides with the dominated sum formed term by term: one
    Polynomial product per factor and one Polynomial sum per dominated m."""
    digits = to_digits(n, b)
    tx, ty, txy = (rising_table(max(digits), arg) for arg in (X, Y, X + Y))
    lhs = ONE
    for d in digits:
        lhs = lhs * txy[d]
    rhs = ZERO
    for m in dominated_set(n, b):
        term = ONE
        # m sits below n, so it has no more digits than n
        for dmi, dni in zip(to_digits(m, b) + (0,) * len(digits), digits):
            term = term * tx[dmi] * ty[dni - dmi]
        rhs = rhs + term
    return lhs, rhs


def _multiplicity_reference(n, b):
    """multiplicity_identity_sides with every term raised and summed afresh."""
    tx, ty, txy = (rising_table(b - 1, arg) for arg in (X, Y, X + Y))
    lhs = ONE
    for j in range(1, b):
        lhs = lhs * txy[j] ** to_digits(n, b).count(j)
    rhs = ZERO
    for m in dominated_set(n, b):
        term = ONE
        for j in range(1, b):
            term = term * tx[j] ** to_digits(m, b).count(j)
            term = term * ty[j] ** to_digits(n - m, b).count(j)
        rhs = rhs + term
    return lhs, rhs


def _assert_same_sides(got, want):
    for g, w in zip(got, want):
        assert type(g) is type(w) is Polynomial
        assert (g._num, g._den, str(g)) == (w._num, w._den, str(w))


# the high bases take digits up to b - 1, so the pairs' denominators run up to (b-1)!^2 apiece
_SIDES_CASES = (
    [(n, 2) for n in range(9)]
    + [(n, 3) for n in range(27)]
    + [(n, 16) for n in (0, 1, 9, 15, 16, 0x3F, 0xF0, 0x102, 0xF7, 0x9C, 0x1F3)]
    + [(n, 24) for n in (23 * 24 + 5, 2 * 576 + 11 * 24 + 7)]
)


@pytest.mark.parametrize("n, b", _SIDES_CASES)
def test_sides_match_per_term_route(n, b):
    want = _digital_binomial_reference(n, b)
    _assert_same_sides(digital_binomial_sides(n, b), want)
    _assert_same_sides(multiplicity_identity_sides(n, b), _multiplicity_reference(n, b))
    assert want[0] == want[1]


def test_sides_check_base_first():
    for sides in (digital_binomial_sides, multiplicity_identity_sides):
        with pytest.raises(ValueError, match="base must be >= 2"):
            sides(3, 1)
        with pytest.raises(ValueError, match="base must be >= 2"):
            sides(3, 0)


@pytest.mark.parametrize("b, depth", [(2, 9), (3, 6), (4, 4), (5, 4), (6, 3)])
def test_sides_match_per_term_route_sweep(b, depth):
    # every n below b^depth, the largest power of b up to 729
    for n in range(b**depth):
        _assert_same_sides(digital_binomial_sides(n, b), _digital_binomial_reference(n, b))
        _assert_same_sides(multiplicity_identity_sides(n, b), _multiplicity_reference(n, b))


@pytest.mark.parametrize(
    "n, b", [(1, 2), (7, 2), (13, 2), (5, 3), (17, 3), (26, 3), (39, 4), (0x3F, 16)]
)
def test_sides_sum_over_every_dominated_m(monkeypatch, n, b):
    # the right sides run over sierpinski.dominated_set: drop one member and
    # neither side may still balance
    def all_but_one(n, b):
        values = dominated_set(n, b)
        del values[len(values) // 2]
        return values

    monkeypatch.setattr(sierpinski, "dominated_set", all_but_one)
    for sides in (digital_binomial_sides, multiplicity_identity_sides):
        lhs, rhs = sides(n, b)
        assert lhs != rhs, (sides.__name__, n, b)


def test_gould_small_and_symbolic():
    assert gould_check(0)
    # n=1: (x+1) + (y+1) against x+y+2
    assert gould_check(1)
    for n in range(2, 7):
        assert gould_check(n)


def test_gould_at_rational_points():
    with pytest.raises(ValueError):
        gould_check(-1)


def test_shifted_gould():
    assert shifted_gould_check(3, 3)
    assert shifted_gould_check(4, 3)
    assert shifted_gould_check(5, 2)
    for p in range(1, 7):
        for qq in range(1, p + 1):
            assert shifted_gould_check(p, qq)
    with pytest.raises(ValueError):
        shifted_gould_check(2, 3)
    with pytest.raises(ValueError):
        shifted_gould_check(2, 0)


def test_stirling_first_values():
    assert stirling_first(3, 1) == 2
    assert stirling_first(4, 2) == 11
    assert stirling_first(0, 0) == 1
    for n in range(7):
        assert stirling_first(n, n) == 1
        if n >= 1:
            assert stirling_first(n, 0) == 0
        assert sum(stirling_first(n, k) for k in range(n + 1)) == factorial(n)


def _cycle_count(perm):
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return cycles


@pytest.mark.parametrize("n", range(8))
def test_stirling_first_counts_permutation_cycles(n):
    # second route: c(n, k) is the number of permutations of n with k cycles
    tally = [0] * (n + 1)
    for perm in permutations(range(n)):
        tally[_cycle_count(perm)] += 1
    assert tally == [stirling_first(n, k) for k in range(n + 1)]


def test_stirling_first_matches_rising_factorial_coefficients():
    for n in range(8):
        poly = binom_rising(n, X) * factorial(n)
        coeffs = {ex: c for (ex, _), c in poly.terms.items()}
        for k in range(n + 1):
            assert coeffs.get(k, 0) == stirling_first(n, k)


def test_stirling_first_rejections():
    with pytest.raises(ValueError):
        stirling_first(2, 3)
    with pytest.raises(ValueError):
        stirling_first(-1, 0)
    with pytest.raises(ValueError):
        stirling_first(2, -1)


def test_stirling_identity_examples():
    # l=3, n=1: 0!*3*c(2,0) + 1!*3*c(1,0) + 2!*1*c(0,0) = 2 = 1*c(3,1)
    assert stirling_identity_check(3, 1)
    assert stirling_identity_check(2, 2)
    assert stirling_identity_check(5, 2)
    for l in range(1, 9):
        for n in range(1, l + 1):
            assert stirling_identity_check(l, n)
    with pytest.raises(ValueError):
        stirling_identity_check(2, 3)
    with pytest.raises(ValueError):
        stirling_identity_check(2, 0)


def test_x_base_display():
    m = x_base(4)
    half = X * Fraction(1, 2)
    third = X * Fraction(1, 3)
    assert m == Matrix(
        [
            [0, 0, 0, 0],
            [x, 0, 0, 0],
            [half, x, 0, 0],
            [third, half, x, 0],
        ]
    )
    assert m.is_lower_triangular(strict=True)
    with pytest.raises(ValueError):
        x_base(1)


def test_x_matrix_22():
    m = x_matrix(2, 2)
    expected = Matrix(
        [
            [0, 0, 0, 0],
            [x, 0, 0, 0],
            [x, 0, 0, 0],
            [0, x, x, 0],
        ]
    )
    assert m == expected


def test_x_matrix_depth1():
    for b in (2, 3, 4):
        assert x_matrix(b, 1) == x_base(b)


@pytest.mark.parametrize("b,depth", [(2, 2), (2, 3), (3, 2)])
def test_x_matrix_nilpotency_bound_is_sharp(b, depth):
    m = x_matrix(b, depth)
    bound = depth * (b - 1)
    dim = b**depth
    zero = Matrix([[ZERO] * dim for _ in range(dim)])
    assert m.power(bound + 1) == zero
    assert m.power(bound) != zero


@pytest.mark.parametrize("b", [2, 3, 4, 5, 6])
def test_x_power_entries(b):
    assert x_power_entry_check(b) == (True, None)


@pytest.mark.parametrize("b", [3, 4, 5, 6])
def test_x_power_sweep_builds_each_power_from_the_last(monkeypatch, b):
    """x_base(b)^n for n = 2..b-1 takes one product each, b - 2 in all;
    a power rebuilt per n would take (b-1)(b-2)/2."""
    products = 0
    mul = Matrix.__mul__

    def counting_mul(self, other):
        nonlocal products
        products += isinstance(other, Matrix)
        return mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    assert x_power_entry_check(b) == (True, None)
    assert products == b - 2


@pytest.mark.parametrize("d, n", [(1, 1), (4, 2), (5, 3), (5, 5)])
def test_x_power_witness_is_first_wrong_power(monkeypatch, d, n):
    def wrong_at_one_cell(dd, nn):
        return stirling_first(dd, nn) + ((dd, nn) == (d, n))

    monkeypatch.setattr(sierpinski, "stirling_first", wrong_at_one_cell)
    assert x_power_entry_check(6) == (False, n)


def test_x_power_entry_spot_value():
    # entry (3,0) of x_base(4)^2: (2!/3!) c(3,2) x^2 = x^2 since c(3,2)=3
    m = x_base(4).power(2)
    assert m[3, 0] == x2


def test_matrix_exp_zero_is_identity():
    zero = Matrix([[ZERO] * 3 for _ in range(3)])
    assert matrix_exp_nilpotent(zero) == Matrix.identity(3)


def test_matrix_exp_rejects_non_strict():
    with pytest.raises(ValueError):
        matrix_exp_nilpotent(s_base(2))
    with pytest.raises(ValueError):
        matrix_exp_nilpotent(Matrix([[0, 0, 0]]))


@pytest.mark.parametrize("b", [2, 3, 4, 5])
def test_exp_base_recovers_s_base(b):
    assert matrix_exp_nilpotent(x_base(b)) == s_base(b)


@pytest.mark.parametrize("b,depth", [(2, 2), (2, 3), (3, 2)])
def test_exp_recovers_s_matrix(b, depth):
    assert matrix_exp_nilpotent(x_matrix(b, depth)) == s_matrix(b, depth)


@pytest.mark.parametrize("b,depth", [(2, 4), (3, 3), (4, 2)])
def test_exp_series_stops_at_first_zero_term(monkeypatch, b, depth):
    """X^n vanishes from n = depth(b-1) + 1 on, so the series makes that
    many matrix products; summing to dim-1 would make b**depth - 1."""
    x = x_matrix(b, depth)
    products = 0
    mul = Matrix.__mul__

    def counting_mul(self, other):
        nonlocal products
        products += isinstance(other, Matrix)
        return mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    e = matrix_exp_nilpotent(x)
    monkeypatch.undo()
    assert products == depth * (b - 1) + 1
    assert e == s_matrix(b, depth)


@pytest.mark.parametrize("b,depth", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_determinant_one_and_group_inverse(b, depth):
    m = s_matrix(b, depth)
    det = ONE
    for i in range(m.nrows):
        det = det * m[i, i]
    assert det == 1
    m_neg = m.map(lambda p: p.compose(px=-X))
    assert m * m_neg == Matrix.identity(m.nrows, one=ONE, zero=ZERO)


def test_chain_validation():
    with pytest.raises(ValueError):
        KroneckerChain(Matrix([[1, 2, 3]]), 2)
    with pytest.raises(ValueError):
        KroneckerChain(Matrix([[1]]), 0)
    chain = s_chain(2, 3, 1)
    assert chain.dim == 8
    assert chain.base_factor == Matrix([[1, 0], [1, 1]])


def test_structured_apply_depth1_is_dense():
    chain = s_chain(3, 1, Fraction(1, 2))
    v = [Fraction(1), Fraction(2), Fraction(3)]
    assert structured_apply(chain, v) == chain.base_factor.matvec(v)


def test_structured_apply_e0_gives_ones_column():
    chain = s_chain(2, 3, 1)
    v = [1] + [0] * 7
    assert structured_apply(chain, v) == [1] * 8


def test_structured_apply_matches_dense_random():
    rng = Random(20260815)
    for b, depth in ((2, 3), (3, 3), (4, 2)):
        x0 = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        dense = s_chain(b, depth, x0).dense()
        chain = s_chain(b, depth, x0)
        for _ in range(5):
            v = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(b**depth)
            ]
            assert structured_apply(chain, v) == dense.matvec(v)


_PRIMES = (10**9 + 7, 998244353, 2**61 - 1, 10**9 + 9, 1000003, 7919, 65537, 2**31 - 1)


def _dominance_apply(b, depth, x0, v):
    """S(x0) v from closed-form entries over the dominated indices only."""
    return [
        sum((s_entry(b, depth, j, k).eval(x0) * v[k] for k in dominated_set(j, b)), Fraction(0))
        for j in range(b**depth)
    ]


@pytest.mark.parametrize(
    "b, depth, x0, v",
    [
        # int-only vector
        (2, 4, Fraction(1), [(-1) ** j * j for j in range(16)]),
        (3, 2, Fraction(5, 2), [3, -7, 0, 2, 9, -1, 4, 4, -8]),
        # the zero vector
        (3, 3, Fraction(2, 3), [0] * 27),
        # large coprime denominators, in the vector and in x0
        (2, 3, Fraction(7, 10**12 + 39), [Fraction(j + 1, p) for j, p in enumerate(_PRIMES)]),
        # negative x0
        (4, 2, Fraction(-5, 3), [Fraction(j - 7, j % 5 + 1) for j in range(16)]),
        (2, 3, Fraction(-2), [Fraction(1, j + 1) for j in range(8)]),
        # depth 1
        (5, 1, Fraction(3, 7), [Fraction(2), -1, Fraction(-4, 9), 0, 6]),
    ],
)
def test_structured_apply_exact_cases(b, depth, x0, v):
    got = structured_apply(s_chain(b, depth, x0), v)
    assert got == s_chain(b, depth, x0).dense().matvec(v)
    assert got == _dominance_apply(b, depth, x0, v)
    assert all(type(e) is Fraction for e in got)


@pytest.mark.parametrize("bad", [0.5, X, Polynomial.constant(1)])
def test_structured_apply_refuses_non_rational_vector(bad):
    v = [1, Fraction(1, 2), 3, 4]
    v[2] = bad
    with pytest.raises(TypeError) as info:
        structured_apply(s_chain(2, 2, 1), v)
    assert "\n" not in str(info.value)
    assert "int or Fraction" in str(info.value)


def test_structured_apply_refuses_non_rational_factor():
    for factor in (s_base(2), Matrix([[1.0, 0], [1, 1]])):
        with pytest.raises(TypeError, match="int or Fraction factor entries"):
            structured_apply(KroneckerChain(factor, 2), [1, 2, 3, 4])


def test_structured_apply_length_check():
    chain = s_chain(2, 2, 1)
    with pytest.raises(ValueError):
        structured_apply(chain, [1, 2, 3])


@settings(max_examples=40, deadline=None)
@given(
    b=st.integers(min_value=2, max_value=3),
    depth=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_structured_apply_property(b, depth, seed):
    rng = Random(seed)
    x0 = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    dense = s_chain(b, depth, x0).dense()
    chain = s_chain(b, depth, x0)
    v = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(b**depth)]
    assert structured_apply(chain, v) == dense.matvec(v)


def test_s_matrix_cap():
    with pytest.raises(ValueError):
        s_matrix(2, 13)
    with pytest.raises(ValueError):
        x_matrix(2, 13)
    with pytest.raises(ValueError):
        s_chain(2, 13, 1)
