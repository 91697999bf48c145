import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sierpmat.digits import (
    carry_free,
    digit_sum,
    dominated_set,
    dominates,
    multiplicity,
    parity_w,
    ptm,
    to_digits,
)


def test_to_digits_examples():
    assert to_digits(3, 2) == (1, 1)
    assert to_digits(0, 5) == (0,)
    assert to_digits(10, 2) == (0, 1, 0, 1)


def test_to_digits_rejects_bad_input():
    with pytest.raises(ValueError):
        to_digits(3, 1)
    with pytest.raises(ValueError):
        to_digits(-1, 2)


@given(n=st.integers(min_value=0, max_value=10**9), b=st.integers(min_value=2, max_value=16))
def test_to_digits_reconstructs_value(n, b):
    expansion = to_digits(n, b)
    assert all(0 <= d < b for d in expansion)
    assert sum(d * b**i for i, d in enumerate(expansion)) == n
    # no trailing zero unless the value is zero
    if n == 0:
        assert expansion == (0,)
    else:
        assert expansion[-1] != 0


def test_digit_sum_examples():
    assert digit_sum(3, 2) == 2
    assert digit_sum(0, 7) == 0
    assert digit_sum(10, 2) == 2


def test_ptm_first_binary_values():
    assert [ptm(n, 2) for n in range(8)] == [0, 1, 1, 0, 1, 0, 0, 1]


def test_ptm_examples():
    assert ptm(0, 4) == 0
    assert ptm(5, 3) == 0  # 5 = 12 base 3, digit sum 3


def test_parity_w_examples():
    assert parity_w(1) == 1
    assert parity_w(4) == 0  # 4 = 11 base 3
    assert parity_w(0) == 0


def test_dominates_examples():
    assert dominates(2, 10, 2)
    assert not dominates(3, 5, 2)
    for n in (0, 1, 7, 42):
        assert dominates(n, n, 3)


def test_dominance_is_a_partial_order():
    limit = 3**4
    values = range(limit)
    for m in values:
        assert dominates(m, m, 3)
    for m in values:
        for n in values:
            if dominates(m, n, 3) and dominates(n, m, 3):
                assert m == n
    # transitivity on a thinned triple set to keep the sweep quick
    for m in range(0, limit, 3):
        for n in range(0, limit, 3):
            if not dominates(m, n, 3):
                continue
            for p in range(0, limit, 3):
                if dominates(n, p, 3):
                    assert dominates(m, p, 3)


def test_carry_free_examples():
    assert carry_free(8, 2, 2)
    assert not carry_free(1, 1, 2)
    assert carry_free(17, 0, 5)


@given(
    j=st.integers(min_value=0, max_value=124),
    k=st.integers(min_value=0, max_value=124),
    b=st.sampled_from([2, 3, 4, 5]),
)
@settings(max_examples=300)
def test_carry_free_equivalent_to_dominance(j, k, b):
    expected = dominates(j, j + k, b)
    assert carry_free(j, k, b) == expected
    assert carry_free(j, k, b) == dominates(k, j + k, b)


@given(
    j=st.integers(min_value=0, max_value=5000),
    k=st.integers(min_value=0, max_value=5000),
    b=st.integers(min_value=2, max_value=9),
)
def test_digit_sum_subadditive(j, k, b):
    lhs = digit_sum(j + k, b)
    rhs = digit_sum(j, b) + digit_sum(k, b)
    assert lhs <= rhs
    assert (lhs == rhs) == carry_free(j, k, b)


def test_multiplicity_examples():
    assert multiplicity(10, 1, 2) == 2
    assert multiplicity(0, 2, 3) == 0
    assert multiplicity(5, 2, 3) == 1


def test_multiplicity_rejects_out_of_range_digit():
    with pytest.raises(ValueError):
        multiplicity(5, 0, 3)
    with pytest.raises(ValueError):
        multiplicity(5, 3, 3)


@given(n=st.integers(min_value=0, max_value=10**6), b=st.integers(min_value=2, max_value=9))
def test_weighted_multiplicities_recover_digit_sum(n, b):
    assert sum(j * multiplicity(n, j, b) for j in range(1, b)) == digit_sum(n, b)


def brute_dominated(n, b):
    return [k for k in range(n + 1) if dominates(k, n, b)]


def test_dominated_set_examples():
    assert dominated_set(3, 2) == [0, 1, 2, 3]
    assert dominated_set(0, 7) == [0]
    # oracle: brute-force filter of everything below n
    assert brute_dominated(4, 3) == [0, 1, 3, 4]
    assert dominated_set(4, 3) == [0, 1, 3, 4]


@given(n=st.integers(min_value=0, max_value=700), b=st.sampled_from([2, 3, 4, 5]))
@settings(max_examples=200)
def test_dominated_set_matches_brute_force(n, b):
    got = dominated_set(n, b)
    assert got == brute_dominated(n, b)
    expected_size = math.prod(d + 1 for d in to_digits(n, b))
    assert len(got) == expected_size
