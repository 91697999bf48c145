from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sierpmat.exactpoly import ONE, X, Y, ZERO, Polynomial
from sierpmat.matrix import DEFAULT_CAP, Matrix, checked_dim, kron_power
from sierpmat.ptm import UniPoly


def test_construction_and_shape():
    m = Matrix([[1, 2, 3], [4, 5, 6]])
    assert (m.nrows, m.ncols) == (2, 3)
    assert m[1, 2] == 6


def test_rejects_ragged_and_empty():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix([])


def test_immutable():
    m = Matrix([[1]])
    with pytest.raises(AttributeError):
        m.rows = ((2,),)


def test_identity_and_equality():
    i2 = Matrix.identity(2)
    assert i2 == Matrix([[1, 0], [0, 1]])
    assert i2 != Matrix([[1, 0], [1, 1]])
    # mixed-type equality: Fraction 1 equals int 1
    assert Matrix.identity(2, one=Fraction(1)) == i2


def test_add_sub_neg():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[10, 20], [30, 40]])
    assert a + b == Matrix([[11, 22], [33, 44]])
    assert b - a == Matrix([[9, 18], [27, 36]])
    assert -a == Matrix([[-1, -2], [-3, -4]])
    with pytest.raises(ValueError):
        a + Matrix([[1]])


def test_matmul_known_product():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert a * b == Matrix([[2, 1], [4, 3]])
    assert b * a == Matrix([[3, 4], [1, 2]])


def test_matmul_shape_check():
    a = Matrix([[1, 2]])
    with pytest.raises(ValueError):
        a * a


def test_scalar_mul_both_sides():
    a = Matrix([[1, 2], [3, 4]])
    assert a * 2 == Matrix([[2, 4], [6, 8]])
    assert 2 * a == a * 2
    assert a * Fraction(1, 2) == Matrix([[Fraction(1, 2), 1], [Fraction(3, 2), 2]])


def test_polynomial_entries():
    s = Matrix([[ONE, 0], [X, ONE]])
    t = Matrix([[ONE, 0], [Y, ONE]])
    prod = s * t
    assert prod[1, 0] == X + Y
    assert prod[0, 0] == 1


def test_power():
    n = Matrix([[0, 0], [1, 0]])
    assert n.power(0) == Matrix.identity(2)
    assert n.power(1) == n
    assert n.power(2) == Matrix([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        n.power(-1)
    with pytest.raises(ValueError):
        Matrix([[1, 2]]).power(2)


def test_kron_blocks_indexed_by_left_factor():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 5], [6, 7]])
    k = a.kron(b)
    assert (k.nrows, k.ncols) == (4, 4)
    # block (0,1) is 2*b
    assert k[0, 2] == 0 and k[0, 3] == 10
    assert k[1, 2] == 12 and k[1, 3] == 14
    # block (1,0) is 3*b
    assert k[2, 0] == 0 and k[3, 1] == 21


def test_kron_power_matches_repeated_kron():
    a = Matrix([[1, 0], [2, 3]])
    assert kron_power(lambda b: a, 2, 1) == a
    assert kron_power(lambda b: a, 2, 3) == a.kron(a.kron(a))
    assert kron_power(lambda b: a, 2, 3, cap=8).nrows == 8


def test_kron_power_checks_cap_before_building_seed():
    def seed(b):
        raise AssertionError("seed built for an oversized base")

    with pytest.raises(ValueError, match="exceeds cap"):
        kron_power(seed, 5000, 1)
    with pytest.raises(ValueError, match="exceeds cap"):
        kron_power(seed, 2, 3, cap=7)


def test_first_mismatch():
    a = Matrix([[1, 0], [2, 3]])
    assert a.first_mismatch(Matrix([[Fraction(1), 0], [2, 3]])) is None
    # first difference in row-major order, entries in (self, other) order
    assert a.first_mismatch(Matrix([[1, 0], [5, 6]])) == (1, 0, 2, 5)
    assert Matrix([[X, 0]]).first_mismatch(Matrix([[Y, 1]])) == (0, 0, X, Y)
    with pytest.raises(ValueError):
        a.first_mismatch(Matrix([[1, 0]]))
    # == reports a shape mismatch as inequality, not an error
    assert a != Matrix([[1, 0]])


def test_kron_mixed_product_rule():
    a = Matrix([[1, 1], [0, 1]])
    b = Matrix([[2, 0], [1, 1]])
    c = Matrix([[1, 0], [3, 1]])
    d = Matrix([[1, 2], [0, 1]])
    assert (a * c).kron(b * d) == a.kron(b) * c.kron(d)


def test_transpose_and_skew_transpose():
    a = Matrix([[1, 2], [3, 4]])
    assert a.transpose() == Matrix([[1, 3], [2, 4]])
    # anti-diagonal reflection
    assert a.skew_transpose() == Matrix([[4, 2], [3, 1]])
    assert a.skew_transpose().skew_transpose() == a
    with pytest.raises(ValueError):
        Matrix([[1, 2, 3]]).skew_transpose()


def test_skew_transpose_reverses_products():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[5, 6], [7, 8]])
    assert (a * b).skew_transpose() == b.skew_transpose() * a.skew_transpose()


def test_map_and_matvec():
    a = Matrix([[1, 2], [3, 4]])
    assert a.map(lambda e: e * e) == Matrix([[1, 4], [9, 16]])
    assert a.matvec([1, 1]) == [3, 7]
    assert a.matvec([Fraction(1, 2), 0]) == [Fraction(1, 2), Fraction(3, 2)]
    with pytest.raises(ValueError):
        a.matvec([1, 2, 3])


def test_lower_triangular_checks():
    lo = Matrix([[1, 0], [5, 1]])
    assert lo.is_lower_triangular()
    assert not lo.is_lower_triangular(strict=True)
    strictly = Matrix([[0, 0], [5, 0]])
    assert strictly.is_lower_triangular(strict=True)
    assert not Matrix([[1, 2], [0, 1]]).is_lower_triangular()
    poly_lo = Matrix([[ONE, Polynomial.constant(0)], [X, ONE]])
    assert poly_lo.is_lower_triangular()


def test_diagonal():
    assert Matrix([[1, 2], [3, 4]]).diagonal() == [1, 4]


def test_checked_dim():
    assert checked_dim(2, 3) == 8
    assert checked_dim(2, 12) == DEFAULT_CAP
    with pytest.raises(ValueError):
        checked_dim(2, 13)
    assert checked_dim(2, 13, cap=10000) == 8192
    # a huge depth is refused without forming b**depth
    with pytest.raises(ValueError, match=r"dimension 2\^10000000 exceeds cap 4096"):
        checked_dim(2, 10**7)
    with pytest.raises(ValueError):
        checked_dim(1, 2)
    with pytest.raises(ValueError):
        checked_dim(2, 0)


# --- zero-skipping product and matvec against a dense triple loop ---

_KINDS = ("int", "fraction", "poly")


def _random_entry(kind, rng):
    if kind == "int":
        return rng.randint(-5, 5) or 1
    c = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 7))
    if kind == "fraction":
        return c
    return Polynomial({(rng.randint(0, 2), rng.randint(0, 1)): c, (0, 0): rng.randint(-2, 2)})


def _random_sparse(kind, nrows, ncols, rng):
    """A kind-homogeneous matrix with a random share (0-90%) of zeros, and
    sometimes an all-zero row and an all-zero column."""
    zero = {"int": 0, "fraction": Fraction(0), "poly": ZERO}[kind]
    share = rng.randint(0, 9) / 10
    zero_row = rng.choice([None, rng.randrange(nrows)])
    zero_col = rng.choice([None, rng.randrange(ncols)])
    return [
        [
            zero if i == zero_row or j == zero_col or rng.random() < share else _random_entry(kind, rng)
            for j in range(ncols)
        ]
        for i in range(nrows)
    ]


def _dense_product(a, b):
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            total = 0
            for k, entry in enumerate(row):
                total = total + entry * b[k][j]
            out_row.append(total)
        out.append(out_row)
    return out


@settings(max_examples=150, deadline=None)
@given(
    kinds=st.tuples(st.sampled_from(_KINDS), st.sampled_from(_KINDS), st.sampled_from(_KINDS)),
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    seed=st.integers(0, 10**6),
)
def test_product_and_matvec_match_dense_triple_loop(kinds, shape, seed):
    rng = Random(seed)
    (ka, kb, kv), (n, inner, m) = kinds, shape
    a = _random_sparse(ka, n, inner, rng)
    b = _random_sparse(kb, inner, m, rng)
    v = _random_sparse(kv, inner, 1, rng)
    v = [row[0] for row in v]
    got = (Matrix(a) * Matrix(b)).rows
    want = _dense_product(a, b)
    assert [list(r) for r in got] == want
    # every entry, those no nonzero product reaches included, keeps the
    # type the dense sum gives it
    assert [[type(e) for e in r] for r in got] == [[type(e) for e in r] for r in want]
    want_v = [row[0] for row in _dense_product(a, [[e] for e in v])]
    got_v = Matrix(a).matvec(v)
    assert got_v == want_v
    assert [type(e) for e in got_v] == [type(e) for e in want_v]


def test_product_zeros_keep_entry_type():
    a = Matrix([[X, ZERO], [ZERO, ZERO]])  # all-zero second row
    b = Matrix([[ONE, X], [X, ONE]])
    prod = a * b
    assert prod.rows[1] == (ZERO, ZERO)
    assert all(isinstance(e, Polynomial) for row in prod.rows for e in row)
    assert prod.rows[1][0].terms == {}
    half = Matrix([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(0)]])
    frac = half * half
    assert frac == Matrix([[Fraction(1, 4), 0], [0, 0]])
    assert all(type(e) is Fraction for row in frac.rows for e in row)
    assert all(type(e) is Fraction for e in half.matvec([1, 1]))
    ints = Matrix([[0, 0], [0, 3]]) * Matrix([[0, 1], [0, 0]])
    assert ints == Matrix([[0, 0], [0, 0]])
    assert all(type(e) is int for row in ints.rows for e in row)


# --- map: one call per distinct (type, value) ---

# equal across types but printed apart (0, Fraction(0), ZERO, UniPoly([])),
# equal within a type (Fraction(2, 4) and Fraction(1, 2)), and plain nonzeros
_MAP_POOL = (
    0, Fraction(0), ZERO, UniPoly([]), 1, Fraction(1), ONE, UniPoly([1]),
    X, UniPoly([0, 1]), Fraction(1, 2), Fraction(2, 4), Y + 1, X * Y - 3, 7,
)


@settings(max_examples=150, deadline=None)
@given(
    picks=st.lists(st.integers(0, len(_MAP_POOL) - 1), min_size=1, max_size=36),
    width=st.integers(1, 6),
)
def test_map_calls_fn_once_per_distinct_entry(picks, width):
    picks += [0] * (-len(picks) % width)
    entries = [_MAP_POOL[i] for i in picks]
    rows = [entries[i : i + width] for i in range(0, len(entries), width)]
    calls = []

    def fn(e):
        calls.append((type(e), e))
        return e * 2 + 1

    got = Matrix(rows).map(fn).rows
    want = [[e * 2 + 1 for e in row] for row in rows]
    assert [list(r) for r in got] == want
    assert [[type(e) for e in r] for r in got] == [[type(e) for e in r] for r in want]
    assert [[str(e) for e in r] for r in got] == [[str(e) for e in r] for r in want]
    assert len(calls) == len(set(calls)) == len({(type(e), e) for e in entries})


def test_map_keeps_zero_types_apart():
    m = Matrix([[0, Fraction(0)], [ZERO, UniPoly([])]])
    assert [[type(e) for e in r] for r in m.map(lambda e: e).rows] == [
        [int, Fraction],
        [Polynomial, UniPoly],
    ]
    assert [str(e) for r in m.map(lambda e: e + 1).rows for e in r] == ["1", "1", "1", "1"]
    assert [type(e) for e in (m * Fraction(1, 2)).rows[0]] == [Fraction, Fraction]
