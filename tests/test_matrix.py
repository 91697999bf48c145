from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sierpmat.exactpoly import ONE, X, Y, ZERO, Polynomial
from sierpmat.matrix import DEFAULT_CAP, KroneckerChain, Matrix, checked_dim, kron_chain
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
    with pytest.raises(AttributeError, match="^Matrix is immutable$"):
        m.rows = ((2,),)
    with pytest.raises(TypeError):
        hash(Matrix([[1]]))


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


def test_kron_chain_dense_matches_repeated_kron():
    a = Matrix([[1, 0], [2, 3]])
    assert kron_chain(lambda b: a, 2, 1).dense() == a
    assert kron_chain(lambda b: a, 2, 3).dense() == a.kron(a.kron(a))
    assert kron_chain(lambda b: a, 2, 3, cap=8).dense().nrows == 8


def test_chain_power_is_chain_of_seed_power():
    a = Matrix([[1, 0], [2, 3]])
    for depth in (1, 2, 3):
        chain = kron_chain(lambda b: a, 2, depth)
        for k in (0, 1, 2, 3):
            assert chain.power(k).dense() == chain.dense().power(k), (depth, k)
            assert chain.power(k).depth == depth


def test_chain_is_an_immutable_value():
    a = Matrix([[1, 0], [2, 3]])
    chain = KroneckerChain(a, 2)
    assert chain == KroneckerChain(base_factor=Matrix([[1, 0], [2, 3]]), depth=2)
    assert chain != KroneckerChain(a, 3) and chain != (a, 2)
    assert repr(chain) == f"KroneckerChain(base_factor={a!r}, depth=2)"
    with pytest.raises(AttributeError):
        chain.depth = 3
    with pytest.raises(TypeError):
        hash(chain)  # unhashable, as its Matrix seed is
    # squareness is checked before the depth
    with pytest.raises(ValueError, match="square"):
        KroneckerChain(Matrix([[1, 2]]), -1)
    with pytest.raises(ValueError):
        KroneckerChain(a, -1)


def test_kron_chain_checks_cap_before_building_seed():
    def seed(b):
        raise AssertionError("seed built for an oversized base")

    with pytest.raises(ValueError, match="exceeds cap"):
        kron_chain(seed, 5000, 1)
    with pytest.raises(ValueError, match="exceeds cap"):
        kron_chain(seed, 2, 3, cap=7)


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


def test_transpose():
    a = Matrix([[1, 2], [3, 4]])
    assert a.transpose() == Matrix([[1, 3], [2, 4]])


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


def test_map_calls_fn_once_per_value_shared_or_not():
    shared = X + 1
    copies = [X + 1 for _ in range(3)]  # equal values held in distinct objects
    m = Matrix([[shared, shared, 0], [copies[0], copies[1], Fraction(0)], [copies[2], ZERO, shared]])
    calls = []
    got = m.map(lambda e: calls.append(e) or e * 2)
    assert sorted(map(str, calls)) == ["0", "0", "0", "x + 1"]
    assert {type(e) for e in calls} == {int, Fraction, Polynomial}
    assert got == Matrix([[2 * X + 2] * 2 + [0], [2 * X + 2] * 2 + [0], [2 * X + 2, 0, 2 * X + 2]])
    assert [type(r[-1]) for r in got.rows] == [int, Fraction, Polynomial]
    assert type(got[2, 1]) is Polynomial


def test_kron_shares_one_product_per_pair_of_objects():
    a = Matrix([[X, ZERO], [X, X]])
    b = Matrix([[Y, Y], [ZERO, Y]])
    k = a.kron(b)
    stored = [e for row in k.rows for e in row if e]
    assert len(stored) == 9 and all(e == X * Y for e in stored)
    assert len({id(e) for e in stored}) == 1


# --- storage: no stored cell is a zero of the matrix zero's type ---
# zeros of all four types, and nonzeros whose sums and products cancel
_STORE_POOL = (
    0, Fraction(0), ZERO, UniPoly([]),
    1, -1, Fraction(1, 2), Fraction(-1, 2), X, -X, UniPoly([1]), UniPoly([-1]),
)


def _no_stored_zero(m):
    ty = type(m.zero)
    assert not [e for row in m._rows for e in row.values() if not e and type(e) is ty]


@settings(max_examples=200, deadline=None)
@given(
    picks=st.lists(st.integers(0, len(_STORE_POOL) - 1), min_size=27, max_size=27),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
)
def test_operations_store_no_zero_of_the_zero_type(picks, shape):
    n, m, k = shape
    cells = iter(_STORE_POOL[i] for i in picks)
    a, b = ([[next(cells) for _ in range(m)] for _ in range(n)] for _ in range(2))
    c = [[next(cells) for _ in range(k)] for _ in range(m)]
    ma, mb, mc = Matrix(a), Matrix(b), Matrix(c)
    for got in (
        ma + mb,
        ma + ma.map(lambda e: -e),  # every stored cell cancels
        ma * mc,
        # all-Polynomial factors: the per-cell numerator sums
        ma.map(lambda e: X * e) * mc.map(lambda e: Y * e),
        ma.kron(mc),
        mc.kron(ma),
        ma.map(lambda e: e * 0),
        ma.map(lambda e: -e),
        ma * Fraction(0),
    ):
        _no_stored_zero(got)
    # an int zero and a stored Fraction(0), under a Polynomial zero: no cell stored
    assert (Matrix([[0, Fraction(0)]]) + Matrix([[ZERO, ZERO]])).nnz == 0
    # a stored int 0 under a Fraction zero, times a Fraction: a Fraction zero
    assert Matrix([[Fraction(0), 0]]).kron(Matrix([[Fraction(1, 2)]])).nnz == 0
    assert Matrix.identity(3, one=ZERO, zero=ZERO).nnz == 0


def test_map_keeps_zero_types_apart():
    m = Matrix([[0, Fraction(0)], [ZERO, UniPoly([])]])
    assert [[type(e) for e in r] for r in m.map(lambda e: e).rows] == [
        [int, Fraction],
        [Polynomial, UniPoly],
    ]
    assert [str(e) for r in m.map(lambda e: e + 1).rows for e in r] == ["1", "1", "1", "1"]
    assert [type(e) for e in (m * Fraction(1, 2)).rows[0]] == [Fraction, Fraction]


# --- the sparse storage against the dense algorithms it replaced ---
# Each _dense_* below is the dense form of one Matrix operation, over plain
# lists of rows; every operation must give the same cell values, the same
# cell types (zeros included) and the same first_mismatch witness.


def _dense_zero(*row_sets):
    """0 times one entry of each type present: the zero a dense sum of
    products of these entries gives."""
    samples = {}
    for rows in row_sets:
        for row in rows:
            samples.update(zip(map(type, row), row))
    zero = 0
    for e in samples.values():
        zero = zero * e
    return zero


def _dense_mul(a, b):
    zero = _dense_zero(a, b)
    out = []
    for row in a:
        acc = {}
        for k, x in enumerate(row):
            if x:
                for j, e in enumerate(b[k]):
                    if e:
                        acc[j] = acc[j] + x * e if j in acc else x * e
        out.append([acc.get(j, zero) for j in range(len(b[0]))])
    return out


def _dense_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _dense_matvec(a, v):
    zero = _dense_zero(a, (v,))
    return [sum((x * y for x, y in zip(row, v) if x), zero) for row in a]


def _dense_first_mismatch(a, b):
    for i, (ra, rb) in enumerate(zip(a, b)):
        for j, (x, y) in enumerate(zip(ra, rb)):
            if x != y:
                return i, j, x, y
    return None


def _same(got, want):
    """Matrix got reads as the dense rows want, cell values and types."""
    rows = [list(r) for r in got.rows]
    assert rows == [list(r) for r in want]
    assert [[type(e) for e in r] for r in rows] == [[type(e) for e in r] for r in want]
    assert got.nnz <= got.nrows * got.ncols


def _same_witness(got, want):
    assert got == want
    if want is not None:
        assert (type(got[2]), type(got[3])) == (type(want[2]), type(want[3]))


def _poked(rows, kind, rng):
    """rows with up to three cells replaced: by an entry of the given kind,
    or by a zero of any kind."""
    out = [list(r) for r in rows]
    for _ in range(rng.randint(0, 3)):
        i, j = rng.randrange(len(out)), rng.randrange(len(out[0]))
        out[i][j] = rng.choice([_random_entry(kind, rng), 0, Fraction(0), ZERO])
    return out


@settings(max_examples=200, deadline=None)
@given(
    kinds=st.tuples(st.sampled_from(_KINDS), st.sampled_from(_KINDS)),
    shape=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4)),
    seed=st.integers(0, 10**6),
)
def test_sparse_storage_matches_dense_reference(kinds, shape, seed):
    rng = Random(seed)
    (ka, kb), (n, m, k) = kinds, shape
    a = _random_sparse(ka, n, m, rng)
    b = _random_sparse(kb, n, m, rng)
    c = _random_sparse(kb, m, k, rng)
    neg_a = [[-e for e in r] for r in a]
    ma, mb, mc = Matrix(a), Matrix(b), Matrix(c)

    _same(ma, a)
    _same(ma + mb, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
    _same(ma + Matrix(neg_a), [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, neg_a)])
    _same(ma * mc, _dense_mul(a, c))
    # [A | A] times [C ; -C]: every cell's products cancel in the sum
    cancel = [ra + ra for ra in a]
    stacked = [list(r) for r in c] + [[-e for e in r] for r in c]
    _same(Matrix(cancel) * Matrix(stacked), _dense_mul(cancel, stacked))
    _same(ma.kron(mc), _dense_kron(a, c))
    _same(ma.transpose(), [list(col) for col in zip(*a)])
    _same(ma * Fraction(1, 3), [[e * Fraction(1, 3) for e in r] for r in a])
    _same(ma.map(lambda e: e * 2 + 1), [[e * 2 + 1 for e in r] for r in a])
    _same(ma.map(lambda e: e * 0), [[e * 0 for e in r] for r in a])
    square = [r[:n] for r in _random_sparse(ka, n, max(n, m), rng)]
    diagonal = [Matrix(square)[i, i] for i in range(n)]
    assert diagonal == [square[i][i] for i in range(n)]
    assert [type(e) for e in diagonal] == [type(square[i][i]) for i in range(n)]
    for strict in (False, True):
        shift = 0 if strict else 1
        lower = not any(e for i, r in enumerate(square) for e in r[i + shift :])
        assert Matrix(square).is_lower_triangular(strict) == lower

    v = [r[0] for r in _random_sparse(kb, m, 1, rng)]
    got_v, want_v = ma.matvec(v), _dense_matvec(a, v)
    assert got_v == want_v
    assert [type(e) for e in got_v] == [type(e) for e in want_v]

    for other in (a, b, _poked(a, ka, rng), _poked(a, kb, rng)):
        _same(Matrix(other), other)
        _same_witness(ma.first_mismatch(Matrix(other)), _dense_first_mismatch(a, other))
        _same_witness(Matrix(other).first_mismatch(ma), _dense_first_mismatch(other, a))
        assert (ma == Matrix(other)) == (_dense_first_mismatch(a, other) is None)


# --- the per-cell numerator sum against the loop it replaced ---
# Where every stored entry of both factors is exactly a Polynomial, A * B sums
# each cell on integer numerators; anything else keeps the loop below. Both
# must store the same cells with the same values, types and zeros.


def _pairwise_product(a, b):
    """The generic Matrix.__mul__ loop: one product and one sum per pair of
    stored entries, then every cell tested for a zero of the product zero's
    type (Matrix._of stores its rows as they are)."""
    zero = a.zero * b.zero
    out = []
    for row in a._rows:
        acc = {}
        for k, x in row.items():
            for j, e in b._rows[k].items():
                acc[j] = acc[j] + x * e if j in acc else x * e
        out.append({j: s for j, s in acc.items() if s or type(s) is not type(zero)})
    return Matrix._of(out, b.ncols, zero)


def _bivariate(rng):
    # one to three terms in x and y, each over its own denominator
    return Polynomial(
        {
            (rng.randint(0, 3), rng.randint(0, 2)): Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            for _ in range(rng.randint(1, 3))
        }
    )


def _cell(kind, rng):
    if kind == "unipoly":
        return UniPoly([Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(3)])
    if kind == "mixed":
        kind = rng.choice(("int", "fraction", "bivariate"))
    if kind == "int":
        return rng.randint(-5, 5)
    if kind == "fraction":
        return Fraction(rng.randint(-5, 5), rng.randint(1, 7))
    return _bivariate(rng)


def _cells(kind, nrows, ncols, rng, pooled=False):
    """Rows of the given kind with a random share of zeros, all of one type
    picked at random, so the matrix zero need not match the entries. Pooled
    cells are drawn from three shared objects, so cells of the product repeat
    their sequences of factor objects."""
    zero = rng.choice([0, Fraction(0), ZERO, UniPoly([])])
    share = rng.randint(0, 8) / 10
    pool = [_cell(kind, rng) for _ in range(3)] if pooled else None
    draw = (lambda: rng.choice(pool)) if pooled else (lambda: _cell(kind, rng))
    return [[zero if rng.random() < share else draw() for _ in range(ncols)] for _ in range(nrows)]


def _same_cells(got, want):
    assert type(got.zero) is type(want.zero) and got.zero == want.zero
    assert [{j: (type(e), str(e)) for j, e in r.items()} for r in got._rows] == [
        {j: (type(e), str(e)) for j, e in r.items()} for r in want._rows
    ]


@settings(max_examples=200, deadline=None)
@given(
    kinds=st.tuples(*[st.sampled_from(("bivariate", "mixed", "unipoly"))] * 2),
    shape=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    seed=st.integers(0, 10**6),
    pooled=st.booleans(),
)
def test_product_matches_pairwise_loop(kinds, shape, seed, pooled):
    rng = Random(seed)
    (ka, kc), (n, m, k) = kinds, shape
    a, c = Matrix(_cells(ka, n, m, rng, pooled)), Matrix(_cells(kc, m, k, rng, pooled))
    _same_cells(a * c, _pairwise_product(a, c))
    # [A | A] times [C ; -C]: every cell's products cancel in the sum
    cancel = Matrix([list(r) + list(r) for r in a.rows])
    stacked = Matrix([list(r) for r in c.rows] + [[-e for e in r] for r in c.rows])
    _same_cells(cancel * stacked, _pairwise_product(cancel, stacked))


def test_product_rescales_cells_to_the_lcm_of_denominators():
    # pair denominators 10, then 21 (the cell is rescaled to 210), then 10
    a = Matrix([[X * Fraction(1, 2), X * Fraction(1, 3), Y]])
    b = Matrix([[Y * Fraction(1, 5)], [Y * Fraction(1, 7) + 1], [-X * Fraction(1, 10)]])
    cell = (a * b)[0, 0]
    assert type(cell) is Polynomial
    assert cell.terms == {(1, 1): Fraction(1, 21), (1, 0): Fraction(1, 3)}
    # products that cancel leave the zero Polynomial, dropped under a Polynomial zero
    half = Matrix([[X * Fraction(1, 2), X * Fraction(1, 2)]])
    assert (half * Matrix([[ONE], [-ONE]])).nnz == 0
    # and stored under an int zero, as the pairwise sum leaves it; both rows share the one sum
    kept = Matrix([[X, X, 0], [X, X, 0]]) * Matrix([[Y], [-Y], [0]])
    assert type(kept.zero) is int and kept.nnz == 2 and type(kept[0, 0]) is Polynomial
    assert kept[1, 0] is kept[0, 0]


def test_product_shares_each_repeated_cell():
    # both rows multiply the same objects in the same order: one sum, one shared result
    half = Y * Fraction(1, 2)
    a = Matrix([[X, half], [X, half]])
    got = a * Matrix([[Y + 1], [X * Fraction(1, 3)]])
    assert got[0, 0] is got[1, 0]
    assert got[0, 0].terms == {(1, 1): Fraction(7, 6), (1, 0): Fraction(1)}


def test_product_keeps_equal_sums_of_distinct_objects_as_one():
    # the cells are keyed by object, not by value: equal factors held apart are
    # summed apart, and both sums are right and kept as one object
    twin = Polynomial({(1, 0): Fraction(1, 2)})
    a = Matrix([[X * Fraction(1, 2), Y], [twin, Y]])
    c = Matrix([[Y * Fraction(1, 3)], [X + 2]])
    got = a * c
    assert got[0, 0] is got[1, 0]
    _same_cells(got, _pairwise_product(a, c))
