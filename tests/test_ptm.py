from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sierpmat.ptm as ptm_mod
from sierpmat.digits import digit_sum, dominated_set, dominates, ptm, to_digits
from sierpmat.exactpoly import X, Polynomial
from sierpmat.matrix import Matrix, kron_chain
from sierpmat.ptm import (
    UniPoly,
    ZeroSumVector,
    base3_corollary_check,
    braid_check,
    coefficients_by_formula,
    coefficients_by_matrix,
    eigen_poly_annihilation_check,
    f_vector,
    factorization,
    m_matrix,
    power_relation_check,
    power_sums,
    prouhet_partition,
    random_zero_sum,
    s_int,
    square_relation_check,
    t_matrix,
    u_matrix,
    v_matrix,
)
from sierpmat.sierpinski import s_matrix, structured_apply


# -- ZeroSumVector ----------------------------------------------------------


def test_zero_sum_accepts_and_coerces():
    a = ZeroSumVector(3, (1, 1, -2))
    assert a.entries == (Fraction(1), Fraction(1), Fraction(-2))


def test_zero_sum_rejects_nonzero_total():
    with pytest.raises(ValueError, match=r"entries sum to 3, expected 0"):
        ZeroSumVector(3, (1, 1, 1))


def test_zero_sum_rejects_wrong_arity_and_base():
    with pytest.raises(ValueError):
        ZeroSumVector(3, (1, -1))
    with pytest.raises(ValueError):
        ZeroSumVector(1, (0,))


def test_zero_sum_is_an_immutable_value():
    a = ZeroSumVector(3, [1, 1, -2])
    assert a == ZeroSumVector(base=3, entries=(1, 1, Fraction(-2)))
    assert a != ZeroSumVector(3, (2, -1, -1)) and a != (3, a.entries)
    assert hash(a) == hash(ZeroSumVector(3, (1, 1, -2)))
    assert repr(ZeroSumVector(2, (1, -1))) == (
        "ZeroSumVector(base=2, entries=(Fraction(1, 1), Fraction(-1, 1)))"
    )
    with pytest.raises(AttributeError):
        a.base = 4
    # the base is checked before the entries are read
    with pytest.raises(ValueError, match="base"):
        ZeroSumVector(1, ("not a number",))


# -- UniPoly ----------------------------------------------------------------


def test_unipoly_trims_and_degree():
    p = UniPoly([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert UniPoly([]).degree == -1
    assert not UniPoly([0, 0])
    assert UniPoly([5])


def test_unipoly_arithmetic():
    p = UniPoly([1, 1])  # 1 + x
    q = UniPoly([-1, 1])  # -1 + x
    assert p * q == UniPoly([-1, 0, 1])
    assert p + q == UniPoly([0, 2])
    assert p - p == UniPoly([])
    assert -p == UniPoly([-1, -1])


def test_unipoly_mul_absorbs_zero():
    assert UniPoly([]) * UniPoly([1, 2]) == UniPoly([])


def test_unipoly_derivative_and_eval():
    p = UniPoly([3, 0, 5])  # 3 + 5x^2
    assert p.derivative() == UniPoly([0, 10])
    assert p.eval(2) == 23
    assert p.eval(Fraction(1, 2)) == Fraction(17, 4)
    assert UniPoly([]).eval(7) == 0


def test_unipoly_str():
    assert str(UniPoly([])) == "0"
    assert str(UniPoly([1, -2, 1])) == "1 - 2*x + x^2"


def test_unipoly_str_signs_and_fractions():
    assert str(UniPoly([Fraction(1, 2), -1, 0, -3])) == "1/2 - 1*x - 3*x^3"
    assert str(UniPoly([0, 0, Fraction(-2, 3)])) == "-2/3*x^2"
    assert str(UniPoly([-1])) == "-1"


def test_unipoly_is_a_polynomial_in_x():
    assert UniPoly([0, 1]) == X
    assert UniPoly([5]) == 5
    # bench/tracing.py times UniPoly products by patching __mul__ in the
    # class's own __dict__
    assert "__mul__" in vars(UniPoly)


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _dense_add(p, q):
    n = max(len(p), len(q))
    p, q = list(p) + [0] * (n - len(p)), list(q) + [0] * (n - len(q))
    return _trim(a + b for a, b in zip(p, q))


def _dense_mul(p, q):
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


@st.composite
def _coeff_lists(draw):
    """Fraction lists of length 0-12 in which 0-80% of entries are zero."""
    zero_percent = draw(st.sampled_from([0, 20, 50, 80]))
    nonzero = st.fractions(min_value=-20, max_value=20, max_denominator=9).filter(bool)
    return [
        Fraction(0) if draw(st.integers(0, 99)) < zero_percent else draw(nonzero)
        for _ in range(draw(st.integers(0, 12)))
    ]


@settings(max_examples=200, deadline=None)
@given(p=_coeff_lists(), q=_coeff_lists(), x0=st.fractions(min_value=-3, max_value=3, max_denominator=5))
def test_unipoly_matches_dense_reference(p, q, x0):
    up, uq = UniPoly(p), UniPoly(q)
    assert up.coeffs == _trim(p) and up.degree == len(_trim(p)) - 1
    neg_q = [-c for c in q]
    results = [
        (up * uq, _dense_mul(p, q)),
        (up + uq, _dense_add(p, q)),
        (up - uq, _dense_add(p, neg_q)),
        (-uq, _trim(neg_q)),
        (up.derivative(), _trim([i * c for i, c in enumerate(p)][1:])),
    ]
    for got, want in results:
        assert isinstance(got, UniPoly)
        assert got.coeffs == want
        assert all(isinstance(c, Fraction) for c in got.coeffs)
    assert up.eval(x0) == sum((c * x0**i for i, c in enumerate(p)), Fraction(0))


# -- M, S and their inverse relation ----------------------------------------


def test_m1_displays():
    assert m_matrix(2, 1) == Matrix([[1, 0], [-1, 1]])
    assert m_matrix(3, 1) == Matrix([[1, 0, 0], [-1, 1, 0], [0, -1, 1]])


def test_s1_display():
    assert s_int(2, 1) == Matrix([[1, 0], [1, 1]])


@pytest.mark.parametrize("b", [2, 3, 4])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_m_s_mutual_inverse(b, depth):
    m = m_matrix(b, depth)
    s = s_int(b, depth)
    eye = Matrix.identity(b**depth)
    assert m * s == eye
    assert s * m == eye


def test_s_int_equals_symbolic_at_one():
    for b, depth in ((2, 3), (3, 2), (4, 1)):
        sym = s_matrix(b, depth).map(lambda p: p.eval(1))
        assert s_int(b, depth) == sym


def test_s_int_pattern_is_dominance():
    for b, depth in ((2, 3), (3, 2)):
        s = s_int(b, depth)
        for j in range(s.nrows):
            for k in range(s.ncols):
                assert (s[j, k] == 1) == dominates(k, j, b)
                assert s[j, k] in (0, 1)


# -- F, coefficients, factorization -----------------------------------------


def test_f_vector_classic_signs():
    a = ZeroSumVector(2, (1, -1))
    assert f_vector(2, 2, a) == [1, -1, -1, 1]
    assert f_vector(2, 3, a) == [1, -1, -1, 1, -1, 1, 1, -1]


def test_f_vector_base3_identity_window():
    a = ZeroSumVector(3, (1, 1, -2))
    assert f_vector(3, 1, a) == [1, 1, -2]


def test_f_vector_base_mismatch():
    with pytest.raises(ValueError):
        f_vector(2, 2, ZeroSumVector(3, (1, 1, -2)))


def test_coefficients_small_base3():
    a = ZeroSumVector(3, (2, -1, -1))
    c = coefficients_by_formula(3, 1, a)
    # c_0 = a_0; c_1 = a_0 + a_1; c_2 contains digit 2 so it vanishes
    assert c[0] == 2
    assert c[1] == 1
    assert c[2] == 0


def test_coefficient_routes_agree():
    # the dense s_int matvec is the pinned reference for both routes, at
    # every (b, N) with b^N <= 729 for b = 2..5
    rng = Random(1105)
    for b in (2, 3, 4, 5):
        for depth in range(1, 10):
            if b**depth > 729:
                break
            dense = s_int(b, depth)
            for _ in range(2):
                a = random_zero_sum(b, rng)
                expected = dense.matvec(f_vector(b, depth, a))
                assert coefficients_by_matrix(b, depth, a) == expected, (b, depth)
                assert coefficients_by_formula(b, depth, a) == expected, (b, depth)


@pytest.mark.parametrize("route", [coefficients_by_formula, coefficients_by_matrix])
def test_coefficient_routes_refuse_past_cap_before_building(route, monkeypatch):
    def built(*args):
        raise AssertionError("built something past the cap")

    for name in ("_s_int_base", "dominated_set", "structured_apply"):
        monkeypatch.setattr(ptm_mod, name, built)
    a = ZeroSumVector(3, (1, 1, -2))
    with pytest.raises(ValueError, match="exceeds cap"):
        route(3, 4, a, cap=80)
    with pytest.raises(ValueError, match="exceeds cap"):
        route(3, 10**9, a)


def test_coefficient_routes_stay_apart(monkeypatch):
    a = ZeroSumVector(3, (Fraction(1, 2), Fraction(2, 3), Fraction(-7, 6)))
    expected = coefficients_by_formula(3, 3, a)
    calls = []
    original = ptm_mod.dominated_set
    monkeypatch.setattr(ptm_mod, "dominated_set", lambda n, b: calls.append(n) or original(n, b))
    assert coefficients_by_formula(3, 3, a) == expected
    assert calls == list(range(27))  # one dominated sum per n

    def refused(n, b):
        raise AssertionError("the matrix route read the dominated set")

    monkeypatch.setattr(ptm_mod, "dominated_set", refused)
    assert coefficients_by_matrix(3, 3, a) == expected


def test_coefficients_vanish_on_top_digit():
    rng = Random(7)
    for b in (2, 3, 4):
        a = random_zero_sum(b, rng)
        c = coefficients_by_formula(b, 3, a)
        for n in range(b**3):
            if (b - 1) in to_digits(n, b):
                assert c[n] == 0, (b, n)


def test_one_minus_power_product():
    # A = (1, -1) gives P = 1, so the product is prod(1 - x^(2^m)) itself
    a = ZeroSumVector(2, (1, -1))
    assert factorization(2, 1, a)[2] == UniPoly([1, -1])
    # (1-x)(1-x^2) = 1 - x - x^2 + x^3
    assert factorization(2, 2, a)[2] == UniPoly([1, -1, -1, 1])


def test_classic_binary_factorization():
    # all coefficients of P vanish except c_0: F is the bare product
    a = ZeroSumVector(2, (1, -1))
    c = coefficients_by_formula(2, 3, a)
    assert c[0] == 1 and all(v == 0 for v in c[1:])
    f, _, product = factorization(2, 3, a)
    assert UniPoly(f_vector(2, 3, a)) == product == UniPoly([1, -1, -1, 1, -1, 1, 1, -1])
    assert f == product


def test_factorization_product_matches_whole_product_reference():
    """P times one (1 - x^(b^m)) at a time equals P times the whole product,
    built here by sparse two-term products."""
    rng = Random(20261019)
    for b in (2, 3, 4, 5):
        depth = 1
        while b**depth <= 729:
            whole = Polynomial({(0, 0): 1})
            for m in range(depth):
                whole = whole * Polynomial({(0, 0): 1, (b**m, 0): -1})
            for _ in range(2):
                a = random_zero_sum(b, rng)
                f, c, product = factorization(b, depth, a)
                assert product == UniPoly(c) * whole, (b, depth, a)
                assert f == product
            depth += 1


def test_factorization_matches_unipoly_product_reference():
    """The shifted integer subtractions give what P times one UniPoly
    factor (1 - x^(b^m)) at a time gives."""
    rng = Random(20261020)
    for b, depth in ((2, 8), (3, 5), (4, 4)):
        a = random_zero_sum(b, rng)
        f, c, product = factorization(b, depth, a)
        reference = UniPoly(c)
        for m in range(depth):
            reference = reference * UniPoly([1] + [0] * (b**m - 1) + [-1])
        assert type(product) is UniPoly
        assert product == reference == f, (b, depth)


def test_factorization_examples():
    f, _, product = factorization(3, 2, ZeroSumVector(3, (2, -1, -1)))
    assert f == product
    rng = Random(20260815)
    for b in (2, 3, 4):
        for depth in (1, 2, 3):
            for _ in range(3):
                f, _, product = factorization(b, depth, random_zero_sum(b, rng))
                assert f == product


def test_order_of_zero_at_one():
    rng = Random(99)
    for b, depth in ((2, 3), (3, 2), (4, 2)):
        a = random_zero_sum(b, rng)
        f = UniPoly(f_vector(b, depth, a))
        for _ in range(depth):
            assert f.eval(1) == 0
            f = f.derivative()


# -- base-3 corollary --------------------------------------------------------


def _dominated_c(n, a):
    """Reference c_n: a Fraction sum of A[u(k)] over the k whose base-3
    digits sit below n's, one digit-sum per term."""
    return sum((a.entries[ptm(k, 3)] for k in dominated_set(n, 3)), Fraction(0))


def test_base3_corollary_hand_values():
    a = ZeroSumVector(3, (Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6)))
    # n=1: c_1 = a_0 + a_1 = -a_2, and u_3(2) = 2
    assert base3_corollary_check(1, a, _dominated_c(1, a))
    # n=3: c_3 = a_0 + a_1 = -a_2 = -A[u_3(6)]
    assert base3_corollary_check(3, a, _dominated_c(3, a))
    # n=4: c_4 = a_1 = +A[u_3(8)]
    assert base3_corollary_check(4, a, _dominated_c(4, a))
    # a wrong c_n fails the check
    assert not base3_corollary_check(4, a, _dominated_c(4, a) + 1)


def test_base3_corollary_sweep():
    rng = Random(5)
    for _ in range(5):
        a = random_zero_sum(3, rng)
        c = coefficients_by_formula(3, 3, a)
        for n in range(27):
            if 2 in to_digits(n, 3):
                continue
            assert c[n] == _dominated_c(n, a), n
            assert base3_corollary_check(n, a, c[n]), n


def test_base3_corollary_rejections():
    a = ZeroSumVector(3, (1, 1, -2))
    with pytest.raises(ValueError):
        base3_corollary_check(2, a, 0)
    with pytest.raises(ValueError):
        base3_corollary_check(-1, a, 0)
    with pytest.raises(ValueError):
        base3_corollary_check(1, ZeroSumVector(2, (1, -1)), 0)


# -- Prouhet partitions ------------------------------------------------------


def test_prouhet_classic_instance():
    # degree 2 uses the first 8 integers
    s0, s1 = prouhet_partition(2, 2)
    assert s0 == [0, 3, 5, 6]
    assert s1 == [1, 2, 4, 7]
    table = power_sums((s0, s1), 2)
    assert table[1] == [14, 14]
    assert table[2] == [70, 70]


def test_prouhet_degree_one():
    s0, s1 = prouhet_partition(2, 1)
    assert s0 == [0, 3]
    assert s1 == [1, 2]
    assert power_sums((s0, s1), 1) == [[2, 2], [3, 3]]


def test_prouhet_partition_properties():
    for b, m in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)):
        sets = prouhet_partition(b, m)
        flat = sorted(n for s in sets for n in s)
        assert flat == list(range(b ** (m + 1)))
        assert all(len(s) == b**m for s in sets)
        for row in power_sums(sets, m):
            assert len(set(row)) == 1, (b, m, row)


def test_prouhet_rejects_negative_degree():
    with pytest.raises(ValueError):
        prouhet_partition(2, -1)


# -- group relations ---------------------------------------------------------


def test_u_v_displays_b2():
    assert u_matrix(2, 1) == Matrix([[1, -1], [1, 0]])
    assert v_matrix(2, 1) == Matrix([[0, -1], [1, 1]])
    assert u_matrix(2, 2).rows[0] == (1, -1, -1, 1)


# every (b, N) with b^N <= 729 for b = 2..5
_DESK_SIZES = [(b, n) for b in (2, 3, 4, 5) for n in range(1, 10) if b**n <= 729]


def _braid_sides(b, depth):
    # the braid products S T S and T S T, expanded from the chains of their seeds
    seeds = (ptm_mod._sts_base, ptm_mod._tst_base)
    return tuple(kron_chain(seed, b, depth).dense() for seed in seeds)


@pytest.mark.parametrize("b, depth", _DESK_SIZES)
def test_seed_products_match_dense_products(b, depth):
    # U, V and the braid products are Kronecker powers of seed products; the
    # full-size products of S and T are the pinned reference
    s, t = s_int(b, depth), t_matrix(b, depth)
    assert t == m_matrix(b, depth).transpose()
    assert u_matrix(b, depth) == s * t
    assert v_matrix(b, depth) == t * s
    assert _braid_sides(b, depth) == (s * t * s, t * s * t)


@pytest.mark.parametrize("b, depth", _DESK_SIZES)
def test_seed_powers_match_dense_powers(b, depth):
    # the relation checks raise chains to powers through their seeds; the
    # full-size Matrix.power of the dense products is the pinned reference
    for seed, dense in ((ptm_mod._u_base, u_matrix), (ptm_mod._v_base, v_matrix)):
        assert kron_chain(seed, b, depth).power(b + 1).dense() == dense(b, depth).power(b + 1)
    if b == 2:
        seeds = (ptm_mod._sts_base, ptm_mod._tst_base)
        for seed, product in zip(seeds, _braid_sides(b, depth)):
            assert kron_chain(seed, b, depth).power(2).dense() == product.power(2)


@pytest.mark.parametrize(
    "seed", [ptm_mod._s_int_base, ptm_mod._m_base, ptm_mod._t_base], ids=["S1", "M", "T"]
)
def test_structured_apply_matches_dense_chain(seed):
    rng = Random(2015)
    for b, depth in ((2, 1), (2, 6), (3, 4), (4, 3), (5, 2)):
        chain = kron_chain(seed, b, depth)
        dense = chain.dense()
        ints = [rng.randint(-9, 9) for _ in range(chain.dim)]
        fractions = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(chain.dim)]
        for v in (ints, fractions):
            assert structured_apply(chain, v) == dense.matvec(v), (b, depth)


def test_u_v_kronecker_recursion():
    for b in (2, 3):
        u1, v1 = u_matrix(b, 1), v_matrix(b, 1)
        for depth in (2, 3):
            assert u_matrix(b, depth) == u1.kron(u_matrix(b, depth - 1))
            assert v_matrix(b, depth) == v1.kron(v_matrix(b, depth - 1))


def _dense_skew(m):
    # reflection across the anti-diagonal: out[i][j] = m[n-1-j][n-1-i]
    n, rows = m.nrows, m.rows
    return Matrix([[rows[n - 1 - j][n - 1 - i] for j in range(n)] for i in range(n)])


def test_v_is_skew_transpose_of_u():
    for b, depth in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)):
        assert v_matrix(b, depth) == _dense_skew(u_matrix(b, depth))


def test_u1_cubed_is_minus_identity():
    u = u_matrix(2, 1)
    assert u.power(3) == Matrix([[-1, 0], [0, -1]])


@pytest.mark.parametrize("b", [2, 3, 4])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_power_relations(b, depth):
    assert power_relation_check(b, depth)


def test_power_relation_fails_on_a_wrong_seed(monkeypatch):
    u = ptm_mod._u_base
    # (-U_1)^3 == I, not -I: the chain's sign is wrong at odd depth only
    monkeypatch.setattr(ptm_mod, "_u_base", lambda b: u(b) * -1)
    assert [power_relation_check(2, depth) for depth in (1, 2, 3)] == [False, True, False]
    monkeypatch.setattr(ptm_mod, "_u_base", ptm_mod._s_int_base)
    for depth in (1, 2, 3):
        assert power_relation_check(2, depth) is False


@pytest.mark.parametrize("b", [2, 3, 4, 5])
def test_eigen_poly_annihilation(b):
    assert eigen_poly_annihilation_check(b)


def test_braid_holds_for_b2():
    for depth in (1, 2, 3):
        ok, witness = braid_check(2, depth)
        assert ok and witness is None


def test_braid_fails_above_b2_with_witness():
    ok, witness = braid_check(3, 1)
    assert not ok
    assert witness == (0, 2, 0, 1)
    ok, witness = braid_check(4, 1)
    assert not ok
    assert witness is not None
    i, j, lhs, rhs = witness
    assert lhs != rhs


def test_q_and_r_squares_b2():
    for depth in (1, 2, 3):
        s = s_int(2, depth)
        t = t_matrix(2, depth)
        q = s * t * s
        r = t * s * t
        sign = -1 if depth % 2 else 1
        target = Matrix.identity(2**depth, one=sign)
        assert q.power(2) == target
        assert r.power(2) == target
        assert square_relation_check(depth)


def test_checks_share_braid_products(monkeypatch):
    for b, depth in ((2, 1), (2, 3), (3, 2)):
        s, t = s_int(b, depth), t_matrix(b, depth)
        assert _braid_sides(b, depth) == (s * t * s, t * s * t)
    sts, s = ptm_mod._sts_base, ptm_mod._s_int_base
    for depth in (1, 2, 3):
        # both checks read the braid seeds: S_1 T_1 S_1 in place of T_1 S_1 T_1
        # keeps them true, S_1 itself in either place makes them false
        for pair, holds in (((sts, sts), True), ((s, sts), False), ((sts, s), False)):
            monkeypatch.setattr(ptm_mod, "_sts_base", pair[0])
            monkeypatch.setattr(ptm_mod, "_tst_base", pair[1])
            assert square_relation_check(depth) is holds
            assert braid_check(2, depth)[0] is holds


def test_random_zero_sum_is_zero_sum_and_seeded():
    rng = Random(42)
    a = random_zero_sum(4, rng)
    assert sum(a.entries) == 0
    assert a == random_zero_sum(4, Random(42))
