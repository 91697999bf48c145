"""Acceptance gate: ten end-to-end checks, each exact (zero tolerance) and
wall-clock limited. Run with `pytest tests/test_acceptance.py -v -s` to see
one PASS/FAIL line per criterion.
"""

import time
from fractions import Fraction
from random import Random

from sierpmat.digits import digit_sum, dominated_set, to_digits
from sierpmat.exactpoly import ONE, X, Y, ZERO, binom_rising
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
    m_base,
    power_relation_check,
    power_sums,
    prouhet_partition,
    random_zero_sum,
    s_int,
    t_base,
    u_base,
    v_base,
)
from sierpmat.sierpinski import (
    digital_binomial_sides,
    matrix_exp_nilpotent,
    multiplicity_identity_sides,
    s_base,
    s_chain,
    s_entry,
    s_matrix,
    stirling_identity_check,
    structured_apply,
    verify_one_parameter,
    x_matrix,
    x_power_entry_check,
)

x = X
x2 = X**2
x3 = X**3
q = binom_rising(2, X)


def _dense(seed, b, depth):
    return kron_chain(seed, b, depth).dense()


def _timed(num, label, limit, body):
    t0 = time.perf_counter()
    try:
        body()
        failure = None
    except AssertionError as exc:
        failure = exc
    elapsed = time.perf_counter() - t0
    status = "PASS" if failure is None and elapsed < limit else "FAIL"
    print(f"acceptance {num:02d} {label}: {status} ({elapsed:.2f}s, limit {limit:g}s)")
    if failure is not None:
        raise failure
    assert elapsed < limit, f"time limit exceeded: {elapsed:.2f}s >= {limit:g}s"


def test_acceptance_01_matrix_displays():
    def body():
        assert s_matrix(2, 2) == Matrix(
            [[1, 0, 0, 0], [x, 1, 0, 0], [x, 0, 1, 0], [x2, x, x, 1]]
        )
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
        assert s_base(3) == Matrix([[1, 0, 0], [x, 1, 0], [q, x, 1]])
        xx, xq, qq = x * x, x * q, q * q
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
        assert _dense(u_base, 2, 1) == Matrix([[1, -1], [1, 0]])
        assert _dense(u_base, 2, 2) == Matrix(
            [[1, -1, -1, 1], [1, 0, -1, 0], [1, -1, 0, 0], [1, 0, 0, 0]]
        )
        assert _dense(u_base, 2, 3) == Matrix(
            [
                [1, -1, -1, 1, -1, 1, 1, -1],
                [1, 0, -1, 0, -1, 0, 1, 0],
                [1, -1, 0, 0, -1, 1, 0, 0],
                [1, 0, 0, 0, -1, 0, 0, 0],
                [1, -1, -1, 1, 0, 0, 0, 0],
                [1, 0, -1, 0, 0, 0, 0, 0],
                [1, -1, 0, 0, 0, 0, 0, 0],
                [1, 0, 0, 0, 0, 0, 0, 0],
            ]
        )
        assert _dense(v_base, 2, 1) == Matrix([[0, -1], [1, 1]])
        assert _dense(v_base, 2, 2) == Matrix(
            [[0, 0, 0, 1], [0, 0, -1, -1], [0, -1, 0, -1], [1, 1, 1, 1]]
        )
        assert _dense(v_base, 2, 3) == Matrix(
            [
                [0, 0, 0, 0, 0, 0, 0, -1],
                [0, 0, 0, 0, 0, 0, 1, 1],
                [0, 0, 0, 0, 0, 1, 0, 1],
                [0, 0, 0, 0, -1, -1, -1, -1],
                [0, 0, 0, 1, 0, 0, 0, 1],
                [0, 0, -1, -1, 0, 0, -1, -1],
                [0, -1, 0, -1, 0, -1, 0, -1],
                [1, 1, 1, 1, 1, 1, 1, 1],
            ]
        )

    _timed(1, "matrix-displays", 1, body)


def test_acceptance_02_entry_formula_vs_recursion():
    def body():
        for b in (2, 3, 4, 5):
            for depth in (1, 2, 3):
                if b**depth > 125:
                    continue
                m = s_matrix(b, depth)
                for j in range(m.nrows):
                    for k in range(m.ncols):
                        assert m[j, k] == s_entry(b, depth, j, k), (b, depth, j, k)

    _timed(2, "entry-formula-vs-recursion", 10, body)


def test_acceptance_03_one_parameter_law():
    def body():
        s_x = s_matrix(2, 2)
        s_y = s_x.map(lambda p: p.compose(px=Y))
        assert (s_x * s_y)[3, 0] == (X + Y) ** 2
        for b in (2, 3, 4, 5):
            for depth in (1, 2, 3):
                if b**depth > 125:
                    continue
                ok, witness = verify_one_parameter(b, depth)
                assert ok, (b, depth, witness)

    _timed(3, "one-parameter-law", 60, body)


def test_acceptance_04_digit_binomial_expansion():
    def body():
        for b in (2, 3, 4):
            for n in range(b**3):
                lhs, rhs = digital_binomial_sides(n, b)
                assert lhs == rhs, (b, n)
                clhs, crhs = multiplicity_identity_sides(n, b)
                assert clhs == crhs, (b, n)
                assert clhs == lhs, (b, n)
                if b == 2:
                    assert lhs == (X + Y) ** digit_sum(n, 2), n

    _timed(4, "digit-binomial-expansion", 30, body)


def test_acceptance_05_convolution_identities():
    def body():
        # Gould's convolution is Chu-Vandermonde, the digital-binomial identity at one digit
        for n in range(9):
            lhs, rhs = digital_binomial_sides(n, max(n + 1, 2))
            assert lhs == rhs, n

    _timed(5, "convolution-identities", 5, body)


def test_acceptance_06_generator_suite():
    def body():
        for l in range(1, 13):
            for n in range(1, l + 1):
                assert stirling_identity_check(l, n), (l, n)
        for b in (2, 3, 4, 5, 6):
            assert x_power_entry_check(b) == (True, None), b
        for b in (2, 3, 4):
            for depth in (1, 2, 3):
                got = matrix_exp_nilpotent(x_matrix(b, depth))
                assert got == s_matrix(b, depth), (b, depth)

    _timed(6, "generator-suite", 30, body)


def test_acceptance_07_coefficient_suite():
    def body():
        for b in (2, 3, 4):
            rng = Random(1000 + b)
            vectors = [random_zero_sum(b, rng) for _ in range(20)]
            for depth in (1, 2, 3):
                eye = Matrix.identity(b**depth)
                assert _dense(m_base, b, depth) * s_int(b, depth) == eye, (b, depth)
                assert s_int(b, depth) * _dense(m_base, b, depth) == eye, (b, depth)
                for a in vectors:
                    c = coefficients_by_formula(b, depth, a)
                    assert c == coefficients_by_matrix(b, depth, a), (b, depth)
                    for n, cn in enumerate(c):
                        if (b - 1) in to_digits(n, b):
                            assert cn == 0, (b, depth, n)
                    f, _, product = factorization(b, depth, a)
                    assert f == product, (b, depth)
                    f = UniPoly(f_vector(b, depth, a))
                    for m in range(depth):
                        assert f.eval(1) == 0, (b, depth, m)
                        f = f.derivative()
            if b == 3:
                for a in vectors:
                    c = coefficients_by_formula(3, 3, a)
                    for n in range(27):
                        if 2 in to_digits(n, 3):
                            continue
                        assert base3_corollary_check(n, a, c[n]), n

    _timed(7, "coefficient-suite", 60, body)


def test_acceptance_08_equal_power_sums():
    def body():
        for b, m_degree in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)):
            sets = prouhet_partition(b, m_degree)
            flat = sorted(n for s in sets for n in s)
            assert flat == list(range(b ** (m_degree + 1))), (b, m_degree)
            for m, row in enumerate(power_sums(sets, m_degree)):
                assert len(set(row)) == 1, (b, m_degree, m, row)

    _timed(8, "equal-power-sums", 5, body)


def test_acceptance_09_group_relations():
    def body():
        for b in (2, 3, 4):
            assert eigen_poly_annihilation_check(b), b
            for depth in (1, 2, 3):
                assert power_relation_check(b, depth), (b, depth)
        for depth in (1, 2, 3):
            ok, witness = braid_check(2, depth)
            assert ok and witness is None, depth
            s, t = s_int(2, depth), _dense(t_base, 2, depth)
            sign = -1 if depth % 2 else 1
            target = Matrix.identity(2**depth, one=sign)
            assert (s * t * s).power(2) == target, depth
            assert (t * s * t).power(2) == target, depth
        for b in (3, 4):
            ok, witness = braid_check(b, 1)
            assert not ok and witness is not None, b
            i, j, lhs, rhs = witness
            assert lhs != rhs, b

    _timed(9, "group-relations", 10, body)


def test_acceptance_10_structured_apply_performance():
    def body():
        b, depth, dim = 2, 10, 1024
        rng = Random(20260815)
        vectors = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(dim)]
            for _ in range(100)
        ]

        t0 = time.perf_counter()
        chain = s_chain(b, depth, 1)
        fast = [structured_apply(chain, v) for v in vectors]
        structured_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        dense = s_chain(b, depth, 1).dense()
        build_time = time.perf_counter() - t0

        sample = vectors[:3]
        t0 = time.perf_counter()
        dense_results = [dense.matvec(v) for v in sample]
        per_matvec = (time.perf_counter() - t0) / len(sample)
        dense_time = build_time + per_matvec * len(vectors)

        # correctness on every vector against dominance sums, an independent
        # route that never touches the matrix or the chain
        dominated = [dominated_set(j, b) for j in range(dim)]
        for v, got in zip(vectors, fast):
            expect = [sum(v[k] for k in dom) for dom in dominated]
            assert got == expect
        for v, got in zip(sample, dense_results):
            assert got == structured_apply(chain, v)

        speedup = dense_time / structured_time
        assert speedup >= 5, f"speedup {speedup:.1f}x below 5x"
        print(
            f"    structured {structured_time:.2f}s vs dense est {dense_time:.2f}s "
            f"({speedup:.0f}x)"
        )

    _timed(10, "structured-apply-performance", 30, body)
