"""The verification suites: each one sweeps one of the paper's identities and
reports one Check row per identity, with the witness of its first failing
case.

Every suite takes (b, depth, cap, seed) and returns a list of Checks; SUITES
maps each suite name to its function, in the order `run("all", ...)` runs
them. Suites reach the library through module attributes
(sierpinski.s_matrix, never a name imported here), so a function replaced on
its own module is the one a suite calls.
"""

from __future__ import annotations

from math import perm
from random import Random
from typing import Iterator, Optional

from . import digits, exactpoly, matrix, ptm, sierpinski


class Check(matrix.Record):
    """One report row: status is "pass", "fail" or "expected-fail", and a
    row that does not pass may carry its witness, a dict of plain values.
    Immutable; equal when all three fields are equal, and hashable only
    without a witness."""

    __slots__ = ("name", "status", "witness")

    def __init__(self, name: str, status: str, witness: Optional[dict] = None):
        self._set(name, status, witness)


def _check(name: str, ok: bool, witness=None, expected_fail=False) -> Check:
    """A failure that the theory predicts (expected_fail) still counts as
    passing the suite."""
    if ok:
        return Check(name, "pass")
    return Check(name, "expected-fail" if expected_fail else "fail", witness)


def _first(name: str, witnesses: Iterator[dict]) -> Check:
    """Row for a sweep. witnesses lazily yields one dict per failing case;
    the first one, if any, fails the check and becomes its witness."""
    witness = next(witnesses, None)
    return _check(name, witness is None, witness)


def _entry_witness(mismatch: Optional[tuple]) -> Optional[dict]:
    """Report form of a Matrix.first_mismatch tuple."""
    if mismatch is None:
        return None
    row, col, lhs, rhs = mismatch
    return {"row": row, "col": col, "lhs": str(lhs), "rhs": str(rhs)}


def one_parameter(b: int, depth: int, cap: int, seed: int) -> list[Check]:
    ok, mismatch = sierpinski.verify_one_parameter(b, depth, cap)
    return [_check("one-parameter", ok, _entry_witness(mismatch))]


def digital_binomial(b: int, depth: int, cap: int, seed: int) -> list[Check]:
    limit = matrix.checked_dim(b, depth, cap)

    def mismatches(sides):
        for n in range(limit):
            lhs, rhs = sides(n, b)
            if lhs != rhs:
                yield {"n": n, "lhs": str(lhs), "rhs": str(rhs)}

    return [
        _first("digital-binomial", mismatches(sierpinski.digital_binomial_sides)),
        _first("multiplicity-form", mismatches(sierpinski.multiplicity_identity_sides)),
    ]


def exp(b: int, depth: int, cap: int, seed: int) -> list[Check]:
    x = sierpinski.x_matrix(b, depth, cap)
    s = sierpinski.s_matrix(b, depth, cap)
    mismatch = sierpinski.matrix_exp_nilpotent(x).first_mismatch(s)
    return [_check("exp-recovers-s", mismatch is None, _entry_witness(mismatch))]


def stirling(b: int, depth: int, cap: int, seed: int) -> list[Check]:
    identity = (
        {"l": l, "n": n}
        for l in range(1, 13)
        for n in range(1, l + 1)
        if not sierpinski.stirling_identity_check(l, n)
    )
    ok, n = sierpinski.x_power_entry_check(b)
    return [_first("stirling-identity", identity), _check("x-power-entries", ok, {"n": n})]


def factorization(b: int, depth: int, cap: int, seed: int) -> list[Check]:
    rng = Random(seed)
    vectors = [ptm.random_zero_sum(b, rng) for _ in range(20)]
    # (F, c, P * prod(1 - x^(b^m))) per vector; witnesses run vector first, then n
    results = [ptm.factorization(b, depth, a, cap) for a in vectors]

    routes = (
        {"vector_index": i}
        for i, (_, c, _) in enumerate(results)
        if c != ptm.coefficients_by_matrix(b, depth, vectors[i], cap)
    )
    zeros = (
        {"vector_index": i, "n": n, "c": str(cn)}
        for i, (_, c, _) in enumerate(results)
        for n, cn in enumerate(c)
        if (b - 1) in digits.to_digits(n, b) and cn != 0
    )
    factor = ({"vector_index": i} for i, (f, _, product) in enumerate(results) if f != product)

    def nonzero_derivatives(f):
        # F^(m)(1) = sum_n n(n-1)...(n-m+1) f_n, on F's coefficients cleared to integers
        nums, _ = exactpoly.over_common_denominator(f.coeffs, "coefficient")
        return (m for m in range(depth) if sum(perm(n, m) * v for n, v in enumerate(nums)))

    order = (
        {"vector_index": i, "derivative": m}
        for i, (f, _, _) in enumerate(results)
        for m in nonzero_derivatives(f)
    )
    rows = [
        _first("coefficient-routes", routes),
        _first("top-digit-zeros", zeros),
        _first("factorization", factor),
        _first("zero-order-at-one", order),
    ]
    if b == 3:
        corollary = (
            {"vector_index": i, "n": n}
            for i, (a, (_, c, _)) in enumerate(zip(vectors, results))
            for n, cn in enumerate(c)
            if 2 not in digits.to_digits(n, 3) and not ptm.base3_corollary_check(n, a, cn)
        )
        rows.append(_first("base3-corollary", corollary))
    return rows


def relations(b: int, depth: int, cap: int, seed: int) -> list[Check]:
    rows = [
        _check("power-relation", ptm.power_relation_check(b, depth, cap)),
        _check("eigen-annihilation", ptm.eigen_poly_annihilation_check(b)),
    ]
    braid_ok, mismatch = ptm.braid_check(b, depth, cap)
    if b == 2:
        rows.append(_check("braid", braid_ok))
        rows.append(_check("square-relation", ptm.square_relation_check(depth, cap)))
    else:
        # the braid relation must fail above base 2; report the witness
        detail = _entry_witness(mismatch) or {"reason": "braid relation unexpectedly holds"}
        rows.append(_check("braid", False, detail, expected_fail=not braid_ok))
    return rows


def prouhet(b: int, depth: int, cap: int, seed: int) -> list[Check]:
    sets = ptm.prouhet_partition(b, depth, cap)
    table = ptm.power_sums(sets, depth)
    unequal = ({"degree": m, "sums": row} for m, row in enumerate(table) if len(set(row)) != 1)
    return [_first("prouhet", unequal)]


SUITES = {
    "one-parameter": one_parameter,
    "digital-binomial": digital_binomial,
    "exp": exp,
    "stirling": stirling,
    "factorization": factorization,
    "relations": relations,
    "prouhet": prouhet,
}


def run(suite: str, b: int, depth: int, cap: int, seed: int) -> list[Check]:
    """The rows of one suite, or of every suite in SUITES order for "all".

    The cap is checked once, before any suite runs: b^depth, or b^(depth+1)
    when prouhet runs, since it partitions that range. stirling alone builds
    only b x b seeds, so the cap bounds b and depth is only validated.
    """
    names = list(SUITES) if suite == "all" else [suite]
    if suite == "stirling":
        digits._check_base(b)
        digits._check_depth(depth)
        matrix.checked_dim(b, 1, cap)
    else:
        matrix.checked_dim(b, depth + 1 if "prouhet" in names else depth, cap)
    return [row for name in names for row in SUITES[name](b, depth, cap, seed)]
