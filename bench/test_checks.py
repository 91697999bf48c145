"""Tests for the benchmark's checkers and tracer: each checker accepts the
library's real output and rejects a corrupted copy.

Run from the repository root with `python3 -m pytest bench/test_checks.py`;
the tier-1 suite does not collect this directory.
"""

import contextlib
import copy
import io
import json
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import sierpmat  # noqa: E402
from sierpmat import cli, sierpinski  # noqa: E402
from tracing import Tracer  # noqa: E402

POINTS = [(2, 5), (3, 4)]


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def edit_json(text, fn):
    data = json.loads(text)
    fn(data)
    return json.dumps(data)


def terms_matrix(mat):
    return [[p.terms for p in row] for row in mat.rows]


def test_one_parameter_rejects_a_false_report():
    assert checks.check_one_parameter(2, 3, (True, True), POINTS) == []
    assert checks.check_one_parameter(2, 3, (False, True), POINTS)
    assert checks.check_one_parameter(2, 3, (True, False), POINTS)


def test_closed_forms_match_the_library_entries():
    assert checks.law_holds_at(3, 2, 2, 5) == []
    for j in range(9):
        for k in range(9):
            entry = sierpinski.s_entry(3, 2, j, k)
            assert checks.s_entry_at(3, 2, j, k, 2) == entry.eval(2)
            assert checks.s_entry_at(3, 2, j, k, Fraction(3, 2)) == entry.eval(Fraction(3, 2))
            assert checks.s_entry_poly(3, 2, j, k) == {ex: c for (ex, _), c in entry.terms.items()}


def test_exp_rejects_one_changed_coefficient_and_a_flipped_equality():
    e = terms_matrix(sierpinski.matrix_exp_nilpotent(sierpinski.x_matrix(2, 3)))
    s = terms_matrix(sierpinski.s_matrix(2, 3))
    assert checks.check_exp(2, 3, e, s, True, POINTS) == []
    bad = copy.deepcopy(e)
    bad[7][0][(3, 0)] += 1
    assert checks.check_exp(2, 3, bad, s, True, POINTS)
    assert checks.check_exp(2, 3, e, s, False, POINTS)


def test_digital_binomial_rejects_a_changed_side():
    n = 2 + 1 * 3 + 2 * 9
    lhs, rhs = (p.terms for p in sierpinski.digital_binomial_sides(n, 3))
    assert checks.check_digital_binomial(3, n, lhs, rhs, POINTS) == []
    for key in sorted(rhs)[:3]:
        bad = dict(rhs)
        bad[key] += Fraction(1, 2)
        assert checks.check_digital_binomial(3, n, lhs, bad, POINTS)
    bad = dict(lhs)
    bad[(0, 1)] = Fraction(-1)
    assert checks.check_digital_binomial(3, n, bad, rhs, POINTS)


@pytest.mark.parametrize("b, depth, x0", [(2, 6, Fraction(1)), (3, 3, Fraction(3, 2)), (4, 2, Fraction(2, 5))])
def test_apply_rejects_one_changed_entry(b, depth, x0):
    rng = Random(b * 100 + depth)
    vec = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(b**depth)]
    got = sierpinski.structured_apply(sierpinski.s_chain(b, depth, x0), vec)
    assert checks.check_apply(b, depth, x0, vec, got) == []
    for j in (0, len(got) // 2, len(got) - 1):
        bad = list(got)
        bad[j] += Fraction(1, 7)
        assert checks.check_apply(b, depth, x0, vec, bad)
    assert checks.check_apply(b, depth, x0, vec, got[:-1])


@pytest.mark.parametrize("suite, b, depth", [
    ("relations", 2, 3), ("relations", 3, 2), ("factorization", 3, 2),
    ("factorization", 2, 3), ("prouhet", 3, 2),
])
def test_verify_report_rejects_flips(suite, b, depth):
    rc, out = run_cli(["verify", suite, "--base", str(b), "--depth", str(depth)])
    assert checks.check_verify_report(suite, b, depth, rc, out) == []
    assert checks.check_verify_report(suite, b, depth, 1, out)

    def flip_all_pass(d):
        d["all_pass"] = False

    def fail_first(d):
        d["checks"][0]["status"] = "fail"

    def drop_last(d):
        d["checks"].pop()

    for edit in (flip_all_pass, fail_first, drop_last):
        assert checks.check_verify_report(suite, b, depth, rc, edit_json(out, edit))
    assert checks.check_verify_report(suite, b, depth, rc, out[:-2])


def test_braid_witness_is_recomputed():
    rc, out = run_cli(["verify", "relations", "--base", "3", "--depth", "2"])

    def shift_rhs(d):
        w = d["checks"][2]["witness"]
        w["rhs"] = str(Fraction(w["rhs"]) + 1)

    def move_witness(d):
        d["checks"][2]["witness"]["col"] = 0

    for edit in (shift_rhs, move_witness):
        assert checks.check_verify_report("relations", 3, 2, rc, edit_json(out, edit))


def test_prouhet_report_needs_equal_power_sums():
    rc, out = run_cli(["verify", "prouhet", "--base", "2", "--depth", "3"])
    assert checks.check_verify_report("prouhet", 2, 3, rc, out) == []
    # the same report cannot pass for a degree past the partition's reach
    sets = [[n for n in range(16) if checks.ptm_value(n, 2) == r] for r in range(2)]
    assert len({sum(n**4 for n in s) for s in sets}) == 2


def test_ptm_report_rejects_changed_coefficients():
    a = (Fraction(1, 2), Fraction(-3), Fraction(5, 2))
    rc, out = run_cli(["ptm", "--base", "3", "--depth", "3", "--zero-sum=1/2,-3,5/2"])
    assert checks.check_ptm_report(3, 3, a, rc, out) == []

    def bump(key, i):
        def edit(d):
            d[key][i] = str(Fraction(d[key][i]) + 1)
        return edit

    def unequal(d):
        d["equal"] = False

    for edit in (bump("f_coefficients", 5), bump("p_coefficients", 0), bump("p_coefficients", 26), unequal):
        assert checks.check_ptm_report(3, 3, a, rc, edit_json(out, edit))


@pytest.mark.parametrize("kind, b, depth, x0", [
    ("S", 2, 3, None), ("S", 3, 2, None), ("S", 3, 2, Fraction(3, 2)),
    ("X", 3, 2, None), ("X", 2, 3, Fraction(5, 3)), ("U", 2, 3, None), ("U", 3, 2, None),
])
def test_matrix_report_rejects_one_changed_entry(kind, b, depth, x0):
    argv = ["matrix", kind, "--base", str(b), "--depth", str(depth)]
    if x0 is not None:
        argv += ["--eval", str(x0)]
    rc, out = run_cli(argv)
    assert checks.check_matrix_report(kind, b, depth, x0, rc, out) == []
    symbolic = x0 is None and kind != "U"
    dim = b**depth
    for j, k in ((dim - 1, 0), (dim - 1, dim - 1), (0, dim - 1)):
        def edit(d, j=j, k=k):
            cell = d["entries"][j][k]
            d["entries"][j][k] = "x^9" if symbolic else str(Fraction(cell) + 1)

        assert checks.check_matrix_report(kind, b, depth, x0, rc, edit_json(out, edit))


@pytest.mark.parametrize("d", range(6))
def test_parse_poly_x_reads_the_library_format(d):
    from sierpmat.exactpoly import X, binom_rising

    p = binom_rising(d, X) * (X - 3) * Fraction(-2, 7)
    assert checks.parse_poly_x(str(p)) == {ex: c for (ex, _), c in p.terms.items()}


def test_tracer_counts_and_restores():
    originals = (sierpinski.verify_one_parameter, sierpmat.matrix.Matrix.__mul__, sierpmat.ptm.ptm)
    tracer = Tracer()
    tracer.install(sierpmat)
    try:
        assert sierpinski.verify_one_parameter is not originals[0]
        tracer.run("op", lambda: sierpinski.verify_one_parameter(2, 3))
        tracer.run("op2", lambda: sierpinski.structured_apply(sierpinski.s_chain(3, 2, 1), [1] * 9))
    finally:
        tracer.uninstall()
    assert (sierpinski.verify_one_parameter, sierpmat.matrix.Matrix.__mul__, sierpmat.ptm.ptm) == originals
    totals = tracer.totals()
    assert totals["matrix.Matrix.mul"]["entry_products"] == 8**3
    assert totals["sierpinski.verify_one_parameter"]["calls"] == 1
    assert totals["sierpinski.structured_apply"]["coeff_ops"] == 2 * 9 * 3
    for row in totals.values():
        assert 0 <= row["self_s"] <= row["total_s"] + 1e-9
