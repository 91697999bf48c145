import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sierpmat
from sierpmat import cli, ptm, sierpinski, suites
from sierpmat.exactpoly import X, Y
from sierpmat.ptm import UniPoly, factorization, power_sums, random_zero_sum
from sierpmat.sierpinski import digital_binomial_sides, multiplicity_identity_sides


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- matrix ------------------------------------------------------------------


def test_matrix_s22_json(capsys):
    code, out, err = run(capsys, "matrix", "S", "--base", "2", "--depth", "2")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["kind"] == "S"
    assert payload["dim"] == 4
    assert payload["symbolic"] is True
    assert payload["entries"] == [
        ["1", "0", "0", "0"],
        ["x", "1", "0", "0"],
        ["x", "0", "1", "0"],
        ["x^2", "x", "x", "1"],
    ]


def test_matrix_u1_json(capsys):
    code, out, _ = run(capsys, "matrix", "U", "--base", "2", "--depth", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == [["1", "-1"], ["1", "0"]]


def test_matrix_s_eval_json(capsys):
    code, out, _ = run(
        capsys, "matrix", "S", "--base", "3", "--depth", "1", "--eval", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["symbolic"] is False
    assert payload["eval"] == "1"
    assert payload["entries"] == [["1", "0", "0"], ["1", "1", "0"], ["1", "1", "1"]]


def test_matrix_eval_rational_point(capsys):
    for x0 in ("3/2", "15E-1"):
        code, out, _ = run(
            capsys, "matrix", "S", "--base", "2", "--depth", "1", "--eval", x0
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["entries"][1][0] == "3/2"


def test_matrix_csv_numeric(capsys):
    code, out, _ = run(
        capsys, "matrix", "M", "--base", "2", "--depth", "2", "--format", "csv"
    )
    assert code == 0
    assert out == "1,0,0,0\n-1,1,0,0\n-1,0,1,0\n1,-1,-1,1\n"


def test_matrix_csv_symbolic_rejected(capsys):
    code, out, err = run(
        capsys, "matrix", "S", "--base", "2", "--depth", "2", "--format", "csv"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "--eval" in err


@pytest.mark.parametrize("kind", ["S", "X"])
def test_matrix_csv_symbolic_refused_before_build(capsys, monkeypatch, kind):
    built = []
    monkeypatch.setattr(sierpinski, "s_base", lambda *a: built.append("S"))
    monkeypatch.setattr(sierpinski, "x_matrix", lambda *a: built.append("X"))
    code, out, _ = run(capsys, "matrix", kind, "--depth", "12", "--format", "csv")
    assert code == 2 and out == "" and built == []


@pytest.mark.parametrize("kind", ["M", "T", "U", "V"])
def test_matrix_eval_refused_for_integer_kinds(capsys, monkeypatch, kind):
    built = []
    for name in ("m_base", "t_base", "u_base", "v_base"):
        monkeypatch.setattr(ptm, name, lambda *a, name=name: built.append(name))
    code, out, err = run(capsys, "matrix", kind, "--base", "2", "--depth", "1", "--eval", "7/3")
    assert (code, out, built) == (2, "", [])
    assert err == "error: --eval applies only to S and X\n"


def test_matrix_csv_after_eval(capsys):
    code, out, _ = run(
        capsys,
        "matrix",
        "X",
        "--base",
        "3",
        "--depth",
        "1",
        "--eval",
        "1",
        "--format",
        "csv",
    )
    assert code == 0
    assert out == "0,0,0\n1,0,0\n1/2,1,0\n"


def test_matrix_text_format(capsys):
    code, out, _ = run(
        capsys, "matrix", "V", "--base", "2", "--depth", "1", "--format", "text"
    )
    assert code == 0
    assert out == "0  -1\n1   1\n"


def test_matrix_cap_exceeded(capsys):
    code, out, err = run(capsys, "matrix", "S", "--base", "2", "--depth", "13")
    assert code == 2
    assert "exceeds cap" in err


def test_matrix_huge_depth_hits_cap(capsys):
    code, out, err = run(capsys, "matrix", "S", "--depth", "10000000")
    assert code == 2 and out == ""
    assert err == "error: dimension 2^10000000 exceeds cap 4096\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("matrix", "S", "--eval", "1/0"),
        ("ptm", "--zero-sum=1/0,1"),
    ],
)
def test_zero_denominator_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: zero denominator in '1/0'\n"


def test_memory_error_is_one_line_usage_error(capsys, monkeypatch):
    def exhausted(b, depth, cap, seed):
        raise MemoryError

    monkeypatch.setitem(suites.SUITES, "exp", exhausted)
    code, out, err = run(capsys, "verify", "exp", "--base", "2", "--depth", "2")
    assert code == 2 and out == ""
    assert err == "error: out of memory; lower --base or --depth\n"


def test_matrix_cap_flag_raises_limit(capsys):
    code, out, _ = run(
        capsys, "matrix", "M", "--base", "2", "--depth", "5", "--cap", "32"
    )
    assert code == 0


def test_matrix_bad_base(capsys):
    code, _, err = run(capsys, "matrix", "S", "--base", "1", "--depth", "1")
    assert code == 2
    assert err.startswith("error:")


def test_matrix_bad_kind_usage_exit():
    with pytest.raises(SystemExit) as exc:
        cli.main(["matrix", "Z"])
    assert exc.value.code == 2


# -- verify ------------------------------------------------------------------


def test_verify_one_parameter(capsys):
    code, out, _ = run(capsys, "verify", "one-parameter", "--base", "3", "--depth", "2")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "one-parameter"
    assert report["all_pass"] is True
    assert report["checks"][0]["status"] == "pass"
    assert "witness" not in report["checks"][0]


def test_verify_relations_b3_expected_fail(capsys):
    code, out, _ = run(capsys, "verify", "relations", "--base", "3", "--depth", "1")
    assert code == 0
    report = json.loads(out)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["power-relation"]["status"] == "pass"
    assert by_name["eigen-annihilation"]["status"] == "pass"
    assert by_name["braid"]["status"] == "expected-fail"
    assert by_name["braid"]["witness"] == {"row": 0, "col": 2, "lhs": "0", "rhs": "1"}
    assert report["all_pass"] is True


def test_verify_relations_b2(capsys):
    code, out, _ = run(capsys, "verify", "relations", "--base", "2", "--depth", "3")
    assert code == 0
    report = json.loads(out)
    names = [c["name"] for c in report["checks"]]
    assert names == ["power-relation", "eigen-annihilation", "braid", "square-relation"]
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_all_b2(capsys):
    code, out, _ = run(capsys, "verify", "all", "--base", "2", "--depth", "3")
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] is True
    names = {c["name"] for c in report["checks"]}
    assert {
        "one-parameter",
        "digital-binomial",
        "multiplicity-form",
        "exp-recovers-s",
        "stirling-identity",
        "x-power-entries",
        "coefficient-routes",
        "top-digit-zeros",
        "factorization",
        "zero-order-at-one",
        "power-relation",
        "eigen-annihilation",
        "braid",
        "square-relation",
        "prouhet",
    } == names


def test_verify_all_b3_includes_corollary(capsys):
    code, out, _ = run(capsys, "verify", "all", "--base", "3", "--depth", "2")
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] is True
    names = {c["name"] for c in report["checks"]}
    assert "base3-corollary" in names
    assert "square-relation" not in names


def test_verify_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setitem(
        suites.SUITES,
        "exp",
        lambda b, depth, cap, seed: [suites.Check("exp-recovers-s", "fail")],
    )
    code, out, _ = run(capsys, "verify", "exp", "--base", "2", "--depth", "2")
    assert code == 1
    assert json.loads(out)["all_pass"] is False


def test_verify_witness_strings(capsys, monkeypatch):
    monkeypatch.setattr(sierpinski, "verify_one_parameter", lambda b, n, cap: (False, (1, 0, X, Y)))
    code, out, _ = run(capsys, "verify", "one-parameter", "--base", "2", "--depth", "1")
    assert code == 1
    witness = json.loads(out)["checks"][0]["witness"]
    assert witness == {"row": 1, "col": 0, "lhs": "x", "rhs": "y"}


@pytest.mark.parametrize(
    "b, depth, k", [(b, d, k) for b in (2, 3, 4) for d in range(1, 5) for k in range(d + 1)]
)
def test_zero_order_witness_matches_derivative_reference(capsys, monkeypatch, b, depth, k):
    """F gains (x - 1)^order * g, with g(1) > 0, on three vectors: order depth
    on vector 2 (the zero keeps its order), k on vector 5 and 0 on vector 12.
    The witness is the first vector, then the first m, at which the m-th
    derivative of F is nonzero at 1."""
    rng = Random(100 * b + 10 * depth + k)
    orders = {2: depth, 5: k, 12: 0}
    perturbed = []

    def fake_factorization(b, depth, a, cap):
        f, c, product = factorization(b, depth, a, cap)
        if len(perturbed) in orders:
            g = UniPoly([Fraction(rng.randint(1, 9), rng.randint(1, 4)), rng.randint(0, 9)])
            f = f + UniPoly([-1, 1]) ** orders[len(perturbed)] * g
        perturbed.append(f)
        return f, c, product

    def first_nonzero_derivative():
        for i, f in enumerate(perturbed):
            for m in range(depth):
                if f.eval(1) != 0:
                    return {"vector_index": i, "derivative": m}
                f = f.derivative()
        return None

    monkeypatch.setattr(ptm, "factorization", fake_factorization)
    code, out, _ = run(capsys, "verify", "factorization", "--base", str(b), "--depth", str(depth))
    assert code == 1 and len(perturbed) == 20
    row = next(c for c in json.loads(out)["checks"] if c["name"] == "zero-order-at-one")
    expected = {"vector_index": 5, "derivative": k}
    if k == depth:
        expected = {"vector_index": 12, "derivative": 0}
    assert first_nonzero_derivative() == expected
    assert row["status"] == "fail" and row["witness"] == expected


def test_verify_sweep_witnesses_are_first_failures(capsys, monkeypatch):
    """Each sweep fails at two cases; the report names the first, in
    row-major order (vector first, then n)."""
    rng = Random(0)
    vectors = [random_zero_sum(3, rng) for _ in range(20)]

    def shifted(sides, bad):
        def fake(n, b):
            lhs, rhs = sides(n, b)
            return (lhs, rhs + 1) if n in bad else (lhs, rhs)
        return fake

    def fake_factorization(b, depth, a, cap):
        f, c, product = factorization(b, depth, a, cap)
        idx = vectors.index(a)
        if idx in (2, 3):
            # a top-digit coefficient that should vanish: n = 8 = (22)_3, n = 2 = (02)_3
            c = list(c)
            c[8 if idx == 2 else 2] += Fraction(5, 2)
        if idx == 4:
            f = f + UniPoly([-1, 1])  # F(1) = 0 still, F'(1) = 1
        if idx == 6:
            f = f + UniPoly([1])
        return f, c, product

    def fake_power_sums(sets, max_degree):
        table = power_sums(sets, max_degree)
        table[1][2] += 1
        table[2][0] += 1
        return table

    monkeypatch.setattr(sierpinski, "digital_binomial_sides", shifted(digital_binomial_sides, {2, 5}))
    monkeypatch.setattr(
        sierpinski, "multiplicity_identity_sides", shifted(multiplicity_identity_sides, {1, 7})
    )
    monkeypatch.setattr(
        sierpinski, "stirling_identity_check", lambda l, n: (l, n) not in {(4, 2), (4, 3), (5, 1)}
    )
    monkeypatch.setattr(sierpinski, "x_power_entry_check", lambda b: (False, 2))
    monkeypatch.setattr(ptm, "factorization", fake_factorization)
    monkeypatch.setattr(
        ptm, "base3_corollary_check", lambda n, a, c_n: not (a in vectors[1:3] and n in (3, 4))
    )
    monkeypatch.setattr(ptm, "power_sums", fake_power_sums)

    code, out, _ = run(capsys, "verify", "all", "--base", "3", "--depth", "2")
    assert code == 1
    rows = {c["name"]: (c["status"], c.get("witness")) for c in json.loads(out)["checks"]}
    assert rows == {
        "one-parameter": ("pass", None),
        "digital-binomial": (
            "fail",
            {
                "n": 2,
                "lhs": "(1/2)*x^2 + x*y + (1/2)*y^2 + (1/2)*x + (1/2)*y",
                "rhs": "(1/2)*x^2 + x*y + (1/2)*y^2 + (1/2)*x + (1/2)*y + 1",
            },
        ),
        "multiplicity-form": ("fail", {"n": 1, "lhs": "x + y", "rhs": "x + y + 1"}),
        "exp-recovers-s": ("pass", None),
        "stirling-identity": ("fail", {"l": 4, "n": 2}),
        "x-power-entries": ("fail", {"n": 2}),
        "coefficient-routes": ("fail", {"vector_index": 2}),
        "top-digit-zeros": ("fail", {"vector_index": 2, "n": 8, "c": "5/2"}),
        "factorization": ("fail", {"vector_index": 4}),
        "zero-order-at-one": ("fail", {"vector_index": 4, "derivative": 1}),
        "base3-corollary": ("fail", {"vector_index": 1, "n": 3}),
        "power-relation": ("pass", None),
        "eigen-annihilation": ("pass", None),
        "braid": ("expected-fail", {"row": 0, "col": 5, "lhs": "0", "rhs": "-1"}),
        "prouhet": ("fail", {"degree": 1, "sums": [117, 117, 118]}),
    }


@pytest.mark.parametrize(
    "argv",
    [
        # prouhet needs b^(N+1) = 128
        ("verify", "all", "--base", "2", "--depth", "6", "--cap", "64"),
        ("verify", "digital-binomial", "--base", "2", "--depth", "13"),
    ],
)
def test_verify_checks_cap_before_any_suite(capsys, monkeypatch, argv):
    ran = []
    for name in suites.SUITES:
        monkeypatch.setitem(
            suites.SUITES, name, lambda b, depth, cap, seed, name=name: ran.append(name) or []
        )
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and ran == []
    assert "exceeds cap" in err


def test_verify_stirling_caps_base_not_depth(capsys):
    # stirling builds only b x b seeds, so depth past the cap is admitted
    code, deep, err = run(capsys, "verify", "stirling", "--base", "12", "--depth", "4")
    assert code == 0 and err == ""
    _, shallow, _ = run(capsys, "verify", "stirling", "--base", "12", "--depth", "1")
    rows = json.loads(shallow)["checks"]
    assert rows and json.loads(deep)["checks"] == [dict(r, depth=4) for r in rows]
    for suite, b, depth, message in [
        ("stirling", 5000, 1, "dimension 5000^1 exceeds cap 4096"),
        ("stirling", 12, 0, "depth must be >= 1, got 0"),
        ("exp", 12, 4, "dimension 12^4 exceeds cap 4096"),
        ("all", 12, 4, "dimension 12^5 exceeds cap 4096"),
    ]:
        argv = ("verify", suite, "--base", str(b), "--depth", str(depth))
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_verify_text_format(capsys):
    code, out, _ = run(
        capsys, "verify", "prouhet", "--base", "2", "--depth", "2", "--format", "text"
    )
    assert code == 0
    assert "prouhet: pass" in out
    assert "all_pass: true" in out


def test_verify_csv_rejected(capsys):
    code, _, err = run(
        capsys, "verify", "prouhet", "--base", "2", "--depth", "2", "--format", "csv"
    )
    assert code == 2
    assert err.startswith("error:")


def test_verify_deterministic(capsys):
    args = ("verify", "factorization", "--base", "3", "--depth", "2", "--seed", "11")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


# -- ptm ---------------------------------------------------------------------


def test_ptm_classic_binary(capsys):
    code, out, _ = run(
        capsys, "ptm", "--base", "2", "--zero-sum", "1,-1", "--depth", "3"
    )
    assert code == 0
    report = json.loads(out)
    assert report["equal"] is True
    assert report["f_coefficients"] == ["1", "-1", "-1", "1", "-1", "1", "1", "-1"]
    # P collapses to the constant 1
    assert report["p_coefficients"][0] == "1"
    assert all(v == "0" for v in report["p_coefficients"][1:])
    assert report["product_coefficients"] == report["f_coefficients"]


def test_ptm_base3(capsys):
    code, out, _ = run(
        capsys, "ptm", "--base", "3", "--zero-sum", "1,1,-2", "--depth", "2"
    )
    assert code == 0
    report = json.loads(out)
    assert report["equal"] is True
    assert report["zero_sum"] == ["1", "1", "-2"]


def test_ptm_rational_entries(capsys):
    code, out, _ = run(
        capsys, "ptm", "--base", "3", "--zero-sum", "1/2,1/3,-5/6", "--depth", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["zero_sum"] == ["1/2", "1/3", "-5/6"]


def test_ptm_nonzero_sum_error(capsys):
    code, out, err = run(capsys, "ptm", "--base", "3", "--zero-sum", "1,1,1")
    assert code == 2
    assert out == ""
    assert "entries sum to 3, expected 0" in err


def test_ptm_text_format(capsys):
    code, out, _ = run(
        capsys,
        "ptm",
        "--base",
        "2",
        "--zero-sum",
        "1,-1",
        "--depth",
        "2",
        "--format",
        "text",
    )
    assert code == 0
    assert "equal: true" in out


def test_ptm_requires_zero_sum_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["ptm", "--base", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [("matrix", "S", "--depth", "1"), ("ptm", "--zero-sum=1,-1")],
    ids=["matrix", "ptm"],
)
def test_seed_is_refused_where_nothing_reads_it(capsys, argv):
    # only verify draws random vectors, so only verify takes --seed
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, "verify", "prouhet", "--seed", "1")[0] == 0


# -- usage errors ------------------------------------------------------------


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--base", "1", "error: base must be >= 2, got 1\n"),
        ("--depth", "0", "error: depth must be >= 1, got 0\n"),
    ],
    ids=["base", "depth"],
)
@pytest.mark.parametrize(
    "command",
    [("matrix", "S"), ("matrix", "X"), ("verify", "stirling"), ("ptm", "--zero-sum=1,-1")],
    ids=["matrix-S", "matrix-X", "verify-stirling", "ptm"],
)
def test_bad_base_or_depth_is_usage_error(capsys, command, flag, value, message):
    code, out, err = run(capsys, *command, flag, value)
    assert code == 2 and out == ""
    assert err == message


_COMMANDS = st.sampled_from(
    [("matrix", kind) for kind in ("S", "X", "M", "T", "U", "V", "Z")]
    + [("verify", suite) for suite in (*suites.SUITES, "all", "nope")]
    + [("ptm", f"--zero-sum={a}") for a in ("1,-1", "1,1,-2", "1/0,1", "x", "", "1,,1")]
    + [("ptm",), ("bogus",)]
)
_OPTIONS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["--base", "--depth", "--seed"]),
            st.sampled_from(["-3", "0", "1", "2", "3", "x", ""]),
        ),
        st.tuples(st.just("--eval"), st.sampled_from(["1/0", "x", "", "-3", "3/2", "1"])),
        st.tuples(st.just("--format"), st.sampled_from(["json", "csv", "text", "xml"])),
    ),
    max_size=4,
)


@settings(max_examples=100, deadline=None)
@given(command=_COMMANDS, options=_OPTIONS)
def test_any_argv_exits_0_1_or_2(command, options):
    # --cap last keeps every accepted command small
    argv = [*command, *(f"{flag}={value}" for flag, value in options), "--cap", "27"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)


# -- module entry ------------------------------------------------------------


def _python(*args):
    src = str(Path(sierpmat.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_module_entry_has_clean_stderr():
    proc = _python("-m", "sierpmat.cli", "matrix", "S", "--depth", "1")
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["dim"] == 2


def test_closed_output_pipe_is_one_line_usage_error():
    # about 185 kB of JSON, more than a pipe holds: the reader takes one byte and closes
    src = str(Path(sierpmat.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "sierpmat.cli", "matrix", "S", "--depth", "7"],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert os.read(proc.stdout.fileno(), 1) == b"{"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert stderr == "error: output closed before it was all written\n"  # no traceback


@pytest.mark.parametrize(
    "argv",
    [
        ("matrix", "S", "--depth", "1", "--eval", "1e99999999999"),
        ("ptm", "--zero-sum=1e999999999999,-1e999999999999"),
    ],
)
def test_huge_exponent_is_refused_before_fraction_runs(argv):
    # Fraction("1e<k>") builds 10**k; an exponent past int()'s digit limit is refused first
    proc = _python("-m", "sierpmat.cli", *argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: exponent") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("matrix", "S", "--depth", "1", "--eval", "1e4300"),
        ("matrix", "X", "--base", "3", "--depth", "1", "--eval", "1e-4300", "--format", "text"),
        ("ptm", "--zero-sum=1e4300,-1e4300"),
        ("ptm", "--zero-sum=1e4300,-1e4300", "--format", "text"),
    ],
)
def test_entry_past_digit_limit_is_one_line_usage_error(argv):
    # 10**4300 has 4301 digits: the input is admitted, but no entry of that length prints
    proc = _python("-m", "sierpmat.cli", *argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: an entry has more than 4300 digits, the output's digit limit\n"


def test_cli_import_leaves_dataclasses_unloaded():
    # dataclasses pulls in inspect, ast and dis: start-up cost on every CLI run
    proc = _python(
        "-S",
        "-c",
        "import sys, sierpmat.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
    )
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


def test_import_leaves_cli_unloaded():
    proc = _python(
        "-c",
        "import sys, sierpmat; print(sorted({'sierpmat.cli', 'argparse'} & set(sys.modules)))",
    )
    assert proc.returncode == 0 and proc.stdout == "[]\n"
