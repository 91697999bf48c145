import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sierpmat
from sierpmat import cli
from sierpmat.exactpoly import X, Y


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
    code, out, _ = run(
        capsys, "matrix", "S", "--base", "2", "--depth", "1", "--eval", "3/2"
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
    assert err.startswith("error:") and err.count("\n") == 1


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
        cli._SUITE_RUNNERS,
        "exp",
        lambda cfg: [{"name": "exp-recovers-s", "base": cfg.base, "depth": cfg.depth, "status": "fail"}],
    )
    code, out, _ = run(capsys, "verify", "exp", "--base", "2", "--depth", "2")
    assert code == 1
    assert json.loads(out)["all_pass"] is False


def test_verify_witness_strings(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_one_parameter", lambda b, n, cap: (False, (1, 0, X, Y)))
    code, out, _ = run(capsys, "verify", "one-parameter", "--base", "2", "--depth", "1")
    assert code == 1
    witness = json.loads(out)["checks"][0]["witness"]
    assert witness == {"row": 1, "col": 0, "lhs": "x", "rhs": "y"}


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
    for name in cli._SUITE_RUNNERS:
        monkeypatch.setitem(cli._SUITE_RUNNERS, name, lambda cfg, name=name: ran.append(name) or [])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and ran == []
    assert "exceeds cap" in err


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


# -- config ------------------------------------------------------------------


def test_run_config_validation():
    with pytest.raises(ValueError):
        cli.RunConfig(base=1, depth=1)
    with pytest.raises(ValueError):
        cli.RunConfig(base=2, depth=0)


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


def test_import_leaves_cli_unloaded():
    proc = _python(
        "-c",
        "import sys, sierpmat; print(sorted({'sierpmat.cli', 'argparse'} & set(sys.modules)))",
    )
    assert proc.returncode == 0 and proc.stdout == "[]\n"
