"""The suites as library calls: the rows the CLI prints are the rows
suites.run returns, with base and depth added."""

import json

import pytest

from sierpmat import cli, suites
from sierpmat.exactpoly import Polynomial
from sierpmat.matrix import DEFAULT_CAP, Matrix


@pytest.mark.parametrize("b, depth", [(2, 3), (3, 2)])
@pytest.mark.parametrize("suite", list(suites.SUITES))
def test_suite_rows_are_cli_rows(capsys, suite, b, depth):
    rows = suites.SUITES[suite](b, depth, DEFAULT_CAP, 0)
    assert suites.run(suite, b, depth, DEFAULT_CAP, 0) == rows
    code = cli.main(["verify", suite, "--base", str(b), "--depth", str(depth)])
    printed = json.loads(capsys.readouterr().out)["checks"]
    assert code == 0
    assert [(c.pop("base"), c.pop("depth")) for c in printed] == [(b, depth)] * len(rows)
    assert printed == [
        {"name": r.name, "status": r.status, **({} if r.witness is None else {"witness": r.witness})}
        for r in rows
    ]


@pytest.mark.parametrize("b, depth", [(2, 6), (3, 4)])
def test_relations_raise_only_seeds_to_powers(monkeypatch, b, depth):
    # the power and square relations power b x b seeds, never b^N x b^N products
    shapes = []
    power = Matrix.power

    def recording_power(self, k):
        shapes.append((self.nrows, self.ncols))
        return power(self, k)

    monkeypatch.setattr(Matrix, "power", recording_power)
    rows = suites.relations(b, depth, DEFAULT_CAP, 0)
    assert {r.status for r in rows} <= {"pass", "expected-fail"}
    assert shapes and set(shapes) == {(b, b)}


def test_one_parameter_product_forms_no_polynomial_per_pair(monkeypatch):
    # each cell of S(x) S(y) is summed on integer numerators: no Polynomial
    # product or sum of nonzeros runs inside the matrix product (the one
    # zero * zero there is the product's matrix zero)
    depth, inside = [0], []
    mul = Matrix.__mul__

    def recording_mul(self, other):
        depth[0] += 1
        try:
            return mul(self, other)
        finally:
            depth[0] -= 1

    def recorded(name):
        op = getattr(Polynomial, name)

        def recording(self, other):
            if depth[0] and self and other:
                inside.append((name, self, other))
            return op(self, other)

        return recording

    monkeypatch.setattr(Matrix, "__mul__", recording_mul)
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(Polynomial, name, recorded(name))
    rows = suites.one_parameter(2, 4, DEFAULT_CAP, 0)
    assert [r.status for r in rows] == ["pass"]
    assert inside == []


def test_check_is_an_immutable_value():
    row = suites.Check("braid", "expected-fail", {"row": 0})
    assert row == suites.Check(name="braid", status="expected-fail", witness={"row": 0})
    assert row != suites.Check("braid", "expected-fail") and row != ("braid", "expected-fail")
    assert repr(row) == "Check(name='braid', status='expected-fail', witness={'row': 0})"
    assert hash(suites.Check("prouhet", "pass")) == hash(suites.Check("prouhet", "pass"))
    with pytest.raises(TypeError):
        hash(row)  # a witness dict is unhashable
    with pytest.raises(AttributeError):
        row.status = "pass"
