"""The suites as library calls: the rows the CLI prints are the rows
suites.run returns, with base and depth added."""

import json

import pytest

from sierpmat import cli, suites
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
