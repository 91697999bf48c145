"""The benchmark's three workloads.

Each workload turns a seed into inputs, lists one sweep of operations, puts
each operation's output in plain form, and checks a sweep's plain outputs
with the independent routes in ``checks``. Operations look library
functions up by module attribute at call time, so the tracer's wrappers see
every call.

Why these three (see README.md for the layer each one loads):
- symbolic-law: Polynomial arithmetic and dense Matrix products, nearly all
  of which multiply by zero;
- numeric-apply: structured_apply and Fraction arithmetic, with Polynomial
  and dense Matrix idle;
- cli-mix: the user path through `python -m sierpmat.cli`, start-up and
  JSON emission included.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from random import Random

import checks


def _terms_matrix(mat):
    return [[p.terms for p in row] for row in mat.rows]


class SymbolicLaw:
    """The one-parameter law at two bases, exp(X) == S, and both sides of
    the digital binomial expansion, all on polynomial-entry matrices.

    The seed picks the integer points the checks evaluate at and which
    arrangements of the digits (2,2,2,1,1,1) feed the expansion; every
    arrangement has 216 dominated terms and the same polynomial degrees.
    The two expansion batches are the cheapest operations, so the median
    operation is the one-parameter check at b=2, N=6, whose input does not
    depend on the seed.
    """

    name = "symbolic-law"
    uses_children = False
    ONE_PARAMETER = ((2, 6), (3, 4))
    EXP = (2, 6)
    DIGITS = (2, 2, 2, 1, 1, 1)

    def __init__(self, pkg, seed: int):
        self.pkg = pkg
        rng = Random(seed)
        self.points = [(rng.randint(2, 9), rng.randint(2, 9)) for _ in range(2)]
        arrangements = sorted(set(permutations(self.DIGITS)))
        picked = rng.sample(arrangements, 6)
        self.ns = [sum(d * 3**i for i, d in enumerate(ds)) for ds in picked]

    def ops(self, in_process: bool = True):
        s = self.pkg.sierpinski
        out = [
            (f"one-parameter b={b} N={n}", lambda b=b, n=n: s.verify_one_parameter(b, n))
            for b, n in self.ONE_PARAMETER
        ]

        def exp_op():
            b, n = self.EXP
            e = s.matrix_exp_nilpotent(s.x_matrix(b, n))
            target = s.s_matrix(b, n)
            return e, target, e == target

        out.append((f"exp b={self.EXP[0]} N={self.EXP[1]}", exp_op))
        for i in (0, 3):
            batch = self.ns[i : i + 3]
            out.append(
                (
                    f"digital-binomial n={','.join(map(str, batch))}",
                    lambda batch=batch: [s.digital_binomial_sides(n, 3) for n in batch],
                )
            )
        return out

    def plain(self, label: str, output):
        if label.startswith("one-parameter"):
            ok, witness = output
            return ok, witness is None
        if label.startswith("exp"):
            e, target, equal = output
            return _terms_matrix(e), _terms_matrix(target), equal
        return [(lhs.terms, rhs.terms) for lhs, rhs in output]

    def check(self, outputs: dict) -> list[str]:
        problems = []
        for b, n in self.ONE_PARAMETER:
            result = outputs[f"one-parameter b={b} N={n}"]
            problems += checks.check_one_parameter(b, n, result, self.points)
        b, n = self.EXP
        problems += checks.check_exp(b, n, *outputs[f"exp b={b} N={n}"], self.points)
        sides = [pair for label, v in outputs.items() if label.startswith("digital") for pair in v]
        if len(sides) != len(self.ns):
            problems.append(f"digital-binomial: {len(sides)} results for {len(self.ns)} inputs")
        for n, (lhs, rhs) in zip(self.ns, sides):
            problems += checks.check_digital_binomial(3, n, lhs, rhs, self.points)
        return problems

    def expected_counts(self, tracer, sweeps: int) -> list[str]:
        """Counts the make-up fixes. The one-parameter entry products are
        checked only while that check runs through dense products."""
        problems = []
        totals = tracer.totals()
        want = {
            "sierpinski.digital_binomial_sides": sweeps * len(self.ns),
            "sierpinski.verify_one_parameter": sweeps * len(self.ONE_PARAMETER),
            "sierpinski.matrix_exp_nilpotent": sweeps,
        }
        for name, calls in want.items():
            got = totals.get(name, {}).get("calls", 0)
            if got != calls:
                problems.append(f"trace: {name}.calls = {got}, expected {calls}")
        for b, n in self.ONE_PARAMETER:
            op = tracer.root.children[f"one-parameter b={b} N={n}"]
            mul = tracer.totals(op).get("matrix.Matrix.mul")
            if mul and mul.get("entry_products") != sweeps * b ** (3 * n):
                problems.append(
                    f"trace: one-parameter b={b} N={n} entry_products = "
                    f"{mul.get('entry_products')}, expected {sweeps} x {b ** (3 * n)}"
                )
        return problems


class NumericApply:
    """structured_apply of s_chain(b, N, x0) on seeded random Fraction
    vectors: three at 2^12 with x0 = 1 and five at 3^7 with x0 = 3/2, where
    denominators matter. The five smaller applies hold the median."""

    name = "numeric-apply"
    uses_children = False
    CASES = ((2, 12, Fraction(1), 3), (3, 7, Fraction(3, 2), 5))

    def __init__(self, pkg, seed: int):
        self.pkg = pkg
        rng = Random(seed)
        self.inputs = []  # (b, depth, x0, vector)
        for b, depth, x0, count in self.CASES:
            for _ in range(count):
                vec = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(b**depth)]
                self.inputs.append((b, depth, x0, vec))
        s = pkg.sierpinski
        self.chains = {(b, d, x0): s.s_chain(b, d, x0) for b, d, x0, _ in self.CASES}

    def ops(self, in_process: bool = True):
        s = self.pkg.sierpinski
        return [
            (
                f"apply b={b} N={d} x0={x0} #{i}",
                lambda key=(b, d, x0), vec=vec: s.structured_apply(self.chains[key], vec),
            )
            for i, (b, d, x0, vec) in enumerate(self.inputs)
        ]

    def plain(self, label: str, output):
        return [Fraction(v) for v in output]

    def check(self, outputs: dict) -> list[str]:
        problems = []
        for (label, got), (b, d, x0, vec) in zip(outputs.items(), self.inputs):
            problems += checks.check_apply(b, d, x0, vec, got)
        return problems

    def expected_counts(self, tracer, sweeps: int) -> list[str]:
        totals = tracer.totals().get("sierpinski.structured_apply", {})
        want_calls = sweeps * len(self.inputs)
        want_ops = sweeps * sum(d * b**d * b for b, d, _, _ in self.inputs)
        got = (totals.get("calls", 0), totals.get("coeff_ops", 0))
        if got != (want_calls, want_ops):
            return [f"trace: structured_apply (calls, coeff_ops) = {got}, expected {(want_calls, want_ops)}"]
        return []


class CliMix:
    """A fixed sequence of `python -m sierpmat.cli` runs, one at a time.

    The seed feeds `verify factorization --seed`, the zero-sum tuples of the
    two `ptm` runs and the --eval points. The eight matrix emissions and
    Prouhet checks cost start-up plus a few milliseconds, within about 10%
    of each other, and hold the median.
    """

    name = "cli-mix"
    uses_children = True

    def __init__(self, pkg, seed: int):
        self.pkg = pkg
        src = Path(pkg.__file__).resolve().parent.parent
        self.env = dict(os.environ, PYTHONPATH=str(src))
        rng = Random(seed)

        def zero_sum(b):
            head = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(b - 1)]
            return tuple(head + [-sum(head)])

        x_s = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        x_x = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        zero_sums = {3: zero_sum(3), 2: zero_sum(2)}
        # (argv, checker)
        self.runs = [
            (["verify", "factorization", "--base", "3", "--depth", "4", "--seed", str(seed)],
             lambda rc, out: checks.check_verify_report("factorization", 3, 4, rc, out)),
            (["verify", "relations", "--base", "2", "--depth", "6"],
             lambda rc, out: checks.check_verify_report("relations", 2, 6, rc, out)),
            (["verify", "relations", "--base", "3", "--depth", "4"],
             lambda rc, out: checks.check_verify_report("relations", 3, 4, rc, out)),
            (["verify", "prouhet", "--base", "3", "--depth", "6"],
             lambda rc, out: checks.check_verify_report("prouhet", 3, 6, rc, out)),
            (["verify", "prouhet", "--base", "2", "--depth", "10"],
             lambda rc, out: checks.check_verify_report("prouhet", 2, 10, rc, out)),
        ]
        for b, depth in ((3, 6), (2, 9)):
            a = zero_sums[b]
            self.runs.append(
                (["ptm", "--base", str(b), "--depth", str(depth),
                  "--zero-sum=" + ",".join(str(v) for v in a)],
                 lambda rc, out, b=b, depth=depth, a=a: checks.check_ptm_report(b, depth, a, rc, out))
            )
        for kind, b, depth, x0 in (
            ("S", 2, 6, None), ("S", 3, 3, x_s), ("U", 2, 6, None),
            ("U", 3, 3, None), ("X", 2, 6, None), ("X", 3, 3, x_x),
        ):
            argv = ["matrix", kind, "--base", str(b), "--depth", str(depth)]
            if x0 is not None:
                argv += ["--eval", str(x0)]
            self.runs.append(
                (argv, lambda rc, out, k=kind, b=b, d=depth, x0=x0:
                 checks.check_matrix_report(k, b, d, x0, rc, out))
            )

    def _subprocess(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "sierpmat.cli", *argv],
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=120,
        )
        return proc.returncode, proc.stdout.decode()

    def _in_process(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = self.pkg.cli.main(argv)
            except SystemExit as exc:  # argparse rejects argv by exiting
                rc = exc.code
        return rc, buf.getvalue()

    def ops(self, in_process: bool = False):
        run = self._in_process if in_process else self._subprocess
        return [(" ".join(argv), lambda argv=argv: run(argv)) for argv, _ in self.runs]

    def plain(self, label: str, output):
        return output

    def check(self, outputs: dict) -> list[str]:
        problems = []
        for (_, checker), (rc, out) in zip(self.runs, outputs.values()):
            problems += checker(rc, out)
        return problems

    def expected_counts(self, tracer, sweeps: int) -> list[str]:
        got = tracer.totals().get("cli.main", {}).get("calls", 0)
        if got != sweeps * len(self.runs):
            return [f"trace: cli.main.calls = {got}, expected {sweeps} x {len(self.runs)}"]
        return []


WORKLOADS = {w.name: w for w in (SymbolicLaw, NumericApply, CliMix)}
