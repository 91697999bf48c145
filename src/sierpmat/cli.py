"""Command-line front end: matrix emission, identity verification sweeps,
coefficient factorization reports, and equal-power-sum partitions.

Output is machine-readable (json by default) and byte-deterministic for a
given command line. Rationals are serialized as "p/q" strings, symbolic
entries as polynomial strings; nothing is ever rounded.

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import perm
from random import Random
from typing import Optional, Sequence

from .digits import to_digits
from .exactpoly import Polynomial, over_common_denominator
from .matrix import DEFAULT_CAP, Matrix, checked_dim
from .ptm import (
    UniPoly,
    ZeroSumVector,
    base3_corollary_check,
    braid_check,
    braid_products,
    coefficients_by_matrix,
    eigen_poly_annihilation_check,
    factorization,
    m_matrix,
    power_relation_check,
    power_sums,
    prouhet_partition,
    random_zero_sum,
    square_relation_check,
    t_matrix,
    u_matrix,
    v_matrix,
)
from .sierpinski import (
    digital_binomial_sides,
    matrix_exp_nilpotent,
    multiplicity_identity_sides,
    s_matrix,
    s_numeric,
    stirling_identity_check,
    verify_one_parameter,
    x_matrix,
    x_power_entry_check,
)


def _rat_str(v) -> str:
    return str(Fraction(v))


def _entry_str(e) -> str:
    if isinstance(e, Polynomial):
        return str(e)
    return _rat_str(e)


def _emit_matrix(kind: str, args, x0: Optional[Fraction], mat: Matrix, symbolic: bool) -> str:
    cells = [[_entry_str(e) for e in row] for row in mat.rows]
    if args.format == "csv":
        return "\n".join(",".join(row) for row in cells)
    if args.format == "text":
        widths = [max(len(r[j]) for r in cells) for j in range(len(cells[0]))]
        return "\n".join(
            "  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells
        )
    payload = {
        "kind": kind,
        "base": args.base,
        "depth": args.depth,
        "dim": mat.nrows,
        "symbolic": symbolic,
    }
    if x0 is not None:
        payload["eval"] = _rat_str(x0)
    payload["entries"] = cells
    return json.dumps(payload, indent=2)


def cmd_matrix(args) -> int:
    kind, b, depth, cap = args.kind, args.base, args.depth, args.cap
    if args.eval is not None and kind not in ("S", "X"):
        raise ValueError("--eval applies only to S and X")
    x0 = None if args.eval is None else Fraction(args.eval)
    symbolic = x0 is None and kind in ("S", "X")
    # refuse before building: a symbolic matrix near the cap takes seconds
    if symbolic and args.format == "csv":
        raise ValueError("csv format requires numeric entries; pass --eval to evaluate")
    if kind == "S" and x0 is not None:
        mat = s_numeric(b, depth, x0, cap)
    else:
        # built per call, so a builder patched on this module is the one used
        builders = {
            "S": s_matrix, "X": x_matrix, "M": m_matrix,
            "T": t_matrix, "U": u_matrix, "V": v_matrix,
        }
        mat = builders[kind](b, depth, cap)
        if kind == "X" and x0 is not None:
            mat = mat.map(lambda p: p.eval(x0))
    print(_emit_matrix(kind, args, x0, mat, symbolic))
    return 0


def _check(name, args, ok, witness=None, expected_fail=False):
    """One report row. A failure that the theory predicts (expected_fail)
    still counts as passing the suite."""
    if ok:
        status = "pass"
    elif expected_fail:
        status = "expected-fail"
    else:
        status = "fail"
    row = {"name": name, "base": args.base, "depth": args.depth, "status": status}
    if witness is not None and status != "pass":
        row["witness"] = witness
    return row


def _first(name, args, witnesses):
    """Report row for a sweep. witnesses lazily yields one dict per failing
    case; the first one, if any, fails the check and becomes its witness."""
    witness = next(witnesses, None)
    return _check(name, args, witness is None, witness)


def _entry_witness(mismatch: Optional[tuple]) -> Optional[dict]:
    """Report form of a Matrix.first_mismatch tuple."""
    if mismatch is None:
        return None
    row, col, lhs, rhs = mismatch
    return {"row": row, "col": col, "lhs": _entry_str(lhs), "rhs": _entry_str(rhs)}


def _suite_one_parameter(args) -> list[dict]:
    ok, mismatch = verify_one_parameter(args.base, args.depth, args.cap)
    return [_check("one-parameter", args, ok, _entry_witness(mismatch))]


def _suite_digital_binomial(args) -> list[dict]:
    limit = checked_dim(args.base, args.depth, args.cap)

    def mismatches(sides):
        for n in range(limit):
            lhs, rhs = sides(n, args.base)
            if lhs != rhs:
                yield {"n": n, "lhs": str(lhs), "rhs": str(rhs)}

    return [
        _first("digital-binomial", args, mismatches(digital_binomial_sides)),
        _first("multiplicity-form", args, mismatches(multiplicity_identity_sides)),
    ]


def _suite_exp(args) -> list[dict]:
    x = x_matrix(args.base, args.depth, args.cap)
    s = s_matrix(args.base, args.depth, args.cap)
    e = matrix_exp_nilpotent(x)
    mismatch = e.first_mismatch(s)
    return [_check("exp-recovers-s", args, mismatch is None, _entry_witness(mismatch))]


def _suite_stirling(args) -> list[dict]:
    b = args.base
    stirling = (
        {"l": l, "n": n}
        for l in range(1, 13)
        for n in range(1, l + 1)
        if not stirling_identity_check(l, n)
    )
    x_power = ({"n": n} for n in range(1, b) if not x_power_entry_check(b, n))
    return [
        _first("stirling-identity", args, stirling),
        _first("x-power-entries", args, x_power),
    ]


def _suite_factorization(args) -> list[dict]:
    b, depth, cap = args.base, args.depth, args.cap
    rng = Random(args.seed)
    vectors = [random_zero_sum(b, rng) for _ in range(20)]
    # (F, c, P * prod(1 - x^(b^m))) per vector; witnesses run vector first, then n
    results = [factorization(b, depth, a, cap) for a in vectors]

    routes = (
        {"vector_index": i}
        for i, (_, c, _) in enumerate(results)
        if c != coefficients_by_matrix(b, depth, vectors[i], cap)
    )
    zeros = (
        {"vector_index": i, "n": n, "c": _rat_str(cn)}
        for i, (_, c, _) in enumerate(results)
        for n, cn in enumerate(c)
        if (b - 1) in to_digits(n, b) and cn != 0
    )
    factor = ({"vector_index": i} for i, (f, _, product) in enumerate(results) if f != product)

    def nonzero_derivatives(f):
        # F^(m)(1) = sum_n n(n-1)...(n-m+1) f_n, on F's coefficients cleared to integers
        nums, _ = over_common_denominator(f.coeffs, "coefficient")
        return (m for m in range(depth) if sum(perm(n, m) * v for n, v in enumerate(nums)))

    order = (
        {"vector_index": i, "derivative": m}
        for i, (f, _, _) in enumerate(results)
        for m in nonzero_derivatives(f)
    )
    rows = [
        _first("coefficient-routes", args, routes),
        _first("top-digit-zeros", args, zeros),
        _first("factorization", args, factor),
        _first("zero-order-at-one", args, order),
    ]
    if b == 3:
        corollary = (
            {"vector_index": i, "n": n}
            for i, (a, (_, c, _)) in enumerate(zip(vectors, results))
            for n, cn in enumerate(c)
            if 2 not in to_digits(n, 3) and not base3_corollary_check(n, a, cn)
        )
        rows.append(_first("base3-corollary", args, corollary))
    return rows


def _suite_relations(args) -> list[dict]:
    b, depth, cap = args.base, args.depth, args.cap
    rows = [
        _check("power-relation", args, power_relation_check(b, depth, cap)),
        _check("eigen-annihilation", args, eigen_poly_annihilation_check(b)),
    ]
    # S T S and T S T are formed once, for the braid and the square relation
    products = braid_products(b, depth, cap)
    braid_ok, mismatch = braid_check(b, depth, cap, products)
    if b == 2:
        rows.append(_check("braid", args, braid_ok))
        rows.append(_check("square-relation", args, square_relation_check(depth, cap, products)))
    else:
        # the braid relation must fail above base 2; report the witness
        detail = _entry_witness(mismatch) or {"reason": "braid relation unexpectedly holds"}
        rows.append(_check("braid", args, False, detail, expected_fail=not braid_ok))
    return rows


def _suite_prouhet(args) -> list[dict]:
    sets = prouhet_partition(args.base, args.depth, args.cap)
    table = power_sums(sets, args.depth)
    unequal = ({"degree": m, "sums": row} for m, row in enumerate(table) if len(set(row)) != 1)
    return [_first("prouhet", args, unequal)]


_SUITE_RUNNERS = {
    "one-parameter": _suite_one_parameter,
    "digital-binomial": _suite_digital_binomial,
    "exp": _suite_exp,
    "stirling": _suite_stirling,
    "factorization": _suite_factorization,
    "relations": _suite_relations,
    "prouhet": _suite_prouhet,
}
SUITES = (*_SUITE_RUNNERS, "all")


def cmd_verify(args) -> int:
    if args.format == "csv":
        raise ValueError("csv format is only available for matrix output")
    names = list(_SUITE_RUNNERS) if args.suite == "all" else [args.suite]
    # refuse before any suite runs; prouhet works at b^(N+1)
    checked_dim(args.base, args.depth + 1 if "prouhet" in names else args.depth, args.cap)
    checks = []
    for name in names:
        checks.extend(_SUITE_RUNNERS[name](args))
    all_pass = all(c["status"] in ("pass", "expected-fail") for c in checks)
    report = {
        "suite": args.suite,
        "base": args.base,
        "depth": args.depth,
        "seed": args.seed,
        "checks": checks,
        "all_pass": all_pass,
    }
    if args.format == "text":
        lines = [f"suite {args.suite} (base {args.base}, depth {args.depth})"]
        for c in checks:
            line = f"  {c['name']}: {c['status']}"
            if "witness" in c:
                line += f"  witness={json.dumps(c['witness'])}"
            lines.append(line)
        lines.append(f"all_pass: {str(all_pass).lower()}")
        print("\n".join(lines))
    else:
        print(json.dumps(report, indent=2))
    return 0 if all_pass else 1


def cmd_ptm(args) -> int:
    if args.format == "csv":
        raise ValueError("csv format is only available for matrix output")
    entries = tuple(Fraction(part.strip()) for part in args.zero_sum.split(","))
    a = ZeroSumVector(args.base, entries)
    f, c, product = factorization(args.base, args.depth, a, args.cap)
    dim = len(c)
    f_coeffs = list(f.coeffs) + [Fraction(0)] * (dim - len(f.coeffs))
    prod_coeffs = list(product.coeffs) + [Fraction(0)] * (dim - len(product.coeffs))
    equal = f == product
    report = {
        "base": args.base,
        "depth": args.depth,
        "zero_sum": [_rat_str(e) for e in a.entries],
        "f_coefficients": [_rat_str(v) for v in f_coeffs],
        "p_coefficients": [_rat_str(v) for v in c],
        "product_coefficients": [_rat_str(v) for v in prod_coeffs],
        "equal": equal,
    }
    if args.format == "text":
        lines = [
            f"F: {f}",
            f"P: {UniPoly(c)}",
            f"product: {product}",
            f"equal: {str(equal).lower()}",
        ]
        print("\n".join(lines))
    else:
        print(json.dumps(report, indent=2))
    return 0 if equal else 1


def _add_common(parser, with_eval=False, with_zero_sum=False):
    parser.add_argument("--base", type=int, default=2, help="digit base b >= 2")
    parser.add_argument("--depth", type=int, default=2, help="Kronecker depth N >= 1")
    parser.add_argument(
        "--cap", type=int, default=DEFAULT_CAP, help="largest allowed dimension b^N"
    )
    parser.add_argument(
        "--format", choices=("json", "csv", "text"), default="json", help="output format"
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for random vectors")
    if with_eval:
        parser.add_argument(
            "--eval", metavar="X0", help="evaluate x at this rational, e.g. 1 or 3/2"
        )
    if with_zero_sum:
        parser.add_argument(
            "--zero-sum",
            required=True,
            metavar="A",
            help="comma-separated rationals summing to 0, e.g. 1,1,-2",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sierpmat",
        description="Exact digit-matrix identities: construct, verify, factor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_matrix = sub.add_parser("matrix", help="emit a matrix")
    p_matrix.add_argument("kind", choices=("S", "X", "M", "T", "U", "V"))
    _add_common(p_matrix, with_eval=True)
    p_matrix.set_defaults(func=cmd_matrix)

    p_verify = sub.add_parser("verify", help="run an identity-verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_ptm = sub.add_parser("ptm", help="factor a coefficient polynomial")
    _add_common(p_ptm, with_zero_sum=True)
    p_ptm.set_defaults(func=cmd_ptm)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # the cap bounds b^depth, not the memory a suite's entries take
        print("error: out of memory; lower --base or --depth", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
