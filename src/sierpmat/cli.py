"""Command-line front end: it parses argv and formats what the library
returns. `matrix` emits one matrix, `verify` prints the Check rows of the
suites in sierpmat.suites with base and depth added to each, and `ptm`
reports one coefficient factorization.

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
from typing import Optional, Sequence

from . import ptm, sierpinski, suites
from .matrix import DEFAULT_CAP, Matrix


def _rational(text: str) -> Fraction:
    """Fraction(text), refusing first an exponent past int()'s digit limit
    (sys.get_int_max_str_digits(), 0 for none): Fraction("1e<k>") builds 10**k."""
    limit = sys.get_int_max_str_digits()
    _, e, exponent = text.lower().rpartition("e")
    try:
        huge = e and limit and abs(int(exponent)) > limit
    except ValueError:
        huge = False  # no decimal exponent: Fraction reports the text
    if huge:
        raise ValueError(f"exponent of {text.strip()!r} exceeds {limit} in magnitude")
    return Fraction(text)


def _emit_matrix(kind: str, args, x0: Optional[Fraction], mat: Matrix, symbolic: bool) -> str:
    cells = [[str(e) for e in row] for row in mat.rows]
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
        payload["eval"] = str(x0)
    payload["entries"] = cells
    return json.dumps(payload, indent=2)


def cmd_matrix(args) -> int:
    kind, b, depth, cap = args.kind, args.base, args.depth, args.cap
    if args.eval is not None and kind not in ("S", "X"):
        raise ValueError("--eval applies only to S and X")
    x0 = None if args.eval is None else _rational(args.eval)
    symbolic = x0 is None and kind in ("S", "X")
    # refuse before building: a symbolic matrix near the cap takes seconds
    if symbolic and args.format == "csv":
        raise ValueError("csv format requires numeric entries; pass --eval to evaluate")
    if kind == "S" and x0 is not None:
        mat = sierpinski.s_chain(b, depth, x0, cap).dense()
    else:
        # built per call, so a builder patched on its module is the one used
        builders = {
            "S": sierpinski.s_matrix, "X": sierpinski.x_matrix, "M": ptm.m_matrix,
            "T": ptm.t_matrix, "U": ptm.u_matrix, "V": ptm.v_matrix,
        }
        mat = builders[kind](b, depth, cap)
        if kind == "X" and x0 is not None:
            mat = mat.map(lambda p: p.eval(x0))
    print(_emit_matrix(kind, args, x0, mat, symbolic))
    return 0


def cmd_verify(args) -> int:
    if args.format == "csv":
        raise ValueError("csv format is only available for matrix output")
    checks = []
    for c in suites.run(args.suite, args.base, args.depth, args.cap, args.seed):
        row = {"name": c.name, "base": args.base, "depth": args.depth, "status": c.status}
        if c.witness is not None:
            row["witness"] = c.witness
        checks.append(row)
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
    entries = tuple(_rational(part) for part in args.zero_sum.split(","))
    a = ptm.ZeroSumVector(args.base, entries)
    f, c, product = ptm.factorization(args.base, args.depth, a, args.cap)
    dim = len(c)
    f_coeffs = list(f.coeffs) + [Fraction(0)] * (dim - len(f.coeffs))
    prod_coeffs = list(product.coeffs) + [Fraction(0)] * (dim - len(product.coeffs))
    equal = f == product
    report = {
        "base": args.base,
        "depth": args.depth,
        "zero_sum": [str(e) for e in a.entries],
        "f_coefficients": [str(v) for v in f_coeffs],
        "p_coefficients": [str(v) for v in c],
        "product_coefficients": [str(v) for v in prod_coeffs],
        "equal": equal,
    }
    if args.format == "text":
        lines = [
            f"F: {f}",
            f"P: {ptm.UniPoly(c)}",
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
    p_verify.add_argument("suite", choices=(*suites.SUITES, "all"))
    _add_common(p_verify)
    p_verify.add_argument("--seed", type=int, default=0, help="seed for random vectors")
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
