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
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Optional, Sequence

from .digits import to_digits
from .exactpoly import Polynomial
from .matrix import DEFAULT_CAP, Matrix, checked_dim
from .ptm import (
    UniPoly,
    ZeroSumVector,
    base3_corollary_check,
    braid_check,
    coefficients_by_matrix,
    eigen_poly_annihilation_check,
    factorization,
    m_matrix,
    power_relation_check,
    power_sums,
    prouhet_partition,
    random_zero_sum,
    s_int,
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

SUITES = (
    "one-parameter",
    "digital-binomial",
    "exp",
    "stirling",
    "factorization",
    "relations",
    "prouhet",
    "all",
)


@dataclass(frozen=True)
class RunConfig:
    base: int
    depth: int
    cap: int = DEFAULT_CAP
    fmt: str = "json"
    seed: int = 0
    x0: Optional[Fraction] = None

    def __post_init__(self):
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")


def _rat_str(v) -> str:
    return str(Fraction(v))


def _entry_str(e) -> str:
    if isinstance(e, Polynomial):
        return str(e)
    return _rat_str(e)


def _matrix_strings(mat: Matrix) -> list[list[str]]:
    return [[_entry_str(e) for e in row] for row in mat.rows]


def _emit_matrix(kind: str, cfg: RunConfig, mat: Matrix, symbolic: bool) -> str:
    cells = _matrix_strings(mat)
    if cfg.fmt == "csv":
        if symbolic:
            raise ValueError(
                "csv format requires numeric entries; pass --eval to evaluate"
            )
        return "\n".join(",".join(row) for row in cells)
    if cfg.fmt == "text":
        widths = [max(len(r[j]) for r in cells) for j in range(len(cells[0]))]
        return "\n".join(
            "  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells
        )
    payload = {
        "kind": kind,
        "base": cfg.base,
        "depth": cfg.depth,
        "dim": mat.nrows,
        "symbolic": symbolic,
    }
    if cfg.x0 is not None:
        payload["eval"] = _rat_str(cfg.x0)
    payload["entries"] = cells
    return json.dumps(payload, indent=2)


def cmd_matrix(args) -> int:
    cfg = _config_from(args)
    kind = args.kind
    if kind == "S":
        if cfg.x0 is not None:
            mat, symbolic = s_numeric(cfg.base, cfg.depth, cfg.x0, cfg.cap), False
        else:
            mat, symbolic = s_matrix(cfg.base, cfg.depth, cfg.cap), True
    elif kind == "X":
        mat = x_matrix(cfg.base, cfg.depth, cfg.cap)
        symbolic = cfg.x0 is None
        if cfg.x0 is not None:
            x0 = cfg.x0
            mat = mat.map(lambda p: p.eval(x0))
    elif kind == "M":
        mat, symbolic = m_matrix(cfg.base, cfg.depth, cfg.cap), False
    elif kind == "T":
        mat, symbolic = t_matrix(cfg.base, cfg.depth, cfg.cap), False
    elif kind == "U":
        mat, symbolic = u_matrix(cfg.base, cfg.depth, cfg.cap), False
    else:
        mat, symbolic = v_matrix(cfg.base, cfg.depth, cfg.cap), False
    print(_emit_matrix(kind, cfg, mat, symbolic))
    return 0


def _check(name, cfg, ok, witness=None, expected_fail=False):
    """One report row. A failure that the theory predicts (expected_fail)
    still counts as passing the suite."""
    if ok:
        status = "pass"
    elif expected_fail:
        status = "expected-fail"
    else:
        status = "fail"
    row = {"name": name, "base": cfg.base, "depth": cfg.depth, "status": status}
    if witness is not None and status != "pass":
        row["witness"] = witness
    return row


def _entry_witness(mismatch: Optional[tuple]) -> Optional[dict]:
    """Report form of a Matrix.first_mismatch tuple."""
    if mismatch is None:
        return None
    row, col, lhs, rhs = mismatch
    return {"row": row, "col": col, "lhs": _entry_str(lhs), "rhs": _entry_str(rhs)}


def _suite_one_parameter(cfg: RunConfig) -> list[dict]:
    ok, mismatch = verify_one_parameter(cfg.base, cfg.depth, cfg.cap)
    return [_check("one-parameter", cfg, ok, _entry_witness(mismatch))]


def _suite_digital_binomial(cfg: RunConfig) -> list[dict]:
    rows = []
    limit = checked_dim(cfg.base, cfg.depth, cfg.cap)
    for name, sides in (
        ("digital-binomial", digital_binomial_sides),
        ("multiplicity-form", multiplicity_identity_sides),
    ):
        ok, detail = True, None
        for n in range(limit):
            lhs, rhs = sides(n, cfg.base)
            if lhs != rhs:
                ok = False
                detail = {"n": n, "lhs": str(lhs), "rhs": str(rhs)}
                break
        rows.append(_check(name, cfg, ok, detail))
    return rows


def _suite_exp(cfg: RunConfig) -> list[dict]:
    x = x_matrix(cfg.base, cfg.depth, cfg.cap)
    s = s_matrix(cfg.base, cfg.depth, cfg.cap)
    e = matrix_exp_nilpotent(x, cfg.depth * (cfg.base - 1))
    mismatch = e.first_mismatch(s)
    return [_check("exp-recovers-s", cfg, mismatch is None, _entry_witness(mismatch))]


def _suite_stirling(cfg: RunConfig) -> list[dict]:
    rows = []
    ok, detail = True, None
    for l in range(1, 13):
        for n in range(1, l + 1):
            if not stirling_identity_check(l, n):
                ok, detail = False, {"l": l, "n": n}
                break
        if not ok:
            break
    rows.append(_check("stirling-identity", cfg, ok, detail))
    ok, detail = True, None
    for n in range(1, cfg.base):
        if not x_power_entry_check(cfg.base, n):
            ok, detail = False, {"n": n}
            break
    rows.append(_check("x-power-entries", cfg, ok, detail))
    return rows


def _suite_factorization(cfg: RunConfig) -> list[dict]:
    rng = Random(cfg.seed)
    vectors = [random_zero_sum(cfg.base, rng) for _ in range(20)]
    b, depth = cfg.base, cfg.depth

    routes_ok, routes_detail = True, None
    zeros_ok, zeros_detail = True, None
    factor_ok, factor_detail = True, None
    order_ok, order_detail = True, None
    base3_ok, base3_detail = True, None

    for idx, a in enumerate(vectors):
        f, c_formula, product = factorization(b, depth, a, cfg.cap)
        if routes_ok and c_formula != coefficients_by_matrix(b, depth, a, cfg.cap):
            routes_ok = False
            routes_detail = {"vector_index": idx}
        if zeros_ok:
            for n, c in enumerate(c_formula):
                if (b - 1) in to_digits(n, b).digits and c != 0:
                    zeros_ok = False
                    zeros_detail = {"vector_index": idx, "n": n, "c": _rat_str(c)}
                    break
        if factor_ok and f != product:
            factor_ok = False
            factor_detail = {"vector_index": idx}
        if order_ok:
            for m in range(depth):
                if f.eval(1) != 0:
                    order_ok = False
                    order_detail = {"vector_index": idx, "derivative": m}
                    break
                f = f.derivative()
        if b == 3 and base3_ok:
            for n in range(3**depth):
                if 2 in to_digits(n, 3).digits:
                    continue
                if not base3_corollary_check(n, a):
                    base3_ok = False
                    base3_detail = {"vector_index": idx, "n": n}
                    break

    rows = [
        _check("coefficient-routes", cfg, routes_ok, routes_detail),
        _check("top-digit-zeros", cfg, zeros_ok, zeros_detail),
        _check("factorization", cfg, factor_ok, factor_detail),
        _check("zero-order-at-one", cfg, order_ok, order_detail),
    ]
    if b == 3:
        rows.append(_check("base3-corollary", cfg, base3_ok, base3_detail))
    return rows


def _suite_relations(cfg: RunConfig) -> list[dict]:
    rows = [
        _check("power-relation", cfg, power_relation_check(cfg.base, cfg.depth, cfg.cap)),
        _check("eigen-annihilation", cfg, eigen_poly_annihilation_check(cfg.base)),
    ]
    braid_ok, mismatch = braid_check(cfg.base, cfg.depth, cfg.cap)
    if cfg.base == 2:
        rows.append(_check("braid", cfg, braid_ok))
        s = s_int(cfg.base, cfg.depth, cfg.cap)
        t = t_matrix(cfg.base, cfg.depth, cfg.cap)
        sign = -1 if cfg.depth % 2 else 1
        target = Matrix.identity(s.nrows, one=sign)
        q, r = s * t * s, t * s * t
        rows.append(
            _check("square-relation", cfg, q.power(2) == target and r.power(2) == target)
        )
    else:
        # the braid relation must fail above base 2; report the witness
        detail = _entry_witness(mismatch) or {"reason": "braid relation unexpectedly holds"}
        rows.append(_check("braid", cfg, False, detail, expected_fail=not braid_ok))
    return rows


def _suite_prouhet(cfg: RunConfig) -> list[dict]:
    sets = prouhet_partition(cfg.base, cfg.depth, cfg.cap)
    table = power_sums(sets, cfg.depth)
    ok, detail = True, None
    for m, row in enumerate(table):
        if len(set(row)) != 1:
            ok, detail = False, {"degree": m, "sums": row}
            break
    return [_check("prouhet", cfg, ok, detail)]


_SUITE_RUNNERS = {
    "one-parameter": _suite_one_parameter,
    "digital-binomial": _suite_digital_binomial,
    "exp": _suite_exp,
    "stirling": _suite_stirling,
    "factorization": _suite_factorization,
    "relations": _suite_relations,
    "prouhet": _suite_prouhet,
}


def cmd_verify(args) -> int:
    cfg = _config_from(args)
    if cfg.fmt == "csv":
        raise ValueError("csv format is only available for matrix output")
    names = list(_SUITE_RUNNERS) if args.suite == "all" else [args.suite]
    # refuse before any suite runs; prouhet works at b^(N+1)
    checked_dim(cfg.base, cfg.depth + 1 if "prouhet" in names else cfg.depth, cfg.cap)
    checks = []
    for name in names:
        checks.extend(_SUITE_RUNNERS[name](cfg))
    all_pass = all(c["status"] in ("pass", "expected-fail") for c in checks)
    report = {
        "suite": args.suite,
        "base": cfg.base,
        "depth": cfg.depth,
        "seed": cfg.seed,
        "checks": checks,
        "all_pass": all_pass,
    }
    if cfg.fmt == "text":
        lines = [f"suite {args.suite} (base {cfg.base}, depth {cfg.depth})"]
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
    cfg = _config_from(args)
    if cfg.fmt == "csv":
        raise ValueError("csv format is only available for matrix output")
    entries = tuple(Fraction(part.strip()) for part in args.zero_sum.split(","))
    a = ZeroSumVector(cfg.base, entries)
    f, c, product = factorization(cfg.base, cfg.depth, a, cfg.cap)
    dim = len(c)
    f_coeffs = list(f.coeffs) + [Fraction(0)] * (dim - len(f.coeffs))
    prod_coeffs = list(product.coeffs) + [Fraction(0)] * (dim - len(product.coeffs))
    equal = f == product
    report = {
        "base": cfg.base,
        "depth": cfg.depth,
        "zero_sum": [_rat_str(e) for e in a.entries],
        "f_coefficients": [_rat_str(v) for v in f_coeffs],
        "p_coefficients": [_rat_str(v) for v in c],
        "product_coefficients": [_rat_str(v) for v in prod_coeffs],
        "equal": equal,
    }
    if cfg.fmt == "text":
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


def _config_from(args) -> RunConfig:
    x0 = Fraction(args.eval) if getattr(args, "eval", None) is not None else None
    return RunConfig(
        base=args.base,
        depth=args.depth,
        cap=args.cap,
        fmt=args.format,
        seed=args.seed,
        x0=x0,
    )


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


if __name__ == "__main__":
    sys.exit(main())
