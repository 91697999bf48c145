"""Independent routes for checking sierpmat's outputs.

Nothing here imports sierpmat. Every expected value comes from a closed form
over base-b digits (``math.comb`` or a rising factorial), or from a sum over
the digit-dominance order that this file enumerates itself, so the checks
share no code path with the library's Kronecker recursion, dense products or
structured apply.

Checkers take outputs in plain form (ints, Fractions, dicts of polynomial
terms, CLI stdout text) and return a list of problems; an empty list means
the output is correct.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm, prod

# ---------------------------------------------------------------- digits


def digits_of(n: int, b: int, width: int) -> list[int]:
    """The base-b digits of n, least significant first, padded to width."""
    out = []
    for _ in range(width):
        n, d = divmod(n, b)
        out.append(d)
    if n:
        raise ValueError("width too small for n")
    return out


def digit_width(n: int, b: int) -> int:
    width = 1
    while n >= b**width:
        width += 1
    return width


def dominates(k: int, j: int, b: int, width: int) -> bool:
    """True iff every base-b digit of k is at most the matching digit of j."""
    return all(x <= y for x, y in zip(digits_of(k, b, width), digits_of(j, b, width)))


def below(j: int, b: int, width: int) -> list[int]:
    """Every k whose digits sit at or below j's, by direct enumeration."""
    dj = digits_of(j, b, width)
    return [
        sum(t * b**i for i, t in enumerate(combo))
        for combo in product(*(range(d + 1) for d in dj))
    ]


def ptm_value(n: int, b: int) -> int:
    """Generalized Thue-Morse value: base-b digit sum of n, mod b."""
    total = 0
    while n:
        n, d = divmod(n, b)
        total += d
    return total % b


# ---------------------------------------------------------------- closed forms


def rising(d: int, x) -> Fraction:
    """x (x+1) ... (x+d-1) / d!, the rising binomial at a rational x."""
    x = Fraction(x)
    return prod((x + i for i in range(d)), start=Fraction(1)) / factorial(d)


def rising_int(d: int, x: int) -> int:
    """The rising binomial at an integer x >= 1, as C(x+d-1, d)."""
    return comb(x + d - 1, d)


def s_entry_at(b: int, width: int, j: int, k: int, x) -> Fraction:
    """Entry (j, k) of S(x): the product of rising binomials of the digit
    differences when k's digits sit below j's, else 0."""
    dj, dk = digits_of(j, b, width), digits_of(k, b, width)
    if any(a < c for a, c in zip(dj, dk)):
        return Fraction(0)
    if isinstance(x, int):
        return Fraction(prod(rising_int(a - c, x) for a, c in zip(dj, dk)))
    return prod((rising(a - c, x) for a, c in zip(dj, dk)), start=Fraction(1))


def x_entry_at(b: int, width: int, j: int, k: int, x) -> Fraction:
    """Entry (j, k) of the generator X(x): x / (d_i(j) - d_i(k)) when j and k
    differ in exactly one digit i and j's digit is the larger, else 0."""
    diffs = [
        (a, c) for a, c in zip(digits_of(j, b, width), digits_of(k, b, width)) if a != c
    ]
    if len(diffs) != 1 or diffs[0][0] < diffs[0][1]:
        return Fraction(0)
    a, c = diffs[0]
    return Fraction(x) / (a - c)


def u_entry(b: int, width: int, j: int, k: int) -> int:
    """Entry (j, k) of U = S T as a product over digits of the seed
    S_1 T_1, whose row r is 1 in column 0, -1 in column r+1, else 0."""
    out = 1
    for a, c in zip(digits_of(j, b, width), digits_of(k, b, width)):
        out *= 1 if c == 0 else (-1 if c == a + 1 else 0)
    return out


def s_int_entry(b: int, width: int, j: int, k: int) -> int:
    """The 0/1 dominance matrix S(1)."""
    return 1 if dominates(k, j, b, width) else 0


def t_entry(b: int, width: int, j: int, k: int) -> int:
    """T = M transposed, M the Kronecker power of the bidiagonal seed with 1
    on the diagonal and -1 just below it."""
    out = 1
    for a, c in zip(digits_of(k, b, width), digits_of(j, b, width)):
        out *= 1 if a == c else (-1 if a == c + 1 else 0)
    return out


def triple_product_entry(f, g, h, dim: int, row: int, col: int) -> int:
    """(F G H)[row, col] from entry functions, by the plain double sum."""
    return sum(
        f(row, k) * g(k, m) * h(m, col)
        for k in range(dim)
        if f(row, k)
        for m in range(dim)
        if g(k, m)
    )


def rising_poly(d: int) -> dict[int, Fraction]:
    """Coefficients of x (x+1) ... (x+d-1) / d! in x."""
    coeffs = {0: Fraction(1)}
    for i in range(d):
        nxt: dict[int, Fraction] = {}
        for e, c in coeffs.items():
            nxt[e + 1] = nxt.get(e + 1, 0) + c
            nxt[e] = nxt.get(e, 0) + c * i
        coeffs = nxt
    return {e: c / factorial(d) for e, c in coeffs.items() if c}


def s_entry_poly(b: int, width: int, j: int, k: int) -> dict[int, Fraction]:
    """Entry (j, k) of the symbolic S(x) as {exponent: coefficient}."""
    dj, dk = digits_of(j, b, width), digits_of(k, b, width)
    if any(a < c for a, c in zip(dj, dk)):
        return {}
    out = {0: Fraction(1)}
    for a, c in zip(dj, dk):
        factor = rising_poly(a - c)
        nxt: dict[int, Fraction] = {}
        for e1, c1 in out.items():
            for e2, c2 in factor.items():
                nxt[e1 + e2] = nxt.get(e1 + e2, 0) + c1 * c2
        out = nxt
    return {e: c for e, c in out.items() if c}


def eval_terms(terms: dict, x, y=0) -> Fraction:
    """Evaluate {(ex, ey): c} at (x, y)."""
    x, y = Fraction(x), Fraction(y)
    return sum((c * x**ex * y**ey for (ex, ey), c in terms.items()), Fraction(0))


# ---------------------------------------------------------------- symbolic-law


def law_holds_at(b: int, depth: int, x0: int, y0: int) -> list[str]:
    """S(x0) S(y0) == S(x0 + y0) at integer points, entry by entry, with
    S from math.comb and the product as a sum over the dominance interval
    k <= m <= j."""
    dim = b**depth
    problems = []
    sx = {}
    for j in range(dim):
        for k in below(j, b, depth):
            sx[j, k] = (
                s_entry_at(b, depth, j, k, x0),
                s_entry_at(b, depth, j, k, y0),
                s_entry_at(b, depth, j, k, x0 + y0),
            )
    for (j, k), (_, _, target) in sx.items():
        total = sum(
            sx[j, m][0] * sx[m, k][1]
            for m in below(j, b, depth)
            if dominates(k, m, b, depth)
        )
        if total != target:
            problems.append(f"S({x0})S({y0}) != S({x0 + y0}) at ({j},{k})")
            break
    return problems


def check_one_parameter(b: int, depth: int, result, points) -> list[str]:
    """result is (ok, witness_is_none) from verify_one_parameter(b, depth)."""
    problems = []
    for x0, y0 in points:
        problems += law_holds_at(b, depth, x0, y0)
    ok, no_witness = result
    if problems:
        return problems
    if ok is not True or no_witness is not True:
        problems.append(
            f"one-parameter b={b} N={depth}: reported {result}, law holds at {points}"
        )
    return problems


def check_exp(b: int, depth: int, exp_terms, s_terms, equal, points) -> list[str]:
    """exp(X) and S(x) as term dicts against the math.comb closed form at
    each integer point, plus the reported equality."""
    problems = []
    dim = b**depth
    for label, mat in (("exp(X)", exp_terms), ("S", s_terms)):
        if len(mat) != dim or any(len(row) != dim for row in mat):
            problems.append(f"{label}: shape is not {dim}x{dim}")
            continue
        for x0, _ in points:
            bad = next(
                (
                    (j, k)
                    for j in range(dim)
                    for k in range(dim)
                    if eval_terms(mat[j][k], x0) != s_entry_at(b, depth, j, k, x0)
                ),
                None,
            )
            if bad is not None:
                problems.append(f"{label} at x={x0}: entry {bad} off the closed form")
                break
    truth = exp_terms == s_terms
    if equal is not True or truth is not True:
        problems.append(f"exp(X) == S reported {equal}, entrywise {truth}")
    return problems


def check_digital_binomial(b: int, n: int, lhs: dict, rhs: dict, points) -> list[str]:
    """Both sides of the digit-product expansion of n at integer points."""
    width = digit_width(n, b)
    dn = digits_of(n, b, width)
    problems = []
    for x0, y0 in points:
        want_lhs = prod(rising_int(d, x0 + y0) for d in dn)
        want_rhs = sum(
            prod(
                rising_int(dm, x0) * rising_int(d - dm, y0)
                for dm, d in zip(digits_of(m, b, width), dn)
            )
            for m in below(n, b, width)
        )
        if eval_terms(lhs, x0, y0) != want_lhs:
            problems.append(f"digital-binomial n={n}: lhs at ({x0},{y0})")
        if eval_terms(rhs, x0, y0) != want_rhs:
            problems.append(f"digital-binomial n={n}: rhs at ({x0},{y0})")
    if lhs != rhs:
        problems.append(f"digital-binomial n={n}: sides differ")
    return problems


# ---------------------------------------------------------------- numeric-apply


def closed_form_apply(b: int, depth: int, x0, vec) -> list[Fraction]:
    """S(x0) vec, entry j summed over every k whose digits sit below j's,
    with the digit-product closed form as coefficient. Runs on integers:
    the coefficients and the vector are scaled to integers once and the
    result divided once."""
    r = [rising(d, x0) for d in range(b)]
    coef_den = lcm(*(c.denominator for c in r))
    rint = [(c * coef_den).numerator for c in r]
    vec_den = lcm(*(Fraction(v).denominator for v in vec))
    vint = [(Fraction(v) * vec_den).numerator for v in vec]
    scale = vec_den * coef_den**depth
    out = []
    for j in range(b**depth):
        pairs = [(0, 1)]
        weight, rest = 1, j
        for _ in range(depth):
            rest, dj = divmod(rest, b)
            pairs = [
                (k + t * weight, c * rint[dj - t]) for k, c in pairs for t in range(dj + 1)
            ]
            weight *= b
        out.append(Fraction(sum(c * vint[k] for k, c in pairs), scale))
    return out


def check_apply(b: int, depth: int, x0, vec, got) -> list[str]:
    if len(got) != len(vec):
        return [f"apply b={b} N={depth}: length {len(got)}, expected {len(vec)}"]
    want = closed_form_apply(b, depth, x0, vec)
    bad = next((j for j, (g, w) in enumerate(zip(got, want)) if g != w), None)
    if bad is None:
        return []
    return [f"apply b={b} N={depth} x0={x0}: entry {bad} is {got[bad]}, expected {want[bad]}"]


# ---------------------------------------------------------------- cli-mix

_TERM = re.compile(r"^(?:\((?P<frac>[^)]+)\)\*|(?P<int>\d+)\*)?x(?:\^(?P<exp>\d+))?$")


def parse_poly_x(text: str) -> dict[int, Fraction]:
    """Parse a univariate polynomial in the CLI's string form, e.g.
    '(1/2)*x^2 + (1/2)*x' or '-x + 3', into {exponent: coefficient}."""
    out: dict[int, Fraction] = {}
    if text == "0":
        return out
    for raw in text.replace(" - ", " + -").split(" + "):
        sign = -1 if raw.startswith("-") else 1
        body = raw[1:] if sign < 0 else raw
        if "x" not in body:
            exp, mag = 0, Fraction(body)
        else:
            m = _TERM.match(body)
            if m is None:
                raise ValueError(f"cannot parse term {raw!r} of {text!r}")
            mag = Fraction(m["frac"] or m["int"] or 1)
            exp = int(m["exp"] or 1)
        if exp in out or mag == 0:
            raise ValueError(f"repeated or zero term in {text!r}")
        out[exp] = sign * mag
    return out


def _load(rc: int, text: str, problems: list[str], label: str):
    if rc != 0:
        problems.append(f"{label}: exit code {rc}, expected 0")
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        problems.append(f"{label}: stdout is not JSON")
        return None


def expected_check_names(suite: str, b: int) -> list[str]:
    names = {
        "factorization": [
            "coefficient-routes",
            "top-digit-zeros",
            "factorization",
            "zero-order-at-one",
        ]
        + (["base3-corollary"] if b == 3 else []),
        "relations": ["power-relation", "eigen-annihilation", "braid"]
        + (["square-relation"] if b == 2 else []),
        "prouhet": ["prouhet"],
    }
    return names[suite]


def check_verify_report(suite: str, b: int, depth: int, rc: int, text: str) -> list[str]:
    """A `verify` report: exit code, every check present with the status the
    theory predicts, and all_pass consistent with both. The braid witness
    above base 2 and the Prouhet power sums are recomputed independently."""
    label = f"verify {suite} b={b} N={depth}"
    problems: list[str] = []
    report = _load(rc, text, problems, label)
    if report is None:
        return problems
    checks = report.get("checks", [])
    if [c.get("name") for c in checks] != expected_check_names(suite, b):
        problems.append(f"{label}: checks {[c.get('name') for c in checks]}")
    for c in checks:
        want = "expected-fail" if (c.get("name") == "braid" and b > 2) else "pass"
        if c.get("status") != want:
            problems.append(f"{label}: {c.get('name')} is {c.get('status')}, expected {want}")
    statuses_ok = all(c.get("status") in ("pass", "expected-fail") for c in checks)
    if report.get("all_pass") is not True or statuses_ok is not True:
        problems.append(f"{label}: all_pass {report.get('all_pass')}, statuses ok {statuses_ok}")
    if (report.get("suite"), report.get("base"), report.get("depth")) != (suite, b, depth):
        problems.append(f"{label}: header does not match the command")
    if suite == "relations" and b > 2:
        problems += _check_braid_witness(b, depth, checks, label)
    if suite == "prouhet":
        sets = [[n for n in range(b ** (depth + 1)) if ptm_value(n, b) == r] for r in range(b)]
        for m in range(depth + 1):
            if len({sum(n**m for n in s) for s in sets}) != 1:
                problems.append(f"{label}: power sums of degree {m} differ")
    return problems


def _check_braid_witness(b, depth, checks, label) -> list[str]:
    braid = next((c for c in checks if c.get("name") == "braid"), {})
    w = braid.get("witness")
    if not w:
        return [f"{label}: braid has no witness"]
    dim = b**depth
    s = lambda j, k: s_int_entry(b, depth, j, k)  # noqa: E731
    t = lambda j, k: t_entry(b, depth, j, k)  # noqa: E731
    sts = triple_product_entry(s, t, s, dim, w["row"], w["col"])
    tst = triple_product_entry(t, s, t, dim, w["row"], w["col"])
    if (Fraction(w["lhs"]), Fraction(w["rhs"])) != (sts, tst) or sts == tst:
        return [f"{label}: braid witness {w} but STS={sts}, TST={tst}"]
    return []


def check_ptm_report(b: int, depth: int, zero_sum, rc: int, text: str) -> list[str]:
    """F's coefficients are A[digit sum mod b]; P * prod(1 - x^(b^m)) == F by
    this file's own convolution; c_n == 0 whenever n has digit b-1."""
    label = f"ptm b={b} N={depth}"
    problems: list[str] = []
    report = _load(rc, text, problems, label)
    if report is None:
        return problems
    dim = b**depth
    f = [Fraction(v) for v in report.get("f_coefficients", [])]
    p = [Fraction(v) for v in report.get("p_coefficients", [])]
    if len(f) != dim or len(p) != dim:
        return problems + [f"{label}: coefficient lists are not {dim} long"]
    if [Fraction(v) for v in report.get("zero_sum", [])] != list(zero_sum):
        problems.append(f"{label}: zero_sum echoes {report.get('zero_sum')}")
    want_f = [zero_sum[ptm_value(n, b)] for n in range(dim)]
    if f != want_f:
        problems.append(f"{label}: F differs from A[digit sum mod b]")
    factor = [1]
    for m in range(depth):
        step = [0] * (b**m + 1)
        step[0], step[-1] = 1, -1
        factor = convolve(factor, step)
    conv = convolve(p, factor)
    if any(c != 0 for c in conv[dim:]) or conv[:dim] != want_f:
        problems.append(f"{label}: P * prod(1 - x^(b^m)) != F")
    for n in range(dim):
        if (b - 1) in digits_of(n, b, depth) and p[n] != 0:
            problems.append(f"{label}: c_{n} = {p[n]} though n has digit {b - 1}")
            break
    if report.get("equal") is not True:
        problems.append(f"{label}: equal is {report.get('equal')}")
    return problems


def convolve(a, c) -> list:
    out = [Fraction(0)] * (len(a) + len(c) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(c):
                out[i + j] += x * y
    return out


def check_matrix_report(kind: str, b: int, depth: int, x0, rc: int, text: str) -> list[str]:
    """Every emitted entry of S, X or U against its closed form; symbolic
    entries are parsed back into polynomials."""
    label = f"matrix {kind} b={b} N={depth}" + (f" x0={x0}" if x0 is not None else "")
    problems: list[str] = []
    report = _load(rc, text, problems, label)
    if report is None:
        return problems
    dim = b**depth
    symbolic = x0 is None and kind in ("S", "X")
    header = (report.get("kind"), report.get("dim"), report.get("symbolic"))
    if header != (kind, dim, symbolic):
        problems.append(f"{label}: header {header}")
    cells = report.get("entries", [])
    if len(cells) != dim or any(len(row) != dim for row in cells):
        return problems + [f"{label}: entries are not {dim}x{dim}"]
    for j in range(dim):
        for k in range(dim):
            if kind == "U":
                want = Fraction(u_entry(b, depth, j, k))
            elif symbolic and kind == "S":
                want = s_entry_poly(b, depth, j, k)
            elif symbolic:
                c = x_entry_at(b, depth, j, k, 1)
                want = {1: c} if c else {}
            elif kind == "S":
                want = s_entry_at(b, depth, j, k, x0)
            else:
                want = x_entry_at(b, depth, j, k, x0)
            try:
                got = parse_poly_x(cells[j][k]) if symbolic else Fraction(cells[j][k])
            except ValueError:
                got = None
            if got != want:
                return problems + [f"{label}: entry ({j},{k}) is {cells[j][k]!r}"]
    return problems
