"""Spans around sierpmat's public calls, recorded from outside the library.

``Tracer.install`` replaces each traced function at every name it is looked
up by: the module attribute in every sierpmat module that imported it, and
the class attribute for methods (both ``__mul__`` and ``__rmul__`` where
they are one function). ``uninstall`` puts the originals back.

Spans stay in memory. Calls of one name under one parent span are merged
into one span record with a call count, so a sweep of millions of
polynomial products keeps a few hundred records. A record's self time is
its total time minus the time its child spans cover; the tracer's own
counting work is charged to no span.
"""

from __future__ import annotations

import json
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "children", "calls", "start", "end", "total", "child_total", "counts")

    def __init__(self, sid: int, name: str, parent):
        self.id, self.name, self.parent = sid, name, parent
        self.children: dict[str, Span] = {}
        self.calls = 0
        self.start = self.end = None
        self.total = self.child_total = 0.0
        self.counts: dict[str, int] = {}

    def record(self, t0: float, t1: float) -> None:
        self.calls += 1
        self.total += t1 - t0
        if self.start is None:
            self.start = t0
        self.end = t1


def _matrix_mul_counts(left, right) -> dict[str, int]:
    """Entry products of a dense product, and how many have both factors
    nonzero: sum over k of nnz(column k of left) * nnz(row k of right)."""
    if not hasattr(right, "rows"):
        return {}
    col_nnz = [0] * left.ncols
    for row in left.rows:
        for k, e in enumerate(row):
            if e:
                col_nnz[k] += 1
    nonzero = sum(c * sum(1 for e in row if e) for c, row in zip(col_nnz, right.rows))
    return {"entry_products": left.nrows * left.ncols * right.ncols, "nonzero_products": nonzero}


def _matvec_counts(mat, vec) -> dict[str, int]:
    return {"entry_products": mat.nrows * mat.ncols}


def _apply_counts(chain, vec) -> dict[str, int]:
    b = chain.base_factor.nrows
    return {"coeff_ops": chain.depth * chain.dim * b}


def traced_targets(pkg):
    """(metric name, owner, attribute names, counter) for each traced call."""
    d, e, m, s, p, c = pkg.digits, pkg.exactpoly, pkg.matrix, pkg.sierpinski, pkg.ptm, pkg.cli
    poly, mat, uni = e.Polynomial, m.Matrix, p.UniPoly
    return [
        ("digits.to_digits", d, ("to_digits",), None),
        ("digits.dominated_set", d, ("dominated_set",), None),
        ("digits.ptm", d, ("ptm",), None),
        ("exactpoly.Polynomial.mul", poly, ("__mul__", "__rmul__"), None),
        ("exactpoly.Polynomial.add", poly, ("__add__", "__radd__"), None),
        ("exactpoly.Polynomial.compose", poly, ("compose",), None),
        ("exactpoly.Polynomial.eval", poly, ("eval",), None),
        ("matrix.Matrix.mul", mat, ("__mul__",), _matrix_mul_counts),
        ("matrix.Matrix.matvec", mat, ("matvec",), _matvec_counts),
        ("matrix.Matrix.kron", mat, ("kron",), None),
        ("matrix.Matrix.eq", mat, ("__eq__",), None),
        ("matrix.Matrix.power", mat, ("power",), None),
        ("sierpinski.structured_apply", s, ("structured_apply",), _apply_counts),
        ("sierpinski.s_matrix", s, ("s_matrix",), None),
        ("sierpinski.x_matrix", s, ("x_matrix",), None),
        ("sierpinski.matrix_exp_nilpotent", s, ("matrix_exp_nilpotent",), None),
        ("sierpinski.verify_one_parameter", s, ("verify_one_parameter",), None),
        ("sierpinski.digital_binomial_sides", s, ("digital_binomial_sides",), None),
        ("ptm.coefficients_by_formula", p, ("coefficients_by_formula",), None),
        ("ptm.coefficients_by_matrix", p, ("coefficients_by_matrix",), None),
        ("ptm.s_int", p, ("s_int",), None),
        ("ptm.power_relation_check", p, ("power_relation_check",), None),
        ("ptm.braid_check", p, ("braid_check",), None),
        ("ptm.UniPoly.mul", uni, ("__mul__",), None),
        ("cli.main", c, ("main",), None),
    ]


class Tracer:
    def __init__(self):
        self._ids = 0
        self.root = self._new("sweep", None)
        self.stack = [self.root]
        self._saved: list[tuple[object, str, object]] = []

    def _new(self, name: str, parent) -> Span:
        self._ids += 1
        return Span(self._ids, name, parent)

    def _child(self, name: str) -> Span:
        parent = self.stack[-1]
        span = parent.children.get(name)
        if span is None:
            span = parent.children[name] = self._new(name, parent)
        return span

    def run(self, name: str, fn):
        """Call fn() inside a span of the given name."""
        return self.wrap(name, fn, None)()

    def wrap(self, name: str, fn, counter):
        stack = self.stack

        def traced(*args, **kwargs):
            if counter is not None:
                c0 = perf_counter()
                counts = counter(*args)
                parent = stack[-1]
                # the counting sits inside the parent's interval; keep it
                # out of the parent's self time
                parent.child_total += perf_counter() - c0
            span = self._child(name)
            stack.append(span)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span.record(t0, t1)
                span.parent.child_total += t1 - t0
                if counter is not None:
                    for key, v in counts.items():
                        span.counts[key] = span.counts.get(key, 0) + v

        traced.__wrapped__ = fn
        return traced

    def install(self, pkg) -> None:
        modules = [pkg, pkg.digits, pkg.exactpoly, pkg.matrix, pkg.sierpinski, pkg.ptm, pkg.cli]
        for name, owner, attrs, counter in traced_targets(pkg):
            original = vars(owner)[attrs[0]]
            wrapper = self.wrap(name, original, counter)
            for attr in attrs:
                self._saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original and mod is not owner:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def spans(self) -> list[Span]:
        out, todo = [], [self.root]
        while todo:
            span = todo.pop()
            out.append(span)
            todo.extend(span.children.values())
        return out

    def totals(self, under: Span | None = None) -> dict[str, dict]:
        """Per name: calls, self time and counters, over the subtree."""
        out: dict[str, dict] = {}
        todo = list((under or self.root).children.values())
        while todo:
            span = todo.pop()
            todo.extend(span.children.values())
            row = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += span.calls
            row["self_s"] += span.total - span.child_total
            row["total_s"] += span.total
            for key, v in span.counts.items():
                row[key] = row.get(key, 0) + v
        return out

    def write(self, path, header: dict) -> None:
        records = [
            {
                "id": s.id,
                "name": s.name,
                "parent": s.parent.id if s.parent else None,
                "calls": s.calls,
                "start": s.start,
                "end": s.end,
                "total_s": s.total,
                "self_s": s.total - s.child_total,
                **s.counts,
            }
            for s in self.spans()
            if s is not self.root
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**header, "spans": records}, fh, indent=1)
