"""Exact-arithmetic toolkit for digit-indexed lower-triangular matrices:
construction, one-parameter group law, nilpotent generators, coefficient
polynomial factorization, and the associated group relations."""

import importlib

from . import digits, exactpoly, matrix, ptm, sierpinski
from .digits import carry_free, digit_sum, dominated_set, dominates
from .exactpoly import ONE, X, Y, ZERO, Polynomial, Rational, binom_rising
from .matrix import DEFAULT_CAP, KroneckerChain, Matrix, checked_dim
from .ptm import UniPoly, ZeroSumVector
from .sierpinski import (
    matrix_exp_nilpotent,
    s_chain,
    s_entry,
    s_matrix,
    structured_apply,
    x_matrix,
)

__version__ = "0.1.0"


def __getattr__(name):
    # cli loads on first use, so library users skip argparse and json, and
    # `python -m sierpmat.cli` runs without runpy's already-imported warning
    if name == "cli":
        return importlib.import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "cli",
    "digits",
    "exactpoly",
    "matrix",
    "ptm",
    "sierpinski",
    "carry_free",
    "digit_sum",
    "dominated_set",
    "dominates",
    "ONE",
    "X",
    "Y",
    "ZERO",
    "Polynomial",
    "Rational",
    "binom_rising",
    "DEFAULT_CAP",
    "Matrix",
    "checked_dim",
    "UniPoly",
    "ZeroSumVector",
    "KroneckerChain",
    "matrix_exp_nilpotent",
    "s_chain",
    "s_entry",
    "s_matrix",
    "structured_apply",
    "x_matrix",
    "__version__",
]
