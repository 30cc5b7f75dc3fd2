"""Sharp L2 derivative bounds for cardinal splines.

The package computes the best possible constants in the inequality
``||s^(k)||_2 <= C ||s||_2`` over splines of degree m on a uniform knot
lattice, evaluates the periodized squared B-spline symbol by three
independent routes, and exhibits coefficient sequences whose ratios
approach the constants.
"""

from __future__ import annotations

from .bernstein import (
    InequalityReport,
    extremal_ratio,
    fejer_extremal_coeffs,
    random_spline,
    sharp_constant,
    verify_inequality,
)
from .bspline import (
    CardinalSpline,
    eval_bspline,
    gram_autocorrelation,
    spline_eval,
)
from .euler_frobenius import (
    RootCountError,
    ef_roots,
    representative_roots,
    symbol_via_ef,
)
from .favard import FavardConstant, favard
from .norms import derivative_coeffs, l2_norm_sq, l2_norm_sq_quadrature
from .symbol import SymbolEval, ratio_L, symbol_fourier, symbol_lattice

__version__ = "0.1.0"

__all__ = [
    "CardinalSpline",
    "FavardConstant",
    "InequalityReport",
    "RootCountError",
    "SymbolEval",
    "derivative_coeffs",
    "ef_roots",
    "eval_bspline",
    "extremal_ratio",
    "favard",
    "fejer_extremal_coeffs",
    "gram_autocorrelation",
    "l2_norm_sq",
    "l2_norm_sq_quadrature",
    "random_spline",
    "ratio_L",
    "representative_roots",
    "sharp_constant",
    "spline_eval",
    "symbol_fourier",
    "symbol_lattice",
    "symbol_via_ef",
    "verify_inequality",
    "__version__",
]
