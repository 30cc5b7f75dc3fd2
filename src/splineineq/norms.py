"""Derivatives and L2 norms of cardinal splines.

Differentiating a B-spline series once turns the coefficient sequence into
its backward difference (padded by a zero on each use) and lowers the
degree by one, so the derivative is again a cardinal spline on the same
knots; the L2 norm of any series is a banded quadratic form in the
coefficients with autocorrelation entries.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from .bspline import CardinalSpline, gram_autocorrelation

Array = npt.NDArray[np.float64]

__all__ = [
    "derivative_coeffs",
    "l2_norm_sq",
    "l2_norm_sq_quadrature",
]


def _require_spline(s) -> None:
    if not isinstance(s, CardinalSpline):
        raise TypeError("expected a CardinalSpline")


def _single_diff(coeffs: Array, spacing: float) -> Array:
    padded = np.concatenate(([0.0], coeffs, [0.0]))
    return (padded[1:] - padded[:-1]) / spacing


def derivative_coeffs(s: CardinalSpline, k: int) -> CardinalSpline:
    """The k-th derivative of s, a CardinalSpline of degree s.degree - k.

    Each order is one backward difference of the zero-padded coefficients
    divided by the knot spacing, so len grows by one per order; k may not
    exceed the degree.  The k-fold difference keeps the leading knot
    fixed, so spacing and offset carry over, and orders compose:
    differentiating i times and then j times gives the same floats as
    differentiating i + j times.
    """
    if k < 0:
        raise ValueError("derivative order must be non-negative")
    _require_spline(s)
    if k > s.degree:
        raise ValueError("derivative order exceeds degree")
    c = s.coeffs
    for _ in range(k):
        c = _single_diff(c, s.knot_spacing)
    return CardinalSpline(
        degree=s.degree - k, knot_spacing=s.knot_spacing, coeffs=c, offset=s.offset
    )


def l2_norm_sq(s: CardinalSpline) -> float:
    """Squared L2 norm over the real line, exact up to rounding.

    ``∫ s² = Δ · Σ_{g,g'} c_g c_{g'} a_{|g-g'|}`` with the banded
    autocorrelations of the underlying B-spline.
    """
    _require_spline(s)
    a = gram_autocorrelation(s.degree)
    c = s.coeffs
    total = a[0] * float(c @ c)
    for j in range(1, min(s.degree, c.size - 1) + 1):
        total += 2.0 * a[j] * float(c[:-j] @ c[j:])
    return s.knot_spacing * total


def l2_norm_sq_quadrature(s: CardinalSpline) -> float:
    """Squared L2 norm by Gauss-Legendre quadrature, cell by cell.

    Independent cross-check of :func:`l2_norm_sq`: with degree+1 nodes per
    knot cell the rule is exact for the piecewise polynomial s², so the
    two routes agree to rounding.
    """
    _require_spline(s)
    lo, hi = s.support
    cells = len(s.coeffs) + s.degree
    if cells <= 0:
        return 0.0
    nodes, weights = np.polynomial.legendre.leggauss(s.degree + 1)
    h = s.knot_spacing
    edges = lo + h * np.arange(cells)
    # map reference nodes into every cell at once
    x = edges[:, None] + 0.5 * h * (nodes[None, :] + 1.0)
    vals = s(x.ravel()) ** 2
    return float(0.5 * h * np.sum(vals.reshape(cells, -1) @ weights))
