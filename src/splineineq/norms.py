"""Derivatives and L2 norms of cardinal splines.

Differentiating a B-spline series once turns the coefficient sequence into
its backward difference (padded by a zero on each use) and lowers the
degree by one, so the derivative is again a cardinal spline on the same
knots; the L2 norm of any series is a banded quadratic form in the
coefficients with autocorrelation entries.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.typing as npt
from numpy.lib.stride_tricks import as_strided

from .bspline import (
    CardinalSpline,
    _in_slices,
    _integer,
    _reject,
    _require_single,
    gram_autocorrelation,
)

Array = npt.NDArray[np.float64]

# Coefficients per block of the band dots.  At most 10000: OpenBLAS splits a
# longer dot across threads, and the split changes its bits.
BLOCK = 4096

__all__ = [
    "derivative_coeffs",
    "l2_norm_sq",
    "l2_norm_sq_quadrature",
]


def _require_spline(s) -> None:
    if not isinstance(s, CardinalSpline):
        raise TypeError("expected a CardinalSpline")


def _check_order(m: int, k: int) -> int:
    """k as an int; reject a derivative order that is not an integer, or is
    outside 0 <= k <= m."""
    k = _integer(k, "derivative order")
    if k < 0:
        raise ValueError("derivative order must be non-negative")
    if k > m:
        raise ValueError("derivative order exceeds degree")
    return k


def derivative_coeffs(s: CardinalSpline, k: int) -> CardinalSpline:
    """The k-th derivative of s, a CardinalSpline of degree s.degree - k.

    Each order is one backward difference of the zero-padded coefficients
    divided by the knot spacing, so len grows by one per order; k may not
    exceed the degree.  The k-fold difference keeps the leading knot at
    the origin, so the spacing carries over, and orders compose:
    differentiating i times and then j times gives the same floats as
    differentiating i + j times.  A (batch, n) stack is differenced row
    by row.
    """
    _require_spline(s)
    k = _check_order(s.degree, k)
    c = s.coeffs
    h = s.knot_spacing
    # a difference of huge coefficients, or one divided by a tiny spacing,
    # may overflow; CardinalSpline rejects the non-finite result
    with np.errstate(over="ignore"):
        for _ in range(k):
            n = c.shape[-1]
            d = np.zeros(c.shape[:-1] + (n + 1,))
            if n:
                # the zero padding written out: c[0] - 0.0 is c[0] to the
                # bit, and 0.0 - c[-1] (unlike -c[-1]) maps -0.0 to +0.0
                d[..., 0] = c[..., 0]
                # elementwise, so a long row is cut across the CPUs
                _in_slices(np.subtract, c[..., 1:], c[..., :-1], d[..., 1:-1])
                np.subtract(0.0, c[..., -1], out=d[..., -1])
            if h != 1.0:  # dividing by 1.0 changes no bit, not even of -0.0
                np.divide(d, h, out=d)
            c = d
    return CardinalSpline(degree=s.degree - k, knot_spacing=h, coeffs=c)


def l2_norm_sq(s: CardinalSpline) -> float | Array:
    """Squared L2 norm over the real line, exact up to rounding.

    ``∫ s² = Δ · Σ_{g,g'} c_g c_{g'} a_{|g-g'|}`` with the banded
    autocorrelations of the underlying B-spline.  Returns a float, or one
    value per row of a (batch, n) stack; every row goes through the same
    floating-point operations as it would alone, and the result does not
    depend on the number of BLAS threads.  Raises ValueError when a
    squared norm overflows.
    """
    _require_spline(s)
    a = gram_autocorrelation(s.degree).tolist()
    c = s.coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        d = _band_dots(c, max(min(s.degree, c.shape[-1] - 1), 0) + 1)
        total = a[0] * d[0]
        for j in range(1, len(d)):
            total += 2.0 * a[j] * d[j]
        total *= s.knot_spacing
    bad = not math.isfinite(total) if c.ndim == 1 else ~np.isfinite(total)
    _reject(bad, "norms overflow: a squared norm is not finite")
    return total


def _band_dots(c: Array, b: int) -> list:
    """The b band dots ``c[..., :n-j] · c[..., j:]`` for j = 0..b-1.

    Each entry is a float for a vector and one value per row for a
    (batch, n) stack.  Below ``BLOCK + b - 1`` coefficients every band is
    one BLAS dot.  Longer rows are cut into blocks of ``BLOCK`` that one
    ``vecdot`` call dots with all b shifts while the block is in cache, so
    the row is read from memory once and not b times; the block partials
    and the dots of the tail are summed by ``math.fsum``, so the result
    does not depend on how BLAS splits or orders a dot.  A band whose
    partials add up past the float range, or hold both infinities, sums
    to NaN, which l2_norm_sq rejects as an overflow.
    """
    n = c.shape[-1]
    nfull = (n - b + 1) // BLOCK
    if nfull == 0:
        return _row_dots(c, b)
    tails = _row_dots(c[..., nfull * BLOCK :], b)
    # vecdot of (..., nfull, 1, BLOCK) with (..., nfull, b, BLOCK): one dot
    # per (block, shift), blocks outermost
    lead, step = c.shape[:-1], c.strides[-1]
    block = c[..., : nfull * BLOCK].reshape(lead + (nfull, 1, BLOCK))
    shifted = as_strided(
        c,
        lead + (nfull, b, BLOCK),
        c.strides[:-1] + (BLOCK * step, step, step),
        writeable=False,
    )
    # the blocks are cut into slices across the CPUs; each partial is the
    # same BLAS dot wherever the cuts fall
    heads = _in_slices(np.vecdot, block, shifted, axis=-3, width=BLOCK)
    parts = np.concatenate(heads + [np.stack(tails, -1)[..., None, :]], axis=-2)
    by_band = np.swapaxes(parts, -1, -2).reshape(-1, nfull + 1)
    sums = [_fsum_or_nan(p) for p in by_band]  # one band of one row each
    return sums if c.ndim == 1 else list(np.reshape(sums, (-1, b)).T)


def _fsum_or_nan(p: Array) -> float:
    """``math.fsum`` of p, or NaN where its exact sum has no float."""
    try:
        return math.fsum(p.tolist())
    except (OverflowError, ValueError):  # past the float range, or inf - inf
        return math.nan


def _row_dots(c: Array, b: int) -> list:
    """The b band dots of c, each one BLAS dot per row.

    ``ndarray.dot`` of two vectors gives a float, and ``np.vecdot`` one
    value per row of a stack, with the bits of that row alone (einsum does
    not), except that a lone -0.0 product comes out +0.0.
    """
    n = c.shape[-1]
    if c.ndim == 1:
        return [float(c[: n - j].dot(c[j:])) for j in range(b)]
    return [np.vecdot(c[:, : n - j], c[:, j:]) for j in range(b)]


def l2_norm_sq_quadrature(s: CardinalSpline) -> float:
    """Squared L2 norm by Gauss-Legendre quadrature, cell by cell.

    Independent cross-check of :func:`l2_norm_sq`: with degree+1 nodes per
    knot cell the rule is exact for the piecewise polynomial s², so the
    two routes agree to rounding.
    """
    _require_spline(s)
    _require_single(s)
    cells = len(s.coeffs) + s.degree
    nodes, weights = np.polynomial.legendre.leggauss(s.degree + 1)
    h = s.knot_spacing
    edges = h * np.arange(cells)  # the support starts at 0.0
    # map reference nodes into every cell at once
    x = edges[:, None] + 0.5 * h * (nodes[None, :] + 1.0)
    return float(0.5 * h * np.sum(s(x) ** 2 @ weights))
