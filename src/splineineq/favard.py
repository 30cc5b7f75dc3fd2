"""Favard constants: the extreme values of the Fourier series
(4/pi) * sum_{l>=0} (+-1)^l (2l+1)^(-(m+1)) that govern best uniform
approximation by trigonometric polynomials and, here, the sharp spline
inequality constants."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._series import MAX_TERMS, ROUNDING_FLOOR, _check_rtol, _double_terms, _missed
from ._series import power_tail
from .bspline import _integer

__all__ = ["ROUNDING_FLOOR", "FavardConstant", "favard"]

_PI = math.pi


@dataclass(frozen=True)
class FavardConstant:
    """A computed Favard constant with accounting for the series tail.

    ``value`` differs from the exact constant by at most ``tail_bound``;
    ``series_terms`` counts the explicitly summed terms.
    """

    index: int
    value: float
    series_terms: int
    tail_bound: float


def favard(m: int, rtol: float = 1e-12) -> FavardConstant:
    """Compute K_m from its defining series to relative tolerance rtol.

    Odd m: all series terms are positive, decay like l^(-(m+1)), and the
    Euler-Maclaurin corrected tail turns the slow decay into a fast one.
    Even m: the series alternates, so partial sums bracket the limit and
    the first omitted term bounds the truncation error.  m = 0 is the
    constant 1 exactly (the alternating series telescopes to pi/4).
    Raises ValueError unless m is a non-negative integer and rtol is finite
    and above ROUNDING_FLOOR, and when 1 << 22 terms do not meet it.
    """
    m = _integer(m, "index")
    if m < 0:
        raise ValueError("index must be non-negative")
    _check_rtol(rtol)
    if m == 0:
        return FavardConstant(index=0, value=1.0, series_terms=0, tail_bound=0.0)

    p = float(m + 1)
    pref = 4.0 / _PI
    # odd m: the positive series sum (2l+1)^(-p); even m: the alternating
    # series sum (-1)^l (2l+1)^(-p)
    odd = m % 2 == 1
    # |value| <= 4/pi: where the last pass's bound misses rtol, every pass does
    if not odd and (2.0 * MAX_TERMS + 1.0) ** -p > rtol - ROUNDING_FLOOR:
        raise _missed(rtol)
    sign = 1.0 if odd else -1.0
    terms = 32 if odd else 8
    while True:
        partial = math.fsum(
            sign**l * (2.0 * l + 1.0) ** -p for l in reversed(range(terms))
        )
        first = 2.0 * terms + 1.0
        if odd:
            tail, bound = power_tail(first, 2.0, p)
        else:  # the partial sums bracket the limit
            tail, bound = 0.0, first**-p
        value = pref * (partial + tail)
        err = pref * bound + ROUNDING_FLOOR * abs(value)
        if err <= rtol * abs(value):
            return FavardConstant(
                index=m, value=value, series_terms=terms, tail_bound=err
            )
        terms = _double_terms(terms, rtol)
