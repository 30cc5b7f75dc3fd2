"""Favard constants: the extreme values of the Fourier series
(4/pi) * sum_{l>=0} (+-1)^l (2l+1)^(-(m+1)) that govern best uniform
approximation by trigonometric polynomials and, here, the sharp spline
inequality constants."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._series import power_tail, power_tail_bound

__all__ = ["ROUNDING_FLOOR", "FavardConstant", "favard", "favard_closed_form"]

_PI = math.pi

# Relative rounding error charged to every computed constant; a relative
# tolerance at or below it can never be met.
ROUNDING_FLOOR = 4e-16

# K_m for m = 0..7.  Exact rational multiples of pi^m; the sequence is
# sandwiched between 1 and pi/2 and converges to 4/pi from both sides.
_CLOSED = (
    1.0,
    _PI / 2.0,
    _PI**2 / 8.0,
    _PI**3 / 24.0,
    5.0 * _PI**4 / 384.0,
    _PI**5 / 240.0,
    61.0 * _PI**6 / 46080.0,
    17.0 * _PI**7 / 40320.0,
)


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


def favard_closed_form(m: int):
    """Known closed form of K_m as a float, or None beyond the table."""
    if m < 0:
        raise ValueError("index must be non-negative")
    if m < len(_CLOSED):
        return _CLOSED[m]
    return None


def favard(m: int, rtol: float = 1e-12) -> FavardConstant:
    """Compute K_m from its defining series to relative tolerance rtol.

    Odd m: all series terms are positive, decay like l^(-(m+1)), and the
    Euler-Maclaurin corrected tail turns the slow decay into a fast one.
    Even m: the series alternates, so partial sums bracket the limit and
    the first omitted term bounds the truncation error.  m = 0 is the
    constant 1 exactly (the alternating series telescopes to pi/4).
    """
    if m < 0:
        raise ValueError("index must be non-negative")
    if not rtol > ROUNDING_FLOOR:
        raise ValueError(f"rtol must be a number above {ROUNDING_FLOOR:g}")
    if m == 0:
        return FavardConstant(index=0, value=1.0, series_terms=0, tail_bound=0.0)

    p = float(m + 1)
    pref = 4.0 / _PI
    if m % 2 == 1:
        # positive series: sum (2l+1)^(-p)
        terms = 32
        while True:
            partial = math.fsum((2.0 * l + 1.0) ** -p for l in reversed(range(terms)))
            tail = power_tail(2.0 * terms + 1.0, 2.0, p)
            bound = power_tail_bound(2.0 * terms + 1.0, 2.0, p)
            value = pref * (partial + tail)
            err = pref * bound + ROUNDING_FLOOR * value
            if err <= rtol * value or terms >= 1 << 22:
                return FavardConstant(
                    index=m, value=value, series_terms=terms, tail_bound=err
                )
            terms *= 2
    # alternating series: sum (-1)^l (2l+1)^(-p)
    terms = 8
    while True:
        partial = math.fsum(
            (-1.0) ** l * (2.0 * l + 1.0) ** -p for l in reversed(range(terms))
        )
        omitted = (2.0 * terms + 1.0) ** -p
        value = pref * partial
        err = pref * omitted + ROUNDING_FLOOR * abs(value)
        if err <= rtol * abs(value) or terms >= 1 << 22:
            return FavardConstant(
                index=m, value=value, series_terms=terms, tail_bound=err
            )
        terms *= 2
