"""The periodized squared B-spline symbol and the derivative-to-function
symbol ratio whose maximum over frequency yields the sharp inequality
constant."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np
import numpy.typing as npt

from ._series import _check_rtol, _double_terms, fsum_rows, libm_pow, power_tail
from .bspline import _check_degree, _prepare, gram_autocorrelation

Array = npt.NDArray[np.float64]

__all__ = [
    "SymbolEval",
    "symbol_fourier",
    "symbol_lattice",
    "ratio_L",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SymbolEval:
    """Lattice-sum evaluation with its truncation error budget.

    ``omega``, ``value`` and ``tail_bound`` are floats for a scalar
    frequency and arrays of its shape for an array of frequencies.
    """

    degree: int
    omega: float | Array
    value: float | Array
    method: str
    tail_bound: float | Array


def symbol_fourier(m: int, omega):
    """Periodized squared symbol via its finite cosine expansion.

    The symbol is the discrete-time Fourier transform of the B-spline
    autocorrelation sequence: a_0 + 2 sum_{j=1}^m a_j cos(j ω).  Exact up
    to rounding, 2π-periodic, even, positive, equal to 1 at ω = 0.
    """
    m = _check_degree(m)
    w, restore = _prepare(omega)
    (out,) = _cosine_sums(w, gram_autocorrelation(m))
    return restore(out)


def _cosine_sums(w: Array, *coeffs: Array) -> list[Array]:
    """a_0 + 2 sum_j a_j cos(j ω) for each coefficient vector a, in that
    order of j, with each cos(j w) computed once for all of them."""
    sums = [np.full_like(w, a[0]) for a in coeffs]
    for j in range(1, max(a.size for a in coeffs)):
        c = np.cos(j * w)
        for out, a in zip(sums, coeffs):
            if j < a.size:
                out += 2.0 * a[j] * c
    return sums


def _lattice_terms(r: Array, s: Array, p: float, terms: int) -> Array:
    """Terms l = -terms..terms, one row per (n, 1) column entry of r and s."""
    ls = np.arange(-terms, terms + 1, dtype=np.float64)
    return (s / np.abs(r + _TWO_PI * ls)) ** p


def _lattice_total(r: Array, sp: Array, p: float, terms: int, partial: Array) -> tuple:
    """``partial``, the row sums of the explicit terms, plus both tails, and
    the tails' error bound; ``sp`` is each row's s**p, by libm_pow."""
    tail_up, bound_up = power_tail(r + _TWO_PI * (terms + 1), _TWO_PI, p)
    tail_dn, bound_dn = power_tail(-(r - _TWO_PI * (terms + 1)), _TWO_PI, p)
    return partial + sp * (tail_up + tail_dn), sp * (bound_up + bound_dn)


# Frequencies summed together.  Above the rounding floor every p >= 2 meets
# rtol within 128 terms, so no block is wider than ROWS x 257.
ROWS = 1024


def symbol_lattice(m: int, omega, rtol: float = 1e-12) -> SymbolEval:
    """Periodized squared symbol as a sum over the frequency lattice.

    Sums |sinc-type factor|^(2m+2) over translates ω + 2πl.  Each term is
    formed as a single power of 2|sin(ω/2)| / |ω + 2πl| so that no
    intermediate overflows near lattice frequencies.  The two one-sided
    tails are estimated by Euler-Maclaurin with an enveloping remainder;
    the number of explicit terms doubles until the bound meets rtol.

    A scalar or an array of frequencies takes one loop over chunks of ROWS:
    each pass adds both tails to the row sums of the chunk's terms (finite
    and non-negative, as fsum_rows requires), and only the frequencies that
    miss rtol go on, with twice the terms.  Raises ValueError unless rtol is
    finite and above ROUNDING_FLOOR, when 1 << 22 terms do not meet it, and
    when (2|sin(ω/2)|)^(2m+2) overflows at some frequency, which can happen
    only above degree 510.
    """
    m = _check_degree(m)
    _check_rtol(rtol)
    w, restore = _prepare(omega)
    p = 2.0 * m + 2.0
    # Reduce to the principal period first: IEEE remainder is exact, and
    # it keeps every lattice denominator safely away from zero.
    r = np.fromiter(map(math.remainder, w.tolist(), repeat(_TWO_PI)), np.float64)
    # At a lattice frequency every term but one vanishes and the surviving
    # limit is exactly 1.
    value, bound = np.ones_like(r), np.zeros_like(r)
    live = np.flatnonzero(r != 0.0)
    # Terms and tails underflow as p grows, silently as in math.pow,
    # whatever the caller's errstate.  No tail power can overflow: each
    # takes an argument above 17π > 53 to a negative exponent, and a term's
    # base is at most 1.  Only s**p can, s <= 2, and then only above degree
    # 510 (p > 1023): it is taken once, before any pass, and its overflow
    # is the ValueError of a degree too high for these frequencies.
    with np.errstate(under="ignore"):
        s = 2.0 * np.abs(np.fromiter(map(math.sin, (0.5 * r).tolist()), np.float64))
        try:
            sp = libm_pow(s, p)
        except OverflowError:
            raise ValueError(
                f"degree {m} is too high: (2|sin(ω/2)|)^{p:g} overflows"
            ) from None
        for start in range(0, live.size, ROWS):
            rows, terms = live[start : start + ROWS], 8
            while True:
                block = _lattice_terms(r[rows, None], s[rows, None], p, terms)
                v, b = _lattice_total(r[rows], sp[rows], p, terms, fsum_rows(block))
                value[rows], bound[rows] = v, b
                rows = rows[~(b <= rtol * v)]
                if not rows.size:
                    break
                terms = _double_terms(terms, rtol)
    return SymbolEval(
        degree=m,
        omega=restore(w),
        value=restore(value),
        method="lattice",
        tail_bound=restore(bound),
    )


def ratio_L(m: int, omega):
    """Rayleigh-type ratio 4 sin²(ω/2) · symbol_{m-1}(ω) / symbol_m(ω).

    This is the squared first-derivative amplification of a unit-lattice
    degree-m spline at frequency ω.  Even, 2π-periodic, increasing on
    [0, π], maximal at ω = π.
    """
    m = _check_degree(m, 1)
    w, restore = _prepare(omega)
    # both symbols as symbol_fourier sums them, from one cosine table
    num, den = _cosine_sums(w, gram_autocorrelation(m - 1), gram_autocorrelation(m))
    return restore(4.0 * np.sin(0.5 * w) ** 2 * num / den)

