"""Shared tail estimates for slowly converging power-law series, a correctly
rounded row sum, and the tolerance and term limits of every series loop in
the package."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ROUNDING_FLOOR", "fsum_rows", "libm_pow", "power_tail"]

# Relative rounding error charged to every computed constant; a relative
# tolerance at or below it can never be met.
ROUNDING_FLOOR = 4e-16

MAX_TERMS = 1 << 22  # terms in the last pass a series loop may sum


def _check_rtol(rtol: float) -> None:
    """Reject an rtol unless it is finite and above ROUNDING_FLOOR."""
    # NaN fails every comparison, so it lands here too
    if not ROUNDING_FLOOR < rtol < math.inf:
        raise ValueError(f"rtol must be a finite number above {ROUNDING_FLOOR:g}")


def _double_terms(terms: int, rtol: float) -> int:
    """Twice ``terms``, for a loop that missed rtol; raises at MAX_TERMS."""
    if terms >= MAX_TERMS:
        raise _missed(rtol)
    return 2 * terms


def _missed(rtol: float) -> ValueError:
    """The error of a series loop whose last pass cannot meet rtol."""
    return ValueError(f"series missed rtol {rtol!r} after {MAX_TERMS} terms")


def libm_pow(x, y: float):
    """x ** y by the C library's pow, for a finite non-negative float or
    elementwise for an array of them.

    Published values must not move, so a float and its element of an array
    get the same bits: math.pow for a float, and for an array one
    np.float_power call, whose float64 loop calls the C library's pow for
    each element.  np.power is not used: numpy sends float64 powers to its
    own SIMD code where the CPU has it (AVX-512), and that differs from
    libm's pow in the last bit for about 5% of inputs.
    """
    if isinstance(x, np.ndarray):
        # math.pow underflows silently and raises OverflowError on overflow
        with np.errstate(over="raise", under="ignore"):
            try:
                return np.float_power(x, y)
            except FloatingPointError:
                raise OverflowError("math range error") from None
    return math.pow(x, y)


def fsum_rows(block: np.ndarray) -> np.ndarray:
    """math.fsum of each row of a 2-D array of finite, non-negative floats.

    TwoSum chains over the columns carry each row's exact sum as a float
    plus rounding errors (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 2005).
    A row's result is kept only when the exact remainder plus a bound on
    the error of summing those errors lies strictly inside half the
    smaller float gap beside it: the exact sum then rounds to it under any
    tie rule, so it is fsum's.  Every other row goes to math.fsum.
    """
    s = block[:, 0]
    c = np.zeros_like(s)  # the errors, summed in floats
    a = np.zeros_like(s)  # their magnitudes, for the bound
    for x in block.T[1:]:
        s, q = _two_sum(s, x)
        c += q
        a += np.abs(q)
    res, t = _two_sum(s, c)
    # summing the k - 1 errors is off by at most γ_{k-2}·Σ|q| <= k·2^-53·a
    # (Higham, ch. 4); twice that bounds it after the product rounds, in
    # gradual underflow too, where an error under 2^-1075 is exactly zero
    pad = a * (block.shape[1] * 2.0**-52)
    gap = np.minimum(np.nextafter(res, np.inf) - res, res - np.nextafter(res, -np.inf))
    miss = np.flatnonzero(~(np.abs(t) + pad < 0.5 * gap))
    res[miss] = [math.fsum(row) for row in block[miss].tolist()]
    return res


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = fl(a + b) and the error e with s + e = a + b exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def power_tail(first, step: float, p: float):
    """Euler-Maclaurin estimate of sum_{l>=0} (first + step*l)^(-p), and a
    bound on its error.

    Truncated after the B_4 term.  ``first`` is the smallest argument in
    the tail, a float or a 1-D array of them; ``step`` the lattice
    spacing, ``p > 1`` the decay exponent.  The integrand x^(-p) is
    completely monotone, so the remainder is enveloped by the first
    omitted term, which is the bound.
    """
    if p <= 1.0:
        raise ValueError("tail diverges unless p > 1")
    head = libm_pow(first, 1.0 - p) / (step * (p - 1.0))
    half = 0.5 * libm_pow(first, -p)
    b2 = step * p * libm_pow(first, -(p + 1.0)) / 12.0
    b4 = step**3 * p * (p + 1.0) * (p + 2.0) * libm_pow(first, -(p + 3.0)) / 720.0
    b6 = step**5 * p * (p + 1.0) * (p + 2.0) * (p + 3.0) * (p + 4.0)
    return head + half + b2 - b4, b6 * libm_pow(first, -(p + 5.0)) / 30240.0
