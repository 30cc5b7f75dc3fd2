"""Shared tail estimates for slowly converging power-law series, and the
tolerance and term limits of every series loop in the package."""

from __future__ import annotations

import math

__all__ = ["ROUNDING_FLOOR", "power_tail", "power_tail_bound"]

# Relative rounding error charged to every computed constant; a relative
# tolerance at or below it can never be met.
ROUNDING_FLOOR = 4e-16


def _check_rtol(rtol: float) -> None:
    """Reject an rtol unless it is finite and above ROUNDING_FLOOR."""
    # NaN fails every comparison, so it lands here too
    if not ROUNDING_FLOOR < rtol < math.inf:
        raise ValueError(f"rtol must be a finite number above {ROUNDING_FLOOR:g}")


def _double_terms(terms: int, rtol: float) -> int:
    """Twice ``terms``, for a loop that missed rtol; raises at 1 << 22 terms."""
    if terms >= 1 << 22:
        raise ValueError(f"series missed rtol {rtol!r} after {terms} terms")
    return 2 * terms


def power_tail(first: float, step: float, p: float) -> float:
    """Euler-Maclaurin estimate of sum_{l>=0} (first + step*l)^(-p).

    Truncated after the B_4 term.  ``first`` is the smallest argument in
    the tail, ``step`` the lattice spacing, ``p > 1`` the decay exponent.
    """
    if p <= 1.0:
        raise ValueError("tail diverges unless p > 1")
    head = first ** (1.0 - p) / (step * (p - 1.0))
    half = 0.5 * first**-p
    b2 = step * p * first ** -(p + 1.0) / 12.0
    b4 = step**3 * p * (p + 1.0) * (p + 2.0) * first ** -(p + 3.0) / 720.0
    return head + half + b2 - b4


def power_tail_bound(first: float, step: float, p: float) -> float:
    """Bound on the error of :func:`power_tail`.

    The integrand x^(-p) is completely monotone, so the Euler-Maclaurin
    remainder after the B_4 term is enveloped by the first omitted term.
    """
    if p <= 1.0:
        raise ValueError("tail diverges unless p > 1")
    return (
        step**5
        * p
        * (p + 1.0)
        * (p + 2.0)
        * (p + 3.0)
        * (p + 4.0)
        * first ** -(p + 5.0)
        / 30240.0
    )
