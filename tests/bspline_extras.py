"""B-spline functions that only the tests use.

Nothing in the package or the benchmark calls them, so they live here,
next to the tests that check them and the input rules they share with
the package's entry points.
"""

from __future__ import annotations

import math

import numpy as np

from splineineq.bspline import (
    Array,
    _basis_window,
    _check_degree,
    _prepare,
    _scaled_integer_samples,
    eval_bspline,
)


def eval_bspline_window(m: int, x):
    """N_m at x by its own window gather: the oracle for eval_bspline.

    The package's eval_bspline is spline_eval of the one-coefficient
    series; this reads the shift g = 0 straight out of the degree
    recurrence's window on the support [0, m+1) and writes 0.0 elsewhere.
    """
    _check_degree(m)
    u, restore = _prepare(x)
    out = np.zeros_like(u)
    inside = (u >= 0.0) & (u < m + 1.0)
    if np.any(inside):
        j0, w = _basis_window(m, u[inside])
        # the shift g = 0 sits at column m - j0
        out[inside] = w[np.arange(j0.size), m - j0]
    return restore(out)


def bspline_derivative(m: int, x):
    """First derivative of N_m via N_m'(x) = N_{m-1}(x) - N_{m-1}(x-1).

    For m = 1 the derivative jumps at knots; the right-hand limit is
    returned there.  Rejects m = 0 (the derivative is not a function).
    """
    _check_degree(m, 1)
    u, restore = _prepare(x)
    return restore(eval_bspline(m - 1, u) - eval_bspline(m - 1, u - 1.0))


def scaled_integer_samples_by_powers(n: int) -> tuple[int, ...]:
    """n! * N_n(j) for j = 1..n by the truncated-power sum.

    The oracle for the package's degree recurrence: at integer arguments
    the alternating sum is exact integer arithmetic, but each sample takes
    up to n + 1 n-th powers.
    """
    out = []
    for j in range(1, n + 1):
        s = 0
        for k in range(0, min(j, n + 2)):
            s += (-1) ** k * math.comb(n + 1, k) * (j - k) ** n
        out.append(s)
    return tuple(out)


def scaled_integer_samples_full_rows(n: int) -> tuple[int, ...]:
    """n! * N_n(j) for j = 1..n by the degree recurrence over every j.

    The oracle for the package's half-row recurrence, which forms
    ``j = 1..⌈d/2⌉`` of each degree and mirrors the palindrome: this one
    forms the whole row, so neither half is taken from the other.
    """
    t = [1] if n else []  # T_1(1) = 1
    for d in range(2, n + 1):
        prev = [0, *t, 0]  # T_{d-1}(j) for j = 0..d; N_{d-1} is 0 at 0 and d
        t = [j * prev[j] + (d + 1 - j) * prev[j - 1] for j in range(1, d + 1)]
    return tuple(t)


def integer_samples(m: int) -> Array:
    """Interior integer samples [N_m(1), ..., N_m(m)]; empty for m = 0.

    Computed exactly as integers over m!, then rounded once to float.
    """
    _check_degree(m)
    f = math.factorial(m)
    return np.array([t / f for t in _scaled_integer_samples(m)], dtype=np.float64)
