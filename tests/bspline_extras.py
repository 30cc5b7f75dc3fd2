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
    _check_degree,
    _prepare,
    _scaled_integer_samples,
    eval_bspline,
)


def bspline_derivative(m: int, x):
    """First derivative of N_m via N_m'(x) = N_{m-1}(x) - N_{m-1}(x-1).

    For m = 1 the derivative jumps at knots; the right-hand limit is
    returned there.  Rejects m = 0 (the derivative is not a function).
    """
    _check_degree(m, 1)
    u, restore = _prepare(x)
    return restore(eval_bspline(m - 1, u) - eval_bspline(m - 1, u - 1.0))


def integer_samples(m: int) -> Array:
    """Interior integer samples [N_m(1), ..., N_m(m)]; empty for m = 0.

    Computed exactly as integers over m!, then rounded once to float.
    """
    _check_degree(m)
    f = math.factorial(m)
    return np.array([t / f for t in _scaled_integer_samples(m)], dtype=np.float64)
