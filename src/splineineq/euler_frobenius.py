"""Euler-Frobenius polynomials: the monic integer polynomials whose
coefficients are the interior integer samples of a cardinal B-spline scaled
by a factorial.  Their roots are simple, negative, and come in reciprocal
pairs; the half inside (-1, 0) factors the periodized squared B-spline
symbol."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.typing as npt

from .bspline import _scaled_integer_samples

Array = npt.NDArray[np.float64]

__all__ = [
    "EulerFrobenius",
    "RootCountError",
    "ef_coefficients",
    "ef_coefficients_exact",
    "ef_roots",
    "euler_frobenius",
    "representative_roots",
    "symbol_via_ef",
]


class RootCountError(RuntimeError):
    """Raised when sign changes on the search grid miss some roots."""


@dataclass(frozen=True)
class EulerFrobenius:
    """Degree n-1 polynomial with coefficients n! * N_n(j), j = 1..n.

    ``coeffs[j]`` multiplies z^j (ascending powers).  The coefficient
    sequence is palindromic and the polynomial is monic; ``roots`` are
    ascending (most negative first) and satisfy roots[i] * roots[-1-i] = 1.
    """

    degree: int
    coeffs: Array
    roots: Array


def ef_coefficients_exact(n: int) -> tuple[int, ...]:
    """Exact integer coefficients, ascending powers, length n."""
    if n < 1:
        raise ValueError("order must be at least 1")
    return _scaled_integer_samples(n)


def ef_coefficients(n: int) -> Array:
    """Coefficients as floats (exact for every n where they fit in 53 bits)."""
    return np.array(ef_coefficients_exact(n), dtype=np.float64)


def _exact_sign(coeffs: tuple[int, ...], x: float) -> int:
    """Sign of the integer polynomial at x, evaluated without rounding.

    A float is an exact dyadic rational num / 2^k, so integer Horner on
    2^(k(n-1)) * P(x) gives the true sign no matter how wildly the terms
    cancel; the positive power of two leaves the sign unchanged.
    """
    num, den = x.as_integer_ratio()
    k = den.bit_length() - 1
    acc = 0
    shift = 0
    for c in reversed(coeffs):
        acc = acc * num + (c << shift)
        shift += k
    if acc > 0:
        return 1
    if acc < 0:
        return -1
    return 0


def _bisect_root(coeffs: tuple[int, ...], lo: float, hi: float, slo: int) -> float:
    """Shrink a sign-change bracket to one ulp."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return 0.5 * (lo + hi)
        s = _exact_sign(coeffs, mid)
        if s == 0:
            return mid
        if s == slo:
            lo = mid
        else:
            hi = mid


@lru_cache(maxsize=None)
def _roots_cached(n: int) -> tuple[float, ...]:
    coeffs = ef_coefficients_exact(n)
    if n == 1:
        return ()
    # All coefficients are positive, so every root is negative; the Cauchy
    # bound confines them to [-bound, -1/bound].
    bound = 1.0 + float(max(coeffs))
    want = n - 1
    grid_points = max(96, 24 * n)
    for _ in range(8):
        mags = np.geomspace(1.0 / bound, bound, grid_points)
        grid = -mags[::-1]
        signs = [_exact_sign(coeffs, float(x)) for x in grid]
        hits: list[float] = []
        brackets: list[tuple[float, float, int]] = []
        for i in range(len(grid) - 1):
            if signs[i] == 0:
                hits.append(float(grid[i]))
            elif signs[i] * signs[i + 1] < 0:
                brackets.append((float(grid[i]), float(grid[i + 1]), signs[i]))
        if signs[-1] == 0:
            hits.append(float(grid[-1]))
        if len(hits) + len(brackets) == want:
            roots = hits + [_bisect_root(coeffs, lo, hi, s) for lo, hi, s in brackets]
            return tuple(sorted(roots))
        grid_points *= 2
    raise RootCountError(
        f"found {len(hits) + len(brackets)} of {want} roots for order {n}"
    )


def ef_roots(n: int) -> Array:
    """All n-1 roots, ascending.  Empty for n = 1."""
    if n < 1:
        raise ValueError("order must be at least 1")
    return np.array(_roots_cached(n), dtype=np.float64)


def euler_frobenius(n: int) -> EulerFrobenius:
    coeffs = ef_coefficients(n)
    roots = ef_roots(n)
    coeffs.setflags(write=False)
    roots.setflags(write=False)
    return EulerFrobenius(degree=n - 1, coeffs=coeffs, roots=roots)


def representative_roots(n: int) -> Array:
    """The (n-1)//2 roots inside (-1, 0), one per reciprocal pair, ascending."""
    roots = ef_roots(n)
    return roots[roots > -1.0]


@lru_cache(maxsize=None)
def _symbol_factors(m: int) -> tuple[tuple[float, ...], float]:
    reps = tuple(float(r) for r in representative_roots(2 * m + 1))
    # Normalize so the product equals 1 at frequency zero, where the
    # periodized squared symbol is exactly 1 by partition of unity.
    at_zero = 1.0
    for lam in reps:
        at_zero *= (1.0 - lam) ** 2 / (-lam)
    return reps, 1.0 / at_zero


def symbol_via_ef(m: int, omega):
    """Periodized squared symbol of N_m as a product over reciprocal pairs.

    Each pair {λ, 1/λ} of roots contributes a factor proportional to
    (1 - 2λ cos ω + λ²)/|λ|; anchoring the product at ω = 0 fixes the
    constant.  Independent of the Fourier-coefficient route, so the two
    serve as cross-checks.
    """
    if m < 0:
        raise ValueError("degree must be non-negative")
    w = np.atleast_1d(np.asarray(omega, dtype=np.float64))
    scalar = np.asarray(omega).ndim == 0
    if m == 0:
        out = np.ones_like(w)
        return float(out[0]) if scalar else out
    reps, norm = _symbol_factors(m)
    out = np.full_like(w, norm)
    c = np.cos(w)
    for lam in reps:
        out *= (1.0 - 2.0 * lam * c + lam * lam) / (-lam)
    return float(out[0]) if scalar else out
