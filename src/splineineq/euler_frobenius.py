"""Euler-Frobenius polynomials: the monic integer polynomials whose
coefficients are the interior integer samples of a cardinal B-spline scaled
by a factorial.  Their roots are simple, negative, and come in reciprocal
pairs; the half inside (-1, 0) factors the periodized squared B-spline
symbol."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import numpy.typing as npt

from .bspline import _check_degree, _prepare, _scaled_integer_samples

Array = npt.NDArray[np.float64]

__all__ = [
    "RootCountError",
    "ef_coefficients_exact",
    "ef_roots",
    "representative_roots",
    "symbol_via_ef",
]


class RootCountError(RuntimeError):
    """Raised when sign changes on the search grid miss some roots."""


def ef_coefficients_exact(n: int) -> tuple[int, ...]:
    """Exact integer coefficients, ascending powers, length n."""
    if n < 1:
        raise ValueError("order must be at least 1")
    return _scaled_integer_samples(n)


def _check_ef_order(n: int) -> None:
    """Reject, in O(1), an order above 171, the last whose coefficients are
    floats: the root search needs no coefficient bound, but a table does."""
    if n > 171:
        raise ValueError(
            f"order {n} is too high: its largest coefficient exceeds the float range"
        )


def _check_symbol_degree(m: int) -> None:
    """The order rule on 2m+1, then in O(1) the degrees whose root product
    at pi is no longer a normal float (test_degree_82_underflows scans the
    partial products to check that boundary)."""
    _check_ef_order(2 * m + 1)
    if m > 81:
        raise ValueError(f"degree {m} is too high: the root product underflows at pi")


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
    return (acc > 0) - (acc < 0)


def _bisect_root(coeffs: tuple[int, ...], lo: float, hi: float, slo: int) -> float:
    """Shrink a sign-change bracket to one ulp."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return 0.5 * (lo + hi)
        if _exact_sign(coeffs, mid) == slo:
            lo = mid
        else:
            hi = mid


def _search_grid(n: int, intervals: int) -> Array:
    """-2^-t for t = i·(n + 8)/intervals, i = 0..intervals, each mantissa cut
    to 12 bits.  Doubling ``intervals`` halves the step exactly, so the
    finer grid holds every point of the coarser one at its even indices.
    """
    t = np.arange(intervals + 1) * ((n + 8.0) / intervals)
    mant, exp = np.frexp(-np.exp2(-t))
    return np.ldexp(np.round(mant * 4096.0) / 4096.0, exp)


@lru_cache(maxsize=None)
def _roots_cached(n: int) -> tuple[float, ...]:
    # Monic with constant term 1 and positive coefficients: the only rational
    # root can be -1, a root at even n and the first grid point, skipped
    # there, so no other dyadic point is a root.  The smallest root is about
    # -2^-n, and (n-1)//2 sign changes in (-1, 0) certify one root per
    # bracket.  Each doubling signs only the new points.
    coeffs = ef_coefficients_exact(n)
    skip = 1 - n % 2
    grid = _search_grid(n, 4 * n)
    signs = np.array([_exact_sign(coeffs, x) for x in grid.tolist()])
    for _ in range(8):
        at = np.flatnonzero(signs[skip:-1] != signs[skip + 1 :]) + skip
        if at.size == (n - 1) // 2:
            break
        grid = _search_grid(n, 2 * (grid.size - 1))
        finer = np.repeat(signs, 2)[:-1]
        finer[1::2] = [_exact_sign(coeffs, x) for x in grid[1::2].tolist()]
        signs = finer
    else:
        raise RootCountError(f"found {at.size} roots in (-1, 0) for order {n}")
    roots = [-1.0] * skip
    for lo, hi, slo in zip(grid[at].tolist(), grid[at + 1].tolist(), signs[at].tolist()):
        # the reciprocal bracket, rounded outward, must change sign too
        olo, ohi = np.nextafter([1.0 / hi, 1.0 / lo], [-np.inf, np.inf]).tolist()
        so = _exact_sign(coeffs, olo)
        if so == _exact_sign(coeffs, ohi):
            raise RootCountError(f"no sign change around 1/{lo!r} for order {n}")
        roots += [_bisect_root(coeffs, lo, hi, slo), _bisect_root(coeffs, olo, ohi, so)]
    return tuple(sorted(roots))


def ef_roots(n: int) -> Array:
    """All n-1 roots, ascending.  Empty for n = 1; ValueError from 172 on."""
    _check_ef_order(n)
    return np.array(_roots_cached(n), dtype=np.float64)


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
    constant.  Independent of the Fourier-coefficient route.  ValueError
    from degree 82 on, where the product at π is no longer a normal float.
    """
    _check_degree(m)
    _check_symbol_degree(m)
    w, restore = _prepare(omega)
    reps, norm = _symbol_factors(m)  # no factors and norm 1.0 at m = 0
    out = np.full_like(w, norm)
    c = np.cos(w)
    for lam in reps:
        out *= (1.0 - 2.0 * lam * c + lam * lam) / (-lam)
    return restore(out)
