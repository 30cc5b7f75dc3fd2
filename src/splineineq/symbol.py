"""The periodized squared B-spline symbol and the derivative-to-function
symbol ratio whose maximum over frequency yields the sharp inequality
constant."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from ._series import power_tail, power_tail_bound
from .bspline import gram_autocorrelation

Array = npt.NDArray[np.float64]

__all__ = [
    "SymbolEval",
    "symbol_fourier",
    "symbol_lattice",
    "ratio_L",
    "argmax_ratio",
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
    if m < 0:
        raise ValueError("degree must be non-negative")
    w = np.atleast_1d(np.asarray(omega, dtype=np.float64))
    scalar = np.asarray(omega).ndim == 0
    a = gram_autocorrelation(m)
    out = np.full_like(w, a[0])
    for j in range(1, m + 1):
        out += 2.0 * a[j] * np.cos(j * w)
    return float(out[0]) if scalar else out


def _lattice_terms(r, s, p: float, terms: int) -> Array:
    """Terms l = -terms..terms; r and s are floats or (n, 1) columns."""
    ls = np.arange(-terms, terms + 1, dtype=np.float64)
    return (s / np.abs(r + _TWO_PI * ls)) ** p


def _lattice_total(
    r: float, s: float, p: float, terms: int, vals: Array
) -> tuple[float, float]:
    """Sum of the explicit terms ``vals`` and both tail estimates, with the
    tails' error bound.  fsum is correctly rounded, so term order is moot.

    The tails stay Python-float arithmetic: numpy's vectorised power
    differs from libm's pow in the last bit for about 5% of inputs, and
    the published values must not move.
    """
    partial = math.fsum(vals.tolist())
    first_up = r + _TWO_PI * (terms + 1)
    first_dn = -(r - _TWO_PI * (terms + 1))
    tail = s**p * (
        power_tail(first_up, _TWO_PI, p) + power_tail(first_dn, _TWO_PI, p)
    )
    bound = s**p * (
        power_tail_bound(first_up, _TWO_PI, p) + power_tail_bound(first_dn, _TWO_PI, p)
    )
    return partial + tail, bound


def symbol_lattice(m: int, omega, rtol: float = 1e-12) -> SymbolEval:
    """Periodized squared symbol as a sum over the frequency lattice.

    Sums |sinc-type factor|^(2m+2) over translates ω + 2πl.  Each term is
    formed as a single power of 2|sin(ω/2)| / |ω + 2πl| so that no
    intermediate overflows near lattice frequencies.  The two one-sided
    tails are estimated by Euler-Maclaurin with an enveloping remainder;
    the number of explicit terms doubles until the bound meets rtol.

    Accepts a scalar or an array of frequencies.  The first 17 terms of
    every frequency are formed in one array operation; only frequencies
    that miss rtol with them go on to the doubling, one at a time.  A
    frequency gets the same result alone as inside an array.
    """
    if m < 0:
        raise ValueError("degree must be non-negative")
    if not rtol > 0.0:
        raise ValueError("rtol must be positive")
    w = np.asarray(omega, dtype=np.float64)
    p = 2.0 * m + 2.0
    # Reduce to the principal period first: IEEE remainder is exact, and
    # it keeps every lattice denominator safely away from zero.
    r = np.array([math.remainder(x, _TWO_PI) for x in w.ravel().tolist()])
    # At a lattice frequency every term but one vanishes and the surviving
    # limit is exactly 1.
    value = np.ones_like(r)
    bound = np.zeros_like(r)
    live = np.flatnonzero(r != 0.0)
    r_live = r[live].tolist()
    s_live = [2.0 * abs(math.sin(0.5 * x)) for x in r_live]
    first = 8
    block = _lattice_terms(
        np.array(r_live)[:, None], np.array(s_live)[:, None], p, first
    )
    for i, ri, si, vals in zip(live.tolist(), r_live, s_live, block):
        terms = first
        v, b = _lattice_total(ri, si, p, terms, vals)
        while not (b <= rtol * v or terms >= 1 << 22):
            terms *= 2
            v, b = _lattice_total(ri, si, p, terms, _lattice_terms(ri, si, p, terms))
        value[i] = v
        bound[i] = b
    if w.ndim == 0:
        return SymbolEval(
            degree=m,
            omega=float(w),
            value=float(value[0]),
            method="lattice",
            tail_bound=float(bound[0]),
        )
    return SymbolEval(
        degree=m,
        omega=w,
        value=value.reshape(w.shape),
        method="lattice",
        tail_bound=bound.reshape(w.shape),
    )


def ratio_L(m: int, omega):
    """Rayleigh-type ratio 4 sin²(ω/2) · symbol_{m-1}(ω) / symbol_m(ω).

    This is the squared first-derivative amplification of a unit-lattice
    degree-m spline at frequency ω.  Even, 2π-periodic, increasing on
    [0, π], maximal at ω = π.
    """
    if m < 1:
        raise ValueError("degree must be at least 1")
    w = np.atleast_1d(np.asarray(omega, dtype=np.float64))
    scalar = np.asarray(omega).ndim == 0
    num = symbol_fourier(m - 1, w)
    den = symbol_fourier(m, w)
    out = 4.0 * np.sin(0.5 * w) ** 2 * num / den
    return float(out[0]) if scalar else out


def argmax_ratio(m: int, grid_points: int = 4096) -> tuple[float, float]:
    """Maximize ratio_L over one period; returns (omega, value).

    Scans a uniform grid on [0, 2π), then refines around the best grid
    point by golden-section search.  The refinement is only kept when it
    actually improves on the grid value; ties go to the smaller frequency.
    """
    if m < 1:
        raise ValueError("degree must be at least 1")
    if grid_points < 4:
        raise ValueError("grid too coarse")
    grid = _TWO_PI * np.arange(grid_points) / grid_points
    vals = ratio_L(m, grid)
    i = int(np.argmax(vals))
    best_w = float(grid[i])
    best_v = float(vals[i])

    lo = float(grid[i - 1]) if i > 0 else float(grid[i]) - _TWO_PI / grid_points
    hi = (
        float(grid[i + 1])
        if i + 1 < grid_points
        else float(grid[i]) + _TWO_PI / grid_points
    )
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = float(ratio_L(m, c))
    fd = float(ratio_L(m, d))
    for _ in range(80):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = float(ratio_L(m, c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = float(ratio_L(m, d))
        if b - a < 1e-14 * max(1.0, abs(b)):
            break
    w_ref = 0.5 * (a + b)
    v_ref = float(ratio_L(m, w_ref))
    if v_ref > best_v or (v_ref == best_v and w_ref < best_w):
        return w_ref, v_ref
    return best_w, best_v
