"""The sharp derivative inequality for cardinal splines.

For every degree-m spline s with square-summable coefficients on a lattice
of spacing Δ and every order k ≤ m,

    ||s^(k)||_2  <=  (π/Δ)^k * sqrt(K_{2(m-k)+1} / K_{2m+1}) * ||s||_2,

with the Favard constants K on the right.  The constant cannot be
lowered: coefficient sequences with Fejér-kernel power spectra concentrate
their energy at the extremal frequency π and push the ratio arbitrarily
close to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bspline import (
    CardinalSpline,
    _check_degree,
    _check_spacing,
    _in_slices,
    _integer,
    _reject,
)
from .favard import favard
from .norms import _check_order, derivative_coeffs, l2_norm_sq

__all__ = [
    "InequalityReport",
    "REPORT_SLACK",
    "sharp_constant",
    "verify_inequality",
    "fejer_extremal_coeffs",
    "extremal_ratio",
    "random_spline",
]

# Relative slack granted when flagging a violation: the two norms carry a
# few ulps of rounding each, so a bound that fails by less than this is
# noise, not a counterexample.
REPORT_SLACK = 1e-10


@dataclass(frozen=True)
class InequalityReport:
    """Verdict of verify_inequality.

    ``ratio``, ``margin`` and ``satisfied`` are a float, a float and a bool
    for one spline, and arrays with one entry per row for a stack.
    """

    degree: int
    order: int
    ratio: float
    constant: float
    margin: float
    satisfied: bool


@lru_cache(maxsize=None)
def _favard_value(index: int) -> float:
    return favard(index, rtol=1e-14).value


def sharp_constant(m: int, k: int, spacing: float = 1.0) -> float:
    """Best possible constant (π/Δ)^k sqrt(K_{2(m-k)+1}/K_{2m+1}).

    ``k = 0`` gives exactly 1.  Raises for k > m, where no such bound
    exists, for a spacing that is not a positive finite number, and when
    the constant overflows a float.
    """
    m = _check_degree(m)
    k = _check_order(m, k)
    _check_spacing(spacing)
    if k == 0:
        return 1.0
    knum = _favard_value(2 * (m - k) + 1)
    kden = _favard_value(2 * m + 1)
    try:
        scale = (math.pi / spacing) ** k
    except OverflowError:  # float ** int raises where float * float gives inf
        scale = math.inf
    constant = scale * math.sqrt(knum / kden)
    if constant == math.inf:
        raise ValueError(f"sharp constant overflows at spacing {spacing!r}")
    if constant == 0.0:
        # a zero bound would pass only splines whose derivative norm
        # underflowed as well: a vacuous verdict
        raise ValueError(f"sharp constant underflows to zero at spacing {spacing!r}")
    return constant


def verify_inequality(s: CardinalSpline, k: int) -> InequalityReport:
    """Check one spline, or each row of a (batch, n) stack, against the bound.

    ``ratio`` is ||s^(k)|| / ||s||, ``margin`` is constant - ratio (never
    negative in exact arithmetic).  For a stack, ``ratio``, ``margin`` and
    ``satisfied`` are arrays with one entry per row, each equal to the
    float the row alone gives.  Rejects the zero spline, whose ratio is
    undefined, a spline whose squared norms or ratio overflow, and one
    whose squared norms are so small that underflow may cost more than
    REPORT_SLACK; for a stack the error names the first such row.
    """
    norm_sq = l2_norm_sq(s)
    _reject(norm_sq <= 0.0, "norm is zero")
    _reject(_underflows(s, norm_sq), "norm underflows into the subnormal range")
    d = derivative_coeffs(s, k)
    deriv_sq = l2_norm_sq(d)
    # differencing is injective, so only underflow zeroes a derivative norm
    if k >= 1:
        _reject(deriv_sq == 0.0, "derivative norm underflows to zero")
    _reject(
        _underflows(d, deriv_sq), "derivative norm underflows into the subnormal range"
    )
    constant = sharp_constant(s.degree, k, s.knot_spacing)
    if s.coeffs.ndim == 1:  # Python floats: an overflow is inf, not a warning
        ratio = math.sqrt(deriv_sq / norm_sq)
    else:
        with np.errstate(over="ignore"):
            ratio = np.sqrt(deriv_sq / norm_sq)
    _reject(ratio == math.inf, "norms overflow: the ratio of the norms is not finite")
    return InequalityReport(
        degree=s.degree,
        order=k,
        ratio=ratio,
        constant=constant,
        margin=constant - ratio,
        satisfied=ratio <= constant * (1.0 + REPORT_SLACK),
    )


def _underflows(s: CardinalSpline, norm_sq):
    """True where underflow may cost a squared norm of s REPORT_SLACK / 2.

    Below 2**-1022 a rounding error is absolute, up to half the subnormal
    spacing 2**-1074, and no longer relative.  The Gram sum G of a row
    with n coefficients makes at most (m + 1) * n multiply-adds (two
    roundings each) in its dots and three roundings per band to combine
    them, so underflow costs it at most (m + 1) * (n + 2) * 2**-1074;
    scaling by the spacing adds half of 2**-1074 more.  When G = norm_sq /
    spacing and norm_sq are both at least ``floor``, the relative error is
    at most REPORT_SLACK/4 + REPORT_SLACK/8, that of the ratio of two such
    norms is no larger, and the rest of the slack covers the rounding of
    the normal range.  G is the smaller of the two when the spacing is
    above 1.
    """
    n = s.coeffs.shape[-1]
    floor = math.ldexp(4 * (s.degree + 1) * (n + 2) / REPORT_SLACK, -1074)
    return norm_sq < floor * max(1.0, s.knot_spacing)


def fejer_extremal_coeffs(n: int) -> np.ndarray:
    """Alternating coefficients (+1, -1, ..., ±1) of length n+1.

    Their power spectrum |Σ c_g e^{-igω}|² equals (n+1) times the Fejér
    kernel centered at ω = π, the frequency where the symbol ratio peaks,
    which is what makes these sequences asymptotically extremal.
    """
    n = _integer(n, "length parameter")
    if n < 0:
        raise ValueError("length parameter must be non-negative")
    c = np.empty(n + 1)
    # each (+1, -1) pair is one complex number, so every entry is written once
    pairs = c[: (n + 1) // 2 * 2].view(np.complex128)
    _in_slices(np.ndarray.fill, pairs, 1.0 - 1.0j, width=2)
    if n % 2 == 0:
        c[-1] = 1.0
    return c


def extremal_ratio(m: int, n: int) -> float:
    """Derivative-to-function norm ratio of the alternating spline.

    Monotone increasing in n toward sharp_constant(m, 1), more slowly as
    m grows: at n = 511 it is 0.994 of the constant at m = 3, 0.947 at
    m = 6, 0.800 at m = 8 and 0.245 at m = 14.
    """
    s = CardinalSpline(degree=m, knot_spacing=1.0, coeffs=fejer_extremal_coeffs(n))
    norm_sq = l2_norm_sq(s)
    deriv_sq = l2_norm_sq(derivative_coeffs(s, 1))
    return math.sqrt(deriv_sq / norm_sq)


def random_spline(
    m: int, count: int, spacing: float = 1.0, seed: int | None = None
) -> CardinalSpline:
    """Spline with ``count`` coefficients drawn uniformly from [-1, 1].

    Reproducible across platforms for a fixed seed: the generator is
    numpy's default_rng (PCG64), whose stream is part of this function's
    contract.
    """
    count = _integer(count, "coefficient count")
    if count < 1:
        raise ValueError("need at least one coefficient")
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, size=count)
    return CardinalSpline(degree=m, knot_spacing=spacing, coeffs=coeffs)
