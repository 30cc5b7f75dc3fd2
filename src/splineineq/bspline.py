"""Cardinal B-splines on integer knots: evaluation, autocorrelations, and
pointwise evaluation of B-spline series."""

from __future__ import annotations

import contextvars
import math
import operator
import os
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.typing as npt

Array = npt.NDArray[np.float64]

__all__ = [
    "CardinalSpline",
    "eval_bspline",
    "gram_autocorrelation",
    "spline_eval",
]


def _prepare(x) -> tuple[Array, Callable[[Array], float | Array]]:
    """x as a flat float64 vector, and ``restore``, which gives a result
    computed on that vector the form of x: a float for a scalar x (a Python
    number or a 0-d array), an array of x's shape otherwise.

    Raises ValueError if any entry of x is NaN or infinite, before any
    work on x: a point or frequency must be finite.
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("points and frequencies must be finite")

    def restore(out: Array) -> float | Array:
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    return arr.ravel(), restore


# Coefficients per slice below which a kernel runs on the calling thread
# alone: a row is split only when every slice gets at least this many.  On
# a 2-vCPU VM, where starting and joining a thread takes about 100 us, two
# slices began to pay off between 2^18 and 2^19 coefficients per row.
PARALLEL_MIN = 1 << 18


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_slices(
    fn: Callable[..., object], *args, axis: int = -1, width: int = 1
) -> list:
    """``[fn(*pieces), ...]``, the array args cut into contiguous slices.

    The first argument is an array, and every array argument is cut at the
    same indices along axis; any other argument goes to each slice as it
    is.  Each index along axis stands for ``width`` coefficients.  There is
    one slice per usable CPU, but no more than leave every slice
    ``PARALLEL_MIN`` coefficients; with one slice this is ``[fn(*args)]`` on
    the calling thread.  The cuts change no bit of a result as long as fn
    computes each element, or each partial, the same way whatever the
    bounds of its slice.

    The caller runs slice 0 and a pool thread each other slice, in a copy
    of the caller's context, so that its ``np.errstate`` holds there as
    well.  The pool joins every thread before this returns, and the
    exception of the lowest failing slice is raised in the caller.
    """
    n = args[0].shape[axis]
    k = n * width // PARALLEL_MIN
    if k >= 2:
        k = min(_usable_cpus(), k)
    if k < 2:
        return [fn(*args)]
    from concurrent.futures import ThreadPoolExecutor  # only long rows import it

    after = (slice(None),) * (-1 - axis)

    def piece(i: int) -> list:
        cut = (Ellipsis, slice(n * i // k, n * (i + 1) // k)) + after
        return [a[cut] if isinstance(a, np.ndarray) else a for a in args]

    with ThreadPoolExecutor(k - 1) as pool:
        rest = [
            pool.submit(contextvars.copy_context().run, fn, *piece(i))
            for i in range(1, k)
        ]
        first = fn(*piece(0))
        return [first] + [f.result() for f in rest]


def _integer(n, name: str) -> int:
    """n as an int if it is integral (an int, a bool or a numpy integer);
    anything else, 3.0 and NaN included, raises "<name> must be an integer"."""
    try:
        return operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None


def _check_degree(m: int, least: int = 0) -> int:
    """m as an int; reject a degree that is not an integer, or is below
    ``least``: 0, or 1 where a derivative is taken."""
    m = _integer(m, "degree")
    if m < least:
        if least == 0:
            raise ValueError("degree must be non-negative")
        raise ValueError(f"degree must be at least {least}")
    return m


def _check_spacing(spacing: float) -> None:
    """Reject a knot spacing that is not a positive finite number."""
    if not 0.0 < spacing < math.inf:
        raise ValueError("spacing must be a positive finite number")


def _basis_window(m: int, u: Array) -> tuple[npt.NDArray[np.int64], Array]:
    """Values of every possibly-nonzero integer shift of N_m at each u.

    Returns ``(j0, w)`` with ``w[:, i] = N_m(u - (j0 - m + i))`` for
    ``i = 0..m`` and ``j0 = floor(u)``.  Each degree step is a convex-like
    combination with nonnegative weights, so the triangle is stable for
    every degree the package exercises.
    """
    j0 = np.floor(u).astype(np.int64)
    t = u - j0  # in [0, 1)
    w = np.ones((u.shape[0], 1))
    for d in range(1, m + 1):
        wn = np.zeros((u.shape[0], d + 1))
        for i in range(d + 1):
            y = t + (d - i)  # u - g for the shift g = j0 - d + i
            if i >= 1:
                wn[:, i] += (y / d) * w[:, i - 1]
            if i <= d - 1:
                wn[:, i] += ((d + 1 - y) / d) * w[:, i]
        w = wn
    return j0, w


@lru_cache(maxsize=None)
def _scaled_integer_samples(n: int) -> tuple[int, ...]:
    """n! * N_n(j) for j = 1..n, exact integers.

    ``T_d(j) = d! N_d(j)`` obeys the degree recurrence ``T_d(j) = j T_{d-1}(j)
    + (d+1-j) T_{d-1}(j-1)``, whose terms are non-negative: nothing cancels.
    Each table is a palindrome, ``T_d(j) = T_d(d+1-j)``, so the recurrence
    forms ``j = 1..⌈d/2⌉`` and the rest is that half mirrored.
    """
    t = [1] if n else []  # T_1(1) = 1
    for d in range(2, n + 1):
        prev = [0, *t]  # T_{d-1}(j) for j = 0..d-1; N_{d-1} is 0 at 0
        ceil_half = (d + 1) // 2
        half = [j * prev[j] + (d + 1 - j) * prev[j - 1] for j in range(1, ceil_half + 1)]
        t = half + half[: d // 2][::-1]
    return tuple(t)


@lru_cache(maxsize=None)
def _autocorr(m: int) -> tuple[float, ...]:
    # a_j = integral N_m(x) N_m(x+j) dx = N_{2m+1}(m+1+j): integer samples of
    # the doubled-degree B-spline, not quadrature.
    n = 2 * m + 1
    f = math.factorial(n)
    samples = _scaled_integer_samples(n)
    return tuple(samples[m + j] / f for j in range(m + 1))


def gram_autocorrelation(m: int) -> Array:
    """Autocorrelations a_j = ∫ N_m(x) N_m(x+j) dx for j = 0..m.

    a_{-j} = a_j by symmetry.  These are the Fourier coefficients of the
    periodized squared symbol and the entries of the banded Gram matrix
    used for exact L2 norms.
    """
    return np.array(_autocorr(_check_degree(m)), dtype=np.float64)


@dataclass(frozen=True, eq=False)
class CardinalSpline:
    """Finite B-spline series on a uniform knot lattice of spacing Δ.

    Represents ``s(x) = sum_j coeffs[j] * N_m(x/Δ - j)``, supported on
    ``[0, Δ(n + m)]``: a piecewise polynomial of degree ≤ m on each knot
    interval with m-1 continuous derivatives.  A spline shifted by o knots
    is this one at ``x - oΔ``, and no norm depends on the shift.

    ``coeffs`` of shape ``(batch, n)`` is a stack of splines that share
    degree and spacing, one per row; derivatives, norms and the
    inequality check act row by row, while evaluation needs a single
    spline.  Coefficients must be finite.
    """

    degree: int
    knot_spacing: float
    coeffs: Array

    def __post_init__(self) -> None:
        object.__setattr__(self, "degree", _check_degree(self.degree))
        _check_spacing(self.knot_spacing)
        # C order: a strided BLAS dot need not give the contiguous one's bits
        c = np.asarray(self.coeffs, dtype=np.float64, order="C")
        if c.ndim > 2:
            raise ValueError("coefficients must be a vector or a (batch, n) stack")
        # a view, so that freezing it leaves the caller's array writable
        c = c.reshape(c.shape if c.ndim == 2 else -1)
        # one read and no temporary (but a copy of each slice of a long
        # stack): a sum of squares with an inf or NaN term is not finite;
        # only then (or when finite squares overflow) check each entry
        with np.errstate(over="ignore", invalid="ignore"):
            total = sum(_in_slices(np.vdot, c, c))
        if not math.isfinite(total):
            _reject(~np.isfinite(c).all(axis=-1), "coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "knot_spacing", float(self.knot_spacing))

    @property
    def support(self) -> tuple[float, float]:
        """Smallest closed interval outside which the spline (every row) vanishes."""
        return (0.0, self.knot_spacing * (self.coeffs.shape[-1] + self.degree))

    def __call__(self, x):
        return spline_eval(self, x)


def _reject(bad, message: str) -> None:
    """Raise ValueError if ``bad`` flags a row, naming the first one.

    ``bad`` is a boolean array with one entry per row of a stack, or a
    single bool for one spline.
    """
    if isinstance(bad, np.ndarray):
        if bad.any():
            raise ValueError(f"row {bad.argmax()}: {message}")
    elif bad:
        raise ValueError(message)


def _require_single(s: CardinalSpline) -> None:
    """Reject a (batch, n) stack where one spline is needed."""
    if s.coeffs.ndim != 1:
        raise ValueError("needs a single spline, not a (batch, n) stack")


def spline_eval(s: CardinalSpline, x):
    """Evaluate the spline at x: +0.0 outside its support, and inside it
    only the ≤ m+1 overlapping shifts are used."""
    _require_single(s)
    u, restore = _prepare(x)
    c, m = s.coeffs, s.degree
    out = np.zeros_like(u)
    with np.errstate(over="ignore"):  # a huge x lands outside, unwarned
        v = u / s.knot_spacing
    inside = (v >= 0) & (v < c.size + m)  # the support in knot space
    if c.size and inside.any():
        j0, w = _basis_window(m, v[inside])
        idx = j0[:, None] - m + np.arange(m + 1)
        valid = (idx >= 0) & (idx < c.size)
        gathered = np.where(valid, c[np.clip(idx, 0, c.size - 1)], 0.0)
        out[inside] = np.einsum("ij,ij->i", w, gathered)
    return restore(out)


def eval_bspline(m: int, x):
    """Evaluate the degree-m cardinal B-spline N_m at x (scalar or array).

    N_m is supported on [0, m+1], nonnegative, integrates to 1, and its
    integer shifts form a partition of unity.  Evaluation uses the two-term
    degree recurrence, which stays stable where the alternating
    truncated-power sum cancels catastrophically.  Piecewise-constant
    pieces (m = 0) are taken right-continuous.  N_m is the one-coefficient
    series on unit knots, so this is spline_eval's path.
    """
    return spline_eval(CardinalSpline(degree=m, knot_spacing=1.0, coeffs=[1.0]), x)
