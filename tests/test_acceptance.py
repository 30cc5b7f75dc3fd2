"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line with the measured figures so the suite output doubles as a
release report."""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

from splineineq.bernstein import (
    extremal_ratio,
    sharp_constant,
    verify_inequality,
)
from splineineq.bspline import CardinalSpline
from splineineq.euler_frobenius import ef_roots, representative_roots, symbol_via_ef
from splineineq.favard import favard
from splineineq.norms import derivative_coeffs, l2_norm_sq, l2_norm_sq_quadrature
from splineineq.symbol import ratio_L, symbol_fourier, symbol_lattice

from symbol_extras import (
    half_angle_form,
    key_lemma_numerator,
    poly_mul,
    sign_variations,
    symbol_at_pi,
)

PI = math.pi


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_favard_closed_forms():
    closed = [
        1.0,
        PI / 2,
        PI**2 / 8,
        PI**3 / 24,
        5 * PI**4 / 384,
        PI**5 / 240,
        61 * PI**6 / 46080,
        17 * PI**7 / 40320,
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for m, expected in enumerate(closed):
        got = favard(m, 1e-13).value
        worst = max(worst, abs(got - expected) / expected)
    dt = time.perf_counter() - t0
    _verdict(
        1,
        worst <= 1e-12 and dt < 1.0,
        f"favard 0..7 worst rel err {worst:.2e}, {dt:.3f}s",
    )


def test_criterion_2_sharp_constants_two_ways():
    checks = [
        abs(sharp_constant(1, 1, 1.0) - 2 * math.sqrt(3)) / (2 * math.sqrt(3)),
        abs(sharp_constant(2, 1, 1.0) - math.sqrt(10)) / math.sqrt(10),
        abs(
            sharp_constant(3, 1, 1.0)
            - PI * math.sqrt(favard(5, 1e-14).value / favard(7, 1e-14).value)
        )
        / sharp_constant(3, 1, 1.0),
    ]
    # direct formula vs telescoped product of one-derivative constants
    for m in range(1, 7):
        for k in range(1, m + 1):
            product = 1.0
            for j in range(k):
                product *= sharp_constant(m - j, 1, 1.0)
            direct = sharp_constant(m, k, 1.0)
            checks.append(abs(direct - product) / direct)
    worst = max(checks)
    _verdict(2, worst <= 1e-12, f"direct vs telescoped worst rel {worst:.2e}")


def test_criterion_3_ratio_grid_max_matches_favard_ratio():
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 2 * PI, 8193)
    step = grid[1] - grid[0]
    worst_rel = 0.0
    worst_loc = 0.0
    for m in range(1, 7):
        vals = ratio_L(m, grid)
        i = int(np.argmax(vals))
        target = PI**2 * favard(2 * m - 1, 1e-14).value / favard(2 * m + 1, 1e-14).value
        worst_rel = max(worst_rel, abs(float(vals[i]) - target) / target)
        worst_loc = max(worst_loc, abs(float(grid[i]) - PI))
    dt = time.perf_counter() - t0
    _verdict(
        3,
        worst_rel <= 1e-6 and worst_loc <= step + 1e-12 and dt < 10.0,
        f"grid max rel {worst_rel:.2e}, argmax off pi by {worst_loc:.2e}, {dt:.2f}s",
    )


def test_criterion_4_three_way_symbol_agreement():
    grid = np.linspace(0.0, 2 * PI, 256)
    worst = 0.0
    for m in range(7):
        four = symbol_fourier(m, grid)
        efp = symbol_via_ef(m, grid)
        for i, w in enumerate(grid):
            lat = symbol_lattice(m, float(w), rtol=1e-13).value
            ref = float(four[i])
            spread = max(
                abs(ref - lat), abs(ref - float(efp[i])), abs(lat - float(efp[i]))
            )
            worst = max(worst, spread / ref)
    _verdict(4, worst <= 1e-10, f"max pairwise rel discrepancy {worst:.2e}")


def test_criterion_5_bound_audit_random_splines():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    total = 0
    violations = 0
    worst_rel_margin = math.inf
    for m in range(7):
        for k in range(m + 1):
            for spacing in (0.5, 1.0, 2.0):
                constant = sharp_constant(m, k, spacing)
                counts = rng.integers(1, 41, size=1000)
                for n in counts:
                    coeffs = rng.uniform(-1.0, 1.0, size=int(n))
                    s = CardinalSpline(
                        degree=m, knot_spacing=spacing, coeffs=coeffs
                    )
                    report = verify_inequality(s, k)
                    total += 1
                    worst_rel_margin = min(
                        worst_rel_margin, report.margin / constant
                    )
                    if report.margin < -1e-10 * constant:
                        violations += 1
    dt = time.perf_counter() - t0
    _verdict(
        5,
        violations == 0 and dt < 60.0,
        f"{total} splines, {violations} violations, "
        f"min margin/constant {worst_rel_margin:.3e}, {dt:.1f}s",
    )


def test_criterion_6_sharpness_convergence():
    ns = [0, 1, 3, 7, 15, 31, 63, 127, 255, 511]
    ok = True
    details = []
    for m in (1, 2, 3):
        curve = [extremal_ratio(m, n) for n in ns]
        constant = sharp_constant(m, 1, 1.0)
        mono = all(a <= b for a, b in zip(curve, curve[1:]))
        frac = curve[-1] / constant
        ok = ok and mono and frac >= 0.95
        details.append(f"m={m} frac={frac:.4f} mono={mono}")
    c0 = abs(extremal_ratio(1, 0) - math.sqrt(3)) / math.sqrt(3)
    c1 = abs(extremal_ratio(1, 1) - math.sqrt(6)) / math.sqrt(6)
    ok = ok and c0 <= 1e-12 and c1 <= 1e-12
    _verdict(6, ok, "; ".join(details) + f"; checkpoints {c0:.1e},{c1:.1e}")


def test_criterion_7_root_structure():
    ok = True
    worst_recip = 0.0
    for n in (3, 5, 7, 9, 11):
        r = ef_roots(n)
        ok = ok and r.size == n - 1 and bool(np.all(r < 0.0))
        recip = float(np.max(np.abs(r * r[::-1] - 1.0)))
        worst_recip = max(worst_recip, recip)
        if n >= 5:
            inner = representative_roots(n - 2)
            outer = representative_roots(n)
            ok = ok and inner.size + 1 == outer.size
            for i, root in enumerate(inner):
                ok = ok and outer[i] < root < outer[i + 1]
    ok = ok and worst_recip <= 1e-9
    # pair the i-th representative of the lower order with the i-th of
    # the higher order; both product factors must come out positive
    min_prod = math.inf
    for m in range(2, 6):
        low = representative_roots(2 * m - 1)
        high = representative_roots(2 * m + 1)
        for lam_low, lam_high in zip(low, high):
            min_prod = min(min_prod, (lam_low - lam_high) * (1.0 - lam_low * lam_high))
    ok = ok and min_prod > 0.0
    _verdict(
        7,
        ok,
        f"reciprocity worst {worst_recip:.2e}, min sign product {min_prod:.3e}",
    )


def test_criterion_8_norm_oracle():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(500):
        m = int(rng.integers(0, 7))
        count = int(rng.integers(1, 31))
        spacing = float(rng.choice([0.5, 1.0, 2.0]))
        k = int(rng.integers(0, m + 1))
        coeffs = rng.uniform(-1.0, 1.0, size=count)
        rng.integers(-5, 6)  # drawn and unused, so that later cases keep their draws
        s = CardinalSpline(degree=m, knot_spacing=spacing, coeffs=coeffs)
        d = derivative_coeffs(s, k)
        a = l2_norm_sq(d)
        b = l2_norm_sq_quadrature(d)
        worst = max(worst, abs(a - b) / max(a, b))
    _verdict(8, worst <= 1e-11, f"gram vs quadrature worst rel {worst:.2e}")


def test_criterion_9_parseval_bridge():
    """Time-domain norm equals the mean over frequency of the coefficient
    power spectrum times the periodized squared symbol (unit spacing)."""
    rng = np.random.default_rng(9)
    worst = 0.0
    for trial in range(50):
        m = int(rng.integers(0, 5))
        count = int(rng.integers(1, 31))
        coeffs = rng.uniform(-1.0, 1.0, size=count)
        s = CardinalSpline(degree=m, knot_spacing=1.0, coeffs=coeffs)
        time_side = l2_norm_sq(s)
        npts = 2 * (count + m) + 1
        w = 2.0 * PI * np.arange(npts) / npts
        spectrum = np.abs(np.exp(-1j * np.outer(w, np.arange(count))) @ coeffs) ** 2
        freq_side = float(np.mean(spectrum * symbol_fourier(m, w)))
        worst = max(worst, abs(time_side - freq_side) / time_side)
    _verdict(9, worst <= 1e-9, f"time vs frequency worst rel {worst:.2e}")


def euler_polynomials(top: int) -> list[list[Fraction]]:
    """Ascending coefficients of the Euler polynomials E_0..E_top, from the
    Appell recurrence ``E_n(x) = x^n - 1/2 Σ_{k<n} C(n, k) E_k(x)``."""
    polys: list[list[Fraction]] = []
    for n in range(top + 1):
        p = [Fraction(0)] * n + [Fraction(1)]
        for k, q in enumerate(polys):
            w = Fraction(math.comb(n, k), 2)
            for i, c in enumerate(q):
                p[i] -= w * c
        polys.append(p)
    return polys


def euler_square_integrals(top: int) -> list[Fraction]:
    """∫₀¹ E_n(x)² dx for n = 0..top, exact."""
    return [
        sum(a * b / (i + j + 1) for i, a in enumerate(p) for j, b in enumerate(p))
        for p in euler_polynomials(top)
    ]


def test_criterion_10_euler_polynomial_oracle():
    """The periodic Euler spline attains every constant at unit spacing, and
    on [0, 1] it is a multiple of the Euler polynomial E_m, whose k-th
    derivative is m!/(m-k)! E_{m-k}: a route with no B-spline, Gram matrix
    or π, checked exactly against the symbol at π."""
    t0 = time.perf_counter()
    top = 40
    integrals = euler_square_integrals(top)
    at_pi = [symbol_at_pi(m) for m in range(top + 1)]
    mismatches = 0
    worst = 0.0
    for m in range(1, top + 1):
        for k in range(1, m + 1):
            c2 = Fraction(math.perm(m, k)) ** 2 * integrals[m - k] / integrals[m]
            mismatches += c2 != 4**k * at_pi[m - k] / at_pi[m]
            got = Fraction(sharp_constant(m, k)) ** 2
            worst = max(worst, float(abs(got - c2) / c2))
    dt = time.perf_counter() - t0
    _verdict(
        10,
        mismatches == 0 and worst <= 1e-14,
        f"1 <= k <= m <= {top}: {mismatches} exact mismatches, "
        f"sharp_constant^2 worst rel {worst:.2e}, {dt:.2f}s",
    )


def test_criterion_11_key_lemma_per_degree():
    """R = 4 sin²(ω/2) S_{m-1}/S_m = 2(1 - x) S_{m-1}(x)/S_m(x) falls
    strictly in x = cos ω on (-1, 1), so it increases strictly in ω on
    (0, π): an exact proof, per degree, that the sharp constant's maximum
    is at π.  The controls show that the test sees a sign variation."""
    t0 = time.perf_counter()
    top = 40
    failed = []
    # x, 4x² - 1 and (1 + 3x)(5 - 7x) have roots in (-1, 1)
    controls = [[0, 1], [-1, 0, 4], poly_mul([1, 3], [5, -7])]
    for m in range(1, top + 1):
        n = key_lemma_numerator(m)
        if max(half_angle_form(n)) >= 0:
            failed.append(m)
        if m > 1:  # N is a constant at m = 1
            controls.append([-n[0], *n[1:]])  # its constant term's sign flipped
    blind = [c for c in controls if sign_variations(half_angle_form(c)) == 0]
    dt = time.perf_counter() - t0
    _verdict(
        11,
        not failed and not blind and dt < 1.0,
        f"1 <= m <= {top}: {len(failed)} degrees with a coefficient >= 0, "
        f"{len(blind)} of {len(controls)} controls without a sign variation, "
        f"{dt:.2f}s",
    )
