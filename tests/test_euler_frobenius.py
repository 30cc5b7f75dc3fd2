from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splineineq.cli import main
from splineineq.euler_frobenius import (
    _exact_sign,
    _search_grid,
    _signer,
    _symbol_factors,
    ef_coefficients_exact,
    ef_roots,
    representative_roots,
    symbol_via_ef,
)
from splineineq.symbol import symbol_fourier


def full_axis_roots(n: int) -> tuple[float, ...]:
    """Oracle: every root from one search of the whole negative axis.

    A geomspace grid between the Cauchy bounds -(1 + max coeff)^±1, doubled
    until it shows all n - 1 roots as sign changes or exact zeros, and each
    bracket bisected to one ulp.  The library's search takes only (-1, 0)
    and gets the rest by reciprocity; both must give the same floats.
    """
    coeffs = ef_coefficients_exact(n)
    if n == 1:
        return ()
    bound = 1.0 + float(max(coeffs))
    grid_points = max(96, 24 * n)
    for _ in range(8):
        grid = (-np.geomspace(1.0 / bound, bound, grid_points)[::-1]).tolist()
        signs = [_exact_sign(coeffs, x) for x in grid]
        hits = [x for x, s in zip(grid, signs) if s == 0]
        brackets = [
            (grid[i], grid[i + 1], signs[i])
            for i in range(len(grid) - 1)
            if signs[i] * signs[i + 1] < 0
        ]
        if len(hits) + len(brackets) == n - 1:
            break
        grid_points *= 2
    else:
        raise AssertionError(f"the full-axis search missed roots of order {n}")
    roots = list(hits)
    for lo, hi, slo in brackets:
        while (mid := 0.5 * (lo + hi)) > lo and mid < hi:
            s = _exact_sign(coeffs, mid)
            if s == 0:
                break
            lo, hi = (mid, hi) if s == slo else (lo, mid)
        roots.append(mid)
    return tuple(sorted(roots))


class TestCoefficients:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (1, (1,)),
            (2, (1, 1)),
            (3, (1, 4, 1)),
            (4, (1, 11, 11, 1)),
            (5, (1, 26, 66, 26, 1)),
            (7, (1, 120, 1191, 2416, 1191, 120, 1)),
        ],
    )
    def test_known_tables(self, n, expected):
        assert ef_coefficients_exact(n) == expected

    @pytest.mark.parametrize("n", range(1, 14))
    def test_palindromic_monic_positive(self, n):
        c = ef_coefficients_exact(n)
        assert len(c) == n
        assert c == tuple(reversed(c))
        assert c[0] == 1
        assert all(v > 0 for v in c)

    @pytest.mark.parametrize("n", range(1, 14))
    def test_sum_is_factorial(self, n):
        # partition of unity evaluated at an integer point
        assert sum(ef_coefficients_exact(n)) == math.factorial(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ef_coefficients_exact(0)


class TestRoots:
    def test_order_one_has_none(self):
        assert ef_roots(1).size == 0

    @pytest.mark.parametrize("n", [172, 173, 201])
    def test_order_past_the_float_range_raises(self, n):
        # the largest coefficient of order 171 is a float, that of 172 is not
        assert float(max(ef_coefficients_exact(171))) < math.inf
        with pytest.raises(OverflowError):
            float(max(ef_coefficients_exact(172)))
        message = f"^order {n} is too high: its largest coefficient exceeds"
        with pytest.raises(ValueError, match=message):
            ef_roots(n)
        with pytest.raises(ValueError, match=message):
            representative_roots(n)
        if n % 2:  # the symbol of degree (n - 1) / 2 needs the roots of order n
            with pytest.raises(ValueError, match=message):
                symbol_via_ef((n - 1) // 2, 0.5)

    def test_order_below_one_raises(self):
        with pytest.raises(ValueError, match="^order must be at least 1$"):
            ef_roots(0)

    @pytest.mark.parametrize("n", range(1, 62))
    def test_both_halves_match_the_full_axis_search(self, n):
        roots = ef_roots(n).tolist()
        assert roots == list(full_axis_roots(n))
        inner = [r for r in roots if r > -1.0]
        assert representative_roots(n).tolist() == inner
        assert len(inner) == (n - 1) // 2

    def test_doubling_keeps_every_grid_point(self):
        # the search signs only the new points of each finer grid, so the
        # coarser grid must sit bit for bit at its even indices
        for n in range(1, 172):
            for k in 4 * n * 2 ** np.arange(7):
                coarse, fine = _search_grid(n, int(k)), _search_grid(n, int(2 * k))
                assert fine[::2].tobytes() == coarse.tobytes(), (n, k)

    def test_last_order_has_certified_reciprocal_pairs(self):
        # order 171, the ceiling: 170 roots, none of them -1
        n = 171
        coeffs = ef_coefficients_exact(n)
        r = ef_roots(n)
        assert r.size == n - 1
        assert np.all(np.diff(r) > 0)
        assert_allclose(r * r[::-1], 1.0, rtol=1e-15, atol=0)
        # each root is one of the two floats around an exact sign change
        for x in r.tolist():
            around = [np.nextafter(x, -np.inf), x, np.nextafter(x, 0.0)]
            signs = [_exact_sign(coeffs, float(y)) for y in around]
            assert 0 not in signs and signs[0] != signs[2], x

    @pytest.mark.parametrize("n", [101, 171])
    def test_each_root_sits_in_an_exact_sign_change(self, n):
        # the outer root's search starts from the inner root's last bracket;
        # from any start, a simple root has one bracket of adjacent floats
        coeffs = ef_coefficients_exact(n)
        for x in ef_roots(n).tolist():
            below = _exact_sign(coeffs, float(np.nextafter(x, -np.inf)))
            above = _exact_sign(coeffs, float(np.nextafter(x, np.inf)))
            assert 0 not in (below, above) and below != above, (n, x)

    @pytest.mark.parametrize(
        "n,digest",
        [
            (101, "6f62093d7e54027e9776f29ac25feabcf227576a0bf3bcba4f63eef95c4cea5c"),
            (171, "8b9abc573c16503f6bc86b3675e6d9db4b6a97e45f1be33b1f4a77849ab2e4b1"),
        ],
    )
    def test_high_order_roots_unchanged(self, n, digest):
        # little-endian float64 bytes of the roots from whole-bracket searches
        got = ef_roots(n).astype("<f8").tobytes()
        assert hashlib.sha256(got).hexdigest() == digest

    def test_order_two(self):
        assert_allclose(ef_roots(2), [-1.0])

    def test_order_three_closed_form(self):
        assert_allclose(
            ef_roots(3), [-2 - math.sqrt(3), -2 + math.sqrt(3)], rtol=1e-15
        )

    @pytest.mark.parametrize("n", range(2, 14))
    def test_all_real_negative_simple(self, n):
        r = ef_roots(n)
        assert r.size == n - 1
        assert np.all(r < 0)
        assert np.all(np.diff(r) > 0)

    @pytest.mark.parametrize("n", range(2, 14))
    def test_reciprocal_pairs(self, n):
        r = ef_roots(n)
        prods = r * r[::-1]
        assert_allclose(prods, 1.0, rtol=1e-12)

    @pytest.mark.parametrize("n", range(2, 14))
    def test_backward_error_small(self, n):
        """Residual scaled by sum |a_j| |x|^j, the natural backward-error
        yardstick for polynomials with huge dominant roots."""
        coeffs = ef_coefficients_exact(n)
        for x in ef_roots(n):
            val = math.fsum(c * x**j for j, c in enumerate(coeffs))
            scale = math.fsum(abs(c) * abs(x) ** j for j, c in enumerate(coeffs))
            assert abs(val) <= 1e-13 * scale


class TestRepresentatives:
    @pytest.mark.parametrize("n", range(3, 14, 2))
    def test_inside_unit_interval(self, n):
        reps = representative_roots(n)
        assert reps.size == (n - 1) // 2
        assert np.all(reps > -1.0)
        assert np.all(reps < 0.0)

    @pytest.mark.parametrize("n", range(5, 14, 2))
    def test_consecutive_orders_interlace(self, n):
        inner = representative_roots(n - 2)
        outer = representative_roots(n)
        assert inner.size + 1 == outer.size
        for i, r in enumerate(inner):
            assert outer[i] < r < outer[i + 1]


class TestSymbolProduct:
    def test_degree_zero_is_one(self):
        w = np.linspace(0, 7, 23)
        assert_allclose(symbol_via_ef(0, w), 1.0)

    def test_anchored_at_zero(self):
        for m in range(1, 7):
            assert symbol_via_ef(m, 0.0) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_agrees_with_cosine_expansion(self, m):
        w = np.linspace(0.0, 2 * math.pi, 129)
        a = symbol_via_ef(m, w)
        b = symbol_fourier(m, w)
        assert_allclose(a, b, rtol=1e-12)

    def test_known_value(self):
        assert symbol_via_ef(1, math.pi) == pytest.approx(1 / 3, rel=1e-13)

    def test_scalar_in_scalar_out(self):
        assert isinstance(symbol_via_ef(2, 1.0), float)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            symbol_via_ef(-1, 0.5)

    def test_degree_82_underflows(self):
        # the oracle behind the O(1) degree-81 rule: each factor is least at
        # ω = π, as λ < 0, so the partial products there are the least at any
        # ω; at degree 81 each is a normal float, at 82 one passes 2.0e-310
        def least_at_pi(m):
            reps, norm = _symbol_factors(m)
            at_pi = [(1.0 + 2.0 * lam + lam * lam) / (-lam) for lam in reps]
            return np.multiply.accumulate([norm, *at_pi]).min()

        tiny = np.finfo(np.float64).tiny
        assert least_at_pi(81) >= tiny > least_at_pi(82)
        message = "^degree 82 is too high: the root product underflows at pi$"
        with pytest.raises(ValueError, match=message):
            symbol_via_ef(82, 0.5)


def fraction_sign(coeffs, x):
    """Oracle: Horner over Fraction, the float taken as the exact rational."""
    q = Fraction(x)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * q + c
    return (acc > 0) - (acc < 0)


class TestExactSign:
    @pytest.mark.parametrize("n", range(1, 42))
    def test_matches_fraction_horner(self, n):
        coeffs = ef_coefficients_exact(n)
        # the first root-search grid, as built for this order
        grid = _search_grid(n, 4 * n)
        roots = ef_roots(n)
        near_roots = np.concatenate(
            [roots, np.nextafter(roots, -np.inf), np.nextafter(roots, 0.0)]
        )
        special = [0.0, -0.0, -1.0, 1.0, -5e-324, 2.5e-310, 1e300, -1e300]
        sign = _signer(coeffs)  # float Horner first; it overflows at ±1e300
        for x in grid.tolist() + near_roots.tolist() + special:
            want = fraction_sign(coeffs, x)
            assert _exact_sign(coeffs, x) == want, (n, x)
            assert sign(x) == want, (n, x)

    @pytest.mark.parametrize("n", [101, 171])
    def test_float_first_sign_at_high_orders(self, n):
        # the first grid, where float Horner decides most signs, and each
        # root and its neighbours, where it decides least
        coeffs = ef_coefficients_exact(n)
        roots = ef_roots(n)
        points = np.concatenate(
            [
                _search_grid(n, 4 * n),
                roots,
                np.nextafter(roots, -np.inf),
                np.nextafter(roots, np.inf),
            ]
        )
        sign = _signer(coeffs)
        for x in points.tolist():
            assert sign(x) == _exact_sign(coeffs, x), (n, x)

    @pytest.mark.parametrize("n", range(2, 42, 2))
    def test_minus_one_is_exact_root_for_even_order(self, n):
        assert _exact_sign(ef_coefficients_exact(n), -1.0) == 0

    def test_roots_output_unchanged(self, capsys):
        # digest of `roots --max-order 41` from the Fraction-based isolation
        assert main(["roots", "--max-order", "41"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8eee813ece044f054a85c6cb1eda7e7591dd5cd9d62d657309452661c767ff52"
        )
