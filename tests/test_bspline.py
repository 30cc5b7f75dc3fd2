from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bspline_extras import (
    bspline_derivative,
    eval_bspline_window,
    integer_samples,
    scaled_integer_samples_by_powers,
    scaled_integer_samples_full_rows,
)
from splineineq.bspline import (
    CardinalSpline,
    _scaled_integer_samples,
    eval_bspline,
    gram_autocorrelation,
    spline_eval,
)


def bspline_exact(m: int, x: float) -> Fraction:
    """N_m(x) exactly: ``(1/m!) Σ_k (-1)^k C(m+1, k) (x - k)_+^m`` in integers.

    The float x is p/q with q a power of two, so each truncated power is
    ``(p - kq)^m / q^m``; it is taken right-continuous, ``(x - k)_+^0 = 1``
    for x >= k, as Python's ``0**0 == 1`` gives.
    """
    p, q = x.as_integer_ratio()
    total = sum(
        (-1) ** k * math.comb(m + 1, k) * (p - k * q) ** m
        for k in range(m + 2)
        if p >= k * q
    )
    return Fraction(total, q**m * math.factorial(m))


class TestEvalBspline:
    @pytest.mark.parametrize("m", range(21))
    def test_bytes_match_window_oracle(self, m):
        # eval_bspline is spline_eval of one coefficient; the oracle reads
        # the shift g = 0 out of the window on [0, m+1) directly
        knots = np.arange(-2.0, m + 4.0)
        x = np.concatenate(
            [
                np.random.default_rng(m).uniform(-2.0, m + 3.0, 2000),
                knots,
                np.nextafter(knots, -np.inf),
                np.nextafter(knots, np.inf),
                [0.0, -0.0, 1e300, -1e300, 2.0**63, -(2.0**63)],
            ]
        )
        assert eval_bspline(m, x).tobytes() == eval_bspline_window(m, x).tobytes()
        for v in x[-40:].tolist():
            assert eval_bspline(m, v) == eval_bspline_window(m, v)
            assert math.copysign(1.0, eval_bspline(m, v)) == 1.0

    def test_degree_zero_is_right_continuous_indicator(self):
        assert eval_bspline(0, 0.0) == 1.0
        assert eval_bspline(0, 0.5) == 1.0
        assert eval_bspline(0, 1.0) == 0.0
        assert eval_bspline(0, -0.25) == 0.0

    def test_hat_function(self):
        assert eval_bspline(1, 1.0) == 1.0
        assert eval_bspline(1, 0.5) == 0.5
        assert eval_bspline(1, 1.75) == pytest.approx(0.25)

    @pytest.mark.parametrize("m", range(7))
    def test_zero_outside_support(self, m):
        x = np.array([-1.0, -1e-12, m + 1.0, m + 1.5, 50.0])
        assert_allclose(eval_bspline(m, x), 0.0)

    @pytest.mark.parametrize("m", range(41))
    def test_within_bound_of_exact_truncated_powers(self, m):
        # the window oracle above shares eval_bspline's window; this one
        # sums the truncated powers exactly, so it sees any change to it
        x = np.concatenate(
            [
                np.random.default_rng(m).uniform(0.0, m + 1.0, 100),
                np.arange(2 * m + 3) / 2.0,  # the knots and their midpoints
                np.linspace(-0.5, m + 1.5, 101),  # reaching outside the support
            ]
        )
        got = eval_bspline(m, x).tolist()
        bound = Fraction(m + 1, 2**52)
        for v, g in zip(x.tolist(), got):
            exact = bspline_exact(m, v)
            if exact == 0:
                assert g == 0.0 and math.copysign(1.0, g) == 1.0, (m, v, g)
            else:
                assert abs(Fraction(g) - exact) <= bound * exact, (m, v, g)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_symmetric_about_center(self, m):
        c = 0.5 * (m + 1)
        t = np.linspace(0.0, c, 40)
        assert_allclose(eval_bspline(m, c - t), eval_bspline(m, c + t), atol=1e-15)

    @pytest.mark.parametrize("m", range(7))
    def test_unit_integral_by_quadrature(self, m):
        nodes, weights = np.polynomial.legendre.leggauss(m + 1)
        total = 0.0
        for cell in range(m + 1):
            x = cell + 0.5 * (nodes + 1.0)
            total += 0.5 * float(weights @ eval_bspline(m, x))
        assert total == pytest.approx(1.0, rel=1e-14)

    def test_scalar_in_scalar_out(self):
        assert isinstance(eval_bspline(3, 1.5), float)
        assert isinstance(eval_bspline(3, np.linspace(0, 1, 4)), np.ndarray)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            eval_bspline(-1, 0.5)


@settings(max_examples=60)
@given(
    m=st.integers(min_value=0, max_value=8),
    x=st.floats(min_value=-3.0, max_value=12.0, allow_nan=False),
)
def test_partition_of_unity(m, x):
    # keep clear of knots: if x - j rounds across an integer (possible when
    # x is within an ulp of it), the right-open convention drops a piece
    assume(abs(x - round(x)) > 1e-9)
    # shifts j with x - j inside [0, m+1) cover j in (x - m - 1, x]
    total = sum(eval_bspline(m, x - j) for j in range(-14, 14))
    assert total == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=60)
@given(
    m=st.integers(min_value=0, max_value=8),
    x=st.floats(min_value=-2.0, max_value=12.0, allow_nan=False),
)
def test_nonnegative_everywhere(m, x):
    assert eval_bspline(m, x) >= 0.0


class TestDerivative:
    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="^degree must be at least 1$"):
            bspline_derivative(0, 0.5)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_central_difference(self, m):
        x = np.linspace(0.05, m + 0.95, 37)
        # keep clear of knots, where higher derivatives jump
        x = x[np.min(np.abs(x[:, None] - np.arange(m + 2)[None, :]), axis=1) > 0.02]
        h = 1e-6
        numeric = (eval_bspline(m, x + h) - eval_bspline(m, x - h)) / (2 * h)
        assert_allclose(bspline_derivative(m, x), numeric, atol=5e-8)

    def test_hat_slopes(self):
        assert bspline_derivative(1, 0.5) == 1.0
        assert bspline_derivative(1, 1.5) == -1.0


class TestIntegerSamples:
    def test_known_values(self):
        assert_allclose(integer_samples(1), [1.0])
        assert_allclose(integer_samples(2), [0.5, 0.5])
        assert_allclose(integer_samples(3), [1 / 6, 2 / 3, 1 / 6])
        assert_allclose(integer_samples(4), [1 / 24, 11 / 24, 11 / 24, 1 / 24])

    def test_empty_for_degree_zero(self):
        assert integer_samples(0).size == 0

    @pytest.mark.parametrize("m", range(1, 10))
    def test_matches_pointwise_evaluation(self, m):
        samples = integer_samples(m)
        direct = eval_bspline(m, np.arange(1.0, m + 1.0))
        assert_allclose(samples, direct, rtol=1e-13)

    @pytest.mark.parametrize("m", range(1, 12))
    def test_palindromic_and_sums_to_one(self, m):
        s = integer_samples(m)
        assert_allclose(s, s[::-1], rtol=0, atol=0)
        assert float(np.sum(s)) == pytest.approx(1.0, rel=1e-13)

    def test_recurrence_matches_truncated_powers(self):
        for n in range(172):
            assert _scaled_integer_samples(n) == scaled_integer_samples_by_powers(n), n

    @pytest.mark.parametrize("n", [172, 301, 601])
    def test_half_rows_match_full_rows(self, n):
        assert _scaled_integer_samples(n) == scaled_integer_samples_full_rows(n)

    def test_high_degree_is_a_palindrome_summing_to_n_factorial(self):
        # the mirror makes every table a palindrome: the sum is the check
        t = _scaled_integer_samples(601)
        assert len(t) == 601 and min(t) > 0
        assert sum(t) == math.factorial(601)
        assert t == t[::-1]


class TestAutocorrelation:
    def test_known_values(self):
        assert_allclose(gram_autocorrelation(0), [1.0])
        assert_allclose(gram_autocorrelation(1), [2 / 3, 1 / 6])
        assert_allclose(gram_autocorrelation(2), [11 / 20, 13 / 60, 1 / 120])

    @pytest.mark.parametrize("m", range(5))
    def test_matches_quadrature(self, m):
        """The closed form is the doubled-degree spline sampled at integers;
        cross-check against direct numerical integration of the product."""
        nodes, weights = np.polynomial.legendre.leggauss(2 * m + 2)
        for j in range(m + 1):
            total = 0.0
            for cell in range(m + 1):
                x = cell + 0.5 * (nodes + 1.0)
                total += 0.5 * float(
                    weights @ (eval_bspline(m, x) * eval_bspline(m, x + j))
                )
            assert total == pytest.approx(float(gram_autocorrelation(m)[j]), rel=1e-13)

    @pytest.mark.parametrize("m", range(8))
    def test_row_sums_to_one(self, m):
        a = gram_autocorrelation(m)
        assert float(a[0] + 2 * np.sum(a[1:])) == pytest.approx(1.0, rel=1e-13)


class TestCardinalSpline:
    def test_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        c = rng.normal(size=9)
        s = CardinalSpline(degree=3, knot_spacing=0.7, coeffs=c)
        x = np.linspace(-1.6, 9.4, 200)  # both sides of the support [0, 8.4]
        direct = sum(c[j] * eval_bspline(3, x / 0.7 - j) for j in range(len(c)))
        assert_allclose(spline_eval(s, x), direct, atol=1e-13)

    def test_support_bounds(self):
        s = CardinalSpline(degree=2, knot_spacing=0.5, coeffs=[1.0, 2.0])
        lo, hi = s.support
        assert lo == 0.0
        assert hi == 0.5 * (2 + 2)
        assert spline_eval(s, lo - 1e-9) == 0.0
        assert spline_eval(s, hi + 1e-9) == 0.0

    def test_coeffs_are_read_only(self):
        s = CardinalSpline(degree=1, knot_spacing=1.0, coeffs=[1.0, -1.0])
        with pytest.raises(ValueError):
            s.coeffs[0] = 5.0

    def test_empty_coefficients_give_zero(self):
        s = CardinalSpline(degree=2, knot_spacing=1.0, coeffs=[])
        assert s(0.5) == 0.0

    def test_invalid_spacing(self):
        for spacing in (0.0, -1.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="positive finite"):
                CardinalSpline(degree=1, knot_spacing=spacing, coeffs=[1.0])

    def test_callable_matches_free_function(self):
        s = CardinalSpline(degree=2, knot_spacing=1.0, coeffs=[1.0, 2.0, -1.0])
        x = np.linspace(-1, 6, 50)
        assert_allclose(s(x), spline_eval(s, x), rtol=0, atol=0)


    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CardinalSpline(degree=2, knot_spacing=1.0, coeffs=[1.0, bad])
        stack = np.ones((4, 3))
        stack[2, 1] = bad
        with pytest.raises(ValueError, match="^row 2: coefficients must be finite"):
            CardinalSpline(degree=2, knot_spacing=1.0, coeffs=stack)

    def test_finite_coefficients_whose_sum_overflows_accepted(self):
        s = CardinalSpline(degree=1, knot_spacing=1.0, coeffs=[1e308, 1e308])
        assert s.coeffs.tolist() == [1e308, 1e308]
        stack = np.array([[1e308, 1e308], [-1e308, -1e308], [1.0, 2.0]])
        s = CardinalSpline(degree=1, knot_spacing=1.0, coeffs=stack)
        assert s.coeffs.shape == (3, 2)

    def test_first_bad_row_named_past_an_overflowing_sum(self):
        stack = np.array([[1e308, 1e308], [1.0, 2.0], [1.0, math.nan], [math.inf, 1.0]])
        with pytest.raises(ValueError, match="^row 2: coefficients must be finite"):
            CardinalSpline(degree=1, knot_spacing=1.0, coeffs=stack)

    def test_callers_array_stays_writable(self):
        for c in (np.array([1.0, 2.0]), np.ones((2, 3))):
            s = CardinalSpline(degree=1, knot_spacing=1.0, coeffs=c)
            assert not s.coeffs.flags.writeable
            c[0] = 5.0
            assert s.coeffs.flat[0] == 5.0  # a view, not a copy


class TestStack:
    def test_rows_share_degree_and_spacing(self):
        s = CardinalSpline(degree=2, knot_spacing=0.5, coeffs=np.ones((3, 4)))
        assert s.coeffs.shape == (3, 4)
        assert s.support == (0.0, 0.5 * (4 + 2))

    def test_evaluation_needs_one_spline(self):
        s = CardinalSpline(degree=2, knot_spacing=1.0, coeffs=np.ones((3, 4)))
        with pytest.raises(ValueError, match="stack"):
            s(0.5)
        with pytest.raises(ValueError, match="stack"):
            spline_eval(s, [0.5, 1.5])

    def test_more_than_two_axes_rejected(self):
        with pytest.raises(ValueError, match="stack"):
            CardinalSpline(degree=1, knot_spacing=1.0, coeffs=np.ones((2, 2, 2)))
