from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from splineineq.bernstein import (
    REPORT_SLACK,
    InequalityReport,
    extremal_ratio,
    fejer_extremal_coeffs,
    random_spline,
    sharp_constant,
    verify_inequality,
)
from splineineq.bspline import CardinalSpline
from splineineq.favard import favard
from splineineq.norms import derivative_coeffs


class TestSharpConstant:
    def test_order_zero_is_one(self):
        for m in range(5):
            assert sharp_constant(m, 0, 0.37) == 1.0

    @pytest.mark.parametrize(
        "m,k,expected",
        [
            (1, 1, 2 * math.sqrt(3)),
            (2, 1, math.sqrt(10)),
            (2, 2, math.sqrt(120)),
            (3, 3, math.sqrt(math.pi**6 * (math.pi / 2) / (17 * math.pi**7 / 40320))),
        ],
    )
    def test_unit_spacing_values(self, m, k, expected):
        assert sharp_constant(m, k, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_degree_three_from_favard_ratio(self):
        expected = math.pi * math.sqrt(
            favard(5, 1e-14).value / favard(7, 1e-14).value
        )
        assert sharp_constant(3, 1, 1.0) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("spacing", [0.25, 0.5, 2.0, 10.0])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_spacing_power_law(self, spacing, k):
        base = sharp_constant(4, k, 1.0)
        assert sharp_constant(4, k, spacing) == pytest.approx(
            base / spacing**k, rel=1e-14
        )

    @pytest.mark.parametrize("m", range(1, 7))
    def test_telescopes_through_one_step_constants(self, m):
        """C(m, k) must equal the product of one-derivative constants of
        the descending degrees; both reduce to the same Favard ratio."""
        for k in range(1, m + 1):
            product = 1.0
            for j in range(k):
                product *= sharp_constant(m - j, 1, 1.0)
            assert sharp_constant(m, k, 1.0) == pytest.approx(product, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sharp_constant(-1, 0, 1.0)
        with pytest.raises(ValueError):
            sharp_constant(2, -1, 1.0)
        with pytest.raises(ValueError, match="exceeds degree"):
            sharp_constant(2, 3, 1.0)
        with pytest.raises(ValueError):
            sharp_constant(2, 1, 0.0)
        for spacing in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="positive finite"):
                sharp_constant(2, 1, spacing)

    @pytest.mark.parametrize(
        "m,k,spacing",
        [
            (3, 3, 1e-120),  # (pi/spacing)**3 raises OverflowError
            (2, 2, 1e-300),
            (1, 1, 5e-324),  # pi/spacing is already inf
        ],
    )
    def test_overflow_rejected(self, m, k, spacing):
        with pytest.raises(ValueError, match="overflows"):
            sharp_constant(m, k, spacing)
        # the same degree one order lower, or a larger spacing, still fits
        assert math.isfinite(sharp_constant(m, k - 1, spacing))
        assert math.isfinite(sharp_constant(m, k, 1e-100))


    @pytest.mark.parametrize(
        "m,k,spacing", [(3, 2, 1e200), (2, 2, 1e170), (6, 3, 1e120)]
    )
    def test_underflow_rejected(self, m, k, spacing):
        with pytest.raises(ValueError, match="underflows to zero"):
            sharp_constant(m, k, spacing)

    def test_order_zero_never_underflows(self):
        assert sharp_constant(3, 0, 1e300) == 1.0


class TestVerifyInequality:
    def test_report_shape(self):
        s = CardinalSpline(degree=2, knot_spacing=1.0, coeffs=[1.0, -0.5, 2.0])
        rep = verify_inequality(s, 1)
        assert isinstance(rep, InequalityReport)
        assert rep.degree == 2 and rep.order == 1
        assert rep.margin == pytest.approx(rep.constant - rep.ratio)
        assert rep.satisfied

    def test_zero_spline_rejected(self):
        s = CardinalSpline(degree=1, knot_spacing=1.0, coeffs=[0.0, 0.0])
        with pytest.raises(ValueError, match="norm is zero"):
            verify_inequality(s, 1)

    @pytest.mark.parametrize("m,k,spacing", [(2, 1, 1e-300), (3, 1, 1e-200)])
    def test_norm_overflow_rejected(self, m, k, spacing):
        s = random_spline(m, 20, spacing, seed=3)
        # the overflowing Gram sums warn on their way to inf and NaN
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="norms overflow"):
                verify_inequality(s, k)

    def test_derivative_underflow_rejected(self):
        # the constant pi/spacing fits; the squared derivative coefficients
        # (about 1e-340) do not, which used to read as ratio 0 and a pass
        s = random_spline(1, 5, 1e170, seed=4)
        with pytest.raises(ValueError, match="derivative norm underflows to zero"):
            verify_inequality(s, 1)

    def test_subnormal_derivative_norm_rejected(self):
        # the squared derivative coefficients (about 1e-320) are subnormal
        # but not zero: the ratio was off by about 1e-5 with no error
        s = random_spline(1, 35, 1e160, seed=1)
        with pytest.raises(ValueError, match="derivative norm underflows into the sub"):
            verify_inequality(s, 1)

    def test_tiny_coefficients_rejected(self):
        s = CardinalSpline(degree=2, knot_spacing=1.0, coeffs=[1e-160, -2e-160, 1e-160])
        with pytest.raises(ValueError, match="^norm underflows into the subnormal"):
            verify_inequality(s, 1)

    @pytest.mark.parametrize("spacing", [1e150, 1e156])
    def test_just_inside_the_underflow_floor_matches_unit_spacing(self, spacing):
        # the ratio scales as 1/spacing; near the floor the subnormal part
        # of the Gram sum stays well inside REPORT_SLACK
        for seed in range(5):
            s = random_spline(1, 35, spacing, seed=seed)
            unit = CardinalSpline(degree=1, knot_spacing=1.0, coeffs=s.coeffs)
            got = verify_inequality(s, 1).ratio
            assert got * spacing == pytest.approx(
                verify_inequality(unit, 1).ratio, rel=REPORT_SLACK
            )

    def test_order_zero_ratio_is_one(self):
        s = CardinalSpline(degree=3, knot_spacing=0.5, coeffs=[1.0, 2.0])
        rep = verify_inequality(s, 0)
        assert rep.ratio == pytest.approx(1.0, rel=1e-15)
        assert rep.constant == 1.0

    def test_scale_covariance(self):
        coeffs = np.array([0.4, -1.1, 0.9, 0.2, -0.7])
        r1 = verify_inequality(
            CardinalSpline(degree=3, knot_spacing=1.0, coeffs=coeffs), 2
        )
        r2 = verify_inequality(
            CardinalSpline(degree=3, knot_spacing=2.0, coeffs=coeffs), 2
        )
        assert r2.ratio == pytest.approx(r1.ratio / 4.0, rel=1e-12)
        assert r2.constant == pytest.approx(r1.constant / 4.0, rel=1e-12)

    @settings(max_examples=120, deadline=None)
    @given(
        m=st.integers(min_value=0, max_value=5),
        k=st.integers(min_value=0, max_value=5),
        n=st.integers(min_value=1, max_value=25),
        seed=st.integers(min_value=0, max_value=2**31),
        spacing=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_bound_holds_on_random_splines(self, m, k, n, seed, spacing):
        k = min(k, m)
        s = random_spline(m, n, spacing, seed)
        rep = verify_inequality(s, k)
        assert rep.margin >= -REPORT_SLACK * rep.constant
        assert rep.satisfied

    def test_derivative_chain_composes(self):
        # bounding the second derivative directly is never weaker than
        # chaining two first-derivative bounds
        s = random_spline(4, 12, 1.0, seed=99)
        direct = verify_inequality(s, 2)
        step = verify_inequality(derivative_coeffs(s, 1), 1)
        assert step.degree == 3
        first = verify_inequality(s, 1)
        assert direct.ratio <= first.ratio * step.ratio * (1 + 1e-12)
        assert direct.constant <= first.constant * step.constant * (1 + 1e-12)


class TestExtremal:
    def test_coefficients_alternate(self):
        c = fejer_extremal_coeffs(5)
        assert_allclose(c, [1, -1, 1, -1, 1, -1])
        assert fejer_extremal_coeffs(0).tolist() == [1.0]

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            fejer_extremal_coeffs(-1)

    def test_spectrum_is_scaled_fejer_kernel(self):
        """|sum c_g e^{-i g w}|^2 == (n+1) * Fejer_n(w - pi)."""
        n = 6
        c = fejer_extremal_coeffs(n)
        w = np.linspace(0.1, 6.2, 25)
        spectrum = np.abs(np.exp(-1j * np.outer(w, np.arange(n + 1))) @ c) ** 2
        theta = w - math.pi
        fejer = (np.sin(0.5 * (n + 1) * theta) / np.sin(0.5 * theta)) ** 2 / (n + 1)
        assert_allclose(spectrum, (n + 1) * fejer, rtol=1e-9)

    def test_known_checkpoints(self):
        assert extremal_ratio(1, 0) == pytest.approx(math.sqrt(3), rel=1e-13)
        assert extremal_ratio(1, 1) == pytest.approx(math.sqrt(6), rel=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_approaches_constant_from_below(self, m):
        target = sharp_constant(m, 1, 1.0)
        values = [extremal_ratio(m, n) for n in (0, 3, 15, 63, 255)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < target
        assert values[-1] > 0.9 * target


class TestRandomSpline:
    def test_deterministic(self):
        a = random_spline(2, 10, 1.0, seed=42)
        b = random_spline(2, 10, 1.0, seed=42)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_fields_and_range(self):
        s = random_spline(0, 1, 0.5, seed=1)
        assert s.degree == 0 and s.knot_spacing == 0.5 and s.coeffs.size == 1
        big = random_spline(3, 1000, 1.0, seed=7)
        assert np.all(np.abs(big.coeffs) <= 1.0)

    def test_needs_a_coefficient(self):
        with pytest.raises(ValueError):
            random_spline(2, 0, 1.0, seed=0)


class TestVerifyStack:
    def test_rows_match_single_splines(self):
        rng = np.random.default_rng(5)
        rows = rng.uniform(-1.0, 1.0, size=(7, 9))
        for m, k in [(0, 0), (3, 1), (6, 6)]:
            stack = CardinalSpline(degree=m, knot_spacing=0.5, coeffs=rows)
            rep = verify_inequality(stack, k)
            assert rep.ratio.shape == rep.margin.shape == rep.satisfied.shape == (7,)
            assert rep.satisfied.dtype == bool
            for i, row in enumerate(rows):
                single = CardinalSpline(degree=m, knot_spacing=0.5, coeffs=row)
                one = verify_inequality(single, k)
                assert type(one.ratio) is float and type(one.satisfied) is bool
                assert one.constant == rep.constant
                assert (one.ratio, one.margin, one.satisfied) == (
                    rep.ratio[i].item(), rep.margin[i].item(), rep.satisfied[i].item()
                )

    def test_error_names_first_bad_row(self):
        rows = np.ones((5, 3))
        rows[2] = 0.0
        rows[4] = 0.0
        s = CardinalSpline(degree=2, knot_spacing=1.0, coeffs=rows)
        with pytest.raises(ValueError, match="^row 2: norm is zero"):
            verify_inequality(s, 1)

    def test_subnormal_names_first_bad_row(self):
        # at spacing 1e160 the derivative of the unit rows squares to about
        # 1e-320, subnormal; row 0, scaled by 1e10, stays normal
        rows = np.ones((3, 4))
        rows[0] *= 1e10
        s = CardinalSpline(degree=1, knot_spacing=1e160, coeffs=rows)
        with pytest.raises(
            ValueError, match="^row 1: derivative norm underflows into the subnormal"
        ):
            verify_inequality(s, 1)

    def test_underflow_names_first_bad_row(self):
        # at spacing 1e100 the second derivative of row 0 (about 1e100)
        # keeps a norm; those of the unit rows square to about 1e-400
        rows = np.ones((3, 4))
        rows[0] *= 1e100
        s = CardinalSpline(degree=2, knot_spacing=1e100, coeffs=rows)
        with pytest.raises(ValueError, match="^row 1: derivative norm underflows"):
            verify_inequality(s, 2)
