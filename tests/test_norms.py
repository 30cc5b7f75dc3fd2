from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splineineq.bspline import CardinalSpline
from splineineq.norms import derivative_coeffs, l2_norm_sq, l2_norm_sq_quadrature


def make(degree, coeffs, spacing=1.0, offset=0):
    return CardinalSpline(
        degree=degree, knot_spacing=spacing, coeffs=coeffs, offset=offset
    )


class TestDerivativeCoeffs:
    def test_single_hat(self):
        # d/dx N_1 = N_0(x) - N_0(x-1): coefficients [1, -1]
        d = derivative_coeffs(make(1, [1.0]), 1)
        assert_allclose(d.coeffs, [1.0, -1.0])
        assert d.degree == 0

    def test_length_grows_by_order(self):
        s = make(4, np.arange(6.0))
        for k in range(5):
            assert derivative_coeffs(s, k).coeffs.size == 6 + k

    def test_spacing_scales_inverse(self):
        c = [1.0, -2.0, 0.5]
        a = derivative_coeffs(make(3, c, spacing=1.0), 2).coeffs
        b = derivative_coeffs(make(3, c, spacing=0.25), 2).coeffs
        assert_allclose(b, a / 0.25**2)

    def test_composition_is_exact(self):
        s = make(5, np.linspace(-1, 1, 11), spacing=0.5)
        once = derivative_coeffs(s, 1)
        twice_chained = derivative_coeffs(once, 1)
        twice_direct = derivative_coeffs(s, 2)
        assert twice_chained.degree == twice_direct.degree == 3
        assert np.array_equal(twice_chained.coeffs, twice_direct.coeffs)
        thrice_chained = derivative_coeffs(derivative_coeffs(once, 1), 1)
        assert np.array_equal(thrice_chained.coeffs, derivative_coeffs(s, 3).coeffs)

    def test_order_zero_is_identity(self):
        s = make(2, [3.0, 1.0], spacing=0.5, offset=-2)
        d = derivative_coeffs(s, 0)
        assert_allclose(d.coeffs, s.coeffs)
        assert (d.degree, d.knot_spacing, d.offset) == (2, 0.5, -2)

    def test_order_above_degree_rejected(self):
        with pytest.raises(ValueError, match="exceeds degree"):
            derivative_coeffs(make(2, [1.0]), 3)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            derivative_coeffs(make(2, [1.0]), -1)

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            derivative_coeffs(np.array([1.0, 2.0]), 1)

    def test_evaluates_to_derivative(self):
        rng = np.random.default_rng(11)
        s = make(3, rng.normal(size=7), spacing=0.8, offset=-1)
        ds = derivative_coeffs(s, 1)
        x = np.linspace(-2, 8, 300)
        h = 1e-6
        numeric = (s(x + h) - s(x - h)) / (2 * h)
        # away from knots the spline is smooth enough for the stencil
        knots = 0.8 * np.arange(-3, 12)
        ok = np.min(np.abs(x[:, None] - knots[None, :]), axis=1) > 1e-3
        assert_allclose(ds(x)[ok], numeric[ok], atol=2e-7)


class TestL2Norm:
    def test_single_hat_exact(self):
        # integral of N_1^2 over [0, 2] is 2/3
        assert l2_norm_sq(make(1, [1.0])) == pytest.approx(2 / 3, rel=1e-15)

    def test_two_alternating_hats(self):
        # coefficients [1, -1]: 2*(2/3) - 2*(1/6) = 1
        assert l2_norm_sq(make(1, [1.0, -1.0])) == pytest.approx(1.0, rel=1e-15)

    def test_spacing_linear_in_norm_sq(self):
        c = np.array([0.3, -1.2, 0.9, 2.0])
        base = l2_norm_sq(make(2, c, spacing=1.0))
        assert l2_norm_sq(make(2, c, spacing=2.5)) == pytest.approx(2.5 * base)

    def test_offset_invariant(self):
        c = [1.0, 2.0, -0.5]
        assert l2_norm_sq(make(3, c, offset=0)) == l2_norm_sq(make(3, c, offset=-7))

    def test_derivative_norm_is_norm_of_its_coefficients(self):
        s = make(3, [1.0, 0.0, -2.0], spacing=0.5)
        d = derivative_coeffs(s, 2)
        assert np.array_equal(d.coeffs, [4.0, -8.0, -4.0, 16.0, -8.0])
        # degree 1: a_0 = 2/3, a_1 = 1/6; 0.5 * (2/3 * 416 + 2/6 * -192)
        assert l2_norm_sq(d) == pytest.approx(320 / 3, rel=1e-14)

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            l2_norm_sq([1.0, 2.0])
        with pytest.raises(TypeError):
            l2_norm_sq_quadrature([1.0, 2.0])

    @pytest.mark.parametrize("m", range(5))
    @pytest.mark.parametrize("spacing", [0.5, 1.0, 2.0])
    def test_gram_matches_quadrature(self, m, spacing):
        rng = np.random.default_rng(100 * m + int(spacing * 10))
        s = make(m, rng.uniform(-1, 1, size=17), spacing=spacing, offset=-3)
        assert l2_norm_sq(s) == pytest.approx(
            l2_norm_sq_quadrature(s), rel=1e-13
        )

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_derivative_norms_match_quadrature(self, k):
        rng = np.random.default_rng(7 + k)
        s = make(3, rng.uniform(-1, 1, size=12), spacing=0.75)
        d = derivative_coeffs(s, k)
        assert l2_norm_sq(d) == pytest.approx(l2_norm_sq_quadrature(d), rel=1e-12)

    def test_zero_spline_has_zero_norm(self):
        assert l2_norm_sq(make(2, [0.0, 0.0])) == 0.0


class TestDerivativeSpline:
    def test_fields(self):
        s = make(4, [1.0, 2.0], spacing=2.0, offset=3)
        d = derivative_coeffs(s, 2)
        assert type(d) is CardinalSpline
        assert d.degree == 2
        assert d.knot_spacing == 2.0
        assert d.offset == 3
        assert not d.coeffs.flags.writeable

