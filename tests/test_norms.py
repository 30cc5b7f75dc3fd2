from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from splineineq.bspline import CardinalSpline, gram_autocorrelation
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



def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def diff_reference(c, k, spacing):
    """The differencing the stacked kernel replaced: pad, subtract, divide."""
    for _ in range(k):
        padded = np.concatenate(([0.0], c, [0.0]))
        c = (padded[1:] - padded[:-1]) / spacing
    return c


def norm_reference(c, m, spacing):
    """The Gram form the stacked kernel replaced, one 1-D dot per band."""
    a = gram_autocorrelation(m)
    total = a[0] * float(c @ c)
    for j in range(1, min(m, c.size - 1) + 1):
        total += 2.0 * a[j] * float(c[:-j] @ c[j:])
    return spacing * total


def edge_rows(n, rng):
    """Random rows, some starting or ending in +-0.0, scaled apart."""
    scale = np.array([[1.0], [1e3], [1.0], [1.0], [1e-3]])
    rows = rng.uniform(-1.0, 1.0, size=(5, n)) * scale
    rows[1, 0], rows[1, -1] = -0.0, 0.0
    rows[2, 0], rows[2, -1] = 0.0, -0.0
    rows[3, -1] = -0.0
    return rows


class TestStackedKernels:
    """A stack gives every row the floats it gets alone, bit for bit.

    Lengths 1..45 cross the 16-element block of the BLAS dot kernel.
    """

    @pytest.mark.parametrize("m", range(13))
    def test_rows_match_single_splines(self, m):
        rng = np.random.default_rng(m)
        for n in range(1, 46):
            # each spacing meets every order and both sides of 16 and 32
            spacing = (0.5, 1.0, 3.0)[n % 3]
            rows = edge_rows(n, rng)
            stack = make(m, rows, spacing=spacing)
            singles = [make(m, row, spacing=spacing) for row in rows]
            for k in range(m + 1):
                d = derivative_coeffs(stack, k)
                assert d.coeffs.shape == (len(rows), n + k)
                norms = l2_norm_sq(d)
                assert norms.shape == (len(rows),)
                for i, single in enumerate(singles):
                    di = derivative_coeffs(single, k)
                    assert bits(d.coeffs[i]) == bits(di.coeffs), (n, k, i)
                    assert bits(norms[i]) == bits(l2_norm_sq(di)), (n, k, i)

    @pytest.mark.parametrize("m", [0, 3, 12])
    def test_single_splines_match_the_replaced_kernels(self, m):
        rng = np.random.default_rng(m)
        for n in range(1, 46):
            for row in edge_rows(n, rng):
                for k in range(m + 1):
                    d = derivative_coeffs(make(m, row, spacing=0.5), k)
                    assert bits(d.coeffs) == bits(diff_reference(row, k, 0.5))
                    assert bits(l2_norm_sq(d)) == bits(
                        norm_reference(d.coeffs, m - k, 0.5)
                    )

    def test_signed_zero_at_the_ends(self):
        d = derivative_coeffs(make(1, [-0.0, 0.0]), 1)
        # -0.0 - 0.0 is -0.0; 0.0 - 0.0 is +0.0 where -c would give -0.0
        assert bits(d.coeffs) == bits([-0.0, 0.0, 0.0])
        d = derivative_coeffs(make(1, [0.0, -0.0]), 1)
        assert bits(d.coeffs) == bits([0.0, -0.0, 0.0])

    def test_strided_input_is_made_contiguous(self):
        rows = np.random.default_rng(3).uniform(-1.0, 1.0, size=(6, 40))
        contiguous = l2_norm_sq(make(6, rows))
        for strided in (np.asfortranarray(rows), np.repeat(rows, 2, axis=1)[:, ::2]):
            s = make(6, strided)
            assert s.coeffs.flags.c_contiguous
            assert bits(l2_norm_sq(s)) == bits(contiguous)
        assert bits(l2_norm_sq(make(6, strided[2]))) == bits(contiguous[2])

    def test_float_for_one_spline(self):
        assert type(l2_norm_sq(make(2, [1.0, 2.0]))) is float

    def test_empty_rows(self):
        assert l2_norm_sq(make(3, np.zeros((2, 0)))).tolist() == [0.0, 0.0]
        assert derivative_coeffs(make(3, np.zeros((2, 0))), 2).coeffs.shape == (2, 2)

    def test_quadrature_needs_one_spline(self):
        with pytest.raises(ValueError, match="stack"):
            l2_norm_sq_quadrature(make(2, np.ones((2, 3))))


class TestNonFinite:
    def test_overflow_names_first_bad_row(self):
        rows = np.ones((3, 4))
        rows[1] *= 1e200
        rows[2] *= 1e200
        # no errstate here: the kernel keeps its overflow warnings to itself
        with pytest.raises(ValueError, match="row 1: norms overflow"):
            l2_norm_sq(make(2, rows))
        with pytest.raises(ValueError, match="^norms overflow"):
            l2_norm_sq(make(2, rows[1]))

    def test_overflowing_derivative_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            derivative_coeffs(make(1, [1e308, -1e308]), 1)
