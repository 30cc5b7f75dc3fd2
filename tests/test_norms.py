from __future__ import annotations

import contextvars
import os
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import splineineq
from splineineq import bspline, norms
from splineineq.bernstein import fejer_extremal_coeffs
from splineineq.bspline import (
    PARALLEL_MIN,
    CardinalSpline,
    _in_slices,
    gram_autocorrelation,
)
from splineineq.norms import (
    BLOCK,
    _band_dots,
    derivative_coeffs,
    l2_norm_sq,
    l2_norm_sq_quadrature,
)


def make(degree, coeffs, spacing=1.0):
    return CardinalSpline(degree=degree, knot_spacing=spacing, coeffs=coeffs)


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
        s = make(2, [3.0, 1.0], spacing=0.5)
        d = derivative_coeffs(s, 0)
        assert_allclose(d.coeffs, s.coeffs)
        assert (d.degree, d.knot_spacing) == (2, 0.5)

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
        s = make(3, rng.normal(size=7), spacing=0.8)
        ds = derivative_coeffs(s, 1)
        x = np.linspace(-1.2, 8.8, 300)  # both sides of the support [0, 8]
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
        s = make(m, rng.uniform(-1, 1, size=17), spacing=spacing)
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
        s = make(4, [1.0, 2.0], spacing=2.0)
        d = derivative_coeffs(s, 2)
        assert type(d) is CardinalSpline
        assert d.degree == 2
        assert d.knot_spacing == 2.0
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

    @pytest.mark.parametrize("n", [1, 2, 45, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 13])
    def test_unit_spacing_matches_the_divided_differences(self, n):
        # at spacing 1.0 the kernel skips its division by the spacing
        rows = edge_rows(n, np.random.default_rng(n))
        rows[4] *= 2.0**-1060  # subnormal
        rows[0, ::3] = 5e-324
        rows[2, 1::2] = -0.0
        for k in (1, 2, 12):
            d = derivative_coeffs(make(12, rows), k).coeffs
            for i, row in enumerate(rows):
                assert bits(d[i]) == bits(diff_reference(row, k, 1.0)), (k, i)

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

    def test_block_partials_past_the_float_range(self):
        # each block partial is finite and their sum is not, which fsum
        # raises OverflowError for; 4000 such coefficients give 9.0e307
        assert l2_norm_sq(make(0, np.full(4000, 1.5e152))) == pytest.approx(9.0e307)
        row = np.full(5 * BLOCK + 20, 1.5e152)
        with pytest.raises(ValueError, match="^norms overflow"):
            l2_norm_sq(make(0, row))
        with pytest.raises(ValueError, match="^row 1: norms overflow"):
            l2_norm_sq(make(0, np.stack([row * 1e-152, row])))

    def test_both_infinities_in_one_band(self):
        # band 1 has a +inf block partial and a -inf one, which fsum
        # raises ValueError for
        row = np.concatenate([np.full(BLOCK, 1e160), np.tile([1e160, -1e160], BLOCK)])
        with pytest.raises(ValueError, match="^norms overflow"):
            l2_norm_sq(make(1, row))

    def test_overflowing_derivative_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            derivative_coeffs(make(1, [1e308, -1e308]), 1)


def band_dots_reference(c, b):
    """The band dots as one full-length 1-D BLAS dot per band."""
    n = c.size
    return [float(c[: n - j] @ c[j:]) for j in range(b)]


def dyadic(rng, n):
    """Integer numerators and the coefficients they give over 2**10.

    Every product (a multiple of 2**-20) and every partial sum of these is
    exact in float64 for the lengths used here, so any summation order
    gives the exact dot.
    """
    ints = rng.integers(-1024, 1025, size=n)
    return ints, ints / 1024.0


def band(m, n):
    return max(min(m, n - 1), 0) + 1


class TestBandDots:
    """The blocked band dots against exact arithmetic and the full dots."""

    def test_block_keeps_blas_dots_on_one_thread(self):
        # OpenBLAS splits a dot longer than 10000 across threads
        assert 0 < BLOCK <= 10000

    @pytest.mark.parametrize("m", [0, 1, 6, 12])
    def test_exact_on_dyadic_coefficients(self, m):
        rng = np.random.default_rng(40 + m)
        b = m + 1
        lengths = [BLOCK - 1, BLOCK, BLOCK + b - 2, BLOCK + b - 1, BLOCK + b,
                   2 * BLOCK + 7, 3 * BLOCK + b]
        a = [Fraction(x) for x in gram_autocorrelation(m).tolist()]
        for n in lengths:
            ints, c = dyadic(rng, n)
            exact = [Fraction(int(ints[: n - j] @ ints[j:]), 2**20) for j in range(b)]
            assert _band_dots(c, b) == [float(e) for e in exact], n
            # a0*D0 + sum 2*a_j*D_j rounds a few times on the way
            gram = a[0] * exact[0] + sum(2 * a[j] * exact[j] for j in range(1, b))
            assert l2_norm_sq(make(m, c)) == pytest.approx(float(gram), rel=1e-14)

    @pytest.mark.parametrize("m", [0, 1, 6, 12])
    def test_unblocked_lengths_match_the_full_dots(self, m):
        # below BLOCK + b - 1 coefficients there is no full block, and every
        # band is the one BLAS dot the kernel always made
        rng = np.random.default_rng(m)
        c = rng.uniform(-1.0, 1.0, size=BLOCK + m)
        for n in range(BLOCK + m):
            row = c[:n].copy()
            b = band(m, n)
            assert _band_dots(row, b) == band_dots_reference(row, b), n
            assert bits(l2_norm_sq(make(m, row, spacing=0.5))) == bits(
                norm_reference(row, m, 0.5)
            ), n

    @pytest.mark.parametrize("m", [0, 6, 12])
    def test_long_stack_rows_match_each_row_alone(self, m):
        rows = np.random.default_rng(m).uniform(-1.0, 1.0, size=(3, 2 * BLOCK + 5))
        rows[1] *= 1e3
        for k in (0, min(m, 1)):
            stack = derivative_coeffs(make(m, rows, spacing=0.5), k)
            norms = l2_norm_sq(stack)
            dots = _band_dots(stack.coeffs, band(m - k, stack.coeffs.shape[-1]))
            for i, row in enumerate(rows):
                single = derivative_coeffs(make(m, row, spacing=0.5), k)
                assert bits(norms[i]) == bits(l2_norm_sq(single))
                assert bits([d[i] for d in dots]) == bits(
                    _band_dots(single.coeffs, len(dots))
                )

    def test_long_input_close_to_the_full_dots(self):
        c = np.random.default_rng(9).uniform(-1.0, 1.0, size=3 * BLOCK + 100)
        assert_allclose(_band_dots(c, 13), band_dots_reference(c, 13), rtol=1e-13)

    @pytest.mark.parametrize("m", [0, 3, 12])
    def test_empty_and_single_coefficient(self, m):
        a0 = gram_autocorrelation(m)[0]
        assert l2_norm_sq(make(m, [])) == 0.0
        assert l2_norm_sq(make(m, [3.0], spacing=0.5)) == 0.5 * (a0 * 9.0)
        assert l2_norm_sq(make(m, np.zeros((3, 0)))).tolist() == [0.0] * 3
        assert l2_norm_sq(make(m, [[3.0], [-2.0]])).tolist() == [a0 * 9.0, a0 * 4.0]
        assert _band_dots(np.zeros(0), 1) == [0.0]

    def test_same_bits_on_one_and_two_blas_threads(self):
        # a full-length dot above 10000 coefficients is split across BLAS
        # threads, and the split moved the last bits of the norm
        code = (
            "from splineineq.bernstein import random_spline\n"
            "from splineineq.norms import l2_norm_sq\n"
            "print(l2_norm_sq(random_spline(6, 1_000_001, seed=0)).hex())\n"
        )
        src = str(Path(splineineq.__file__).resolve().parents[1])
        out = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, check=True)
            out.append(proc.stdout)
        assert out[0] == out[1]


def vecdot_rows(n, rng):
    """Random rows and edge rows: 1e150-scale, subnormal, +-0.0 and mixed.

    No product or sum of 1e150-scale values leaves the float range at the
    lengths used here, so no overflow flag is raised.
    """
    rows = rng.uniform(-1.0, 1.0, size=(8, n))
    rows[1] *= 1e150
    rows[2] *= 2.0**-1060  # subnormal
    rows[3, ::2], rows[3, 1::3] = -0.0, 0.0
    rows[4] = -0.0
    rows[5, ::3] = 5e-324
    rows[5, 1::3] *= 1e150
    rows[6, 0], rows[6, -1] = -0.0, 0.0
    rows[7, 1::2] *= -1e150
    return rows


# lengths that straddle BLOCK and BLOCK + b - 1 for every b <= 13
VECDOT_LENGTHS = [1, 2, 13, 45, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 11, BLOCK + 12,
                  BLOCK + 13, 2 * BLOCK + 12]


class TestVecdot:
    """np.vecdot gives each row the bits of its own BLAS dot.

    numpy's dot loop adds the BLAS dot to 0.0, so a one-product band whose
    product is -0.0 gives +0.0, where a vector's ndarray.dot gives -0.0; a
    norm adds 0.0 to its squares' sum either way.
    """

    @pytest.mark.parametrize("n", VECDOT_LENGTHS)
    def test_stack_dots_are_the_row_dots(self, n):
        c = vecdot_rows(n, np.random.default_rng(n))
        for j in range(min(13, n)):
            dots = np.vecdot(c[:, : n - j], c[:, j:])
            ref = [0.0 + row[: n - j].dot(row[j:]) for row in c]
            assert bits(dots) == bits(ref), j

    def test_only_a_lone_negative_zero_product_differs(self):
        c = np.array([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]])
        assert bits(np.vecdot(c[:, :1], c[:, 1:])) == bits([0.0, 0.0, 0.0])
        assert bits([row[:1].dot(row[1:]) for row in c]) == bits([-0.0, -0.0, 0.0])
        assert bits(np.vecdot(c, c)) == bits([row.dot(row) for row in c])

    # BLOCK + b - 1 coefficients make the first full block
    @pytest.mark.parametrize("blocks,rest", [(1, 0), (1, 1), (2, 0), (3, 100)])
    @pytest.mark.parametrize("b", [1, 7, 13])
    def test_block_partials_are_the_block_dots(self, monkeypatch, blocks, rest, b):
        n = blocks * BLOCK + b - 1 + rest
        c = vecdot_rows(n, np.random.default_rng(n))
        self.check_partials(monkeypatch, c, b)
        self.check_partials(monkeypatch, c[5], b)

    def test_sliced_block_partials_are_the_block_dots(self, monkeypatch, cpus):
        cpus(2)
        n = 2 * PARALLEL_MIN + BLOCK + 5
        c = np.random.default_rng(5).uniform(-1.0, 1.0, size=(2, n))
        c[1, ::7] = -0.0
        self.check_partials(monkeypatch, c, 13, slices=2)

    @staticmethod
    def check_partials(monkeypatch, c, b, slices=1):
        """_band_dots' (block, shift) partials against one dot per pair."""
        heads = []

        def spy(fn, *args, **kwargs):
            out = _in_slices(fn, *args, **kwargs)
            heads.extend(out)
            return out

        monkeypatch.setattr(norms, "_in_slices", spy)
        _band_dots(c, b)
        assert len(heads) == slices
        parts = np.concatenate(heads, axis=-2)
        nfull = (c.shape[-1] - b + 1) // BLOCK
        assert parts.shape == c.shape[:-1] + (nfull, b)
        for row, got in zip(c.reshape(-1, c.shape[-1]), parts.reshape(-1, nfull, b)):
            ref = [
                [row[lo : lo + BLOCK].dot(row[lo + j : lo + j + BLOCK]) for j in range(b)]
                for lo in range(0, nfull * BLOCK, BLOCK)
            ]
            assert bits(got) == bits(ref)


CPU_COUNTS = (1, 2, 3, 8)
SLICED_LENGTHS = [
    2 * PARALLEL_MIN - 1,  # one slice
    2 * PARALLEL_MIN,  # two slices of PARALLEL_MIN
    2 * PARALLEL_MIN + BLOCK + 5,
    8 * PARALLEL_MIN + 2 * BLOCK + 1,  # odd, above 1M: eight slices on 8 CPUs
]


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count the slicing helper sees."""

    def set_count(count):
        monkeypatch.setattr(bspline, "_usable_cpus", lambda: count)

    return set_count


def alternating_ones(n):
    """The Fejér coefficients as they were built: ones, then every odd -1."""
    c = np.ones(n + 1)
    c[1::2] = -1.0
    return c


class TestSlicedKernels:
    """Long rows are cut across the CPUs with the bits of one slice."""

    @pytest.mark.parametrize("count", CPU_COUNTS)
    @pytest.mark.parametrize(
        "n,width",
        [(2 * PARALLEL_MIN, 1), (8 * PARALLEL_MIN + 3, 1), (PARALLEL_MIN + 1, 2),
         (2 * PARALLEL_MIN // BLOCK + 1, BLOCK)],
    )
    def test_slices_cover_the_range_in_order(self, cpus, count, n, width):
        cpus(count)
        before = threading.active_count()
        got = _in_slices(
            lambda x: (x[0], x[-1] + 1, threading.get_ident()),
            np.arange(n),
            width=width,
        )
        assert threading.active_count() == before
        k = min(count, n * width // PARALLEL_MIN)
        assert [(lo, hi) for lo, hi, _ in got] == [
            (n * i // k, n * (i + 1) // k) for i in range(k)
        ]
        # the caller runs slice 0 and threads of their own the rest
        assert [ident == threading.get_ident() for _, _, ident in got] == [True] + [
            False
        ] * (k - 1)

    def test_slices_cut_every_array_along_the_axis(self, cpus):
        cpus(2)
        a = np.zeros((3, 2 * PARALLEL_MIN, 2))
        b = np.zeros((1, 2 * PARALLEL_MIN, 5))
        got = _in_slices(lambda x, h, y: (x.shape, h, y.shape), a, 0.5, b, axis=-2)
        assert got == [((3, PARALLEL_MIN, 2), 0.5, (1, PARALLEL_MIN, 5))] * 2

    @pytest.mark.parametrize("n", [0, 1, 2 * PARALLEL_MIN - 1])
    def test_short_rows_run_in_the_caller(self, monkeypatch, n):
        def no_cpu_count():
            raise AssertionError("asked for the CPU count of a short row")

        monkeypatch.setattr(bspline, "_usable_cpus", no_cpu_count)
        x = np.zeros(n)
        assert _in_slices(lambda y: (y, threading.get_ident()), x) == [
            (x, threading.get_ident())
        ]

    def test_usable_cpus_is_the_affinity(self):
        if hasattr(os, "sched_getaffinity"):
            assert bspline._usable_cpus() == len(os.sched_getaffinity(0))
        assert bspline._usable_cpus() >= 1

    def test_lowest_failing_slice_raises_after_every_join(self, cpus):
        cpus(8)
        before = threading.active_count()
        finished = []

        def fn(x):
            if x[0] > 0 and x[-1] < 8 * PARALLEL_MIN - 1:
                raise ValueError(f"slice at {x[0]}")
            finished.append(x[0])

        with pytest.raises(ValueError, match=f"^slice at {PARALLEL_MIN}$"):
            _in_slices(fn, np.arange(8 * PARALLEL_MIN))
        assert threading.active_count() == before
        assert sorted(finished) == [0, 7 * PARALLEL_MIN]

    def test_slices_run_in_the_callers_context(self, cpus):
        cpus(3)
        var = contextvars.ContextVar("var", default="unset")
        var.set("caller")
        with np.errstate(over="ignore", invalid="raise"):
            got = _in_slices(
                lambda x: (var.get(), np.geterr()["over"], np.geterr()["invalid"]),
                np.zeros(3 * PARALLEL_MIN),
            )
        assert got == [("caller", "ignore", "raise")] * 3

    @pytest.mark.parametrize("spacing", [0.5, 1.0])
    @pytest.mark.parametrize("n", SLICED_LENGTHS)
    def test_norm_and_derivative_bits_any_cpu_count(self, cpus, n, spacing):
        c = np.random.default_rng(n).uniform(-1.0, 1.0, size=n)
        c[0], c[-1] = -0.0, 0.0
        s = make(12, c, spacing=spacing)
        seen = {}
        for count in CPU_COUNTS:
            cpus(count)
            before = threading.active_count()
            got = [l2_norm_sq(s).hex()]
            for k in range(4):
                d = derivative_coeffs(s, k)
                got += [d.coeffs.tobytes(), l2_norm_sq(d).hex()]
            assert threading.active_count() == before
            seen[count] = got
        assert all(got == seen[1] for got in seen.values())
        for k in range(4):  # and the padded differences they replaced
            assert seen[1][1 + 2 * k] == bits(diff_reference(c, k, spacing))

    def test_stack_rows_any_cpu_count(self, cpus):
        shape = (3, 2 * PARALLEL_MIN + 7)
        rows = np.random.default_rng(3).uniform(-1.0, 1.0, size=shape)
        rows[1] *= 1e3
        seen = {}
        for count in CPU_COUNTS:
            cpus(count)
            stack = make(12, rows, spacing=0.5)
            got = [l2_norm_sq(stack).tobytes()]
            for k in range(1, 4):
                d = derivative_coeffs(stack, k)
                got += [d.coeffs.tobytes(), l2_norm_sq(d).tobytes()]
            seen[count] = got
        assert all(got == seen[1] for got in seen.values())
        cpus(1)
        alone = [l2_norm_sq(make(12, row, spacing=0.5)) for row in rows]
        assert seen[8][0] == bits(alone)

    @pytest.mark.parametrize("count", CPU_COUNTS)
    def test_fejer_coefficients_any_cpu_count(self, cpus, count):
        cpus(count)
        cuts = [2 * PARALLEL_MIN, 3 * PARALLEL_MIN, 8 * PARALLEL_MIN]
        lengths = list(range(6)) + [c + d for c in cuts for d in (-3, -2, -1, 0, 1)]
        for n in lengths:
            before = threading.active_count()
            got = fejer_extremal_coeffs(n)
            assert threading.active_count() == before
            assert got.tobytes() == alternating_ones(n).tobytes(), n

    @pytest.mark.parametrize("count", CPU_COUNTS)
    def test_huge_rows_keep_their_errors_and_warn_nowhere(self, cpus, count):
        # +-1e308 sums, dots and differences overflow inside every slice;
        # the caller's errstate must hold there, or a worker warns
        n = 2 * PARALLEL_MIN + 3
        alternating = 1e308 * alternating_ones(n - 1)
        positive = np.full(n, 1e308)
        with_inf = positive.copy()
        with_inf[-2] = np.inf
        with_nan = alternating.copy()
        with_nan[n // 2] = np.nan
        cpus(count)
        before = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for row in (alternating, positive):
                s = make(3, row)  # finite, though its sum overflows
                with pytest.raises(ValueError, match="^norms overflow: a squared"):
                    l2_norm_sq(s)
            with pytest.raises(ValueError, match="^coefficients must be finite$"):
                derivative_coeffs(make(3, alternating), 1)
            assert derivative_coeffs(make(3, positive), 1).coeffs[1:-1].max() == 0.0
            for row in (with_inf, with_nan):
                with pytest.raises(ValueError, match="^coefficients must be finite$"):
                    make(3, row)
            stack = np.stack([alternating, with_nan])
            with pytest.raises(ValueError, match="^row 1: coefficients must be finite"):
                make(3, stack)
        assert threading.active_count() == before
