from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from splineineq._series import power_tail, power_tail_bound
from splineineq.symbol import argmax_ratio, ratio_L, symbol_fourier, symbol_lattice

TWO_PI = 2 * math.pi


class TestSymbolFourier:
    def test_degree_zero_constant_one(self):
        w = np.linspace(-5, 15, 41)
        assert_allclose(symbol_fourier(0, w), 1.0)

    def test_degree_one_closed_form(self):
        # a_0 = 2/3, a_1 = 1/6 gives (2 + cos w) / 3
        w = np.linspace(0, TWO_PI, 17)
        assert_allclose(symbol_fourier(1, w), (2 + np.cos(w)) / 3, rtol=1e-14)

    @pytest.mark.parametrize(
        "m,at_pi",
        [(1, 1 / 3), (2, 2 / 15), (3, 17 / 315)],
    )
    def test_values_at_pi(self, m, at_pi):
        assert symbol_fourier(m, math.pi) == pytest.approx(at_pi, rel=1e-13)

    @pytest.mark.parametrize("m", range(7))
    def test_unit_at_zero(self, m):
        assert symbol_fourier(m, 0.0) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("m", range(7))
    def test_periodic_and_even(self, m):
        w = np.linspace(0.1, 3.0, 9)
        assert_allclose(symbol_fourier(m, w + TWO_PI), symbol_fourier(m, w), rtol=1e-12)
        assert_allclose(symbol_fourier(m, -w), symbol_fourier(m, w), rtol=1e-14)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            symbol_fourier(-3, 0.0)


@settings(max_examples=80)
@given(
    m=st.integers(min_value=0, max_value=8),
    w=st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
)
def test_symbol_positive_and_at_most_one(m, w):
    v = symbol_fourier(m, w)
    assert 0.0 < v <= 1.0 + 1e-12


class TestSymbolLattice:
    @pytest.mark.parametrize("m", range(5))
    @pytest.mark.parametrize("w", [0.3, 1.0, math.pi, 5.0, 2e-4])
    def test_agrees_with_fourier(self, m, w):
        got = symbol_lattice(m, w, rtol=1e-13)
        ref = symbol_fourier(m, w)
        assert got.value == pytest.approx(ref, rel=2e-13)
        assert got.degree == m
        assert got.method == "lattice"

    @pytest.mark.parametrize("m", range(5))
    @pytest.mark.parametrize("w", [0.7, 2.0, math.pi])
    def test_tail_bound_honest(self, m, w):
        got = symbol_lattice(m, w, rtol=1e-12)
        assert abs(got.value - symbol_fourier(m, w)) <= got.tail_bound + 1e-15

    @pytest.mark.parametrize("w", [0.0, TWO_PI, -TWO_PI, 6 * math.pi])
    def test_exactly_one_on_lattice(self, w):
        got = symbol_lattice(2, w)
        assert got.value == 1.0
        assert got.tail_bound == 0.0

    def test_tiny_frequency_no_overflow(self):
        got = symbol_lattice(6, 1e-12)
        assert got.value == pytest.approx(1.0, rel=1e-10)
        assert math.isfinite(got.tail_bound)

    def test_tighter_rtol_tightens_bound(self):
        loose = symbol_lattice(1, 1.0, rtol=1e-6)
        tight = symbol_lattice(1, 1.0, rtol=1e-13)
        assert tight.tail_bound < loose.tail_bound
        assert tight.tail_bound <= 1e-13 * tight.value

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            symbol_lattice(-1, 1.0)
        with pytest.raises(ValueError):
            symbol_lattice(2, 1.0, rtol=0.0)
        with pytest.raises(ValueError):
            symbol_lattice(2, 1.0, rtol=math.nan)


def lattice_reference(m, omega, rtol):
    """The one-frequency-at-a-time lattice sum: (value, tail_bound)."""
    p = 2.0 * m + 2.0
    r = math.remainder(omega, TWO_PI)
    if r == 0.0:
        return 1.0, 0.0
    s = 2.0 * abs(math.sin(0.5 * r))
    terms = 8
    while True:
        ls = np.arange(-terms, terms + 1, dtype=np.float64)
        vals = (s / np.abs(r + TWO_PI * ls)) ** p
        partial = math.fsum(sorted(vals))
        first_up = r + TWO_PI * (terms + 1)
        first_dn = -(r - TWO_PI * (terms + 1))
        tail = s**p * (
            power_tail(first_up, TWO_PI, p) + power_tail(first_dn, TWO_PI, p)
        )
        bound = s**p * (
            power_tail_bound(first_up, TWO_PI, p) + power_tail_bound(first_dn, TWO_PI, p)
        )
        value = partial + tail
        if bound <= rtol * value or terms >= 1 << 22:
            return value, bound
        terms *= 2


class TestSymbolLatticeArray:
    # lattice points and their neighbours, plus a spread over several periods
    OMEGA = np.concatenate(
        [
            [0.0, -0.0, TWO_PI, -TWO_PI, 6 * math.pi, 1e-12, -1e-12, 3.0, -3.0],
            np.linspace(0.0, TWO_PI, 65),
            np.linspace(-20.0, 20.0, 41),
        ]
    )

    # m = 0 and (m = 1, rtol = 1e-14) need two or three doublings past the
    # first 17 terms; m = 6 and 12 converge with them
    @pytest.mark.parametrize(
        "m,rtol", [(0, 1e-12), (1, 1e-14), (1, 1e-6), (2, 1e-12), (6, 1e-13), (12, 1e-12)]
    )
    def test_array_matches_scalar_bit_for_bit(self, m, rtol):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = symbol_lattice(m, self.OMEGA, rtol)
        one_by_one = [symbol_lattice(m, float(w), rtol) for w in self.OMEGA]
        assert got.value.tobytes() == np.array([e.value for e in one_by_one]).tobytes()
        assert (
            got.tail_bound.tobytes()
            == np.array([e.tail_bound for e in one_by_one]).tobytes()
        )
        ref = np.array([lattice_reference(m, float(w), rtol) for w in self.OMEGA])
        assert got.value.tobytes() == ref[:, 0].tobytes()
        assert got.tail_bound.tobytes() == ref[:, 1].tobytes()

    def test_lattice_points_exact(self):
        got = symbol_lattice(3, np.array([0.0, TWO_PI, -4 * math.pi]))
        assert got.value.tolist() == [1.0, 1.0, 1.0]
        assert got.tail_bound.tolist() == [0.0, 0.0, 0.0]

    def test_shapes_and_types(self):
        scalar = symbol_lattice(2, 1.0)
        assert isinstance(scalar.value, float)
        assert isinstance(scalar.tail_bound, float)
        assert isinstance(scalar.omega, float)
        w = np.linspace(0.1, 3.0, 6).reshape(2, 3)
        grid = symbol_lattice(2, w)
        assert grid.value.shape == grid.tail_bound.shape == (2, 3)
        assert_allclose(grid.value, symbol_fourier(2, w), rtol=1e-12)
        assert symbol_lattice(2, np.array([])).value.shape == (0,)


class TestRatio:
    @pytest.mark.parametrize(
        "m,at_pi",
        [(1, 12.0), (2, 10.0), (3, 168 / 17)],
    )
    def test_peak_values(self, m, at_pi):
        assert ratio_L(m, math.pi) == pytest.approx(at_pi, rel=1e-13)

    def test_zero_at_zero(self):
        for m in range(1, 6):
            assert ratio_L(m, 0.0) == 0.0

    @pytest.mark.parametrize("m", range(1, 7))
    def test_increasing_on_half_period(self, m):
        w = np.linspace(0.0, math.pi, 400)
        v = ratio_L(m, w)
        assert np.all(np.diff(v) > 0)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_symmetric_about_pi(self, m):
        t = np.linspace(0.0, 3.0, 50)
        assert_allclose(ratio_L(m, math.pi - t), ratio_L(m, math.pi + t), rtol=1e-11)

    def test_degree_one_closed_form(self):
        # 4 sin^2(w/2) * 3 / (2 + cos w)
        w = np.linspace(0.1, 6.0, 33)
        expected = 4 * np.sin(w / 2) ** 2 * 3 / (2 + np.cos(w))
        assert_allclose(ratio_L(1, w), expected, rtol=1e-13)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            ratio_L(0, 1.0)


class TestArgmax:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_peak_at_pi(self, m):
        w, v = argmax_ratio(m)
        assert w == pytest.approx(math.pi, abs=1e-6)
        assert v == pytest.approx(float(ratio_L(m, math.pi)), rel=1e-12)

    def test_refinement_beats_coarse_grid(self):
        # an odd-sized grid has no point at pi; refinement recovers it
        w, v = argmax_ratio(2, grid_points=15)
        assert v > float(np.max(ratio_L(2, TWO_PI * np.arange(15) / 15)))
        assert w == pytest.approx(math.pi, abs=1e-6)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            argmax_ratio(0)
        with pytest.raises(ValueError):
            argmax_ratio(2, grid_points=3)
