from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from splineineq import symbol as symbol_module
from splineineq._series import fsum_rows, libm_pow, power_tail
from splineineq.cli import cmd_constants, cmd_extremal, cmd_verify, render_record
from splineineq.euler_frobenius import symbol_via_ef
from splineineq.symbol import ratio_L, symbol_fourier, symbol_lattice

from symbol_extras import symbol_at_pi

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
        tail_up, bound_up = power_tail(first_up, TWO_PI, p)
        tail_dn, bound_dn = power_tail(first_dn, TWO_PI, p)
        tail = s**p * (tail_up + tail_dn)
        bound = s**p * (bound_up + bound_dn)
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

    # every degree the symbol command accepts, at its default rtol; m = 0 and
    # (m = 1, rtol = 1e-14) need two or three doublings past the first 17
    # terms, the other cases converge with them
    @pytest.mark.parametrize(
        "m,rtol", [(1, 1e-14), (1, 1e-6), (6, 1e-13)] + [(m, 1e-12) for m in range(82)]
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

    @pytest.mark.parametrize("rows", [1, 7])
    def test_chunks_change_no_bit(self, monkeypatch, rows):
        # degree 0 near the floor doubles every frequency, so each chunk
        # keeps a different set of live rows through its passes
        want = symbol_lattice(0, self.OMEGA, 4.01e-16)
        monkeypatch.setattr(symbol_module, "ROWS", rows)
        got = symbol_lattice(0, self.OMEGA, 4.01e-16)
        assert got.value.tobytes() == want.value.tobytes()
        assert got.tail_bound.tobytes() == want.tail_bound.tobytes()

    @pytest.mark.parametrize("m", [0, 1, 2, 12])
    def test_no_block_wider_than_257_terms(self, monkeypatch, m):
        widths = []
        real = symbol_module._lattice_terms

        def recorded(r, s, p, terms):
            block = real(r, s, p, terms)
            widths.append(block.shape[1])
            return block

        monkeypatch.setattr(symbol_module, "_lattice_terms", recorded)
        grid = np.linspace(-TWO_PI, TWO_PI, 4097)[1:-1]
        symbol_lattice(m, np.append(grid, [1e-300, math.pi]), 4.0000001e-16)
        assert max(widths) <= 257

    def test_caller_errstate_raise_changes_no_bit(self):
        # the lattice's terms and tails underflow from degree 45 on; that is
        # expected, and a caller who raises on every float error gets the
        # bytes of a default run, as math.pow's silent underflow gives them
        grid = np.linspace(0.0, TWO_PI, 257)
        for m in range(82):
            want = symbol_lattice(m, grid)
            with np.errstate(all="raise"):
                got = symbol_lattice(m, grid)
            assert got.value.tobytes() == want.value.tobytes(), m
            assert got.tail_bound.tobytes() == want.tail_bound.tobytes(), m
        # the other symbol routes and the commands that reach no lattice
        guards = [
            lambda: symbol_fourier(81, grid).tobytes(),
            lambda: ratio_L(81, grid).tobytes(),
            lambda: symbol_via_ef(81, grid).tobytes(),
            lambda: render_record(cmd_verify(6, 3, 0.5, 200, 0), "json-lines"),
            lambda: render_record(cmd_extremal(12, [0, 1, 3, 511]), "json-lines"),
            lambda: render_record(cmd_constants(12, 12, 1.0), "json-lines"),
        ]
        for run in guards:
            want = run()
            with np.errstate(all="raise"):
                assert run() == want

    def test_overflow_raises_value_error_before_any_pass(self, monkeypatch):
        # 2|sin(1.5)| ** 1202 is past the float range: the degree is too high
        # at that frequency, for a scalar and an array alike, and no pass runs
        def no_pass(*args):
            raise AssertionError("a pass ran")

        monkeypatch.setattr(symbol_module, "_lattice_terms", no_pass)
        for omega in (3.0, np.array([1.0, 3.0])):
            with pytest.raises(ValueError, match="degree 600"):
                symbol_lattice(600, omega)

    def test_degree_600_keeps_its_bits_where_s_pow_p_is_finite(self):
        got = symbol_lattice(600, 0.1)
        assert got.value == 0.6060001314065115
        assert (got.value, got.tail_bound) == lattice_reference(600, 0.1, 1e-12)

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

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(0, 81),
        omega=st.lists(
            st.floats(-50.0, 50.0, allow_nan=False, allow_subnormal=True),
            min_size=1,
            max_size=8,
        ),
    )
    def test_scalar_matches_its_element(self, m, omega):
        got = symbol_lattice(m, np.array(omega))
        alone = [symbol_lattice(m, w) for w in omega]
        assert got.value.tobytes() == np.array([e.value for e in alone]).tobytes()
        assert got.tail_bound.tobytes() == np.array([e.tail_bound for e in alone]).tobytes()


class TestLibmPow:
    @settings(max_examples=200, deadline=None)
    @given(
        first=st.lists(st.floats(1.0, 1e6, allow_nan=False), min_size=1, max_size=9),
        p=st.floats(1.5, 170.0),
    )
    def test_array_tails_match_float_tails(self, first, p):
        arr = np.array(first)
        got = power_tail(arr, TWO_PI, p)
        alone = np.array([power_tail(x, TWO_PI, p) for x in first])
        for i in range(2):  # the estimate, then its bound
            assert got[i].tobytes() == alone[:, i].tobytes()
        assert libm_pow(arr, -p).tolist() == [x**-p for x in first]

    def test_array_path_is_libm_on_the_lattice_domain(self):
        # every power the lattice takes, degrees 0..85: s**p, and the five
        # tail exponents at first_up and first_dn for 8 * 2**k terms
        r = np.concatenate(
            [
                np.linspace(-math.pi, math.pi, 3001),
                [5e-324, -1e-323, 2.0**-1022, 1e-310, 1e-160, -1e-8, math.pi],
            ]
        )
        r = r[r != 0.0]
        s = np.append(2.0 * np.abs(np.sin(0.5 * r)), [2.0, 5e-324, 1e-309])
        firsts = []
        for k in range(20):
            terms, rk = 8 << k, r[k::20]
            firsts += [rk + TWO_PI * (terms + 1), -(rk - TWO_PI * (terms + 1))]
        first = np.concatenate(firsts)
        for p in np.arange(2.0, 173.0, 2.0):
            cases = [(s, p)] + [(first, -q) for q in (p - 1, p, p + 1, p + 3, p + 5)]
            for x, y in cases:
                want = np.array([math.pow(v, y) for v in x.tolist()])
                got = libm_pow(x, y)
                assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()

    def test_calls_no_math_pow(self, monkeypatch):
        # a float and an array take the same np.float_power call, and a
        # float's value is still math.pow's
        calls = []
        real = math.pow

        def counted(x, y):
            calls.append(x)
            return real(x, y)

        monkeypatch.setattr(math, "pow", counted)
        libm_pow(np.linspace(60.0, 600.0, 1024), -25.0)
        got = libm_pow(60.0, -25.0)
        assert calls == []
        assert got == real(60.0, -25.0)

    def test_array_path_overflows_and_underflows_as_math_pow(self):
        # math.pow(2.0, 1100.0) raises OverflowError
        with pytest.raises(OverflowError):
            libm_pow(np.array([1.0, 2.0]), 1100.0)
        # underflow is silent, whatever the caller's errstate
        with np.errstate(all="raise"):
            got = libm_pow(np.array([1e5, 2.0]), -172.0)
        assert got.tolist() == [math.pow(1e5, -172.0), math.pow(2.0, -172.0)]
        assert got[0] == 0.0


def _nonnegative_rows(draw_floats):
    return st.integers(1, 17).flatmap(
        lambda k: st.lists(
            st.lists(draw_floats, min_size=k, max_size=k), min_size=1, max_size=6
        )
    )


# exact ties and near-ties of a leading float, zeros and subnormals
_TIE_ROWS = [
    [1.0, 2.0**-53, 2.0**-110],
    [1.0, 2.0**-53],
    [1.0 + 2.0**-52, 2.0**-53],
    [2.0**-110, 2.0**-53, 1.0, 0.0],
    [1.0, 2.0**-54, 2.0**-54],
    [2.0**-1074, 2.0**-1074, 2.0**-1074],
    [2.0**-1022, 2.0**-1074],
    [0.0, 0.0, 0.0],
    [0.0],
    [3.0],
    [0.1] * 17,
    # the summed errors round and lose 1.3 * 2**-106, which carries the exact
    # sum past the tie: only the bound on that error keeps the fast path off
    [1.5, 2.0**-53 - 2.0**-106] + [2.0**-107 - 2.0**-110] * 3,
    # a sum just under 1.0 that rounds below it: the gap under a power of two
    # is the smaller one
    [2.0**-107, 2.0**-108 + 2.0**-110, 2.0**-109, 1.0 - 2.0**-53, 2.0**-54 - 2.0**-106],
]


class TestFsumRows:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=_nonnegative_rows(
            st.one_of(
                st.floats(0.0, 1e300, allow_nan=False, allow_subnormal=True),
                st.floats(0.0, 1e-300, allow_subnormal=True),
                st.sampled_from([0.0, 5e-324, 2.0**-53, 1.0, 2.0**-1022]),
            )
        )
    )
    def test_matches_fsum(self, rows):
        got = fsum_rows(np.array(rows))
        assert got.tolist() == [math.fsum(r) for r in rows]

    @settings(max_examples=200, deadline=None)
    @given(
        lead=st.floats(2.0**-1000, 1e300),
        k=st.integers(0, 15),
        tiny=st.floats(0.0, 1.0),
    )
    def test_matches_fsum_at_constructed_ties(self, lead, k, tiny):
        # half an ulp of lead, then a nudge above or nothing: an exact tie,
        # or a sum just past it, spread over k + 3 columns
        half = math.ulp(lead) / 2
        row = [lead, half, half * tiny * 2.0**-60] + [0.0] * k
        got = fsum_rows(np.array([row, row[::-1]]))
        assert got.tolist() == [math.fsum(row)] * 2

    def test_ties_fall_back_to_fsum(self, monkeypatch):
        calls = []
        fsum = math.fsum

        def counted(row):
            calls.append(row)
            return fsum(row)

        monkeypatch.setattr(math, "fsum", counted)
        got = fsum_rows(np.array([[1.0, 2.0**-53, 2.0**-110], [1.0, 2.0**-60, 0.5]]))
        assert got.tolist() == [1.0 + 2.0**-52, fsum([1.0, 2.0**-60, 0.5])]
        assert calls == [[1.0, 2.0**-53, 2.0**-110]]

    @pytest.mark.parametrize("row", _TIE_ROWS)
    def test_ties_and_subnormals(self, row):
        # both column orders, so the tie meets the chain from either end
        got = fsum_rows(np.array([row, row[::-1]]))
        assert got.tolist() == [math.fsum(row)] * 2


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

    @staticmethod
    def _formed(m, w):
        return 4.0 * np.sin(0.5 * w) ** 2 * symbol_fourier(m - 1, w) / symbol_fourier(m, w)

    def test_bits_of_the_two_fourier_sums(self):
        # one cosine table serves both sums; each keeps symbol_fourier's bits
        grids = [
            np.linspace(0.0, TWO_PI, 257),
            np.linspace(0.0, TWO_PI, 16385),
            np.linspace(-50.0, 50.0, 1001),
            np.array([-3.0, -1e3, 1e5, -7.25e9, 1e15, 1e300]),
        ]
        for m in range(1, 82):
            for w in grids:
                assert ratio_L(m, w).tobytes() == self._formed(m, w).tobytes(), m
            for w in (0.0, 1.0, math.pi, -2.5, 1e6, -1e12):
                got = ratio_L(m, w)
                assert isinstance(got, float)
                want = np.float64(self._formed(m, w))
                assert np.float64(got).tobytes() == want.tobytes(), (m, w)

    @pytest.mark.parametrize("m", [1, 2, 12, 81])
    def test_one_cosine_pass_per_degree(self, monkeypatch, m):
        passes = []
        real = np.cos

        def counted(x):
            passes.append(x.size)
            return real(x)

        monkeypatch.setattr(np, "cos", counted)
        ratio_L(m, np.linspace(0.0, TWO_PI, 33))
        assert passes == [33] * m


class TestDegree200AtPi:
    # silent wrong answers: the cosine sum a_0 + 2 Σ a_j cos(jπ) cancels to
    # rounding noise long before degree 200, and nothing says so
    @staticmethod
    def _close(got: float, exact: Fraction) -> bool:
        return abs(Fraction(got) - exact) <= Fraction(1e-12) * exact

    @pytest.mark.xfail(
        strict=True,
        reason="symbol_fourier's cosine sum cancels at pi (ROADMAP items 20 and 23)",
    )
    def test_symbol_fourier(self):
        # returns 8.36e-18; S_200(π) is 2.89e-79
        assert self._close(symbol_fourier(200, math.pi), symbol_at_pi(200))

    @pytest.mark.xfail(
        strict=True,
        reason="ratio_L's cosine sums cancel at pi (ROADMAP items 20 and 23)",
    )
    def test_ratio_L(self):
        # returns 1.990; 4 S_199(π)/S_200(π) is 9.8696
        exact = 4 * symbol_at_pi(199) / symbol_at_pi(200)
        assert self._close(ratio_L(200, math.pi), exact)
