"""One contract per input: argument shape, point, degree, spacing, derivative
order, rtol, and the integer type of a degree, order, index, count or length.

Every entry point that takes the same kind of input must treat it the same
way and, when it refuses it, say so in the same words.
"""

from __future__ import annotations

import importlib
import math

import numpy as np
import pytest

from bspline_extras import bspline_derivative, integer_samples
from splineineq import (
    CardinalSpline,
    derivative_coeffs,
    eval_bspline,
    extremal_ratio,
    favard,
    fejer_extremal_coeffs,
    gram_autocorrelation,
    random_spline,
    ratio_L,
    sharp_constant,
    spline_eval,
    symbol_fourier,
    symbol_lattice,
    symbol_via_ef,
    verify_inequality,
)
from splineineq import cli
from splineineq.cli import (
    cmd_constants,
    cmd_extremal,
    cmd_symbol,
    cmd_verify,
)
from splineineq.euler_frobenius import (
    ef_coefficients_exact,
    ef_roots,
    representative_roots,
)
from splineineq.favard import ROUNDING_FLOOR

_series = importlib.import_module("splineineq._series")
# the attribute splineineq.favard is the function of that name
favard_module = importlib.import_module("splineineq.favard")
symbol_module = importlib.import_module("splineineq.symbol")

SPLINE = CardinalSpline(degree=3, knot_spacing=0.5, coeffs=[1.0, -2.0, 0.5, 3.0])

ELEMENTWISE = {
    "eval_bspline": lambda x: eval_bspline(3, x),
    "bspline_derivative": lambda x: bspline_derivative(3, x),
    "spline_eval": lambda x: spline_eval(SPLINE, x),
    "symbol_fourier": lambda x: symbol_fourier(3, x),
    "ratio_L": lambda x: ratio_L(3, x),
    "symbol_via_ef": lambda x: symbol_via_ef(3, x),
    "symbol_lattice": lambda x: symbol_lattice(3, x).value,
    "symbol_lattice.tail_bound": lambda x: symbol_lattice(3, x).tail_bound,
    "symbol_lattice.omega": lambda x: symbol_lattice(3, x).omega,
}

GRID = [[0.0, 0.3, 1.25, -0.0], [2.5, math.pi, 3.9, 7.0]]

ARGUMENTS = {
    "python float": (1.25, ()),
    "python int": (2, ()),
    "0-d array": (np.array(1.25), ()),
    "numpy scalar": (np.float64(math.pi), ()),
    "list": ([0.3, 1.25, 3.9], (3,)),
    "1-D array": (np.array(GRID[1]), (4,)),
    "2-D array": (np.array(GRID), (2, 4)),
    "2-D list": (GRID, (2, 4)),
    "empty": (np.zeros((0, 3)), (0, 3)),
}


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


class TestShapeContract:
    @pytest.mark.parametrize("arg", ARGUMENTS)
    @pytest.mark.parametrize("name", ELEMENTWISE)
    def test_shape_and_elements(self, name, arg):
        fn = ELEMENTWISE[name]
        x, shape = ARGUMENTS[arg]
        got = fn(x)
        if shape == ():
            assert type(got) is float
        else:
            assert isinstance(got, np.ndarray)
            assert got.shape == shape
        flat = np.asarray(x, dtype=np.float64).ravel().tolist()
        assert bits(got) == bits([fn(v) for v in flat])


POINT = "points and frequencies must be finite"
# the six elementwise functions whose points or frequencies _prepare reads,
# and calling a spline
POINTWISE = {
    name: ELEMENTWISE[name]
    for name in (
        "eval_bspline",
        "spline_eval",
        "symbol_fourier",
        "ratio_L",
        "symbol_via_ef",
        "symbol_lattice",
    )
}
POINTWISE["CardinalSpline.__call__"] = SPLINE


class TestPointRule:
    @pytest.mark.parametrize("shape", ["scalar", "array"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", POINTWISE)
    def test_one_message_before_any_work(self, monkeypatch, name, bad, shape):
        # a NaN frequency used to run the lattice sum to its 2^22-term cap
        # (about 1.5 min on a 2-vCPU VM) and report a missed rtol
        def no_terms(*args):
            raise AssertionError("summed lattice terms for a non-finite frequency")

        monkeypatch.setattr(symbol_module, "_lattice_terms", no_terms)
        x = bad if shape == "scalar" else np.array([[0.3, 1.25], [bad, 3.9]])
        with pytest.raises(ValueError) as info:
            POINTWISE[name](x)
        assert str(info.value) == POINT

    def test_far_points_are_outside(self):
        # the suite turns a RuntimeWarning into an error: x / spacing past
        # the float range, or floor(x / spacing) past int64, must warn of
        # nothing, and each such point gets +0.0
        s = CardinalSpline(degree=3, knot_spacing=0.5, coeffs=[1.0, -2.0, 0.5])
        far = [1e300, -1e300, 2.0**63 * 0.5, -(2.0**63) * 0.5, 2.0**64]
        assert bits(spline_eval(s, far)) == bits(np.zeros(len(far)))
        for x in far:
            assert bits(spline_eval(s, x)) == bits(0.0)
        fine = CardinalSpline(degree=3, knot_spacing=1e-10, coeffs=[1.0, -2.0, 0.5])
        assert bits(fine([1e300, -1e300])) == bits([0.0, 0.0])
        assert bits(eval_bspline(3, far)) == bits(np.zeros(len(far)))


SPACING = "spacing must be a positive finite number"
BAD_SPACINGS = [0.0, -1.0, -0.0, math.inf, -math.inf, math.nan]


class TestSpacingRule:
    @pytest.mark.parametrize("spacing", BAD_SPACINGS)
    @pytest.mark.parametrize(
        "call",
        [
            lambda h: CardinalSpline(degree=2, knot_spacing=h, coeffs=[1.0]),
            lambda h: random_spline(2, 5, spacing=h, seed=0),
            lambda h: sharp_constant(2, 1, h),
            lambda h: cmd_constants(2, 2, h),
            lambda h: cmd_verify(2, 1, h, 3, 0),
        ],
    )
    def test_one_message_from_every_caller(self, call, spacing):
        with pytest.raises(ValueError) as info:
            call(spacing)
        assert str(info.value) == SPACING


DEGREE_NEGATIVE = "degree must be non-negative"
DEGREE_BELOW_ONE = "degree must be at least 1"
DEGREE_INTEGER = "degree must be an integer"
# integral in value or not, none of these is an integer type
NON_INTEGERS = [2.5, math.nan, np.float64(3.0)]

DEGREE_CALLERS = [
    lambda m: eval_bspline(m, 0.5),
    lambda m: integer_samples(m),
    lambda m: gram_autocorrelation(m),
    lambda m: CardinalSpline(degree=m, knot_spacing=1.0, coeffs=[1.0]),
    lambda m: symbol_fourier(m, 1.0),
    lambda m: symbol_lattice(m, 1.0),
    lambda m: symbol_via_ef(m, 1.0),
    lambda m: sharp_constant(m, 0),
    lambda m: cmd_symbol(m, 5),
    lambda m: cmd_verify(m, 0, 1.0, 3, 0),
]
DEGREE_ONE_CALLERS = [
    lambda m: bspline_derivative(m, 0.5),
    lambda m: ratio_L(m, 1.0),
    lambda m: cmd_extremal(m, [3]),
]


class TestDegreeRule:
    @pytest.mark.parametrize("m", [-1, -7])
    @pytest.mark.parametrize("call", DEGREE_CALLERS)
    def test_non_negative_from_every_caller(self, call, m):
        with pytest.raises(ValueError) as info:
            call(m)
        assert str(info.value) == DEGREE_NEGATIVE

    @pytest.mark.parametrize("m", [0, -1])
    @pytest.mark.parametrize("call", DEGREE_ONE_CALLERS)
    def test_at_least_one_from_every_caller(self, call, m):
        with pytest.raises(ValueError) as info:
            call(m)
        assert str(info.value) == DEGREE_BELOW_ONE

    @pytest.mark.parametrize("m", NON_INTEGERS)
    @pytest.mark.parametrize("call", DEGREE_CALLERS + DEGREE_ONE_CALLERS)
    def test_integer_from_every_caller(self, monkeypatch, call, m):
        # a NaN degree used to sum lattice terms to the 2^22-term cap
        def no_terms(*args):
            raise AssertionError("summed lattice terms for a non-integer degree")

        monkeypatch.setattr(symbol_module, "_lattice_terms", no_terms)
        with pytest.raises(ValueError) as info:
            call(m)
        assert str(info.value) == DEGREE_INTEGER

    def test_integral_types_are_degrees(self):
        for m in (np.int64(3), np.int32(3), True):
            s = CardinalSpline(degree=m, knot_spacing=1.0, coeffs=[1.0, 2.0])
            assert type(s.degree) is int and s.degree == m
            assert type(symbol_lattice(m, 1.0).degree) is int
        constant = sharp_constant(np.int64(3), np.int64(1))
        assert type(constant) is float and constant == sharp_constant(3, 1)


ORDER_NEGATIVE = "derivative order must be non-negative"
ORDER_ABOVE = "derivative order exceeds degree"
ORDER_INTEGER = "derivative order must be an integer"


class TestOrderRule:
    @pytest.mark.parametrize(
        "k,message",
        [(-1, ORDER_NEGATIVE), (-5, ORDER_NEGATIVE), (4, ORDER_ABOVE)]
        + [(k, ORDER_INTEGER) for k in NON_INTEGERS],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda k: derivative_coeffs(SPLINE, k),
            lambda k: verify_inequality(SPLINE, k),
            lambda k: sharp_constant(3, k),
            lambda k: cmd_verify(3, k, 1.0, 3, 0),
        ],
    )
    def test_one_message_from_every_caller(self, call, k, message):
        with pytest.raises(ValueError) as info:
            call(k)
        assert str(info.value) == message


class TestIndexAndEFOrderRules:
    @pytest.mark.parametrize("n", NON_INTEGERS)
    def test_favard_index_is_an_integer(self, monkeypatch, n):
        # favard(2.5) returned a value, and favard(nan) summed to the cap
        def no_pass(terms, rtol):
            raise AssertionError("summed a pass for a non-integer index")

        monkeypatch.setattr(favard_module, "_double_terms", no_pass)
        with pytest.raises(ValueError) as info:
            favard(n)
        assert str(info.value) == "index must be an integer"

    @pytest.mark.parametrize("n", NON_INTEGERS)
    @pytest.mark.parametrize(
        "call", [ef_coefficients_exact, ef_roots, representative_roots]
    )
    def test_ef_order_is_an_integer(self, call, n):
        ef_roots(3)  # a cached order 3 used to answer order 3.0 as well
        with pytest.raises(ValueError) as info:
            call(n)
        assert str(info.value) == "order must be an integer"

    def test_integral_types_are_orders(self):
        assert favard(np.int64(3)) == favard(3)
        assert type(favard(np.int64(3)).index) is int
        assert ef_roots(np.int64(5)).tolist() == ef_roots(5).tolist()
        assert ef_coefficients_exact(np.int32(4)) == ef_coefficients_exact(4)


COUNT_CALLERS = {
    "fejer_extremal_coeffs": (fejer_extremal_coeffs, "length parameter"),
    "extremal_ratio": (lambda v: extremal_ratio(2, v), "length parameter"),
    "random_spline": (lambda v: random_spline(2, v, seed=0), "coefficient count"),
    "cmd_verify trials": (lambda v: cmd_verify(2, 1, 1.0, v, 0), "trials"),
    "cmd_verify seed": (lambda v: cmd_verify(2, 1, 1.0, 3, v), "seed"),
    "cmd_extremal": (lambda v: cmd_extremal(2, [3, v]), "sequence length"),
    "cmd_constants degree": (lambda v: cmd_constants(v, 2, 1.0), "max degree"),
    "cmd_constants order": (lambda v: cmd_constants(2, v, 1.0), "max order"),
    "cmd_symbol": (lambda v: cmd_symbol(3, v), "points"),
}


class TestCountRule:
    @pytest.mark.parametrize("v", NON_INTEGERS)
    @pytest.mark.parametrize("name", COUNT_CALLERS)
    def test_one_message_before_any_work(self, monkeypatch, name, v):
        # each used to fail inside numpy or range() with a TypeError
        def no_work(*args, **kwargs):
            raise AssertionError("worked on a count that is not an integer")

        for attr in ("extremal_ratio", "favard", "symbol_via_ef", "uniform_stacks"):
            monkeypatch.setattr(cli, attr, no_work)
        call, what = COUNT_CALLERS[name]
        with pytest.raises(ValueError) as info:
            call(v)
        assert str(info.value) == f"{what} must be an integer"

    def test_integral_types_are_counts(self):
        assert fejer_extremal_coeffs(np.int64(4)).tolist() == [1.0, -1.0, 1.0, -1.0, 1.0]
        assert extremal_ratio(2, np.int32(7)) == extremal_ratio(2, 7)
        s = random_spline(2, np.int64(5), seed=0)
        assert bits(s.coeffs) == bits(random_spline(2, 5, seed=0).coeffs)
        assert cmd_symbol(3, np.int64(5)) == cmd_symbol(3, 5)
        assert cmd_extremal(2, [np.int64(3)]) == cmd_extremal(2, [3])
        assert cmd_constants(np.int64(2), True, 1.0) == cmd_constants(2, 1, 1.0)
        assert cmd_verify(2, 1, 1.0, np.int64(3), np.int64(1)) == cmd_verify(2, 1, 1.0, 3, 1)


RTOL = f"rtol must be a finite number above {ROUNDING_FLOOR:g}"
BAD_RTOLS = [0.0, -1e-9, 1e-300, 1e-20, ROUNDING_FLOOR, math.nan, math.inf, -math.inf]


class TestRtolRule:
    @pytest.mark.parametrize("rtol", BAD_RTOLS)
    @pytest.mark.parametrize(
        "call",
        [
            lambda r: favard(3, r),
            lambda r: favard(2, r),
            lambda r: symbol_lattice(2, 1.0, r),
            lambda r: symbol_lattice(2, np.linspace(0.0, 6.0, 5), r),
            lambda r: cmd_constants(2, 2, 1.0, r),
            lambda r: cmd_symbol(2, 5, r),
        ],
    )
    def test_one_message_from_every_caller(self, call, rtol):
        with pytest.raises(ValueError) as info:
            call(rtol)
        assert str(info.value) == RTOL

    def test_floor_has_one_owner(self):
        assert ROUNDING_FLOOR is _series.ROUNDING_FLOOR

    @pytest.mark.parametrize("rtol", [1e-300, math.inf, math.nan, ROUNDING_FLOOR])
    def test_lattice_rejects_before_summing(self, monkeypatch, rtol):
        # 1e-300 used to spin for seconds and return a bound ~1e222 too loose
        def no_terms(*args):
            raise AssertionError("summed lattice terms for an unusable rtol")

        monkeypatch.setattr(symbol_module, "_lattice_terms", no_terms)
        with pytest.raises(ValueError, match="^rtol must be"):
            symbol_lattice(2, 1.0, rtol)


class TestSeriesCap:
    def test_cap_raises(self):
        assert _series._double_terms(1 << 21, 1e-12) == 1 << 22
        with pytest.raises(ValueError, match="^series missed rtol 1e-12 after 4194304"):
            _series._double_terms(1 << 22, 1e-12)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: favard(1, 1e-15),  # positive series
            lambda: favard(2, 1e-15),  # alternating series
            lambda: symbol_lattice(0, 3.0, 1e-15),
        ],
    )
    def test_every_loop_stops_at_the_cap(self, monkeypatch, call):
        # each call misses rtol with its first terms, and each rtol could be
        # met within the cap, so no call is refused before summing
        def at_cap(terms, rtol):
            return _series._double_terms(1 << 22, rtol)

        monkeypatch.setattr(favard_module, "_double_terms", at_cap)
        monkeypatch.setattr(symbol_module, "_double_terms", at_cap)
        with pytest.raises(ValueError, match="^series missed rtol"):
            call()

    def test_unreachable_alternating_rtol_refused_before_summing(self, monkeypatch):
        # the last pass's first omitted term, 1.7e-21, is above
        # rtol - ROUNDING_FLOOR = 1e-23: refused in O(1), not after 8M terms
        def no_pass(terms, rtol):
            raise AssertionError("summed a pass for an unreachable rtol")

        monkeypatch.setattr(favard_module, "_double_terms", no_pass)
        with pytest.raises(
            ValueError, match=r"^series missed rtol 4\.0000001e-16 after 4194304 terms$"
        ):
            favard(2, 4.0000001e-16)

    def test_cli_series_stay_below_the_cap(self):
        # constants reads odd indices only, and symbol sweeps these degrees,
        # at any rtol the rule accepts
        rtol = 4.0000001e-16
        for index in range(1, 82, 2):
            assert favard(index, rtol).series_terms <= 1024, index
        grid = np.linspace(0.0, 2.0 * math.pi, 257)
        for m in (0, 1, 2, 12, 30):
            lat = symbol_lattice(m, grid, rtol)
            assert np.all(lat.tail_bound <= rtol * lat.value), m
