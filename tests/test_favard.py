from __future__ import annotations

import math

import pytest

from splineineq._series import _check_rtol, _double_terms
from splineineq._series import power_tail
from splineineq.favard import ROUNDING_FLOOR, FavardConstant, favard

CLOSED = {
    0: 1.0,
    1: math.pi / 2,
    2: math.pi**2 / 8,
    3: math.pi**3 / 24,
    4: 5 * math.pi**4 / 384,
    5: math.pi**5 / 240,
    6: 61 * math.pi**6 / 46080,
    7: 17 * math.pi**7 / 40320,
}


class TestFavard:
    @pytest.mark.parametrize("m,expected", sorted(CLOSED.items()))
    def test_matches_closed_forms(self, m, expected):
        got = favard(m, 1e-13)
        assert got.value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("m", range(8))
    def test_tail_bound_is_honest(self, m):
        got = favard(m, 1e-13)
        assert abs(got.value - CLOSED[m]) <= got.tail_bound + 1e-15 * CLOSED[m]

    def test_index_zero_is_exact(self):
        got = favard(0, 1e-15)
        assert got == FavardConstant(index=0, value=1.0, series_terms=0, tail_bound=0.0)

    @pytest.mark.parametrize("m", range(1, 20))
    def test_between_one_and_half_pi(self, m):
        v = favard(m, 1e-12).value
        assert 1.0 < v <= math.pi / 2

    def test_even_indices_increase_odd_decrease(self):
        evens = [favard(m, 1e-12).value for m in range(0, 12, 2)]
        odds = [favard(m, 1e-12).value for m in range(1, 12, 2)]
        assert all(a < b for a, b in zip(evens, evens[1:]))
        assert all(a > b for a, b in zip(odds, odds[1:]))

    def test_limit_is_four_over_pi(self):
        assert favard(40, 1e-13).value == pytest.approx(4 / math.pi, rel=1e-11)

    def test_looser_tolerance_uses_fewer_terms(self):
        assert favard(2, 1e-6).series_terms < favard(2, 1e-12).series_terms

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            favard(-1)
        with pytest.raises(ValueError):
            favard(3, rtol=0.0)
        with pytest.raises(ValueError):
            favard(3, rtol=-1e-9)

    @pytest.mark.parametrize("rtol", [math.nan, 1e-20, ROUNDING_FLOOR])
    def test_unreachable_rtol_rejected(self, rtol):
        # every value carries ROUNDING_FLOOR relative error, so these would
        # only spin through 4M terms and miss rtol anyway
        with pytest.raises(ValueError):
            favard(2, rtol=rtol)
        with pytest.raises(ValueError):
            favard(3, rtol=rtol)

    def test_rtol_just_above_floor_is_met(self):
        got = favard(3, rtol=1e-15)
        assert got.tail_bound <= 1e-15 * got.value



def favard_reference(m: int, rtol: float = 1e-12) -> FavardConstant:
    """favard as two loops, one per parity, kept as an oracle for the one."""
    if m < 0:
        raise ValueError("index must be non-negative")
    _check_rtol(rtol)
    if m == 0:
        return FavardConstant(index=0, value=1.0, series_terms=0, tail_bound=0.0)

    p = float(m + 1)
    pref = 4.0 / math.pi
    if m % 2 == 1:
        # positive series: sum (2l+1)^(-p)
        terms = 32
        while True:
            partial = math.fsum((2.0 * l + 1.0) ** -p for l in reversed(range(terms)))
            tail, bound = power_tail(2.0 * terms + 1.0, 2.0, p)
            value = pref * (partial + tail)
            err = pref * bound + ROUNDING_FLOOR * value
            if err <= rtol * value:
                return FavardConstant(
                    index=m, value=value, series_terms=terms, tail_bound=err
                )
            terms = _double_terms(terms, rtol)
    # alternating series: sum (-1)^l (2l+1)^(-p)
    terms = 8
    while True:
        partial = math.fsum(
            (-1.0) ** l * (2.0 * l + 1.0) ** -p for l in reversed(range(terms))
        )
        omitted = (2.0 * terms + 1.0) ** -p
        value = pref * partial
        err = pref * omitted + ROUNDING_FLOOR * abs(value)
        if err <= rtol * abs(value):
            return FavardConstant(
                index=m, value=value, series_terms=terms, tail_bound=err
            )
        terms = _double_terms(terms, rtol)


@pytest.mark.parametrize("rtol", [1e-6, 1e-10, 1e-12, 1e-13, 1e-14])
def test_one_loop_matches_two_loop_reference(rtol):
    for m in range(60):
        got, want = favard(m, rtol), favard_reference(m, rtol)
        assert got.value.hex() == want.value.hex(), m
        assert got.tail_bound.hex() == want.tail_bound.hex(), m
        assert got.series_terms == want.series_terms, m
