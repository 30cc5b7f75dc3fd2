"""The array formatter of float cells against ``cli._scalar``, their one
definition, on fixed sets of doubles that reach every rule of its text:
fixed and exponent notation and the switch between them, the exponent
range of its scaling, rounding ties, integral values and the zeros."""

from __future__ import annotations

import math
import subprocess
import sys

import numpy as np
import pytest

from splineineq import _float_text, cli


def check(values: np.ndarray) -> list[int]:
    """Assert every cell the array path decides is _scalar's text, and that
    it leaves out every non-finite double; return the indices left out."""
    vals = values.tolist()
    cells, todo = _float_text.float_cells(vals)
    left = set(todo)
    wrong = [
        (v, c)
        for i, (v, c) in enumerate(zip(vals, cells))
        if i not in left and (not math.isfinite(v) or c != cli._scalar(v, "csv"))
    ]
    assert not wrong, wrong[:5]
    return todo


def neighbours(centres, ulps: int = 1) -> np.ndarray:
    """Each double and the ``ulps`` doubles on either side of it."""
    up = down = np.asarray(centres, dtype=np.float64)
    out = [up]
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def random_bits(seed: int, n: int) -> np.ndarray:
    bits = np.random.default_rng(seed).integers(0, 2**64, size=n, dtype=np.uint64)
    return bits.view(np.float64)


POWERS = [float(f"1e{k}") for k in range(-323, 309)]


def signed(values: np.ndarray) -> np.ndarray:
    return np.concatenate([values, -values])


def near_halfway(E: int, q: int, reach: int) -> np.ndarray:
    """Doubles x = M·2^E, 2^52 <= M < 2^53, whose 17-digit scaling y =
    x·10^q lies within reach·2^(E+q) of a half-integer.

    y = M·A/B with A = 5^q odd and B = 2^(-E-q), so y - 1/2 is an integer
    plus d/B exactly when M = (B/2 + d)·A^-1 mod B.  With d = ±1 these are
    the doubles whose rounding a dropped error bound gets wrong.
    """
    A, B = 5**q, 2 ** (-E - q)
    inverse = pow(A, -1, B)
    ms = (((B // 2 + d) * inverse) % B for d in range(-reach, reach + 1))
    return np.array([
        math.ldexp(m, E) for m in ms if 2**52 <= m < 2**53 and 10**16 <= m * A // B < 10**17
    ])


SETS = {
    "random 64-bit patterns": lambda: random_bits(29, 120_000),
    # exponent field zero: the subnormals and both zeros
    "subnormals": lambda: (
        random_bits(30, 20_000).view(np.uint64) & np.uint64(0x800F_FFFF_FFFF_FFFF)
    ).view(np.float64),
    "log-uniform": lambda: signed(
        np.exp(np.random.default_rng(31).uniform(-745.0, 709.0, 20_000))
    ),
    "uniform in [0, 1)": lambda: np.random.default_rng(32).uniform(0.0, 1.0, 20_000),
    "powers of ten": lambda: signed(neighbours(POWERS)),
    # %g switches to exponent notation below 1e-4 and from 1e17 on
    "switch points": lambda: signed(neighbours([1e-5, 1e-4, 1e16, 1e17], ulps=40)),
    "integral doubles": lambda: signed(
        np.concatenate([
            np.random.default_rng(33).integers(0, 2**63, 10_000).astype(np.float64),
            np.ldexp(1.0, np.arange(64)),
            np.arange(-100.0, 100.0),
            [0.0, -0.0],
        ])
    ),
    # below and above q = 22, where 10^q stops being a float
    "near-halfway": lambda: signed(np.concatenate([
        near_halfway(E, q, 3000)
        for E, q in [(-60, 19), (-70, 22), (-73, 23), (-86, 27), (-100, 31),
                     (-200, 61), (-500, 151), (-1000, 301)]
    ])),
    # odd multiples of 2^-k: exact decimals, some of them 17-digit ties
    "dyadic ties": lambda: signed(
        np.ldexp(np.arange(1.0, 200.0, 2.0)[:, None], -np.arange(1, 80)[None, :]).ravel()
    ),
}


class TestOracle:
    def test_sets_hold_enough_doubles(self):
        assert sum(SETS[name]().size for name in SETS) >= 200_000

    @pytest.mark.parametrize("name", SETS)
    def test_equals_scalar(self, name):
        check(SETS[name]())

    @pytest.mark.parametrize("name", SETS)
    def test_column_equals_scalar(self, name):
        values = SETS[name]()
        values = values[np.isfinite(values)].tolist()
        for fmt in ("csv", "json-lines"):
            for lo in range(0, len(values), cli.RENDER_CHUNK):
                chunk = values[lo : lo + cli.RENDER_CHUNK]
                assert cli._column(chunk, fmt) == [cli._scalar(v, fmt) for v in chunk]

    def test_ties_round_half_to_even(self):
        # 2^-25 = 2.98023223876953125e-08 has 18 digits, the last a 5
        cells, todo = _float_text.float_cells([2.0**-25, 683454166529454.875])
        texts = [cli._scalar(v, "csv") for v in (2.0**-25, 683454166529454.875)]
        assert texts == ["2.9802322387695312e-08", "683454166529454.88"]
        assert [cells[i] if i not in todo else texts[i] for i in range(2)] == texts
        # 10^q is a float for q <= 22: a tie there is decided in arrays
        assert 1 not in todo

    def test_left_out_are_the_documented_doubles(self):
        values = [0.0, -0.0, 1.5, 3.0, -(2.0**53), 1e301, 1e-300, 5e-324,
                  math.inf, -math.inf, math.nan]
        cells, todo = _float_text.float_cells(values)
        # zeros are written in arrays; integral values below 1e17 need ".0",
        # and the rest lie outside the scaling's exponent range
        assert todo == [3, 4, 5, 6, 7, 8, 9, 10]
        assert cells[:3] == ["0.0", "-0.0", "1.5"]

    def test_decides_nearly_every_non_integral_double_in_range(self):
        # a formatter that quietly left every double to _scalar would give
        # right cells at the old speed; this fails it
        values = np.concatenate([
            random_bits(34, 100_000),
            signed(np.exp(np.random.default_rng(35).uniform(-667.0, 667.0, 20_000))),
        ])
        a = np.abs(values)
        with np.errstate(invalid="ignore"):
            inside = (a >= 1e-290) & (a <= 1e290) & (np.floor(a) != a)
        values = values[inside]
        assert values.size > 50_000
        todo = check(values)
        assert len(todo) <= 0.001 * values.size


def test_no_table_at_import():
    code = (
        "import splineineq.cli, splineineq._float_text as f; "
        "assert f._tables.cache_info().currsize == 0"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
