"""Exact integer forms of the squared symbol that only the tests use.

Nothing in the package or the benchmark calls them.  Polynomials are plain
lists of ints, ascending, since the tests' oracles use integers and
Fraction only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

from splineineq.bspline import _scaled_integer_samples


def symbol_at_pi(m: int) -> Fraction:
    """S_m(π), the periodized squared symbol of N_m at π, exact: the
    alternating sum of the Gram autocorrelations a_j = N_{2m+1}(m+1+j)."""
    s = _scaled_integer_samples(2 * m + 1)
    alternating = s[m] + 2 * sum((-1) ** j * s[m + j] for j in range(1, m + 1))
    return Fraction(alternating, math.factorial(2 * m + 1))


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_sub(a: list[int], b: list[int]) -> list[int]:
    """a - b, with its zero leading coefficients dropped."""
    out = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _poly_derivative(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:] or [0]


def symbol_polynomial(m: int) -> list[int]:
    """(2m+1)! S_m as an integer polynomial in x = cos ω, ascending: the
    integer samples s[m + j] = (2m+1)! a_j weigh the Chebyshev polynomials,
    s[m] + 2 Σ_j s[m + j] T_j(x)."""
    s = _scaled_integer_samples(2 * m + 1)
    cheb = [[1], [0, 1]]
    while len(cheb) <= m:
        cheb.append(_poly_sub(poly_mul([0, 2], cheb[-1]), cheb[-2]))
    out = [0] * (m + 1)
    for j in range(m + 1):
        weight = s[m] if j == 0 else 2 * s[m + j]
        for i, c in enumerate(cheb[j]):
            out[i] += weight * c
    return out


def key_lemma_numerator(m: int) -> list[int]:
    """N = P'Q - PQ', the numerator of dR/dx for R = P/Q up to a positive
    factor, with P = 2(1 - x) S_{m-1} and Q = S_m as integer polynomials.

    R is ratio_L(m, ω) at x = cos ω.  A half-angle form of N with every
    coefficient strictly negative proves that R increases strictly on
    (0, π), so its maximum over frequency is at π.
    """
    num = poly_mul([2, -2], symbol_polynomial(m - 1))
    den = symbol_polynomial(m)
    return _poly_sub(
        poly_mul(_poly_derivative(num), den), poly_mul(num, _poly_derivative(den))
    )


def half_angle_form(n: list[int]) -> list[int]:
    """(1 + t)^d n((1 - t)/(1 + t)) for n of degree d, ascending in t.

    t = tan²(ω/2) runs over (0, ∞) as x = cos ω runs over (1, -1), so by
    Descartes' rule of signs, coefficients with no sign variation leave n
    no root in (-1, 1).
    """
    acc, binomial = [n[-1]], [1]
    for c in reversed(n[:-1]):  # Horner's rule in (1 - t)/(1 + t)
        binomial = poly_mul(binomial, [1, 1])
        acc = [a + c * b for a, b in zip(poly_mul(acc, [1, -1]), binomial)]
    return acc


def sign_variations(coeffs: list[int]) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))

