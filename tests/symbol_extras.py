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


def _curvature_at_pi(m: int) -> Fraction:
    """S''_m(π)/S_m(π), exact, with ``S''_m(π) = -2 Σ_{j≥1} (-1)^j j² a_j``."""
    s = _scaled_integer_samples(2 * m + 1)
    second = -2 * sum((-1) ** j * j * j * s[m + j] for j in range(1, m + 1))
    return Fraction(second, math.factorial(2 * m + 1)) / symbol_at_pi(m)


def rate_constant(m: int, k: int) -> Fraction:
    """q = r''(π)/r(π) for the pencil's symbol ratio
    ``r(ω) = (4 sin²(ω/2))^k S_{m-k}(ω)/S_m(ω)``, whose maximum C² is at π:
    ``q = -k/2 + S''_{m-k}(π)/S_{m-k}(π) - S''_m(π)/S_m(π)``.

    The finite-section optimum of length n falls short of C² by
    ``1 - λ_max/C² ~ κ/n²`` with ``κ = (π²/2)|q|`` (Kac, Murdock & Szegő,
    1953; Parter, 1961).
    """
    return Fraction(-k, 2) + _curvature_at_pi(m - k) - _curvature_at_pi(m)


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


def half_angle_polynomial(m: int) -> list[int]:
    """Q_m(c) = (2m+1)! S_m as an integer polynomial in c = cos²(ω/2),
    ascending: symbol_polynomial(m) with x = cos ω = 2c - 1 substituted.
    Q_m(1) = (2m+1)! S_m(0) and Q_m(0) = (2m+1)! S_m(π)."""
    x = symbol_polynomial(m)
    out = [x[-1]]
    for c in reversed(x[:-1]):  # Horner's rule in 2c - 1
        out = poly_mul(out, [-1, 2])
        out[0] += c
    return out


def lattice_polynomial(m: int) -> list[int]:
    """β_i = -[y^(2i)] P_{2m+1}(y) for i = 0..m+1, with P_0 = y and
    P_{n+1} = -(1 + y²) P_n', so that P_n(cot x) is the n-th derivative of
    cot x (Knuth & Buckholtz, Math. Comp. 1967).

    cot x = Σ_l 1/(x + πl), so at x = ω/2 the lattice sum is
    ``(2m+1)! S_m(ω) = Σ_i β_i c^i (1 - c)^(m+1-i)`` with c = cos²(ω/2):
    the symbol from no B-spline sample.
    """
    p = [0, 1]
    for _ in range(2 * m + 1):
        p = [-c for c in poly_mul([1, 0, 1], _poly_derivative(p))]
    return [-c for c in p[::2]]


def bernstein_sum(beta: list[int]) -> list[int]:
    """Σ_i β_i c^i (1 - c)^(d-i) for d = len(beta) - 1, ascending in c,
    with its zero leading coefficients dropped."""
    d = len(beta) - 1
    out = [0] * (d + 1)
    for i, b in enumerate(beta):
        term = [b]
        for _ in range(d - i):
            term = poly_mul(term, [1, -1])
        for e, t in enumerate(term):
            out[i + e] += t
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def closed_forms_agree(m: int) -> bool:
    """Criterion 14 at degree m: Q_m and β have positive integer
    coefficients, Q_m(0) = (2m+1)! S_m(π), Q_m(1) = (2m+1)!, and the
    lattice form Σ β_i c^i (1 - c)^(m+1-i) is Q_m(c)."""
    q, beta = half_angle_polynomial(m), lattice_polynomial(m)
    f = math.factorial(2 * m + 1)
    return (
        min(q) > 0
        and len(beta) == m + 2
        and min(beta) > 0
        and q[0] == f * symbol_at_pi(m)
        and sum(q) == f
        and bernstein_sum(beta) == q
    )


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


def derivative_weights(m: int, k: int) -> list[Fraction]:
    """b_j = (-1)^k Σ_{i=0..2k} (-1)^i C(2k, i) N_{2m+1-2k}(m+1+j-i), j = 0..m.

    The Gram form of the k-fold differenced coefficients at degree m - k
    is ``Σ_j (2 - δ_{j0}) b_j D_j(c)`` in the autocorrelations
    ``D_j(c) = Σ_g c_g c_{g+j}`` of the coefficients themselves, and
    b^{(m,0)} is the Gram autocorrelation a_j.
    """
    n = 2 * (m - k) + 1
    s = _scaled_integer_samples(n)

    def sample(x: int) -> int:  # n! N_n(x); N_n vanishes off 1..n
        return s[x - 1] if 1 <= x <= n else 0

    return [
        Fraction(
            (-1) ** k
            * sum(
                (-1) ** i * math.comb(2 * k, i) * sample(m + 1 + j - i)
                for i in range(2 * k + 1)
            ),
            math.factorial(n),
        )
        for j in range(m + 1)
    ]
