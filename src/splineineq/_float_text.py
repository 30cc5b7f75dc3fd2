"""The record texts of many floats at once, in numpy array arithmetic.

A float's text is ``"%.17g"``'s, or "0.0" and "-0.0" for the zeros.  An
exact double-double scaling by a power of ten gives each double's 17
significant digits wherever its error bound decides the rounding.  The
texts are laid out in fixed slots of a byte matrix, with NUL in every
empty slot, and one translate and split turn it into strings.  The
doubles it leaves out (integral values below 1e17, which need ".0",
non-finite ones, those outside the scaling's exponent range and the few
whose rounding is in doubt) are the caller's, as in _series.fsum_rows and
euler_frobenius._signer.
"""

from __future__ import annotations

import functools

import numpy as np

# The decimal exponents X = floor(log10|x|) the scaling by 10^(16 - X)
# covers.  10^308 is the last power of ten below the float range, so
# 10^(16 - X) is finite from X = -292 on; Veltkamp's split multiplies |x|
# by 2^27 + 1, finite while |x| < 10^300 < 2^1024 / (2^27 + 1), so
# X <= 299.  Every power 10^-283 .. 10^308 is then a normal float, and so
# is every low part beside it but one under 2^-1022 at worst, whose
# absolute error |x|·2^-1075 < 1e-23 the slack in float_cells covers.
X_LO, X_HI = -292, 299
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves
_LE = np.dtype("<u8")  # a slot word, its bytes in text order
_ROWS = X_HI - X_LO + 3  # the text forms: exponents X_LO .. X_HI + 1, zero


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v = hi + lo exactly, each with at most 26 significant bits."""
    c = v * _SPLIT
    hi = c - (c - v)
    return hi, v - hi


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The powers of ten, the digit words and the words of each text form.

    Built on first use.  int -> float conversion and int / int division
    round correctly, so the integers give P_hi = fl(10^q) and P_lo =
    fl(10^q - P_hi) exactly as rounded.
    """
    hi, lo = [], []
    for q in range(16 - X_LO, 16 - X_HI - 1, -1):  # row X - X_LO has q = 16 - X
        if q >= 0:
            h = float(10**q)
            hi.append(h)
            lo.append(float(10**q - int(h)))
        else:
            d = 10**-q
            h = 1 / d
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * d) / (den * d))
    p_hi, p_lo = np.array(hi), np.array(lo)
    mant, exp = np.frexp(p_hi)  # split the mantissa: 10^308·(2^27 + 1) overflows
    m_hi, m_lo = _split(mant)
    # the slack of float_cells, none where 10^q is a float
    slack = np.where(p_lo == 0.0, 0.0, 2.0**-103)
    powers = np.stack([p_hi, np.ldexp(m_hi, exp), np.ldexp(m_lo, exp), p_lo, slack])

    # A text is 6 slot words: the sign, a prefix, d0 and a dot slot; the
    # digits d1..d16 in (digit, dot slot) byte pairs, 4 to a word; the tail.
    # The 4-digit groups' words, then the same words without a group's
    # trailing zeros, for the last nonzero group; d0's word
    g = np.arange(10000)
    words = np.zeros((2, 10000), np.uint64)
    for j in range(4):
        byte = ((g // 10 ** (3 - j)) % 10 + 0x30).astype(np.uint64) << np.uint64(16 * j)
        words[0] |= byte
        words[1] |= np.where(g % 10 ** (4 - j) != 0, byte, np.uint64(0))
    lead = (np.arange(10, dtype=np.uint64) + np.uint64(0x30)) << np.uint64(48)

    # each text form, from its exponent X_LO .. X_HI + 1, then the zeros':
    # the prefix "0.000" of fixed notation below 1, the tail "e-05\n" or
    # "\n", and the digit the dot follows (-1: none) in a text with digits
    # after d0 and in one without, where exponent notation has no dot
    # ("1e+17").  A zero is "0" + dot + the tail "0\n".
    forms = []
    for x in range(X_LO, X_HI + 3):
        if x == X_HI + 2:
            forms.append((b"", b"0\n", 0, 0))
        elif -4 <= x < 0:
            forms.append((b"\0" + b"0." + b"0" * (-x - 1), b"\n", -1, -1))
        elif 0 <= x < 17:
            forms.append((b"", b"\n", x, x))
        else:
            forms.append((b"", b"e%+03d\n" % x, 0, -1))
    pre, tail, dots, dots_alone = zip(*forms)
    at = np.array(dots + dots_alone)
    dot_word = (at + 3) // 4  # the dot after d0 sits in word 0
    shift = np.where(at == 0, 56, 16 * ((at - 1) % 4) + 8).astype(np.uint64)
    dot_bits = np.where(at >= 0, np.uint64(0x2E) << shift, np.uint64(0))
    return (
        powers,
        words.reshape(-1).astype(_LE),
        lead.astype(_LE),
        np.frombuffer(b"".join(t.ljust(8, b"\0") for t in pre), _LE),
        np.frombuffer(b"".join(t.ljust(8, b"\0") for t in tail), _LE),
        dot_word,
        dot_bits.astype(_LE),
    )


def float_cells(values: list) -> tuple[list[str], list[int]]:
    """The text of each float of ``values``, and the indices left out.

    The text at a left-out index is a placeholder for the caller to replace.
    """
    powers, words, lead, pre, tail, dot_word, dot_bits = _tables()
    x = np.array(values, dtype=np.float64)
    n = x.size
    a = np.abs(x)
    fast = (a >= 10.0**X_LO) & (a < 10.0 ** (X_HI + 1))
    a = np.where(fast, a, 1.0)
    fast &= (a >= 1e17) | (np.floor(a) != a)  # an integral text needs ".0"
    # log10 may put X one off beside a power of ten: the range checks on
    # the scaled value below leave those doubles out
    X = np.clip(np.floor(np.log10(a)), X_LO, X_HI).astype(np.intp) - X_LO
    p_hi, p_hh, p_hl, p_lo, slack = np.take(powers, X, axis=1)

    # y = |x|·10^q = p + e + |x|·P_lo + |x|·(10^q - P_hi - P_lo), where
    # p + e = |x|·P_hi exactly (Dekker, 1971: no product of the halves over-
    # or underflows in the exponent range) and |e| <= u·p for u = 2^-53.
    # For 0 <= q <= 22, 10^q = P_hi, s = e and y = p + s exactly, so
    # N = p + rint(s) is y rounded half to even, as "%.17g" rounds (p is
    # even).  Otherwise |P_lo| <= u·P_hi and P_lo is off by at most
    # u·|P_lo|; with t = fl(|x|·P_lo) and s = fl(e + t), |y - (p + s)| <=
    # u·(|e| + |t|) + 2u²·|x|·P_hi < 4.0001·u²·p.  The slack 2^-103·p is
    # twice that; the other half, at least 4.9e-16 at p >= 1e16, covers
    # rounding 0.5 - 2^-103·p (at most 2^-55), and s - rint(s) is exact:
    # so |s - rint(s)| <= fl(0.5 - 2^-103·p) puts y strictly within 1/2 of
    # N = p + rint(s).
    p = a * p_hi
    a_hi, a_lo = _split(a)
    e = ((a_hi * p_hh - p) + a_hi * p_hl + a_lo * p_hh) + a_lo * p_hl
    s = e + a * p_lo
    r = np.rint(s)
    N = p.astype(np.int64) + r.astype(np.int64)
    fast &= np.abs(s - r) <= 0.5 - p * slack
    # 17 digits: 10^16 < N <= 10^17, from p >= 10^16 > 2^53, an integer
    fast &= (p >= 1e16) & (N > 10**16) & (N <= 10**17)
    top = N == 10**17  # rounded up to the next power of ten
    X += top
    N = np.where(fast & ~top, N, 10**16)
    zero = x == 0.0  # "0.0" or "-0.0"
    N[zero] = 0
    X[zero] = _ROWS - 1
    fast |= zero

    # N = d0·10^16 + g1·10^12 + g2·10^8 + g3·10^4 + g4; z_j: g_j.. all zero
    q1, q2, q3 = N // 10**12, N // 10**8, N // 10**4
    d0 = q1 // 10**4
    g4 = N - q3 * 10**4
    z4 = g4 == 0
    z3 = z4 & (q3 == q2 * 10**4)
    z2 = z3 & (q2 == q1 * 10**4)
    z1 = z2 & (q1 == d0 * 10**4)
    slots = np.empty((n, 6), _LE)
    slots[:, 0] = pre[X] | lead[d0] | np.signbit(x) * np.uint64(0x2D)
    slots[:, 1] = words[q1 - d0 * 10**4 + 10000 * z2]
    slots[:, 2] = words[q2 - q1 * 10**4 + 10000 * z3]
    slots[:, 3] = words[q3 - q2 * 10**4 + 10000 * z4]
    slots[:, 4] = words[g4 + 10000]
    slots[:, 5] = tail[X]
    form = X + _ROWS * z1
    at = np.arange(0, 6 * n, 6) + dot_word[form]
    slots.reshape(-1)[at] |= dot_bits[form]
    cells = slots.tobytes().translate(None, b"\0").decode("ascii").split("\n")
    cells.pop()
    return cells, np.flatnonzero(~fast).tolist()
