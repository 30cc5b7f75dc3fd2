"""numpy's ``default_rng(s).uniform(-1.0, 1.0)`` for consecutive seeds at once.

``default_rng(s)`` hashes s with ``SeedSequence`` (O'Neill's seed_seq with
numpy's constants and a pool of 4 words, whose output NEP 19 freezes),
seeds ``PCG64`` with 4 words of the hash, and ``uniform(-1.0, 1.0)`` turns
each 64-bit output into a double.  seed_states computes those words for
every seed of a range in uint32 array arithmetic, and uniform_stacks runs
each seed's PCG64 stream (O'Neill's 128-bit LCG with the XSL-RR output,
the stream NEP 19 freezes) in uint64 array arithmetic, so every double is
the one numpy's own generator draws.  Nothing here imports numpy.random.
"""

from __future__ import annotations

import numpy as np

__all__ = ["seed_states", "uniform_stacks"]

_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def seed_states(lo: int, hi: int) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for s in lo..hi-1, as rows.

    The hash runs on uint32 columns, one row per seed, with the constants
    in masked Python ints.  A seed is its little-endian 32-bit words,
    zero-padded to the pool's 4, which is what numpy hashes.  A word past
    the fourth is mixed in only for the rows whose seed reaches it.
    """
    width = max(4, -(-(hi - 1).bit_length() // 32))
    words = np.empty((hi - lo, width), dtype=np.uint32)
    # within a run of seeds that share the words past the second, the low
    # two words count up from the run's first seed
    start = lo
    while start < hi:
        top, base = divmod(start, 1 << 64)
        end = min(hi, (top + 1) << 64)
        low = np.arange(end - start, dtype=np.uint64) + base
        run = words[start - lo : end - lo]
        run[:, 0], run[:, 1] = low & _MASK32, low >> 32
        run[:, 2:] = np.frombuffer(top.to_bytes(4 * width - 8, "little"), dtype="<u4")
        start = end
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value *= const
        return value ^ (value >> 16)

    def mix(x, y):
        value = x * _MIX_MULT_L - y * _MIX_MULT_R
        return value ^ (value >> 16)

    pool = [hashmix(words[:, i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, width):
        reached = words[:, src:].any(axis=1)
        for dst in range(4):
            mixed = mix(pool[dst], hashmix(words[:, src]))
            pool[dst] = np.where(reached, mixed, pool[dst])
    # generate_state: 8 words from the pool, paired low word first
    const, out = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        value *= const
        out.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([out[i] | out[i + 1] << 32 for i in range(0, 8, 2)], axis=1)


# PCG64's multiplier M as two words, and its low word's 32-bit limbs; a
# Python int operand leaves uint64 arithmetic in uint64 (NEP 50)
_MUL_HI, _MUL_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_MUL_LO_0, _MUL_LO_1 = _MUL_LO & _MASK32, _MUL_LO >> 32


def _step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray) -> None:
    """``state = state·M + inc mod 2^128`` in place, with state ``hi·2^64 + lo``."""
    # the high word of lo·M_lo, from 32-bit limbs whose products cannot wrap
    lo_0, lo_1 = lo & _MASK32, lo >> 32
    p00, p01, p10 = lo_0 * _MUL_LO_0, lo_0 * _MUL_LO_1, lo_1 * _MUL_LO_0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = lo_1 * _MUL_LO_1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    hi *= _MUL_LO
    hi += lo * _MUL_HI
    hi += carry
    hi += inc_hi
    lo *= _MUL_LO
    lo += inc_lo
    hi += lo < inc_lo  # the carry of the low add


def uniform_stacks(
    lo: int, counts: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``default_rng(lo + i).uniform(-1.0, 1.0, counts[i])``, stacked per count.

    counts holds the number of doubles trial i draws.  Returns ``(trials,
    stack)`` for each count drawn, in ascending count order: the trials
    with that count, ascending, and their ``(batch, count)`` stack of
    doubles, rows in the same order.

    PCG64 seeds its 128-bit state from the words ``initstate = w0·2^64 +
    w1`` and ``initseq = w2·2^64 + w3`` of seed_states: ``inc = initseq <<
    1 | 1``, ``state = inc + initstate``, one step.  Each draw steps
    ``state = state·M + inc mod 2^128``, outputs ``rotr64(hi ^ lo, hi >>
    58)`` and becomes ``(x >> 11)·2^-52 - 1``.  The product is exact, so
    the subtraction is the one rounding of numpy's ``-1 + 2·(x >> 11)·2^-53``.
    The trials are sorted once by descending count, stably, so each count's
    trials form one block in trial order, and draw j steps only the prefix
    of rows with more than j doubles; the blocks' stacks are returned in
    reverse.
    """
    order = np.argsort(-counts, kind="stable")
    drawn = counts[order]
    edges = np.flatnonzero(np.diff(drawn)) + 1
    starts = [0, *edges.tolist()]
    ends = [*edges.tolist(), drawn.size]
    stacks = [
        (order[a:b], np.empty((b - a, int(drawn[a])))) for a, b in zip(starts, ends)
    ]
    w = seed_states(lo, lo + counts.size)[order]
    inc_hi = w[:, 2] << 1 | w[:, 3] >> 63
    inc_lo = w[:, 3] << 1 | 1
    low = inc_lo + w[:, 1]
    hi = inc_hi + w[:, 0] + (low < inc_lo)
    _step(hi, low, inc_hi, inc_lo)
    live = len(stacks)
    for j in range(stacks[0][1].shape[1]):
        while stacks[live - 1][1].shape[1] <= j:
            live -= 1  # that block has all its doubles
        n = ends[live - 1]
        h, l = hi[:n], low[:n]
        _step(h, l, inc_hi[:n], inc_lo[:n])
        x = h ^ l
        rot = h >> 58
        x = x >> rot | x << ((64 - rot) & 63)  # rotation 0 shifts left by 0
        u = (x >> 11) * 2.0**-52 - 1.0
        for (_, stack), a, b in zip(stacks[:live], starts, ends):
            stack[:, j] = u[a:b]
    return stacks[::-1]
