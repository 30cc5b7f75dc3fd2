"""numpy's seeding of ``default_rng(s)`` for a run of consecutive seeds at once.

``default_rng(s)`` hashes s with ``SeedSequence`` (O'Neill's seed_seq with
numpy's constants and a pool of 4 words, whose output NEP 19 freezes) and
seeds ``PCG64`` with 4 words of the hash.  seed_states computes those words
for every seed of a range in uint32 array arithmetic, and HashedSeed hands
one row to numpy's own ``PCG64``, so each generator and every double it
draws are numpy's.  Importing this module loads numpy.random.
"""

from __future__ import annotations

import numpy as np

__all__ = ["HashedSeed", "seed_states"]

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
    data = b"".join(s.to_bytes(4 * width, "little") for s in range(lo, hi))
    words = np.frombuffer(data, dtype="<u4").reshape(-1, width)
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


class HashedSeed(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose state, one row of seed_states, is already hashed."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for its 4 uint64 words, the only call this serves
        return self.state
