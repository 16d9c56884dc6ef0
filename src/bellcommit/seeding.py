"""NumPy's per-trial generator seeding, vectorised over trial indices.

``PCG64(SeedSequence((master_seed, i)))`` hashes the entropy words with
NumPy's documented ``SeedSequence`` (``numpy/random/bit_generator.pyx``,
after O'Neill's ``seed_seq_fe``) and seeds PCG64 with two steps of its
128-bit LCG (O'Neill, "PCG", HMC-CS-2014-0905, 2014). :func:`pcg64_states`
runs the hash for many indices at once in uint32 array arithmetic, which
wraps modulo 2**32 as the reference does.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# SeedSequence's hash constants and PCG64's LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_states(master_seed: int, indices: np.ndarray) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``PCG64(SeedSequence((master_seed, i)))`` for each index.

    ``SeedSequence`` splits each integer into little-endian uint32 words (one
    word for zero) and hashes a pool of four words, zero past the end of the
    entropy. Writing the index as two words, the high one zero below 2**32,
    thus gives NumPy's pool for every seed and index below 2**64.
    """
    indices = np.asarray(indices, dtype=np.uint64)
    words = [master_seed & _MASK32] + ([master_seed >> 32] if master_seed > _MASK32 else [])
    entropy = np.zeros((4, indices.size), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = indices & _MASK32
    entropy[len(words) + 1] = indices >> 32

    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ (value >> 16)

    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * _MIX_MULT_L - hashmix(pool[src]) * _MIX_MULT_R
                pool[dst] = mixed ^ (mixed >> 16)
    # generate_state(4, np.uint64): eight words cycling over the pool, read
    # as little-endian uint64 pairs (state high, state low, inc high, inc low)
    const = _INIT_B
    out = []
    for k in range(8):
        value = pool[k % 4] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        out.append((value ^ (value >> 16)).tolist())
    # PCG64 seeding, two LCG steps from zero: inc = 2 * seq + 1, then
    # state = (inc + initstate) * multiplier + inc
    seeds = []
    for w0, w1, w2, w3, w4, w5, w6, w7 in zip(*out):
        inc = ((w4 << 64 | w5 << 96 | w6 | w7 << 32) << 1 | 1) & _MASK128
        state = (w0 << 64 | w1 << 96 | w2 | w3 << 32) + inc
        seeds.append(((state * _PCG_MULT + inc) & _MASK128, inc))
    return seeds
