"""NumPy's per-trial generator seeding and uniform draws, vectorised over trials.

``PCG64(SeedSequence((master_seed, i)))`` hashes the entropy words with
NumPy's documented ``SeedSequence`` (``numpy/random/bit_generator.pyx``,
after O'Neill's ``seed_seq_fe``) and seeds PCG64 with two steps of its
128-bit LCG (O'Neill, "PCG", HMC-CS-2014-0905, 2014). Here the hash runs for
many indices at once in uint32 array arithmetic, which wraps modulo 2**32
as the reference does, and the 128-bit LCG runs on ``(hi, lo)`` pairs of
uint64 arrays. :func:`pcg64_uniforms` computes ``Generator.random(n)`` of
every index straight from the seeded words, the LCG and its XSL-RR output,
with no generator at all.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# SeedSequence's hash constants and PCG64's LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# LCG steps computed at once per trial by jumping ahead from one state
_JUMP_SPAN = 2**11

Words = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _split(values) -> tuple[np.ndarray, np.ndarray]:
    """High and low uint64 words of 128-bit Python ints."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & 0xFFFFFFFFFFFFFFFF for v in values], dtype=np.uint64))


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    low, cross_a, cross_b = a0 * b0, a0 * b1, a1 * b0
    carry = ((low >> 32) + (cross_a & _MASK32) + (cross_b & _MASK32)) >> 32
    return a1 * b1 + (cross_a >> 32) + (cross_b >> 32) + carry


def _mul(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """Products modulo 2**128 of ``(hi, lo)`` pairs; arrays only, so uint64 wraps silently."""
    return _mulhi(a_lo, b_lo) + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _add(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """Sums modulo 2**128 of ``(hi, lo)`` pairs."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


_MULT = _split([_PCG_MULT])


def pcg64_words(master_seed: int, indices: np.ndarray) -> Words:
    """Seeded ``(state_hi, state_lo, inc_hi, inc_lo)`` of ``PCG64(SeedSequence((master_seed, i)))``.

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
        out.append((value ^ (value >> 16)).astype(np.uint64))
    init_hi, init_lo, seq_hi, seq_lo = (out[k] | out[k + 1] << 32 for k in range(0, 8, 2))
    # PCG64 seeding, two LCG steps from zero: inc = 2 * seq + 1, then
    # state = (inc + initstate) * multiplier + inc
    inc = (seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)
    state = _add(*_mul(*_add(init_hi, init_lo, *inc), *_MULT), *inc)
    return (*state, *inc)


@lru_cache(maxsize=1)
def _jumps(span: int) -> Words:
    """``(mult_hi, mult_lo, add_hi, add_lo)`` of ``k`` LCG steps for ``k = 1 .. span``.

    ``k`` steps take ``state`` to ``state * mult + inc * add`` modulo 2**128,
    with ``mult = multiplier**k`` and ``add = 1 + multiplier + ... + multiplier**(k-1)``.
    """
    mults, adds = [_PCG_MULT], [1]
    for _ in range(span - 1):
        mults.append(mults[-1] * _PCG_MULT & _MASK128)
        adds.append((adds[-1] * _PCG_MULT + 1) & _MASK128)
    return (*_split(mults), *_split(adds))


def pcg64_uniforms(master_seed: int, indices: np.ndarray, n: int) -> np.ndarray:
    """``Generator(PCG64(SeedSequence((master_seed, i)))).random(n)`` for each index, ``(len, n)``.

    Each draw is one LCG step followed by the XSL-RR output,
    ``rotr64(hi ^ lo, hi >> 58)``, whose top 53 bits scale to [0, 1).
    Up to ``_JUMP_SPAN`` steps of every index are computed at once.
    """
    state_hi, state_lo, inc_hi, inc_lo = (w[:, None] for w in pcg64_words(master_seed, indices))
    mult_hi, mult_lo, add_hi, add_lo = _jumps(min(n, _JUMP_SPAN))
    draws = np.empty((state_hi.shape[0], n))
    for first in range(0, n, _JUMP_SPAN):
        k = min(_JUMP_SPAN, n - first)
        hi, lo = _add(*_mul(state_hi, state_lo, mult_hi[:k], mult_lo[:k]),
                      *_mul(inc_hi, inc_lo, add_hi[:k], add_lo[:k]))
        xored, rot = hi ^ lo, hi >> 58
        output = xored >> rot | xored << (-rot & 63)
        draws[:, first : first + k] = (output >> 11) * 2.0**-53
        state_hi, state_lo = hi[:, -1:], lo[:, -1:]
    return draws
