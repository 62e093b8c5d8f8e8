"""The seeded draws of fklab's sampled checks, as one exact PCG64 stream.

``Rng(seed)`` gives the same values, bit for bit, as numpy's
``default_rng(seed)`` for the two calls fklab makes:
``uniform(low, high, size=None)`` and ``integers(low, high)``.  The stream is
pinned here, so a numpy upgrade cannot move a sampled output, and no command
pays for importing numpy's random package (about 9 ms).

- Seeding is numpy's ``SeedSequence``: the seed's 32-bit words are hashed
  into a pool of four words, and ``generate_state(4, uint64)`` gives the
  128-bit PCG state and increment.
- PCG64 (O'Neill 2014) steps the 128-bit LCG and outputs the XSL-RR
  64-bit word of the new state.
- A double is ``(next64 >> 11) * 2**-53``; uniform is ``low + (high - low) * u``.
- ``integers`` uses Lemire's 32-bit rejection (ACM TOMS 2019) on ``next32``,
  which returns the low half of a 64-bit draw and keeps the high half for
  the next call.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _seed_state(seed: int):
    """PCG64's (state, increment) from ``SeedSequence(seed).generate_state(4, uint64)``."""
    words = []
    while True:
        words.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    hc = _INIT_A

    def hashmix(v):
        nonlocal hc
        v ^= hc
        hc = (hc * _MULT_A) & _M32
        v = (v * hc) & _M32
        return v ^ (v >> 16)

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    hc, out = _INIT_B, []
    for i in range(8):
        v = pool[i % 4] ^ hc
        hc = (hc * _MULT_B) & _M32
        v = (v * hc) & _M32
        out.append(v ^ (v >> 16))
    s0, s1, i0, i1 = (out[k] | out[k + 1] << 32 for k in (0, 2, 4, 6))
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    # srandom: one step from state 0 gives inc, then add the seed and step
    return ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128, inc


class Rng:
    """numpy's ``default_rng(seed)`` stream for ``uniform`` and ``integers``."""

    def __init__(self, seed: int):
        if seed < 0:
            raise DomainError(f"seed must be a non-negative integer, got {seed}")
        self._state, self._inc = _seed_state(int(seed))
        self._half = None  # the buffered high half of the last next32 draw

    def _next64(self) -> int:
        s = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = s
        x, rot = ((s >> 64) ^ s) & _M64, s >> 122
        return ((x >> rot) | (x << (64 - rot))) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def uniform(self, low: float, high: float, size=None):
        low, span = float(low), float(high) - float(low)
        if size is None:
            return low + span * ((self._next64() >> 11) * 2.0**-53)
        draws = [self._next64() >> 11 for _ in range(int(size))]
        return low + span * (np.array(draws, dtype=np.float64) * 2.0**-53)

    def integers(self, low: int, high: int) -> int:
        """One integer in [low, high); the range may hold at most 2**32 values."""
        n = int(high) - int(low)
        if not 0 < n <= 1 << 32:
            raise DomainError(f"integers needs 0 < high - low <= 2**32, got {n}")
        if n == 1:
            return int(low)
        m = self._next32() * n
        if (m & _M32) < n:
            threshold = (1 << 32) % n
            while (m & _M32) < threshold:
                m = self._next32() * n
        return int(low) + (m >> 32)
