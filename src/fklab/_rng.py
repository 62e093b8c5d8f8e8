"""The seeded draws of fklab's sampled checks: one SplitMix64 stream.

SplitMix64 (Steele, Lea and Flood, OOPSLA 2014) adds the golden-ratio
increment to a 64-bit state and returns a mix of the new state.  The stream
is pinned here, so no numpy upgrade can move a sampled output and no command
imports numpy's random package (about 9 ms).  Only ``mane``'s cocycle pairs
and ``env-report``'s hull offsets draw from it.

- A seed is an integer in 0..2**64 - 1, the CLI's ``--seed`` range.
- ``uniform`` is ``low + (high - low) * u`` with ``u = (next64 >> 11) * 2**-53``.
- ``integers`` is Lemire's multiply-and-shift with rejection (ACM TOMS 2019)
  on 64-bit words, so each value of a range of up to 2**64 is equally likely.
"""

from __future__ import annotations

from .errors import DomainError

_M64 = (1 << 64) - 1


class Rng:
    """A SplitMix64 stream with scalar ``uniform`` and ``integers`` draws."""

    def __init__(self, seed: int):
        if not 0 <= seed <= _M64:
            raise DomainError(f"seed must be an integer in 0..2**64 - 1, got {seed}")
        self._state = int(seed)

    def _next64(self) -> int:
        self._state = z = (self._state + 0x9E3779B97F4A7C15) & _M64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * ((self._next64() >> 11) * 2.0**-53)

    def integers(self, low: int, high: int) -> int:
        """One integer in [low, high); the range may hold at most 2**64 values."""
        n = int(high) - int(low)
        if not 0 < n <= 1 << 64:
            raise DomainError(f"integers needs 0 < high - low <= 2**64, got {n}")
        m = self._next64() * n
        if (m & _M64) < n:
            threshold = (1 << 64) % n
            while (m & _M64) < threshold:
                m = self._next64() * n
        return int(low) + (m >> 64)
