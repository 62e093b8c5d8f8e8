"""Exact arithmetic for Beatty-sequence slopes.

A slope is either a rational p/q or a quadratic irrational (a + b*sqrt(d))/c
with d > 0 non-square.  All floor computations run in integer arithmetic, so
the combinatorics of the point sets (gap values, counting identities) hold
exactly; floats only appear when positions are handed to numerics.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ResourceError

# |n b| sqrt(d) stays below this in membership_range, so (n b)^2 d and the
# squares of its root fit in int64 (whose limit is about (3.04e9)^2)
_MAX_ROOT = 2_000_000_000
_BLOCK = 1 << 13  # integers per block of membership_range's temporaries

_RAT_RE = re.compile(r"^\s*(-?\d+)\s*/\s*(-?\d+)\s*$")
_QUAD_RE = re.compile(
    r"^\s*\(\s*(-?\d+)\s*([+-])\s*(\d+)\s*(?:√|sqrt)\s*\(?\s*(\d+)\s*\)?\s*\)"
    r"\s*/\s*(-?\d+)\s*$"
)


def _floor_sqrt_mult(b: int, d: int) -> int:
    """floor(b*sqrt(d)) for integer b and non-square d > 0."""
    if b == 0:
        return 0
    s = math.isqrt(b * b * d)
    if b > 0:
        return s
    # b*sqrt(d) is irrational here, so it is never an exact integer
    return -s - 1


class _AlphaFields(NamedTuple):
    a: int
    b: int
    c: int
    d: int


class AlphaValue(_AlphaFields):
    """The value (a + b*sqrt(d))/c; rational exactly when b == 0.

    Use :meth:`rational`, :meth:`quadratic` or :meth:`parse` rather than the
    raw constructor; they normalize the representation (c > 0, square d folded
    into the rational part, reduced fractions).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.c <= 0:
            raise DomainError("denominator must be normalized positive")
        if self.b != 0:
            if self.d <= 0 or math.isqrt(self.d) ** 2 == self.d:
                raise DomainError("quadratic part requires non-square d > 0")
        # floor(alpha) == 0 puts alpha in [0, 1), and alpha == 0 only when a == b == 0
        if self.floor_mul(1) != 0 or self.a == self.b == 0:
            raise DomainError("alpha must lie strictly in (0, 1)")
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, p: int, q: int) -> "AlphaValue":
        if q == 0:
            raise DomainError("denominator must be nonzero")
        if q < 0:
            p, q = -p, -q
        g = math.gcd(p, q)
        return cls(p // g, 0, q // g, 0)

    @classmethod
    def quadratic(cls, a: int, b: int, d: int, c: int) -> "AlphaValue":
        if c == 0:
            raise DomainError("denominator must be nonzero")
        if c < 0:
            a, b, c = -a, -b, -c
        if d < 0:
            raise DomainError("d must be positive")
        s = math.isqrt(d)
        if b == 0 or s * s == d:
            return cls.rational(a + b * s, c)
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        return cls(a // g, b // g, c // g, d)

    @classmethod
    def parse(cls, text: str) -> "AlphaValue":
        m = _RAT_RE.match(text)
        if m:
            return cls.rational(int(m.group(1)), int(m.group(2)))
        m = _QUAD_RE.match(text)
        if m:
            a, sign, b, d, c = m.groups()
            bval = int(b) if sign == "+" else -int(b)
            return cls.quadratic(int(a), bval, int(d), int(c))
        raise DomainError(f"cannot parse slope {text!r}; use 'p/q' or '(a+b√d)/c'")

    # -- exact queries ------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def floor_mul(self, n: int) -> int:
        """floor(n * alpha), exact."""
        A = n * self.a
        if self.b == 0:
            return A // self.c
        F = A + _floor_sqrt_mult(n * self.b, self.d)
        return F // self.c

    def inv_floor(self) -> int:
        """floor(1/alpha), exact; the short gap of the point set."""
        if self.b == 0:
            return self.c // self.a
        # 1/alpha = c(a - b sqrt d) / (a^2 - b^2 d)
        A, B, C = self.c * self.a, -self.c * self.b, self.a * self.a - self.b * self.b * self.d
        if C < 0:
            A, B, C = -A, -B, -C
        return (A + _floor_sqrt_mult(B, self.d)) // C

    def max_gap(self) -> int:
        """Largest possible gap between consecutive set points."""
        if self.is_rational and self.a == 1:
            # alpha = 1/q: arithmetic progression, single gap q
            return self.c
        return self.inv_floor() + 1

    def fits_int64(self, lo: int, hi: int) -> bool:
        """Whether ``membership_range(lo, hi)`` stays in int64, tested on exact integers."""
        reach = max(abs(lo - 1), abs(hi))
        return (reach * self.b) ** 2 * self.d < _MAX_ROOT**2 and reach * abs(self.a) < 2**62

    def membership_range(self, lo: int, hi: int) -> np.ndarray:
        """Boolean array: n in the Beatty set for n = lo..hi (inclusive).

        n is in the set when floor(n alpha) - floor((n-1) alpha) == 1.  Each
        floor is (n a + floor(n b sqrt d)) // c in int64, where floor(n b sqrt d)
        comes from the integer square root of (n b)^2 d: a float square root,
        then one integer correction each way, so no float decides membership.
        The window runs in blocks of ``_BLOCK`` integers, so the int64
        temporaries stay a fixed size whatever the window's length.
        """
        if not self.fits_int64(lo, hi):
            raise ResourceError(f"Beatty window [{lo}, {hi}] is too far out for int64 arithmetic")
        member = np.empty(max(hi - lo + 1, 0), dtype=bool)
        for start in range(lo, hi + 1, _BLOCK):
            stop = min(start + _BLOCK, hi + 1)
            n = np.arange(start - 1, stop, dtype=np.int64)
            nb = n * self.b
            N = nb * nb * self.d
            s = np.floor(np.sqrt(N.astype(np.float64))).astype(np.int64)
            s -= s * s > N
            s += (s + 1) * (s + 1) <= N
            # b sqrt(d) is irrational when b != 0, so a negative n b is never exact
            r = np.where(nb > 0, s, np.where(nb < 0, -s - 1, 0))
            F = (n * self.a + r) // self.c
            np.equal(np.diff(F), 1, out=member[start - lo : stop - lo])
        return member

    # -- float view ---------------------------------------------------------

    @property
    def value(self) -> float:
        if self.b == 0:
            return self.a / self.c
        return (self.a + self.b * math.sqrt(self.d)) / self.c

    def __str__(self) -> str:
        if self.b == 0:
            return f"{self.a}/{self.c}"
        sign = "+" if self.b >= 0 else "-"
        return f"({self.a}{sign}{abs(self.b)}√{self.d})/{self.c}"
