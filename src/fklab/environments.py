"""The three example environments and their hull operations.

An environment point is a phase on the circle, a point of the 2-torus under
the irrational line flow, or a translated Beatty point set.  The quasicrystal
flow acts by tau_t(omega) = omega - t, so translating adds t to the stored
offset; offsets are kept as exact dyadic rationals (``Fraction``) so the
cocycle property holds exactly, not merely to roundoff.  ``fractions`` is
imported only where a quasicrystal offset is built (``EnvPoint.quasicrystal``
and the quasicrystal branch of ``translate_env``), so a circle or torus run
never loads it (nor ``decimal``, which it imports); a bare ``PointSet`` has
the integer offset 0, which has the same ``numerator``, ``denominator`` and
exact sum with a ``Fraction``.

The hull is read through windows of the point set (``PointSet.points_in``)
and the ladder metric ``hull_distance``.  env-report's point frequency counts
the set's points directly: they are the return times of the section "a set
point sits at the origin".
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from .errors import DomainError, ResourceError
from .exact import AlphaValue

if TYPE_CHECKING:
    from fractions import Fraction

SQRT2 = math.sqrt(2.0)

MATCH_TOL = 1e-9  # absolute tolerance for point matching
_MAX_WINDOW_POINTS = 10_000_000  # hard cap on materialized points
_BLOCK = 1 << 10  # integers per memoized block of Beatty indices
_MAX_BLOCKS = 64  # memoized blocks, over all slopes


def _unique(a) -> np.ndarray:
    """The sorted distinct values of ``a``, exactly as a plain ``np.unique`` gives them.

    This is numpy's own sort path: a plain ``np.unique`` first asks
    ``np.ma.is_masked``, which imports ``numpy.ma`` (about 18 ms) in a fresh
    process.  NaNs sort last and, as under ``equal_nan=True``, only the first
    is kept.
    """
    aux = np.sort(np.ravel(a))
    keep = np.ones(aux.shape, dtype=bool)
    keep[1:] = (aux[1:] != aux[:-1]) & ~np.isnan(aux[:-1])
    return aux[keep]


@functools.lru_cache(maxsize=_MAX_BLOCKS)
def _block(alpha: AlphaValue, k: int) -> np.ndarray:
    """Raw Beatty indices of alpha in [k B, (k+1) B), B = ``_BLOCK``, read-only.

    The indices depend on the slope alone, so a block is exact whichever
    window asked for it and is shared by every offset and thread; the 64
    blocks kept reach 65 536 integers over all slopes together.
    """
    ns = np.flatnonzero(alpha.membership_range(k * _BLOCK, (k + 1) * _BLOCK - 1))
    ns += k * _BLOCK
    ns.flags.writeable = False
    return ns


class PointSet(NamedTuple):
    """The set omega(alpha) - offset, materialized lazily over windows."""

    alpha: AlphaValue
    offset: Fraction | int = 0

    def raw_indices_in(self, lo: int, hi: int) -> np.ndarray:
        """Integers n in [lo, hi] with floor(n a) - floor((n-1) a) = 1, as a fresh array.

        A window touching at most ``_MAX_BLOCKS`` blocks is read from the
        slope's memoized blocks; a wider one is materialized once, leaving
        the memo as it was.
        """
        if hi < lo:
            return np.empty(0, dtype=np.int64)
        if hi - lo > _MAX_WINDOW_POINTS:
            raise ResourceError(f"window of {hi - lo} integers exceeds the materialization cap")
        blocks = range(lo // _BLOCK, hi // _BLOCK + 1)
        if len(blocks) > _MAX_BLOCKS:
            idx = np.flatnonzero(self.alpha.membership_range(lo, hi))
            idx += lo
            return idx
        ns = np.concatenate([_block(self.alpha, k) for k in blocks])
        return ns[np.searchsorted(ns, lo) : np.searchsorted(ns, hi, side="right")]

    def index_window(self, lo: float, hi: float):
        """The integers (n_lo, n_hi) whose points n - offset lie in [lo, hi], exactly.

        These are ceil(lo + offset) and floor(hi + offset) over the exact
        rationals of the floats and the offset, in integer arithmetic.
        """
        p, q = self.offset.numerator, self.offset.denominator
        a, b = float(lo).as_integer_ratio()
        c, d = float(hi).as_integer_ratio()
        return -((-a * q - p * b) // (b * q)), (c * q + p * d) // (d * q)

    def points_in(self, lo: float, hi: float) -> np.ndarray:
        """Sorted points of the represented set inside [lo, hi]."""
        if hi < lo:
            return np.empty(0)
        ns = self.raw_indices_in(*self.index_window(lo, hi))
        return ns.astype(np.float64) - float(self.offset)


class EnvPoint(NamedTuple):
    """A point of one of the three hulls."""

    kind: str  # "circle" | "torus" | "quasicrystal"
    phase: float = 0.0
    w1: float = 0.0
    w2: float = 0.0
    pset: Optional[PointSet] = None

    @staticmethod
    def circle(phase: float) -> "EnvPoint":
        return EnvPoint("circle", phase=float(phase) % 1.0)

    @staticmethod
    def torus(w1: float, w2: float) -> "EnvPoint":
        return EnvPoint("torus", w1=float(w1) % 1.0, w2=float(w2) % 1.0)

    @staticmethod
    def quasicrystal(alpha: AlphaValue, offset=0) -> "EnvPoint":
        from fractions import Fraction

        off = offset if isinstance(offset, Fraction) else Fraction(float(offset))
        return EnvPoint("quasicrystal", pset=PointSet(alpha, off))


def translate_env(env: EnvPoint, t) -> EnvPoint:
    """The flow tau_t: shift phase(s), or subtract t from the point set."""
    if env.kind == "circle":
        return EnvPoint.circle(env.phase + float(t))
    if env.kind == "torus":
        return EnvPoint.torus(env.w1 + float(t), env.w2 + float(t) * SQRT2)
    from fractions import Fraction

    dt = t if isinstance(t, Fraction) else Fraction(float(t))
    return EnvPoint("quasicrystal", pset=PointSet(env.pset.alpha, env.pset.offset + dt))


def _require_quasicrystal(env: EnvPoint):
    if env.kind != "quasicrystal":
        raise DomainError(f"operation requires a quasicrystal environment, got {env.kind!r}")


def hull_distance(env_a: EnvPoint, env_b: EnvPoint, r_max: float) -> float:
    """Ladder approximation of the hull metric.

    Scans r over the geometric ladder {1, 2, 4, ..., r_max} from the top and
    returns 1/(r+1) for the largest r at which small translates (taken from
    point alignments) make the two sets agree on B_r(0).  Upper bound of the
    true metric; returns 1.0 when even r = 1 fails.
    """
    _require_quasicrystal(env_a)
    _require_quasicrystal(env_b)
    if env_a.pset.alpha != env_b.pset.alpha:
        raise DomainError("hull distance requires point sets over the same slope")
    if r_max < 1:
        raise DomainError("r_max must be at least 1")
    ladder = []
    r = 1.0
    while r < r_max:
        ladder.append(r)
        r *= 2.0
    ladder.append(float(r_max))
    for r in sorted(set(ladder), reverse=True):
        margin = 2.0 / r
        pa = env_a.pset.points_in(-r - margin - 1, r + margin + 1)
        pb = env_b.pset.points_in(-r - margin - 1, r + margin + 1)
        deltas = [0.0]
        if pa.size and pb.size:
            dd = (pb[None, :] - pa[:, None]).ravel()
            deltas.extend(dd[np.abs(dd) < margin].tolist())
        matched = False
        for delta in sorted(set(np.round(np.asarray(deltas), 12).tolist())):
            sa = pa + delta / 2.0
            sb = pb - delta / 2.0
            sa = sa[np.abs(sa) < r - MATCH_TOL]
            sb = sb[np.abs(sb) < r - MATCH_TOL]
            if sa.size == sb.size and (sa.size == 0 or np.max(np.abs(sa - sb)) <= MATCH_TOL):
                matched = True
                break
        if matched:
            return 1.0 / (r + 1.0)
    return 1.0
