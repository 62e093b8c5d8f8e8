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
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, ResourceError
from .exact import AlphaValue

if TYPE_CHECKING:
    from fractions import Fraction

SQRT2 = math.sqrt(2.0)

MATCH_TOL = 1e-9  # absolute tolerance for pattern / point matching
_MAX_WINDOW_POINTS = 10_000_000  # hard cap on materialized points
_MAX_RETURN_WINDOW = 1_000_000.0
_RETURN_BLOCK = 1 << 16  # return-time candidates matched per gather
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


class Pattern(NamedTuple):
    """Recentered points of a set inside a closed ball of the given radius."""

    radius: float
    points: tuple


def _require_quasicrystal(env: EnvPoint):
    if env.kind != "quasicrystal":
        raise DomainError(f"operation requires a quasicrystal environment, got {env.kind!r}")


def pattern_at(env: EnvPoint, x: float, rho: float) -> Pattern:
    """The recentered pattern (omega - x) within the closed ball of radius rho."""
    _require_quasicrystal(env)
    if rho <= 0:
        raise DomainError("pattern radius must be positive")
    pts = env.pset.points_in(x - rho - 1.0, x + rho + 1.0) - x
    keep = np.abs(pts) <= rho + MATCH_TOL
    return Pattern(float(rho), tuple(float(p) for p in pts[keep]))


class CylinderSpec(NamedTuple):
    """Cylinder set: environments whose pattern at the origin equals the anchor."""

    anchor: Pattern


def cylinder_at(env: EnvPoint, x: float, rho: float) -> CylinderSpec:
    return CylinderSpec(pattern_at(env, x, rho))


def canonical_point_section(env: EnvPoint) -> CylinderSpec:
    """Section 'a set point sits at the origin', expressed with a small radius.

    The radius is half the short gap, so the anchor pattern is the single
    point 0 and matching is exactly 'the set contains the origin'.
    """
    _require_quasicrystal(env)
    rho = 0.5 * env.pset.alpha.inv_floor()
    return CylinderSpec(Pattern(rho, (0.0,)))


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


def return_times(env: EnvPoint, section: CylinderSpec, window: Sequence[float]) -> np.ndarray:
    """All t in [T-, T+] with tau_t(env) in the section's cylinder.

    Candidates come from aligning a set point with an anchor point; a match
    must produce such an alignment because the anchor is nonempty.
    """
    _require_quasicrystal(env)
    t_lo, t_hi = float(window[0]), float(window[1])
    if t_hi < t_lo:
        return np.empty(0)
    if t_hi - t_lo > _MAX_RETURN_WINDOW:
        raise ResourceError("return-time window too large")
    anchor = np.asarray(section.anchor.points)
    if anchor.size == 0:
        raise DomainError("section anchor pattern must be nonempty")
    rho = section.anchor.radius
    master = env.pset.points_in(t_lo - rho - 2.0, t_hi + rho + 2.0)
    if master.size == 0:
        return np.empty(0)
    cand = (master[:, None] - anchor[None, :]).ravel()
    cand = cand[(cand >= t_lo - MATCH_TOL) & (cand <= t_hi + MATCH_TOL)]
    cand = _unique(np.round(cand, 9))
    hit = np.zeros(cand.size, dtype=bool)
    for start in range(0, cand.size, _RETURN_BLOCK):
        block = cand[start : start + _RETURN_BLOCK]
        hit[start : start + _RETURN_BLOCK] = _matches_anchor(master, block, anchor, rho)
    return cand[hit]


def _matches_anchor(master: np.ndarray, cand: np.ndarray, anchor: np.ndarray, rho: float):
    """Whether (master - t) within the closed rho-ball equals the anchor, per t in cand.

    Each candidate's window of master points is gathered into one row of a
    (candidates) x (widest window) array.  The points kept by the ball test
    are contiguous in a row, so the anchor is compared from the first kept one.
    """
    lo = np.searchsorted(master, cand - rho - MATCH_TOL, side="left")
    hi = np.searchsorted(master, cand + rho + MATCH_TOL, side="right")
    last = master.size - 1
    # at least one column, so argmax is defined when no window holds a point
    pos = lo[:, None] + np.arange(max(int(np.max(hi - lo)), 1))
    local = master[np.minimum(pos, last)] - cand[:, None]
    kept = (pos < hi[:, None]) & (np.abs(local) <= rho + MATCH_TOL)
    at = lo + np.argmax(kept, axis=1)
    at = np.minimum(at[:, None] + np.arange(anchor.size), last)
    ok = np.count_nonzero(kept, axis=1) == anchor.size
    return ok & (np.max(np.abs(master[at] - cand[:, None] - anchor), axis=1) <= MATCH_TOL)


def transverse_frequency(env: EnvPoint, section: CylinderSpec, T: float) -> float:
    """Return count in the open ball B_T(0) divided by Leb(B_T) = 2T."""
    if T <= 0:
        raise DomainError("T must be positive")
    rt = return_times(env, section, (-T, T))
    n = int(np.sum(np.abs(rt) < T - 1e-12))
    return n / (2.0 * T)
