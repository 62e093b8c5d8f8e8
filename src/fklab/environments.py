"""The three example environments and their hull operations.

An environment point is a phase on the circle, a point of the 2-torus under
the irrational line flow, or a translated Beatty point set.  The quasicrystal
flow acts by tau_t(omega) = omega - t, so translating adds t to the stored
offset; offsets are kept as exact dyadic rationals (``Fraction``) so the
cocycle property holds exactly, not merely to roundoff.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, ResourceError
from .exact import AlphaValue

SQRT2 = math.sqrt(2.0)

MATCH_TOL = 1e-9  # absolute tolerance for pattern / point matching
_MAX_WINDOW_POINTS = 10_000_000  # hard cap on materialized points
_MAX_RETURN_WINDOW = 1_000_000.0
_TABLE_SPAN = 1 << 16  # integers one slope's index table may span (~330 kB of indices)
_TABLE_MARGIN = 64  # extra integers tabulated on each side a table grows

# alpha -> (lo, hi, raw Beatty indices in [lo, hi]).  Entries are exact and
# depend on the slope alone, so which windows built a table never changes a
# result; an entry is replaced whole under the lock and never mutated.
_TABLES: Dict[AlphaValue, Tuple[int, int, np.ndarray]] = {}
_TABLES_LOCK = threading.Lock()


def _grown_table(ps: "PointSet", table, lo: int, hi: int):
    """A table of ps.alpha covering [lo, hi], reusing ``table`` where it can."""
    if table is None:
        t_lo, t_hi, ns = lo, lo - 1, np.empty(0, dtype=np.int64)
    else:
        t_lo, t_hi, ns = table
        if t_lo <= lo and hi <= t_hi:
            return table
    pad = (t_hi - t_lo + 1) // 2 + _TABLE_MARGIN  # geometric growth
    new_lo, new_hi = min(t_lo, lo - pad), max(t_hi, hi + pad)
    if new_hi - new_lo > _TABLE_SPAN:  # start over around the new window
        new_lo, new_hi = lo - _TABLE_MARGIN, hi + _TABLE_MARGIN
        return new_lo, new_hi, ps.raw_indices_in(new_lo, new_hi)
    parts = [ps.raw_indices_in(new_lo, t_lo - 1), ns, ps.raw_indices_in(t_hi + 1, new_hi)]
    return new_lo, new_hi, np.concatenate(parts)


def _slope_indices(ps: "PointSet", lo: int, hi: int) -> np.ndarray:
    """Raw Beatty indices of ps.alpha in [lo, hi], read from the slope's table.

    The indices depend only on the slope, so each slope keeps one table of
    exact integers, shared by every offset and thread.  A window outside the
    table grows it geometrically; a table that would span more than
    ``_TABLE_SPAN`` integers is rebuilt around the new window instead, and a
    window too wide for any table is materialized directly.
    """
    table = _TABLES.get(ps.alpha)
    if table is None or lo < table[0] or hi > table[1]:
        if hi - lo + 2 * _TABLE_MARGIN > _TABLE_SPAN:
            return ps.raw_indices_in(lo, hi)
        with _TABLES_LOCK:
            table = _grown_table(ps, _TABLES.get(ps.alpha), lo, hi)
            _TABLES[ps.alpha] = table
    ns = table[2]
    return ns[np.searchsorted(ns, lo) : np.searchsorted(ns, hi, side="right")]


@dataclass(frozen=True)
class PointSet:
    """The set omega(alpha) - offset, materialized lazily over windows."""

    alpha: AlphaValue
    offset: Fraction = Fraction(0)
    window: Optional[tuple] = None  # raw Beatty indices of the last materialization

    def raw_indices_in(self, lo: int, hi: int) -> np.ndarray:
        """Integers n in [lo, hi] with floor(n a) - floor((n-1) a) = 1."""
        if hi < lo:
            return np.empty(0, dtype=np.int64)
        if hi - lo > _MAX_WINDOW_POINTS:
            raise ResourceError(f"window of {hi - lo} integers exceeds the materialization cap")
        mask = self.alpha.membership_range(lo, hi)
        ns = np.arange(lo, hi + 1, dtype=np.int64)
        return ns[np.asarray(mask, dtype=bool)]

    def points_in(self, lo: float, hi: float) -> np.ndarray:
        """Sorted points of the represented set inside [lo, hi]."""
        if hi < lo:
            return np.empty(0)
        n_lo = math.ceil(Fraction(float(lo)) + self.offset)
        n_hi = math.floor(Fraction(float(hi)) + self.offset)
        ns = self.raw_indices_in(n_lo, n_hi)
        return ns.astype(np.float64) - float(self.offset)

    def tabulated_points(self, lo: float, hi: float) -> np.ndarray:
        """Sorted points covering [lo, hi], read from the slope's shared index table.

        The window is located in floats and widened by one integer each way,
        so the result holds every point of :meth:`points_in` over the same
        window, with the same values ``n - float(offset)``, and possibly one
        more point at each end.
        """
        off = float(self.offset)
        ns = _slope_indices(self, math.floor(lo + off) - 1, math.ceil(hi + off) + 1)
        return ns.astype(np.float64) - off

    def gaps_in(self, lo: float, hi: float) -> np.ndarray:
        pts = self.points_in(lo, hi)
        return np.diff(pts)


def beatty_points(alpha: AlphaValue, interval: Sequence[float]) -> PointSet:
    """Materialize the raw Beatty indices of omega(alpha) in [lo, hi].

    Returns a :class:`PointSet` (offset 0) carrying the materialized window;
    the set object itself stays usable for any other window.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise DomainError("interval must satisfy lo < hi")
    if hi - lo > 1e7:
        raise ResourceError("interval longer than 1e7 is not materializable")
    ps = PointSet(alpha)
    idx = ps.raw_indices_in(math.ceil(lo), math.floor(hi))
    return PointSet(alpha, window=tuple(int(n) for n in idx))


@dataclass(frozen=True)
class EnvPoint:
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
        off = offset if isinstance(offset, Fraction) else Fraction(float(offset))
        return EnvPoint("quasicrystal", pset=PointSet(alpha, off))


def translate_env(env: EnvPoint, t) -> EnvPoint:
    """The flow tau_t: shift phase(s), or subtract t from the point set."""
    if env.kind == "circle":
        return EnvPoint.circle(env.phase + float(t))
    if env.kind == "torus":
        return EnvPoint.torus(env.w1 + float(t), env.w2 + float(t) * SQRT2)
    dt = t if isinstance(t, Fraction) else Fraction(float(t))
    return EnvPoint("quasicrystal", pset=PointSet(env.pset.alpha, env.pset.offset + dt))


@dataclass(frozen=True)
class Pattern:
    """Recentered points of a set inside a closed ball of the given radius."""

    radius: float
    points: tuple

    def __len__(self):
        return len(self.points)


def pattern_equal(p: Pattern, q: Pattern, tol: float = MATCH_TOL) -> bool:
    if len(p.points) != len(q.points):
        return False
    if abs(p.radius - q.radius) > tol:
        return False
    if not p.points:
        return True
    return bool(
        np.max(np.abs(np.asarray(p.points) - np.asarray(q.points))) <= tol
    )


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


@dataclass(frozen=True)
class CylinderSpec:
    """Cylinder set: environments whose pattern at the origin equals the anchor."""

    anchor: Pattern
    radius: float

    def __post_init__(self):
        if abs(self.radius - self.anchor.radius) > MATCH_TOL:
            raise DomainError("cylinder radius must equal the anchor pattern radius")


def cylinder_at(env: EnvPoint, x: float, rho: float) -> CylinderSpec:
    pat = pattern_at(env, x, rho)
    return CylinderSpec(pat, float(rho))


def canonical_point_section(env: EnvPoint) -> CylinderSpec:
    """Section 'a set point sits at the origin', expressed with a small radius.

    The radius is half the short gap, so the anchor pattern is the single
    point 0 and matching is exactly 'the set contains the origin'.
    """
    _require_quasicrystal(env)
    rho = 0.5 * env.pset.alpha.inv_floor()
    return CylinderSpec(Pattern(rho, (0.0,)), rho)


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
    rho = section.radius
    master = env.pset.points_in(t_lo - rho - 2.0, t_hi + rho + 2.0)
    if master.size == 0:
        return np.empty(0)
    cand = (master[:, None] - anchor[None, :]).ravel()
    cand = cand[(cand >= t_lo - MATCH_TOL) & (cand <= t_hi + MATCH_TOL)]
    cand = np.unique(np.round(cand, 9))
    out = []
    for t in cand:
        lo_i = np.searchsorted(master, t - rho - MATCH_TOL, side="left")
        hi_i = np.searchsorted(master, t + rho + MATCH_TOL, side="right")
        local = master[lo_i:hi_i] - t
        local = local[np.abs(local) <= rho + MATCH_TOL]
        if local.size == anchor.size and (
            local.size == 0 or np.max(np.abs(local - anchor)) <= MATCH_TOL
        ):
            out.append(float(t))
    return np.asarray(sorted(out))


def transverse_frequency(env: EnvPoint, section: CylinderSpec, T: float) -> float:
    """Return count in the open ball B_T(0) divided by Leb(B_T) = 2T."""
    if T <= 0:
        raise DomainError("T must be positive")
    rt = return_times(env, section, (-T, T))
    n = int(np.sum(np.abs(rt) < T - 1e-12))
    return n / (2.0 * T)
