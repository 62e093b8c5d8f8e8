"""Independent oracles used by the test suite.

Everything here recomputes results by a route different from the library:
high-precision floors via mpmath, Beatty membership over a whole window in
one set of arrays, Beatty points from a ``Fraction`` window and one
membership test, the eager 1/n fit of the ground energy, exhaustive
enumeration for chain problems, plain loops for the two DP kernels, for the
chain DP's backtrack and a chain's local structure (scalar energies, one
site at a time), for tower induction and for return times, full shifted Mane
tables for the subadditivity check, and Karp's algorithm for the minimum
mean cycle.  The Aubry order checks live here alone, since no command reads
them: the crossing gain of the twist condition, and the repair that reduces
a chain to a monotone one (one pair at a time), which brute force checks.
So do the hull's patterns and cylinder sets and the chain-point counts over
return intervals that test equidistribution.
"""

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import mpmath as mp
import numpy as np

from fklab._rng import Rng
from fklab.chain_opt import MinimizeResult
from fklab.environments import MATCH_TOL, _require_quasicrystal, translate_env
from fklab.errors import DomainError, InsufficientDataError
from fklab.exact import AlphaValue
from fklab.lagrangians import chain_energy, energy, potential_values, spring_value
from fklab.mane import _strictly_monotone, mane_table
from fklab.towers import Tower


# (sqrt 5 - 1)/2, the golden slope, built without the parser
FIB = AlphaValue.quadratic(-1, 1, 5, 2)


def floor_mul_mp(alpha, n: int) -> int:
    """floor(n * alpha): Fraction floor for rationals, 60-digit mpmath otherwise."""
    if alpha.b == 0:
        return (Fraction(n) * Fraction(alpha.a, alpha.c)).__floor__()
    with mp.workdps(60):
        x = mp.mpf(n) * (alpha.a + alpha.b * mp.sqrt(alpha.d)) / alpha.c
        f = mp.floor(x)
        assert abs(x - f) > mp.mpf("1e-30") or n == 0, "oracle hit an ambiguous floor"
        return int(f)


def beatty_indices_mp(alpha, lo: int, hi: int):
    return [
        n
        for n in range(lo, hi + 1)
        if floor_mul_mp(alpha, n) - floor_mul_mp(alpha, n - 1) == 1
    ]


def membership_range_oneshot(alpha, lo: int, hi: int) -> np.ndarray:
    """``AlphaValue.membership_range`` with every floor of the window in one int64 array."""
    n = np.arange(lo - 1, hi + 1, dtype=np.int64)
    nb = n * alpha.b
    N = nb * nb * alpha.d
    s = np.floor(np.sqrt(N.astype(np.float64))).astype(np.int64)
    s -= s * s > N
    s += (s + 1) * (s + 1) <= N
    r = np.where(nb > 0, s, np.where(nb < 0, -s - 1, 0))
    F = (n * alpha.a + r) // alpha.c
    return np.diff(F) == 1


def points_in_oneshot(pset, lo: float, hi: float) -> np.ndarray:
    """``PointSet.points_in`` without the block memo: exact window, one membership test."""
    if hi < lo:
        return np.empty(0)
    n_lo = math.ceil(Fraction(float(lo)) + pset.offset)
    n_hi = math.floor(Fraction(float(hi)) + pset.offset)
    idx = np.flatnonzero(pset.alpha.membership_range(n_lo, n_hi)) + n_lo
    return idx.astype(np.float64) - float(pset.offset)


def extrapolated_eager(n_list, m_values) -> float:
    """The 1/n fit of ``GroundEnergyEstimate.extrapolated``, computed up front."""
    per_site = [m / n for m, n in zip(m_values, n_list)]
    lower = max(per_site)
    top = max(2, len(n_list) // 2 + len(n_list) % 2)
    ns = np.asarray(n_list[-top:], dtype=float)
    ys = np.asarray(per_site[-top:])
    A = np.column_stack([np.ones_like(ns), -1.0 / ns])
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    extrapolated = float(coef[0])
    if extrapolated < lower:
        extrapolated = lower
    return extrapolated


def brute_force_free_chain(model, env, grid, n):
    best = np.inf
    for xs in itertools.product(grid, repeat=n + 1):
        e = chain_energy(model, env, xs)
        if e < best:
            best = e
    return best


def brute_force_phi(model, env, nodes, target_idx, ebar, n_max):
    """Exhaustive enumeration of strictly monotone chains 0 -> nodes[target]."""
    best = np.inf

    def extend(path_idx, cost, steps):
        nonlocal best
        j = path_idx[-1]
        if j == target_idx:
            best = min(best, cost)
            return
        if steps == n_max:
            return
        for k in range(j + 1, target_idx + 1):
            step_cost = energy(model, env, nodes[j], nodes[k]) - ebar
            extend(path_idx + [k], cost + step_cost, steps + 1)

    extend([0], 0.0, 0)
    return best


def subadditivity_loop(model, table, samples, seed):
    """Largest Phi(s+t) - Phi(s) - Phi(tau_s omega, t) over the sampled pairs.

    Draws the pairs as ``cocycle_defects`` does and reads Phi(tau_s omega, t)
    from a full Mane table at each shifted environment.
    """
    h = table.h
    grid_idx = {int(round(float(t) / h)): i for i, t in enumerate(table.targets)}
    rng = Rng(seed)
    K = (table.targets.size - 1) // 2
    pairs = []
    guard = 0
    while len(pairs) < samples and guard < 100 * samples:
        guard += 1
        s = rng.integers(-K, K + 1)
        t = rng.integers(-K, K + 1)
        if s != 0 and s in grid_idx and t in grid_idx and (s + t) in grid_idx:
            pairs.append((s, t))
    shifted = {}
    subadd = -np.inf
    for s, t in pairs:
        if s not in shifted:
            shifted[s] = mane_table(model, translate_env(table.env, s * h), table.ebar, table.X, h)
        lhs = table.phi[grid_idx[s + t]]
        rhs = table.phi[grid_idx[s]] + shifted[s].phi[grid_idx[t]]
        subadd = max(subadd, float(lhs - rhs))
    return subadd


def brute_force_repair(model, env, xs):
    """Best strictly monotone subsequence (keep both ends) plus fixed points."""
    xs = list(xs)
    n = len(xs) - 1
    sgn = 1.0 if xs[-1] > xs[0] else -1.0
    best = np.inf
    for r in range(0, n):
        for keep in itertools.combinations(range(1, n), r):
            idx = [0] + list(keep) + [n]
            vals = [xs[i] for i in idx]
            if all(sgn * (b - a) > 1e-15 for a, b in zip(vals, vals[1:])):
                e = chain_energy(model, env, vals)
                for i in range(1, n):
                    if i not in keep:
                        e += energy(model, env, xs[i], xs[i])
                best = min(best, e)
    return best


def make_chain(model, env, positions) -> MinimizeResult:
    """A chain at the given sites, as an unrefined result of 0 steps."""
    xs = np.asarray(positions, dtype=float).copy()
    return MinimizeResult(xs, chain_energy(model, env, xs), 0, False)


def crossing_gain(model, env, x0, x1, y0, y1) -> float:
    """Energy saved by uncrossing: [E(x0,x1) + E(y0,y1)] - [E(x0,y1) + E(y0,x1)]."""
    if (y0 - x0) * (y1 - x1) >= 0:
        raise DomainError("quadruple must cross: (y0-x0)(y1-x1) < 0")
    return (
        energy(model, env, x0, x1)
        + energy(model, env, y0, y1)
        - energy(model, env, x0, y1)
        - energy(model, env, y0, x1)
    )


class RepairResult(NamedTuple):
    chain: MinimizeResult
    kept: np.ndarray
    energy: float  # E(subsequence) + sum of E(x, x) over dropped points


def repair_loop(model, env, chain):
    """Optimal monotone-subsequence decomposition of a twist chain, pair by pair.

    Keeps both endpoints, drops interior points that break strict order and
    re-inserts each dropped point as the fixed pair E(x, x); the retained
    subsequence is strictly monotone and the total is minimal over all such
    decompositions (a DP over kept indices, one scalar ``energy`` call per
    pair (k, j)).
    """
    xs = np.asarray(chain.positions, dtype=float)
    n = xs.size - 1
    if _strictly_monotone(xs):
        return RepairResult(chain=chain, kept=np.arange(n + 1), energy=chain.energy)
    sgn = 1.0 if xs[n] > xs[0] else -1.0
    diag = np.array([energy(model, env, x, x) for x in xs])
    prefix = np.concatenate([[0.0], np.cumsum(diag)])
    best = np.full(n + 1, np.inf)
    bp = np.full(n + 1, -1, dtype=int)
    best[0] = 0.0
    for j in range(1, n + 1):
        for k in range(j - 1, -1, -1):
            if np.isfinite(best[k]) and sgn * (xs[j] - xs[k]) > 1e-15:
                cand = best[k] + energy(model, env, xs[k], xs[j]) + (prefix[j] - prefix[k + 1])
                if cand < best[j] - 1e-15:
                    best[j] = cand
                    bp[j] = k
    kept = [n]
    j = n
    while j > 0:
        j = bp[j]
        kept.append(j)
    kept = np.asarray(kept[::-1])
    return RepairResult(chain=make_chain(model, env, xs[kept]), kept=kept, energy=float(best[n]))


def chain_structure_loop(chain, model, env, R):
    """(strictly monotone, max jump, max jump <= R, max local defect) of a chain.

    The local defect of an interior site is how much its pair energies drop
    under the best of a fixed set of trial moves, one site at a time.
    """
    xs = np.asarray(chain.positions, dtype=float)
    jumps = np.abs(np.diff(xs))
    max_jump = float(jumps.max()) if jumps.size else 0.0
    offs = np.concatenate(
        [np.linspace(-0.25, 0.25, 41), [-1e-2, -1e-3, -1e-4, 1e-4, 1e-3, 1e-2]]
    )
    defect = 0.0
    for k in range(1, xs.size - 1):
        cand = xs[k] + offs
        phi = (
            np.asarray(spring_value(model, cand - xs[k - 1]))
            + np.asarray(spring_value(model, xs[k + 1] - cand))
            + np.atleast_1d(potential_values(model, env, cand))
        )
        base = (
            float(spring_value(model, xs[k] - xs[k - 1]))
            + float(spring_value(model, xs[k + 1] - xs[k]))
            + float(potential_values(model, env, xs[k]))
        )
        defect = max(defect, base - float(phi.min()))
    return _strictly_monotone(xs), max_jump, max_jump <= R + 1e-9, float(max(0.0, defect))


def chain_dp_backward_loop(V, Wd, n, dlo):
    """Cell-by-cell loop version of ``_kernels.chain_dp_backward_np``."""
    G = V.shape[0]
    D = Wd.shape[0]
    C = np.full((n + 1, G), np.inf)
    C[n, :] = 0.0
    for k in range(n - 1, -1, -1):
        for j in range(G):
            best = np.inf
            for di in range(D):
                jj = j + dlo + di
                if 0 <= jj < G:
                    best = min(best, Wd[di] + C[k + 1, jj])
            C[k, j] = V[j] + best
    return C


def chain_dp_path_loop(C, Wd, dlo, j, start=0):
    """Backtrack of a full table from ``chain_dp_backward_loop``, from row j of layer
    ``start``.

    Each step scans the successors on the grid in row order and takes the
    first whose Wd + C[k+1] lies within 1e-12 of the least of them.
    """
    G = C.shape[1]
    path = [j]
    for k in range(start, C.shape[0] - 1):
        rows = [j + dlo + di for di in range(len(Wd)) if 0 <= j + dlo + di < G]
        vals = [Wd[r - j - dlo] + C[k + 1, r] for r in rows]
        least = min(vals)
        j = next(r for r, v in zip(rows, vals) if v <= least + 1e-12)
        path.append(j)
    return path


def phi_dp_loop(cost, n_max):
    """Layered DP, one layer per step count: D[m, j] = best m-step cost.

    ``_kernels.phi_dp`` must match min over m >= 1 of D[:, j] and the first
    such m.
    """
    G = cost.shape[0]
    D = np.full((n_max + 1, G), np.inf)
    D[0, 0] = 0.0
    for m in range(1, n_max + 1):
        for j in range(G):
            for i in range(G):
                D[m, j] = min(D[m, j], D[m - 1, i] + cost[i, j])
    return D


def min_mean_cycle(n_nodes: int, edges) -> float:
    """Karp's minimum mean cycle; edges are (u, v, weight) triples.

    Uses d_0 = 0 at every node (equivalent to a zero-cost super source), which
    leaves cycle means untouched.
    """
    INF = float("inf")
    d = np.full((n_nodes + 1, n_nodes), INF)
    d[0, :] = 0.0
    for k in range(1, n_nodes + 1):
        for u, v, w in edges:
            if d[k - 1, u] + w < d[k, v]:
                d[k, v] = d[k - 1, u] + w
    best = INF
    for v in range(n_nodes):
        if not np.isfinite(d[n_nodes, v]):
            continue
        worst = -INF
        for k in range(n_nodes):
            if np.isfinite(d[k, v]):
                worst = max(worst, (d[n_nodes, v] - d[k, v]) / (n_nodes - k))
        best = min(best, worst)
    return best


def lp_edges(lp):
    out = []
    M = lp.jumps.size
    for j in range(lp.N):
        for m, k in enumerate(lp.jumps):
            out.append((j, (j + int(k)) % lp.N, float(lp.cost[j, m])))
    return out


def induce_tower_loop(t):
    """Word-by-word version of ``towers.induce_tower`` (same errors, same floors)."""
    seq = t.sequence
    occ = np.flatnonzero(seq == t.base_index)
    if occ.size < 100:
        raise DomainError("base floor must occur at least 100 times in the window")
    words = [tuple(int(v) for v in seq[occ[i] : occ[i + 1]]) for i in range(occ.size - 1)]
    distinct = sorted(set(words), key=lambda w: (tuple(t.labels[i] for i in w), w))
    counts = {w: 0 for w in distinct}
    for w in words:
        counts[w] += 1
    shallow = [w for w in distinct if counts[w] < 2]
    if shallow:
        raise InsufficientDataError(
            f"{len(shallow)} return word(s) observed fewer than twice; lengthen the window"
        )
    M = np.zeros((len(t.labels), len(distinct)), dtype=np.int64)
    for b, w in enumerate(distinct):
        for i in w:
            M[i, b] += 1
    heights = M.T.astype(float) @ t.heights
    labels = tuple(sum((t.labels[i] for i in w), ()) for w in distinct)
    word_id = {w: b for b, w in enumerate(distinct)}
    seq1 = np.array([word_id[w] for w in words], dtype=np.int32)
    counts_arr = np.bincount(seq1, minlength=len(distinct)).astype(float)
    span1 = float(np.sum(counts_arr * heights))
    base1 = min(range(len(labels)), key=lambda b: labels[b])
    tower1 = Tower(
        level=t.level + 1,
        labels=labels,
        heights=heights,
        base_index=base1,
        nu=counts_arr / span1,
        sequence=seq1,
    )
    return tower1, M


class Pattern(NamedTuple):
    """Recentered points of a set inside a closed ball of the given radius."""

    radius: float
    points: tuple


def pattern_at(env, x: float, rho: float) -> Pattern:
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


def cylinder_at(env, x: float, rho: float) -> CylinderSpec:
    return CylinderSpec(pattern_at(env, x, rho))


def return_times_loop(env, section, window):
    """All t in [T-, T+] with tau_t(env) in the section's cylinder, one candidate
    at a time.

    Candidates come from aligning a set point with an anchor point; a match
    must produce such an alignment when the anchor is nonempty.
    """
    t_lo, t_hi = float(window[0]), float(window[1])
    if t_hi < t_lo:
        return np.empty(0)
    anchor = np.asarray(section.anchor.points)
    rho = section.anchor.radius
    master = env.pset.points_in(t_lo - rho - 2.0, t_hi + rho + 2.0)
    if master.size == 0:
        return np.empty(0)
    cand = (master[:, None] - anchor[None, :]).ravel()
    cand = np.sort(cand[(cand >= t_lo) & (cand <= t_hi)])
    # one candidate per run of candidates closer than MATCH_TOL: the run's first
    first = np.ones(cand.size, dtype=bool)
    first[1:] = np.diff(cand) >= MATCH_TOL
    cand = cand[first]
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


def equidistribution_counts(chain, env, section, R: float):
    """Chain-point counts over non-exceptional return intervals (a-R, a+R).

    Returns (counts, n_exceptional): counts for intervals fully inside the
    chain span, plus the number of boundary intervals set aside.  The return
    times come from ``return_times_loop``.
    """
    xs = np.asarray(chain.positions, dtype=float)
    if not _strictly_monotone(xs):
        raise DomainError("equidistribution counts need a strictly monotone chain")
    lo, hi = float(min(xs[0], xs[-1])), float(max(xs[0], xs[-1]))
    rts = return_times_loop(env, section, (lo, hi))
    if rts.size < 3:
        raise InsufficientDataError("section returns fewer than 3 times inside the span")
    xs_sorted = np.sort(xs)
    inner = (rts - R >= lo - 1e-9) & (rts + R <= hi + 1e-9)
    a = rts[inner]
    counts = np.searchsorted(xs_sorted, a + R, side="left") - np.searchsorted(
        xs_sorted, a - R, side="right"
    )
    return counts, int(rts.size - np.count_nonzero(inner))
