"""Finite-chain minimization and Aubry order machinery.

Solver layout: a banded grid DP finds the global structure (restricted to
monotone interior orderings when the endpoints differ, which is safe for the
weakly twist catalog), then red-black sweeps refine off-grid.  Each sweep is
a block Gauss-Seidel pass: with the odd sites fixed the even sites decouple,
so all of them take one vectorized safeguarded Newton step at once (sites
where Newton cannot descend fall back to a bracketed search), and then the
odd sites do the same.  Sweeps stop when no site moves by MOVE_TOL.  When the
sweep budget runs out first, a safeguarded tridiagonal Newton polish finishes
the job; long chains over weak potentials have soft modes that Gauss-Seidel
cannot push below the move tolerance inside the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .environments import EnvPoint
from .errors import DomainError, NumericalFailure
from .lagrangians import (
    LagrangianSpec,
    chain_energy,
    energy,
    potential_d1,
    potential_d2,
    potential_values,
    spring_d1,
    spring_d2,
    spring_value,
)

MOVE_TOL = 1e-9
DEFAULT_SWEEPS = 500


@dataclass(frozen=True)
class Chain:
    positions: np.ndarray
    energy: float
    env: EnvPoint

    def __post_init__(self):
        self.positions.setflags(write=False)

    def __len__(self):
        return len(self.positions)


def make_chain(model: LagrangianSpec, env: EnvPoint, positions) -> Chain:
    xs = np.asarray(positions, dtype=float).copy()
    return Chain(xs, chain_energy(model, env, xs), env)


@dataclass(frozen=True)
class MinimizeResult:
    chain: Chain
    energy: float
    dp_positions: np.ndarray
    dp_energy: float
    sweeps: int
    converged: bool
    polish_used: bool


def _jump_cap(model: LagrangianSpec, R_max: Optional[float]) -> float:
    """Largest single jump R_max a chain solve allows; default |lambda| + 3."""
    return R_max if R_max is not None else abs(model.lam) + 3.0


@dataclass(frozen=True)
class GridSpec:
    """Numerical knobs shared by the chain and Mane solvers."""

    h: float = 0.05
    X: float = 2.0
    n_max: int = 120
    N_outer: int = 64
    W: int = 8
    R_max: Optional[float] = None
    max_sweeps: int = DEFAULT_SWEEPS
    newton_polish: bool = True

    def jump_cap(self, model: LagrangianSpec) -> float:
        return _jump_cap(model, self.R_max)


@dataclass(frozen=True)
class GroundEnergyEstimate:
    n_list: Tuple[int, ...]
    m_values: Tuple[float, ...]
    lower_bound: float
    extrapolated: float
    inf_pair_sampled: float
    inf_diag_sampled: float
    h: float

    @property
    def per_site(self) -> Tuple[float, ...]:
        return tuple(m / n for m, n in zip(self.m_values, self.n_list))


@dataclass(frozen=True)
class RepairResult:
    chain: Chain
    kept: np.ndarray
    energy: float  # E(subsequence) + sum of E(x, x) over dropped points


@dataclass(frozen=True)
class StructureReport:
    strictly_monotone: bool
    max_jump: float
    within_R: bool
    defect: float


# -- DP stage ------------------------------------------------------------------


def _dp_solve(model, env, grid, n, dlo, dhi, h, start_idx, end_idx):
    """Backward DP over the uniform grid; returns (positions, dp_energy)."""
    V = np.atleast_1d(potential_values(model, env, grid))
    deltas = np.arange(dlo, dhi + 1)
    Wd = np.asarray(spring_value(model, deltas * h), dtype=float)
    C = _kernels.chain_dp_backward(V, Wd, n, int(dlo), int(end_idx))
    G = grid.size
    if start_idx >= 0:
        j = start_idx
    else:
        c0 = C[0]
        j = int(np.argmin(c0))  # ties: smallest index, lexicographic rule
        if not np.isfinite(c0[j]):
            raise NumericalFailure("chain DP found no feasible grid chain")
    if not np.isfinite(C[0][j]):
        raise NumericalFailure("fixed endpoints unreachable on the DP grid")
    idx = [j]
    for k in range(n):
        base = C[k + 1]
        # among minimizing successors take the smallest index (lexicographic rule)
        cand = []
        for di, delta in enumerate(deltas):
            jj = j + delta
            if 0 <= jj < G and np.isfinite(base[jj]):
                cand.append((Wd[di] + base[jj], jj))
        vmin = min(c[0] for c in cand)
        bj = min(jj for v, jj in cand if v <= vmin + 1e-12)
        idx.append(bj)
        j = bj
    positions = grid[np.asarray(idx)]
    return positions, chain_energy(model, env, positions)


# -- refinement ----------------------------------------------------------------


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _bracket_search(f, u, cur, br):
    """Golden-section search of a vectorized f on [u - br, u + br], every site at once.

    f maps one trial position per site to the sites' energies; a site moves
    only where the search finds an energy strictly below cur.
    """
    lo, hi = u - br, u + br
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(90):
        if np.all(hi - lo < 1e-14):
            break
        shrink_right = fc <= fd
        lo = np.where(shrink_right, lo, c)
        hi = np.where(shrink_right, d, hi)
        probe = np.where(shrink_right, hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo))
        fp = f(probe)
        c, d = np.where(shrink_right, probe, d), np.where(shrink_right, c, probe)
        fc, fd = np.where(shrink_right, fp, fd), np.where(shrink_right, fc, fp)
    best, f_best = np.where(fc <= fd, c, d), np.minimum(fc, fd)
    return np.where(f_best < cur, best, u)


def _half_sweep(model, env, xs, idx, h):
    """Move every site of idx to a lower energy at once; return the largest move.

    The sites of idx are pairwise non-adjacent, so with all other sites fixed
    their one-variable problems decouple.  Each gets one safeguarded Newton
    step (clipped to 1, halved until the energy does not rise); sites where
    the energy is not locally convex, or where halving never stops the rise,
    fall back to a bracketed search.  A Newton step is kept when it raises the
    energy by at most roundoff (1e-15): near a minimum the energy change falls
    below what doubles resolve, and rejecting such steps would stall the
    sites at about the square root of machine precision.
    """
    n = xs.size - 1
    # 0/1 weights drop the terms a free end lacks: the left end has no bond to
    # its left, the right end none to its right (a bond's potential term is
    # evaluated at its left site)
    left = (idx > 0).astype(float)
    right = (idx < n).astype(float)
    a = xs[np.maximum(idx - 1, 0)]
    b = xs[np.minimum(idx + 1, n)]
    u = xs[idx]

    def phi(v, sel=slice(None)):
        """Energy terms of the sites idx[sel] at positions v."""
        return left[sel] * spring_value(model, v - a[sel]) + right[sel] * (
            spring_value(model, b[sel] - v) + potential_values(model, env, v)
        )

    cur = phi(u)
    d1 = left * spring_d1(model, u - a) + right * (
        potential_d1(model, env, u) - spring_d1(model, b - u)
    )
    d2 = left * spring_d2(model, u - a) + right * (
        spring_d2(model, b - u) + potential_d2(model, env, u)
    )
    convex = d2 > 1e-12
    step = np.where(convex, np.clip(-d1 / np.where(convex, d2, 1.0), -1.0, 1.0), 0.0)
    v = u + step
    f = phi(v)
    for _ in range(40):
        rise = f > cur + 1e-15
        if not rise.any():
            break
        step[rise] *= 0.5
        v[rise] = u[rise] + step[rise]
        f[rise] = phi(v[rise], rise)
    new = np.where(f <= cur + 1e-15, v, u)
    stuck = ~convex | (f > cur + 1e-15)
    if stuck.any():
        new[stuck] = _bracket_search(
            lambda w: phi(w, stuck), u[stuck], cur[stuck], max(2.0 * h, 1e-3)
        )
    xs[idx] = new
    return float(np.max(np.abs(new - u)))


def _sweep_refine(model, env, xs, h, fixed_ends, max_sweeps):
    """Red-black (even/odd) block Gauss-Seidel until no site moves by MOVE_TOL."""
    xs = xs.copy()
    n = xs.size - 1
    sites = np.arange(1, n) if fixed_ends else np.arange(n + 1)
    colors = [c for c in (sites[sites % 2 == 0], sites[sites % 2 == 1]) if c.size]
    sweeps = 0
    converged = False
    for sweeps in range(1, max_sweeps + 1):
        move = max([_half_sweep(model, env, xs, idx, h) for idx in colors])
        if move < MOVE_TOL:
            converged = True
            break
    return xs, sweeps, converged


def _grad_hess(model, env, xs, fixed_ends):
    n = xs.size - 1
    dw1 = np.atleast_1d(spring_d1(model, np.diff(xs)))
    dw2 = np.atleast_1d(spring_d2(model, np.diff(xs)))
    v1 = np.atleast_1d(potential_d1(model, env, xs[:-1]))
    v2 = np.atleast_1d(potential_d2(model, env, xs[:-1]))
    g = np.zeros(n + 1)
    g[0] = -dw1[0] + v1[0]
    g[1:n] = dw1[:-1] - dw1[1:] + v1[1:]
    g[n] = dw1[-1]
    diag = np.zeros(n + 1)
    diag[0] = dw2[0] + v2[0]
    diag[1:n] = dw2[:-1] + dw2[1:] + v2[1:]
    diag[n] = dw2[-1]
    off = -dw2
    if fixed_ends:
        return g[1:n], diag[1:n], off[1:-1]
    return g, diag, off


def _thomas(diag, off, rhs):
    n = diag.size
    if n == 0:
        return rhs
    mu = 1e-12 * (1.0 + float(np.max(np.abs(diag))))
    a = diag + mu
    cp = np.zeros(max(n - 1, 0))
    dp = np.zeros(n)
    denom = a[0]
    if n > 1:
        cp[0] = off[0] / denom
    dp[0] = rhs[0] / denom
    for i in range(1, n):
        denom = a[i] - off[i - 1] * cp[i - 1]
        if abs(denom) < 1e-300:
            denom = 1e-300
        if i < n - 1:
            cp[i] = off[i] / denom
        dp[i] = (rhs[i] - off[i - 1] * dp[i - 1]) / denom
    x = np.zeros(n)
    x[n - 1] = dp[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


def _newton_polish(model, env, xs, fixed_ends, max_iter=60):
    xs = xs.copy()
    n = xs.size - 1
    e_cur = chain_energy(model, env, xs)
    for _ in range(max_iter):
        g, diag, off = _grad_hess(model, env, xs, fixed_ends)
        if g.size == 0 or float(np.max(np.abs(g))) < 1e-12:
            return xs, True
        step = _thomas(diag, off, -g)
        t = 1.0
        applied = False
        for _ in range(40):
            trial = xs.copy()
            if fixed_ends:
                trial[1:n] += t * step
            else:
                trial += t * step
            e_new = chain_energy(model, env, trial)
            if e_new <= e_cur + 1e-15:
                xs, e_cur, applied = trial, e_new, True
                break
            t *= 0.5
        if not applied:
            return xs, False
        if t * float(np.max(np.abs(step))) < 1e-11:
            g, _, _ = _grad_hess(model, env, xs, fixed_ends)
            return xs, bool(g.size == 0 or float(np.max(np.abs(g))) < 1e-8)
    g, _, _ = _grad_hess(model, env, xs, fixed_ends)
    return xs, bool(g.size == 0 or float(np.max(np.abs(g))) < 1e-8)


def _refine(model, env, dp_positions, h, fixed_ends, max_sweeps, newton_polish):
    xs, sweeps, converged = _sweep_refine(model, env, dp_positions, h, fixed_ends, max_sweeps)
    polish_used = False
    if not converged and newton_polish:
        xs2, ok = _newton_polish(model, env, xs, fixed_ends)
        if chain_energy(model, env, xs2) <= chain_energy(model, env, xs) + 1e-15:
            xs = xs2
        polish_used = True
        converged = ok
    if not converged:
        raise NumericalFailure(
            f"refinement did not converge after {max_sweeps} sweeps",
            best=make_chain(model, env, xs),
        )
    return xs, sweeps, converged, polish_used


# -- public solvers --------------------------------------------------------------


def minimize_fixed(
    model: LagrangianSpec,
    env: EnvPoint,
    x_start: float,
    x_end: float,
    n: int,
    h: float,
    R_max: Optional[float] = None,
    max_sweeps: int = DEFAULT_SWEEPS,
    newton_polish: bool = True,
) -> MinimizeResult:
    """Minimize the n-step chain energy with both endpoints pinned."""
    if n < 2:
        raise DomainError("need at least two steps")
    if h <= 0:
        raise DomainError("grid step must be positive")
    R = _jump_cap(model, R_max)
    if abs(x_end - x_start) > n * R + 1e-9:
        raise DomainError("endpoints farther apart than n * R_max")
    B = int(math.ceil(R / h))
    lo = min(x_start, x_end) - R
    hi = max(x_start, x_end) + R
    n_lo = int(math.floor((lo - x_start) / h))
    n_hi = int(math.ceil((hi - x_start) / h))
    grid = x_start + h * np.arange(n_lo, n_hi + 1)
    start_idx = -n_lo
    end_idx = int(round((x_end - x_start) / h)) - n_lo
    end_idx = max(0, min(grid.size - 1, end_idx))
    if abs(x_end - x_start) > 1e-12:
        dlo, dhi = (0, B) if x_end > x_start else (-B, 0)
    else:
        dlo, dhi = -B, B
    dp_pos, dp_energy = _dp_solve(model, env, grid, n, dlo, dhi, h, start_idx, end_idx)
    start = dp_pos.copy()
    start[0], start[-1] = x_start, x_end  # exact endpoints (DP snaps x_end to the grid)
    xs, sweeps, converged, polish_used = _refine(
        model, env, start, h, True, max_sweeps, newton_polish
    )
    xs[0], xs[-1] = x_start, x_end
    return MinimizeResult(
        chain=make_chain(model, env, xs),
        energy=chain_energy(model, env, xs),
        dp_positions=dp_pos,
        dp_energy=dp_energy,
        sweeps=sweeps,
        converged=converged,
        polish_used=polish_used,
    )


def minimize_free(
    model: LagrangianSpec,
    env: EnvPoint,
    n: int,
    window: Optional[Sequence[float]] = None,
    h: float = 0.05,
    R_max: Optional[float] = None,
    max_sweeps: int = DEFAULT_SWEEPS,
    newton_polish: bool = True,
) -> MinimizeResult:
    """Minimize over all n-step chains (both endpoints free)."""
    if n < 1:
        raise DomainError("need at least one step")
    R = _jump_cap(model, R_max)
    if window is None:
        c = 0.5 * n * model.lam
        half = 0.5 * n * R
        window = (c - half - R, c + half + R)
    lo, hi = float(window[0]), float(window[1])
    if hi - lo < n * R - 1e-9:
        raise DomainError("window shorter than n * R_max")
    B = int(math.ceil(R / h))
    grid = lo + h * np.arange(int(math.ceil((hi - lo) / h)) + 1)

    def run(dlo, dhi):
        return _dp_solve(model, env, grid, n, dlo, dhi, h, -1, -1)

    pos_up, e_up = run(0, B)
    if model.lam < 0:
        pos_dn, e_dn = run(-B, 0)
        dp_pos, dp_energy = (pos_dn, e_dn) if e_dn < e_up else (pos_up, e_up)
    else:
        dp_pos, dp_energy = pos_up, e_up
    xs, sweeps, converged, polish_used = _refine(
        model, env, dp_pos, h, False, max_sweeps, newton_polish
    )
    return MinimizeResult(
        chain=make_chain(model, env, xs),
        energy=chain_energy(model, env, xs),
        dp_positions=dp_pos,
        dp_energy=dp_energy,
        sweeps=sweeps,
        converged=converged,
        polish_used=polish_used,
    )


def ground_energy(
    model: LagrangianSpec,
    env: EnvPoint,
    n_list: Sequence[int],
    grid: GridSpec,
    seed: int = 0,
    threads: int = 1,
) -> GroundEnergyEstimate:
    """Per-n free minima, the certified lower bound max m_n/n, and a 1/n fit."""
    n_list = tuple(int(n) for n in n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise DomainError("n_list must be strictly increasing")
    if n_list[-1] > 64:
        raise DomainError("chain lengths above 64 are out of the desk-scale budget")
    R = grid.jump_cap(model)

    def solve(n):
        return minimize_free(
            model,
            env,
            n,
            h=grid.h,
            R_max=R,
            max_sweeps=grid.max_sweeps,
            newton_polish=grid.newton_polish,
        ).energy

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as ex:
            m_values = tuple(ex.map(solve, n_list))
    else:
        m_values = tuple(solve(n) for n in n_list)
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
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-5.0, 5.0, size=400)
    ts = rng.uniform(-R, R, size=400)
    vx = np.atleast_1d(potential_values(model, env, xs))
    inf_pair = float(np.min(spring_value(model, ts) + vx))
    inf_diag = float(np.min(spring_value(model, 0.0) + vx))
    return GroundEnergyEstimate(
        n_list=n_list,
        m_values=m_values,
        lower_bound=lower,
        extrapolated=extrapolated,
        inf_pair_sampled=inf_pair,
        inf_diag_sampled=inf_diag,
        h=grid.h,
    )


# -- Aubry order machinery --------------------------------------------------------


def _strictly_monotone(xs) -> bool:
    d = np.diff(xs)
    return bool(np.all(d > 0) or np.all(d < 0))


def aubry_exchange_repair(model: LagrangianSpec, env: EnvPoint, chain: Chain) -> RepairResult:
    """Optimal monotone-subsequence decomposition of a twist chain.

    Keeps both endpoints, drops interior points that break strict order and
    re-inserts each dropped point as the fixed pair E(x, x); the retained
    subsequence is strictly monotone and the total is minimal over all such
    decompositions (dynamic program over kept indices).
    """
    xs = np.asarray(chain.positions, dtype=float)
    n = xs.size - 1
    if abs(xs[n] - xs[0]) < 1e-15:
        raise DomainError("repair requires distinct endpoints")
    if _strictly_monotone(xs):
        return RepairResult(chain=chain, kept=np.arange(n + 1), energy=chain.energy)
    sgn = 1.0 if xs[n] > xs[0] else -1.0
    diag = np.array([energy(model, env, x, x) for x in xs])
    prefix = np.concatenate([[0.0], np.cumsum(diag)])  # prefix[i] = sum(diag[:i])
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
    sub = make_chain(model, env, xs[kept])
    return RepairResult(chain=sub, kept=kept, energy=float(best[n]))


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


def structure_report(chain: Chain, model: LagrangianSpec, env: EnvPoint, R: float) -> StructureReport:
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
    return StructureReport(
        strictly_monotone=_strictly_monotone(xs),
        max_jump=max_jump,
        within_R=max_jump <= R + 1e-9,
        defect=float(max(0.0, defect)),
    )
