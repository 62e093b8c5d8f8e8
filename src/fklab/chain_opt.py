"""Free-chain minimization and the ground-energy ladder.

Solver layout: one banded grid DP finds the global structure over chains
with both ends free, banded to jumps of the sign of lambda (a minimizer's
jumps take that sign); then one safeguarded Newton method refines the whole
chain off-grid.  The DP runs over the longest chain asked for, on a grid
that holds every length's window, and its layer N - m gives every shorter
length m: the whole ground-energy ladder takes one grid, one potential
evaluation and one DP, and each length is backtracked and refined on its
own.  The chain energy has a tridiagonal
Hessian, so each Newton step is an O(n) L D L^T factorization and solve; a
diagonal shift handles indefinite Hessians, a negative-curvature step
escapes saddles, and halving on the chain energy keeps every step a
descent.  At most MAX_ITER steps are taken; a solve that does not converge
raises NumericalFailure carrying the best iterate, naming whether the
budget ran out or the line search stalled, so no solver returns a silently
worse chain.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .environments import EnvPoint
from .errors import DomainError, NumericalFailure, ResourceError
from .lagrangians import (
    LagrangianSpec,
    chain_energy,
    potential_derivs,
    potential_values,
    spring_derivs,
    spring_value,
)

MAX_ITER = 200
# largest site move of one refinement step; the catalog's potentials vary on
# unit length scales, so a capped step stays near the well the DP chose
STEP_CAP = 0.25
# chain DP size caps: 4e9 nominal cells take about 4 s even when the band
# pruning skips nothing (about 1 ns per cell on a large grid, shared 2-core
# Xeon), and the checkpoints, working layers and run buffer of the DP stay
# under 512 MB
_MAX_DP_CELLS = 4_000_000_000
_MAX_DP_BYTES = 512 << 20


class MinimizeResult(NamedTuple):
    """A refined chain: its sites, read-only, and its energy.

    Every returned result is converged: a refinement that does not converge
    raises NumericalFailure carrying its best iterate as a MinimizeResult.
    ``sweeps`` counts the Newton steps of the refinement and ``polish_used``
    is always False; both keep their names only because the benchmark's
    tracer reads them.
    """

    positions: np.ndarray
    energy: float
    sweeps: int
    polish_used: bool


class GridSpec(NamedTuple):
    """Numerical knobs shared by the chain and Mane solvers."""

    h: float = 0.05
    X: float = 2.0
    N_outer: int = 64
    W: int = 8
    R_max: Optional[float] = None

    def jump_cap(self, model: LagrangianSpec) -> float:
        """Largest single jump a chain solve allows: R_max, by default |lambda| + 3."""
        return self.R_max if self.R_max is not None else abs(model.lam) + 3.0


class GroundEnergyEstimate(NamedTuple):
    """Found n-chain minima m_n, their chains, and two estimates of Ebar.

    Each m_n is the refined least n-chain on one grid, read from one DP over
    the longest chain of ``n_list``, among those that start in the n-chain's
    own window; the grid is the longest chain's window, widened to hold every
    shorter window when the jump cap is below |lambda|.  ``lower_bound`` is
    max m_n/n, a lower estimate of Ebar rather than a certified bound: a
    found chain never has less energy than the true minimum, so m_n/n can
    exceed the true ratio.
    ``positions`` holds each n's refined minimizer.
    """

    n_list: Tuple[int, ...]
    m_values: Tuple[float, ...]
    positions: Tuple[np.ndarray, ...]
    lower_bound: float

    @property
    def extrapolated(self) -> float:
        """The a of a least-squares fit m_n/n = a - b/n over the upper half of
        ``n_list`` (at least two n), clamped below at ``lower_bound``.

        The fit runs on each read, so a caller that reads only
        ``lower_bound`` never calls LAPACK; read it once into a local.
        """
        top = max(2, len(self.n_list) // 2 + len(self.n_list) % 2)
        ns = np.asarray(self.n_list[-top:], dtype=float)
        ys = np.asarray([m / n for m, n in zip(self.m_values[-top:], self.n_list[-top:])])
        A = np.column_stack([np.ones_like(ns), -1.0 / ns])
        coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
        return max(float(coef[0]), self.lower_bound)


# -- refinement ----------------------------------------------------------------


def _grad_hess(model, env, xs, fixed_ends):
    n = xs.size - 1
    dw1, dw2 = spring_derivs(model, np.diff(xs))
    v1, v2 = potential_derivs(model, env, xs[:-1])
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


def _ldl(diag, off, floor):
    """Pivots d and multipliers l of the tridiagonal H = L D L^T (l[i] = L[i+1, i]).

    Stops at the first pivot not above floor, which is then the last of d.
    """
    d, l = [diag[0]], []
    for a, b in zip(diag[1:], off):
        if d[-1] <= floor:
            break
        l.append(b / d[-1])
        d.append(a - l[-1] * b)
    return d, l


def _ldl_solve(d, l, rhs):
    """Solve L D L^T x = rhs from a complete factorization."""
    y = [rhs[0]]
    for li, r in zip(l, rhs[1:]):
        y.append(r - li * y[-1])
    x = [y[-1] / d[-1]]
    for i in range(len(d) - 2, -1, -1):
        x.append(y[i] / d[i] - l[i] * x[-1])
    return np.asarray(x[::-1])


def _refine(model, env, xs, fixed_ends, e_cur):
    """Safeguarded Newton on the whole chain; returns (positions, Newton steps, energy).

    The start chain ``xs`` has energy ``e_cur``.  Each step factors the
    tridiagonal Hessian H = L D L^T.  With every pivot positive it takes the
    Newton step; otherwise it shifts the diagonal by x4 steps, from
    -min(diag), until H factors and takes the shifted step; at a stationary
    point with a negative pivot k (a saddle) it steps along the
    negative-curvature vector v, L^T v = e_k, signed so that g.v <= 0.  Steps
    are scaled down to move no site by more than STEP_CAP and then halved
    until the energy falls; a Newton step is also kept when it raises the
    energy by at most roundoff (1e-15), since near a minimum the energy change
    falls below what doubles resolve.  Converged when max|g| <= 1e-11 with no
    pivot below -tiny, or when the step falls below 1e-13 with max|g| <= 1e-8.
    """
    xs = xs.copy()
    inner = slice(1, -1) if fixed_ends else slice(None)
    for it in range(MAX_ITER + 1):
        g, diag, off = _grad_hess(model, env, xs, fixed_ends)
        g_max = float(np.max(np.abs(g)))
        tiny = 1e-12 * (1.0 + float(np.max(np.abs(diag))))
        diag, off = diag.tolist(), off.tolist()
        d, l = _ldl(diag, off, tiny)
        definite = len(d) == len(diag) and d[-1] > tiny
        if g_max <= 1e-11 and (definite or d[-1] >= -tiny):
            return xs, it, e_cur
        if it == MAX_ITER:
            stop = f"its budget of {MAX_ITER} Newton steps ran out"
            break
        if definite:
            step = _ldl_solve(d, l, -g)
        elif g_max <= 1e-11:
            v = [1.0]
            for li in reversed(l):
                v.append(-li * v[-1])
            step = np.zeros(g.size)
            step[: len(v)] = v[::-1]
            if g @ step > 0:
                step = -step
        else:
            # H + mu I is indefinite while mu < -min(diag)
            mu = max(-min(diag), tiny)
            while True:
                d, l = _ldl([a + mu for a in diag], off, tiny)
                if len(d) == len(diag) and d[-1] > tiny:
                    break
                mu *= 4.0
            step = _ldl_solve(d, l, -g)
        size = float(np.max(np.abs(step)))
        if size > STEP_CAP:
            step *= STEP_CAP / size
            size = STEP_CAP
        t = 1.0
        while t * size >= 1e-13:
            trial = xs.copy()
            trial[inner] += t * step
            e_new = chain_energy(model, env, trial)
            if (e_new <= e_cur + 1e-15) if definite else (e_new < e_cur):
                xs, e_cur = trial, e_new
                break
            t *= 0.5
        if t * size < 1e-13:
            if g_max <= 1e-8:
                return xs, it, e_cur
            stop = f"the line search stalled after {it} Newton steps"
            break
    raise NumericalFailure(
        f"refinement did not converge: {stop} at max|g| = {g_max:.3g}",
        best=MinimizeResult(xs, e_cur, it, False),
    )


# -- public solvers --------------------------------------------------------------


def _window(lam, R, n):
    """The span searched for a free n-step chain: n jump caps R around the drifted
    midpoint n lam / 2, plus one cap on each side."""
    c, half = 0.5 * n * lam, 0.5 * n * R
    return c - half - R, c + half + R


def _solve_free(model, env, lengths, grid):
    """Refined free chains of each length in ``lengths`` (increasing), from one DP.

    The grid has step ``grid.h`` and spans the union of the lengths'
    windows: the window of the longest chain, N = lengths[-1] steps, when
    the jump cap R is at least |lambda|, and when it is not, also the
    shorter windows that drift out of it.  Jumps run over the band of
    lambda's sign, since jumps all against lambda's sign cost at least the
    constant chain at the least grid V, which that band holds.  The m-step
    chain starts at the first least row of layer N - m among the rows in its
    own window (ties: smallest index, the lexicographic rule), and its path
    may leave that window.  The caps are checked before the potential is
    evaluated.
    """
    if lengths[0] < 1:
        raise DomainError("need at least one step")
    N = lengths[-1]
    R, h = grid.jump_cap(model), grid.h
    windows = [_window(model.lam, R, m) for m in lengths]
    lo, hi = min(w[0] for w in windows), max(w[1] for w in windows)
    B = int(math.ceil(R / h))
    G, D = int(math.ceil((hi - lo) / h)) + 1, B + 1
    dlo = -B if model.lam < 0 else 0
    keep = [N - m for m in lengths]
    cells, nbytes = N * G * D, _kernels.chain_dp_bytes(G, D, N, dlo, keep)
    if cells > _MAX_DP_CELLS or nbytes > _MAX_DP_BYTES:
        raise ResourceError(
            f"chain DP of {cells} cells holding {nbytes} bytes exceeds the caps "
            f"of {_MAX_DP_CELLS} cells and {_MAX_DP_BYTES} bytes"
        )
    points = lo + h * np.arange(G)
    V = potential_values(model, env, points)
    Wd = spring_value(model, np.arange(dlo, dlo + D) * h)
    dp = _kernels.chain_dp_backward_np(V, Wd, N, dlo, keep)
    results = []
    for k, (lo_m, hi_m) in zip(keep, windows):
        # a start anywhere on the grid can lie N R / 2 from the origin, where
        # the chain energy's roundoff stalls the refinement more often
        a = math.ceil((lo_m - lo) / h - 1e-9)
        layer = dp.layers[k][a : a + math.ceil((hi_m - lo_m) / h) + 1]
        j = int(np.argmin(layer))
        if not np.isfinite(layer[j]):
            raise NumericalFailure("chain DP found no feasible grid chain")
        xs = points[_kernels.chain_dp_path(dp, a + j, k)]
        xs, steps, e = _refine(model, env, xs, False, chain_energy(model, env, xs))
        xs.setflags(write=False)
        results.append(MinimizeResult(xs, e, steps, False))
    return results


def minimize_free(model: LagrangianSpec, env: EnvPoint, n: int, grid: GridSpec) -> MinimizeResult:
    """Minimize over all n-step chains (both endpoints free) on a ladder of step ``grid.h``."""
    [res] = _solve_free(model, env, (n,), grid)
    return res


def ground_energy(
    model: LagrangianSpec,
    env: EnvPoint,
    n_list: Sequence[int],
    grid: GridSpec,
) -> GroundEnergyEstimate:
    """Free minima m_n for n in ``n_list`` from one chain DP, the lower estimate
    max m_n/n, and a 1/n fit."""
    n_list = tuple(int(n) for n in n_list)
    if len(n_list) < 2 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise DomainError("the 1/n fit needs at least two strictly increasing lengths")
    if n_list[-1] > 64:
        raise DomainError("chain lengths above 64 are out of the desk-scale budget")
    results = _solve_free(model, env, n_list, grid)
    m_values = tuple(res.energy for res in results)
    return GroundEnergyEstimate(
        n_list=n_list,
        m_values=m_values,
        positions=tuple(res.positions for res in results),
        lower_bound=max(m / n for m, n in zip(m_values, n_list)),
    )

