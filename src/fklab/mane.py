"""Mane subadditive cocycle tables, cocycle checks, calibration windows.

Phi(omega, t) is approximated by a layered shortest-path DP over strictly
monotone chains on a position grid (the monotone reduction justifies the
restriction for twist models; t = 0 uses the closed form E(0,0) - Ebar).
Calibration defects of a long free minimizer are measured against tables whose
node set is augmented by the chain's own points, so the tested sub-chain is
always inside the search space and defects stay nonnegative up to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import _kernels
from .chain_opt import GridSpec, minimize_free
from .environments import CylinderSpec, EnvPoint, return_times, translate_env
from .errors import DomainError, InsufficientDataError
from .lagrangians import (
    LagrangianSpec,
    chain_energy,
    energy,
    potential_d1,
    potential_values,
    spring_d1,
    spring_value,
)


@dataclass(frozen=True)
class ManeTable:
    env: EnvPoint
    ebar: float
    X: float
    h: float
    n_max: int
    targets: np.ndarray  # grid values, ascending, 0 included
    phi: np.ndarray
    n_steps: np.ndarray
    chains: Tuple[np.ndarray, ...]
    truncated: bool


@dataclass(frozen=True)
class CalibrationReport:
    defects: np.ndarray  # rows (m, n, defect)
    max_defect: float
    rotation: float
    max_jump: float
    min_jump: float
    strictly_monotone: bool
    ebar: float
    window: Tuple[int, int]


@dataclass(frozen=True)
class RotationReport:
    values: Tuple[Tuple[int, float], ...]
    degenerate: bool
    inf_diag_sampled: float
    ebar: float
    chains: Tuple[np.ndarray, ...]


def _phi_over_nodes(model, env, nodes, ebar, n_max):
    """Layered monotone DP over the ordered node array (nodes[0] == 0).

    Returns (phi, n_steps, (D, back)): phi[j] is the best value over chains
    0 -> nodes[j] with at most n_max steps through earlier nodes, n_steps[j]
    the smallest optimal step count.
    """
    G = nodes.size
    V = np.atleast_1d(potential_values(model, env, nodes))
    cost = np.full((G, G), np.inf)
    iu = np.triu_indices(G, k=1)
    steps = nodes[iu[1]] - nodes[iu[0]]
    cost[iu] = np.asarray(spring_value(model, steps)) + V[iu[0]] - ebar
    n_eff = min(int(n_max), G - 1) if G > 1 else 0
    if n_eff == 0:
        return np.full(G, np.inf), np.zeros(G, dtype=int), None
    D, back = _kernels.phi_dp(cost, n_eff)
    phi = D[1:].min(axis=0)
    n_steps = D[1:].argmin(axis=0) + 1  # argmin takes the first, so smallest m on ties
    return phi, n_steps, (D, back)


def _recover_chain(nodes, back, m, j):
    idx = [j]
    while m > 0:
        j = int(back[m, j])
        idx.append(j)
        m -= 1
    return nodes[np.asarray(idx[::-1])]


def mane_table(
    model: LagrangianSpec,
    env: EnvPoint,
    ebar: float,
    X: float,
    h: float,
    n_max: int,
) -> ManeTable:
    """Tabulate Phi(omega, t) for t on the grid {k h} in [-X, X]."""
    if h <= 0 or X <= 0:
        raise DomainError("X and h must be positive")
    if n_max > 4.0 * X / h + 1e-9:
        raise DomainError("n_max exceeds 4 X / h")
    K = int(math.floor(X / h + 1e-9))
    targets: List[float] = []
    phis: List[float] = []
    nsteps: List[int] = []
    chains: List[np.ndarray] = []
    truncated = False
    for sign in (-1.0, 1.0):
        nodes = sign * h * np.arange(K + 1)
        phi, ns, aux = _phi_over_nodes(model, env, nodes, ebar, n_max)
        _, back = aux
        for j in range(1, K + 1):
            targets.append(float(nodes[j]))
            phis.append(float(phi[j]))
            nsteps.append(int(ns[j]))
            chains.append(_recover_chain(nodes, back, int(ns[j]), j))
            if ns[j] == min(n_max, K):
                truncated = True
    # closed form at t = 0: the one-step loop (0, 0)
    targets.append(0.0)
    phis.append(energy(model, env, 0.0, 0.0) - ebar)
    nsteps.append(1)
    chains.append(np.array([0.0, 0.0]))
    order = np.argsort(np.asarray(targets))
    return ManeTable(
        env=env,
        ebar=float(ebar),
        X=float(X),
        h=float(h),
        n_max=int(n_max),
        targets=np.asarray(targets)[order],
        phi=np.asarray(phis)[order],
        n_steps=np.asarray(nsteps, dtype=int)[order],
        chains=tuple(chains[i] for i in order),
        truncated=truncated,
    )


def phi_lookup(table: ManeTable, t: float) -> float:
    j = int(np.argmin(np.abs(table.targets - t)))
    if abs(float(table.targets[j]) - t) > 1e-9:
        raise DomainError(f"{t} is not a grid target of this table")
    return float(table.phi[j])


def lipschitz_bound(model: LagrangianSpec, env: EnvPoint, X: float) -> float:
    """Sampled bound on |dE/dx| + |dE/dt| over the table range."""
    ts = np.linspace(-2.0 * X, 2.0 * X, 201)
    xs = np.linspace(-X, X, 201)
    w1 = np.max(np.abs(np.asarray(spring_d1(model, ts))))
    v1 = np.max(np.abs(np.atleast_1d(potential_d1(model, env, xs))))
    return float(w1 + v1)


def cocycle_defects(
    model: LagrangianSpec,
    table: ManeTable,
    samples: int,
    seed: int = 0,
) -> Dict[str, float]:
    """Empirical defects of the cocycle inequalities on sampled grid pairs.

    Subadditivity needs Phi at the shifted environment; one table per distinct
    sampled shift is built on demand and cached.
    """
    if samples < 10:
        raise DomainError("need at least 10 sampled pairs")
    env = table.env
    targets = table.targets
    grid_idx = {int(round(float(t) / table.h)): i for i, t in enumerate(targets)}
    rng = np.random.default_rng(seed)
    K = int(round(table.X / table.h))
    pairs = []
    guard = 0
    while len(pairs) < samples and guard < 100 * samples:
        guard += 1
        s = int(rng.integers(-K, K + 1))
        t = int(rng.integers(-K, K + 1))
        if s != 0 and s in grid_idx and t in grid_idx and (s + t) in grid_idx:
            pairs.append((s, t))
    cache: Dict[int, ManeTable] = {}
    subadd = -np.inf
    for s, t in pairs:
        if s not in cache:
            cache[s] = mane_table(
                model,
                translate_env(env, s * table.h),
                table.ebar,
                table.X,
                table.h,
                table.n_max,
            )
        lhs = table.phi[grid_idx[s + t]]
        rhs = table.phi[grid_idx[s]] + cache[s].phi[grid_idx[t]]
        subadd = max(subadd, float(lhs - rhs))
    one_step = np.asarray([energy(model, env, 0.0, float(t)) - table.ebar for t in targets])
    one_step_max = float(np.max(table.phi - one_step))
    back_step = np.asarray([energy(model, env, float(t), 0.0) for t in targets])
    lower_bound_max = float(np.max((table.ebar - back_step) - table.phi))
    ratio = float(np.max(np.abs(table.phi) / (1.0 + np.abs(targets))))
    return {
        "subadd_max": subadd,
        "one_step_max": one_step_max,
        "lower_bound_max": lower_bound_max,
        "sublinearity_ratio": ratio,
        "lip_bound": lipschitz_bound(model, env, table.X),
        "samples": float(len(pairs)),
    }


def grid_sensitivity(
    model: LagrangianSpec,
    env: EnvPoint,
    ebar: float,
    X: float,
    h: float,
    n_max: int,
) -> Dict[str, float]:
    """Max |Phi_h - Phi_{h/2}| on the coarse targets, with the C h reference."""
    coarse = mane_table(model, env, ebar, X, h, n_max)
    fine = mane_table(model, env, ebar, X, h / 2.0, min(2 * n_max, int(4 * X / (h / 2.0))))
    idx = np.searchsorted(fine.targets, coarse.targets)
    idx = np.clip(idx, 0, fine.targets.size - 1)
    delta = float(np.max(np.abs(fine.phi[idx] - coarse.phi)))
    return {"max_change": delta, "h": h, "bound_Ch": lipschitz_bound(model, env, X) * h}


def _phi_to_targets(model, env_at_start, rel_targets, h, ebar):
    """Monotone DP values Phi-hat(0 -> r) for each r in rel_targets.

    Nodes are the h-ladder toward the farthest target, augmented with the
    exact target offsets so tested sub-chains stay inside the search space.
    All rel_targets must share one strict sign.
    """
    rel = np.asarray(rel_targets, dtype=float)
    direction = 1.0 if rel[0] > 0 else -1.0
    top = float(np.max(np.abs(rel)))
    K = int(math.ceil(top / h + 1e-9))
    ladder = direction * h * np.arange(1, K + 1)
    ladder = ladder[np.abs(ladder) <= top + 1e-12]
    anchors = np.unique(rel)
    # keep only ladder points clear of every target; targets enter exactly
    if anchors.size:
        pos = np.searchsorted(anchors, ladder)
        near_hi = np.abs(anchors[np.clip(pos, 0, anchors.size - 1)] - ladder) <= 1e-9
        near_lo = np.abs(anchors[np.clip(pos - 1, 0, anchors.size - 1)] - ladder) <= 1e-9
        ladder = ladder[~(near_hi | near_lo)]
    nodes = np.concatenate([[0.0], anchors, ladder])
    nodes = nodes[np.argsort(direction * nodes)]
    phi, _, _ = _phi_over_nodes(model, env_at_start, nodes, ebar, nodes.size - 1)
    lookup = {float(nodes[j]): float(phi[j]) for j in range(nodes.size)}
    return {float(t): lookup[float(t)] for t in rel}


def calibrate_window(
    model: LagrangianSpec,
    env: EnvPoint,
    ebar: float,
    N_outer: int,
    W: int,
    grid: GridSpec,
) -> CalibrationReport:
    """Defects E(x_m..x_n) - (n-m) Ebar - S(x_m, x_n) over the middle window.

    S is evaluated from a Mane DP centered at x_m.  A zero displacement uses
    the t = 0 closed form; otherwise the DP runs toward x_n with the chain's
    own offsets as extra nodes.
    """
    if N_outer < 4 * W:
        raise DomainError("N_outer must be at least 4 W")
    res = minimize_free(
        model,
        env,
        N_outer,
        h=grid.h,
        R_max=grid.jump_cap(model),
        max_sweeps=grid.max_sweeps,
        newton_polish=grid.newton_polish,
    )
    xs = np.asarray(res.chain.positions)
    mid = N_outer // 2
    lo, hi = mid - W, mid + W
    rows = []
    for m in range(lo, hi):
        top = min(m + W, hi)
        rel = xs[m + 1 : top + 1] - xs[m]
        if rel.size == 0:
            continue
        env_m = translate_env(env, xs[m])
        pos = rel[rel > 1e-12]
        neg = rel[rel < -1e-12]
        svals: Dict[float, float] = {}
        if pos.size:
            svals.update(_phi_to_targets(model, env_m, pos, grid.h, ebar))
        if neg.size:
            svals.update(_phi_to_targets(model, env_m, neg, grid.h, ebar))
        zero_val = energy(model, env_m, 0.0, 0.0) - ebar
        for n_i, r in enumerate(rel, start=m + 1):
            s_val = zero_val if abs(r) <= 1e-12 else svals[float(r)]
            e_val = chain_energy(model, env, xs[m : n_i + 1]) - (n_i - m) * ebar
            rows.append((m, n_i, e_val - s_val))
    arr = np.asarray(rows)
    jumps = np.diff(xs)
    return CalibrationReport(
        defects=arr,
        max_defect=float(arr[:, 2].max()),
        rotation=float((xs[-1] - xs[0]) / N_outer),
        max_jump=float(np.max(np.abs(jumps))),
        min_jump=float(np.min(np.abs(jumps))),
        strictly_monotone=bool(np.all(jumps > 0) or np.all(jumps < 0)),
        ebar=float(ebar),
        window=(lo, hi),
    )


def rotation_number(
    model: LagrangianSpec,
    env: EnvPoint,
    n_list: Sequence[int],
    grid: GridSpec,
) -> RotationReport:
    """Per-n rotation estimates |x_n - x_0| / n from free minimizers.

    When inf_x E(x, x) does not exceed the ground-energy estimate the model is
    in the degenerate branch of the dichotomy (constant configurations are
    already calibrated); the report carries the flag and the computed chains.
    """
    values = []
    chains = []
    per_site = []
    for n in n_list:
        res = minimize_free(
            model,
            env,
            int(n),
            h=grid.h,
            R_max=grid.jump_cap(model),
            max_sweeps=grid.max_sweeps,
            newton_polish=grid.newton_polish,
        )
        xs = np.asarray(res.chain.positions)
        values.append((int(n), float(abs(xs[-1] - xs[0]) / n)))
        chains.append(xs)
        per_site.append(res.energy / n)
    ebar_est = max(per_site)
    xs_samp = np.linspace(-8.0, 8.0, 801)
    diag = float(spring_value(model, 0.0)) + np.atleast_1d(
        potential_values(model, env, xs_samp)
    )
    inf_diag = float(diag.min())
    degenerate = inf_diag <= ebar_est + 1e-9
    return RotationReport(
        values=tuple(values),
        degenerate=degenerate,
        inf_diag_sampled=inf_diag,
        ebar=float(ebar_est),
        chains=tuple(chains),
    )


def equidistribution_counts(chain, env: EnvPoint, section: CylinderSpec, R: float):
    """Chain-point counts over non-exceptional return intervals (a-R, a+R).

    Returns (counts, n_exceptional): counts for intervals fully inside the
    chain span, plus the number of boundary intervals set aside.
    """
    xs = np.asarray(chain.positions, dtype=float)
    d = np.diff(xs)
    if not (np.all(d > 0) or np.all(d < 0)):
        raise DomainError("equidistribution counts need a strictly monotone chain")
    lo, hi = float(min(xs[0], xs[-1])), float(max(xs[0], xs[-1]))
    rts = return_times(env, section, (lo, hi))
    if rts.size < 3:
        raise InsufficientDataError("section returns fewer than 3 times inside the span")
    xs_sorted = np.sort(xs)
    counts = []
    exceptional = 0
    for a in rts:
        if a - R >= lo - 1e-9 and a + R <= hi + 1e-9:
            i0 = np.searchsorted(xs_sorted, a - R, side="right")
            i1 = np.searchsorted(xs_sorted, a + R, side="left")
            counts.append(int(i1 - i0))
        else:
            exceptional += 1
    return np.asarray(counts, dtype=int), exceptional
