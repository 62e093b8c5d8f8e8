"""Mane subadditive cocycle tables, cocycle checks, calibration windows.

Phi(omega, t) is approximated by a shortest-path DP over strictly monotone
chains of any length on a position grid: monotone steps between ordered nodes
form a DAG, so one pass over the nodes gives the infimum (the monotone
reduction justifies the restriction for twist models; t = 0 uses the closed
form E(0,0) - Ebar).  One helper, ``_phi_to``, runs that DP toward sets of
targets, each at its own shifted environment; the Mane table, the
subadditivity check, the Ebar-choice shift and the calibration defects all
read Phi from it, and each makes one call.  Its nodes are the targets themselves plus the h-ladder
points clear of them, so in calibration the tested sub-chain is always inside
the search space and defects stay nonnegative up to roundoff.  The node sets
of one call go to the kernel in stacks of at most 2 MB of costs, largest
first, so small sets share the kernel's Python loop.

No command reads equidistribution counts over return intervals; they live
with the test oracles.
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Tuple

import numpy as np

from . import _kernels
from ._rng import Rng
from .chain_opt import GridSpec, GroundEnergyEstimate, minimize_free
from .environments import EnvPoint, _unique, translate_env
from .errors import DomainError, ResourceError
from .lagrangians import (
    LagrangianSpec,
    energy,
    potential_slope_sup,
    potential_values,
    spring_derivs,
    spring_value,
)


class ManeTable(NamedTuple):
    """Phi over the grid targets {k h : |k| <= K}, with each target's step count.

    ``n_max`` is K = floor(X / h), the most steps a chain on the table's nodes
    can take; nothing in the library reads it, and it keeps its name only
    because the benchmark's tracer reads it.
    """

    env: EnvPoint
    ebar: float
    X: float
    h: float
    n_max: int
    targets: np.ndarray  # k h for k = -K..K, ascending
    phi: np.ndarray
    n_steps: np.ndarray


class CalibrationReport(NamedTuple):
    defects: np.ndarray  # rows (m, n, defect)
    max_defect: float
    rotation: float
    max_jump: float
    min_jump: float
    strictly_monotone: bool
    ebar: float
    window: Tuple[int, int]


class RotationReport(NamedTuple):
    values: Tuple[Tuple[int, float], ...]
    degenerate: bool
    inf_diag: float


# Largest Mane node set: its G x G cost matrix is 34 MB.  On a 2-core x86 host a
# mane_table at K = 2000 (two DPs over 2001 nodes) takes about 0.2 s, and the
# largest calibrate_window stage (W = 64, 128 DPs over up to 2039 nodes) about 5.5 s.
_MAX_NODES = 2049
# Cells (8 bytes each) of one stack of node sets sent to the kernel together;
# a set with more cells than this runs alone.
_BATCH_CELLS = 1 << 18


def _stacks(sizes):
    """Indices of node sets of these sizes, largest first, cut into kernel stacks.

    A stack holds at most _BATCH_CELLS cells, counting each set at the size
    of the stack's first (largest) set; a larger set runs alone.
    """
    order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    stacks = []
    while order:
        per = max(1, _BATCH_CELLS // sizes[order[0]] ** 2)
        stacks.append(order[:per])
        order = order[per:]
    return stacks


def _phi_over_nodes(model, items, ebar, steps):
    """Monotone DAG DPs over the ordered node arrays of ``items``, (env, nodes) pairs.

    Each nodes[0] is 0.  Returns one (phi, n_steps) pair per item: phi[j] is
    the best value over chains 0 -> nodes[j] through earlier nodes, n_steps[j]
    the smallest optimal step count (None unless ``steps``).  Every set is
    checked against the cap before any work starts; the sets then go to the
    kernel in the stacks of ``_stacks``.
    """
    sizes = [nodes.size for _, nodes in items]
    for G in sizes:
        if G > _MAX_NODES:
            raise ResourceError(f"Mane DP over {G} nodes exceeds the cap of {_MAX_NODES}")
    out = [None] * len(items)
    for batch in _stacks(sizes):
        G = sizes[batch[0]]
        cost = np.empty((len(batch), G, G))
        for block, item in zip(cost, batch):
            env, nodes = items[item]
            g = nodes.size
            V = potential_values(model, env, nodes)
            # cell[j, i] = W(nodes[j] - nodes[i]) + V(nodes[i]) - Ebar, the cost of step i -> j;
            # the steps are written into the cell first, which saves a G x G temporary
            cell = block[:g, :g]
            np.subtract(nodes[:, None], nodes[None, :], out=cell)
            np.add(spring_value(model, cell), V, out=cell)
            cell -= ebar
        phi, n_steps = _kernels.phi_dp(cost, [sizes[item] for item in batch], steps)
        for b, item in enumerate(batch):
            g = sizes[item]
            out[item] = (phi[b, :g], None if n_steps is None else n_steps[b, :g])
    return out


def _phi_to(model, jobs, h, ebar, steps=False):
    """Phi-hat(0 -> r) at each shifted environment, for a list of (env, rel) jobs.

    Returns one (phi, n_steps) pair per job, aligned with its ``rel``; n_steps
    is None unless ``steps``.  Each sign of a job's ``rel`` is one DP over
    node 0, that sign's exact targets and the h-ladder points that lie clear
    of every target, up to the farthest target; every DP of every job runs
    in one ``_phi_over_nodes`` call.  |r| <= 1e-12 takes the closed form
    E(0, 0) - Ebar with one step.
    """
    results, items, reads = [], [], []
    for env, rel in jobs:
        rel = np.asarray(rel, dtype=float)
        phi = np.zeros(rel.shape)
        n_steps = np.ones(rel.shape, dtype=np.int64) if steps else None
        zero = np.abs(rel) <= 1e-12
        if zero.any():
            phi[zero] = energy(model, env, 0.0, 0.0) - ebar
        results.append((phi, n_steps))
        for direction in (-1.0, 1.0):
            side = direction * rel > 1e-12
            if not side.any():
                continue
            anchors = _unique(rel[side])
            top = float(np.max(np.abs(anchors)))
            ladder = direction * h * np.arange(1, int(math.ceil(top / h + 1e-9)) + 1)
            ladder = ladder[np.abs(ladder) <= top + 1e-12]
            pos = np.searchsorted(anchors, ladder)
            near_hi = np.abs(anchors[np.clip(pos, 0, anchors.size - 1)] - ladder) <= 1e-9
            near_lo = np.abs(anchors[np.clip(pos - 1, 0, anchors.size - 1)] - ladder) <= 1e-9
            # nodes in the order of the chain: keys ascend, nodes move away from 0
            clear = ladder[~(near_hi | near_lo)]
            keys = np.sort(direction * np.concatenate([[0.0], anchors, clear]))
            items.append((env, direction * keys))
            reads.append((len(results) - 1, side, np.searchsorted(keys, direction * rel[side])))
    solved = _phi_over_nodes(model, items, ebar, steps)
    for (k, side, j), (side_phi, side_steps) in zip(reads, solved):
        phi, n_steps = results[k]
        phi[side] = side_phi[j]
        if steps:
            n_steps[side] = side_steps[j]
    return results


def _grid_targets(X, h):
    """The table targets k h for |k| <= K = floor(X / h), ascending, and K >= 1."""
    if h <= 0 or X <= 0:
        raise DomainError("X and h must be positive")
    K = int(math.floor(X / h + 1e-9))
    if K < 1:
        # a table of t = 0 alone leaves the cocycle checks no pair to sample
        raise DomainError(f"X = {X} is below the grid step h = {h}")
    return h * np.arange(-K, K + 1), K


def mane_table(
    model: LagrangianSpec,
    env: EnvPoint,
    ebar: float,
    X: float,
    h: float,
) -> ManeTable:
    """Tabulate Phi(omega, t) for t on the grid {k h} in [-X, X]."""
    targets, K = _grid_targets(X, h)
    [(phi, n_steps)] = _phi_to(model, [(env, targets)], h, ebar, steps=True)
    return ManeTable(
        env=env,
        ebar=float(ebar),
        X=float(X),
        h=float(h),
        n_max=K,
        targets=targets,
        phi=phi,
        n_steps=n_steps,
    )


def _strictly_monotone(xs) -> bool:
    d = np.diff(xs)
    return bool(np.all(d > 0) or np.all(d < 0))


def lipschitz_bound(model: LagrangianSpec, X: float) -> float:
    """A bound on |dE/dx| + |dE/dt| for E(x, x + t) over every x and |t| <= 2X.

    W' is monotone, so its largest magnitude is at t = -2X or t = 2X; sup |V'|
    is the catalog's closed form.
    """
    w1 = np.max(np.abs(spring_derivs(model, [-2.0 * X, 2.0 * X])[0]))
    return float(w1) + potential_slope_sup(model)


def cocycle_defects(
    model: LagrangianSpec,
    table: ManeTable,
    samples: int,
    seed: int = 0,
) -> Dict[str, float]:
    """Empirical defects of the cocycle inequalities on sampled grid pairs.

    Subadditivity needs Phi(tau_s omega, t), read from a DP toward t at the
    shifted environment; one ``_phi_to`` call serves every sampled pair.  A
    monotone chain 0 -> t visits only nodes between 0 and t, so that value
    equals the entry of a full shifted table.
    """
    if samples < 10:
        raise DomainError("need at least 10 sampled pairs")
    env = table.env
    targets = table.targets
    K = (targets.size - 1) // 2  # targets[K + k] = k h
    rng = Rng(seed)
    pairs = []
    guard = 0
    while len(pairs) < samples and guard < 100 * samples:
        guard += 1
        s = rng.integers(-K, K + 1)
        t = rng.integers(-K, K + 1)
        if s != 0 and abs(s + t) <= K:
            pairs.append((s, t))
    jobs = [(translate_env(env, s * table.h), targets[K + t : K + t + 1]) for s, t in pairs]
    subadd = -np.inf
    for (s, t), (phi_t, _) in zip(pairs, _phi_to(model, jobs, table.h, table.ebar)):
        lhs = table.phi[K + s + t]
        rhs = table.phi[K + s] + phi_t[0]
        subadd = max(subadd, float(lhs - rhs))
    one_step = energy(model, env, 0.0, targets) - table.ebar
    one_step_max = float(np.max(table.phi - one_step))
    back_step = energy(model, env, targets, 0.0)
    lower_bound_max = float(np.max((table.ebar - back_step) - table.phi))
    ratio = float(np.max(np.abs(table.phi) / (1.0 + np.abs(targets))))
    return {
        "subadd_max": subadd,
        "one_step_max": one_step_max,
        "lower_bound_max": lower_bound_max,
        "sublinearity_ratio": ratio,
        "lip_bound": lipschitz_bound(model, table.X),
        "samples": float(len(pairs)),
    }


def grid_sensitivity(model: LagrangianSpec, coarse: ManeTable) -> Dict[str, float]:
    """Max |Phi_h - Phi_{h/2}| on the coarse table's targets, with the C h reference.

    The fine table halves ``coarse.h`` at the same environment, Ebar and X.
    """
    env, ebar, X, h = coarse.env, coarse.ebar, coarse.X, coarse.h
    fine_targets, _ = _grid_targets(X, h / 2.0)
    [(fine_phi, _)] = _phi_to(model, [(env, fine_targets)], h / 2.0, ebar)
    idx = np.searchsorted(fine_targets, coarse.targets)
    idx = np.clip(idx, 0, fine_targets.size - 1)
    delta = float(np.max(np.abs(fine_phi[idx] - coarse.phi)))
    return {"max_change": delta, "h": h, "bound_Ch": lipschitz_bound(model, X) * h}


def phi_shift(model: LagrangianSpec, table: ManeTable, ebar: float) -> float:
    """Max |Phi| change over the table's targets when Ebar is replaced by ``ebar``."""
    [(phi, _)] = _phi_to(model, [(table.env, table.targets)], table.h, ebar)
    return float(np.max(np.abs(table.phi - phi)))


def calibrate_window(
    model: LagrangianSpec,
    env: EnvPoint,
    ebar: float,
    grid: GridSpec,
) -> CalibrationReport:
    """Defects E(x_m..x_n) - (n-m) Ebar - S(x_m, x_n) over the middle window.

    S(x_m, x_n) is Phi(tau_{x_m} omega, x_n - x_m), from one ``_phi_to`` call
    whose job for each m targets the chain's own offsets from x_m.  The outer
    chain has ``grid.N_outer`` steps and the window ``grid.W`` sites on each
    side of its middle.
    """
    N_outer, W = grid.N_outer, grid.W
    if N_outer < 4 * W:
        raise DomainError("N_outer must be at least 4 W")
    xs = minimize_free(model, env, N_outer, grid).positions
    mid = N_outer // 2
    lo, hi = mid - W, mid + W
    # the chain's pair terms, evaluated once; each sub-chain energy sums its
    # slice as chain_energy does (springs, then potentials)
    w = spring_value(model, np.diff(xs))
    v = potential_values(model, env, xs[:-1])
    jobs = [
        (translate_env(env, xs[m]), xs[m + 1 : min(m + W, hi) + 1] - xs[m]) for m in range(lo, hi)
    ]
    rows = []
    for m, (s_vals, _) in zip(range(lo, hi), _phi_to(model, jobs, grid.h, ebar)):
        for n_i, s_val in enumerate(s_vals, start=m + 1):
            e_val = float(np.sum(w[m:n_i]) + np.sum(v[m:n_i])) - (n_i - m) * ebar
            rows.append((m, n_i, e_val - s_val))
    arr = np.asarray(rows)
    jumps = np.diff(xs)
    return CalibrationReport(
        defects=arr,
        max_defect=float(arr[:, 2].max()),
        rotation=float((xs[-1] - xs[0]) / N_outer),
        max_jump=float(np.max(np.abs(jumps))),
        min_jump=float(np.min(np.abs(jumps))),
        strictly_monotone=_strictly_monotone(xs),
        ebar=float(ebar),
        window=(lo, hi),
    )


def rotation_number(model: LagrangianSpec, est: GroundEnergyEstimate) -> RotationReport:
    """Per-n rotation estimates |x_n - x_0| / n from the free minimizers of ``est``.

    inf_x E(x, x) is exactly W(0), since inf V = 0 for every catalog model.
    When it does not exceed the ground-energy estimate the model is in the
    degenerate branch of the dichotomy (constant configurations are already
    calibrated); the report carries the flag.
    """
    values = tuple((n, float(abs(xs[-1] - xs[0]) / n)) for n, xs in zip(est.n_list, est.positions))
    inf_diag = float(spring_value(model, 0.0))
    return RotationReport(
        values=values,
        degenerate=inf_diag <= est.lower_bound + 1e-9,
        inf_diag=inf_diag,
    )

