"""Finite holonomic-measure LP for the circle model, primal and dual.

The circle is replaced by the grid omega_j = j/N and jumps by integer
multiples of 1/N, so every arc maps grid to grid exactly and the holonomy
constraint reduces to flow conservation at each grid point plus total mass 1.
The extreme points of that LP are uniform measures on simple cycles of the
arc graph j -> (j + k) mod N, so its value is the minimum cycle mean.
Howard's policy iteration (Cochet-Terrasson, Cohen, Gaubert, McGettrick and
Quadrat 1998) finds an optimal cycle and a bias whose negative is a dual grid
potential.  Only the circle family discretizes: the torus line flow has
irrational slope and maps no finite grid to itself.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .environments import EnvPoint
from .errors import DomainError, NumericalFailure, ResourceError
from .lagrangians import LagrangianSpec, potential_values, spring_value

# Arc count N * |jumps|.  At the cap, N=512 with T_max=2 (1,049,088 arcs)
# discretizes and solves in 0.18-0.44 s for K in {0.1, 1, 4} (10-27 policy
# evaluations, 80-88 MB peak RSS in a fresh process) on a shared 2-core x86
# host; benchmarks/bench_kernels.py times the K = 1 case.
_MAX_ARCS = 1_100_000
_MAX_ITER = 1000  # policy iterations
_TOL = 1e-11  # smallest improvement that changes the policy


class LPProblem(NamedTuple):
    N: int
    jumps: np.ndarray  # integer multiples of 1/N
    cost: np.ndarray  # (N, |jumps|)


class LPSolution(NamedTuple):
    nodes: np.ndarray  # grid points of the optimal cycle, ascending
    jumps: np.ndarray  # the jump (multiple of 1/N) the cycle takes at each node
    u: np.ndarray  # dual potential, one value per grid point: the negated policy bias
    primal: float  # mean cost of the cycle's arcs, the value of the uniform measure on them
    dual: float  # the cycle mean at which every arc inequality of u holds


def discretize_circle(model: LagrangianSpec, N: int, T_max: float) -> LPProblem:
    """The holonomic LP of a circle model on the grid omega_j = j/N.

    The LP is posed on the hull, not at one environment: the nodes omega_j
    cover every phase and the arc j -> j + k costs V(omega_j) + W(k/N), so
    the phase of a circle environment does not enter it.  Jumps run over
    |k| <= T_max * N.
    """
    if model.potential != "circle":
        raise DomainError("only the circle cosine family is discretized")
    if not (8 <= N <= 512):
        raise DomainError("N must lie in [8, 512]")
    if T_max < abs(model.lam) + 1.0:
        raise DomainError("T_max must be at least |lambda| + 1")
    M = int(math.floor(T_max * N + 1e-9))
    jumps = np.arange(-M, M + 1, dtype=np.int64)
    if N * jumps.size > _MAX_ARCS:
        raise ResourceError(f"N * |jumps| = {N * jumps.size} arcs above the cap {_MAX_ARCS}")
    env = EnvPoint.circle(0.0)
    grid = np.arange(N) / N
    v = potential_values(model, env, grid)
    w = spring_value(model, jumps / N)
    cost = v[:, None] + w[None, :]
    return LPProblem(N=N, jumps=jumps, cost=cost)


def _heads(lp: LPProblem) -> np.ndarray:
    """Head (j + k) mod N of every arc, shaped like the cost array."""
    return (np.arange(lp.N)[:, None] + lp.jumps[None, :]) % lp.N


def _evaluate(succ: np.ndarray, c_pol: np.ndarray, x_prev: np.ndarray):
    """Cycle mean eta and bias x of every node under one policy.

    The policy graph j -> succ[j] is functional, so each walk ends on a cycle.
    A new cycle keeps the previous bias at the node where the walk closed it;
    every other node satisfies x[j] = c_pol[j] - eta[j] + x[succ[j]].
    Returns eta, x and the cycles as (mean, nodes) in discovery order.
    """
    N = succ.size
    nxt, cst = succ.tolist(), c_pol.tolist()
    eta, x = [0.0] * N, [0.0] * N
    state = [0] * N  # 0 unseen, 1 on the current walk, 2 evaluated
    cycles = []
    for s in range(N):
        path = []
        j = s
        while state[j] == 0:
            state[j] = 1
            path.append(j)
            j = nxt[j]
        if state[j] == 1:  # the walk closed a new cycle at j
            cyc = path[path.index(j) :]
            del path[-len(cyc) :]
            mean = sum(cst[i] for i in cyc) / len(cyc)
            cycles.append((mean, cyc))
            eta[j], x[j], state[j] = mean, float(x_prev[j]), 2
            path.extend(cyc[1:])
        for i in reversed(path):
            t = nxt[i]
            eta[i] = eta[t]
            x[i] = cst[i] - eta[i] + x[t]
            state[i] = 2
    return np.array(eta), np.array(x), cycles


def _howard(cost: np.ndarray, heads: np.ndarray):
    """Minimum-mean-cycle policy iteration (Howard) on the arc graph.

    A policy picks one outgoing arc per node.  Improvement first moves a node
    to an arc whose head has a lower cycle mean, and only when no node can do
    so, to an arc lowering c - eta + x[head]; a node keeps its arc unless the
    gain exceeds _TOL, and np.argmin breaks ties by the smallest arc index.
    Returns the final policy, its bias and its cycles.
    """
    rows = np.arange(cost.shape[0])
    policy = np.argmin(cost, axis=1)
    x = np.zeros(cost.shape[0])
    for _ in range(_MAX_ITER):
        eta, x, cycles = _evaluate(heads[rows, policy], cost[rows, policy], x)
        eta_heads = eta[heads]
        best = np.argmin(eta_heads, axis=1)
        better = eta_heads[rows, best] < eta - _TOL
        if not better.any():
            val = np.where(eta_heads <= eta[:, None] + _TOL, cost - eta[:, None] + x[heads], np.inf)
            best = np.argmin(val, axis=1)
            better = val[rows, best] < x - _TOL
            if not better.any():
                return policy, x, cycles
        policy = np.where(better, best, policy)
    raise NumericalFailure(f"policy iteration did not converge in {_MAX_ITER} iterations")


def solve(lp: LPProblem) -> LPSolution:
    """Optimal cycle and dual potential of the LP, certified in place.

    The primal optimum is the uniform measure on the cycle, weight 1/L on
    each of its L arcs.  Its unit mass, its flow residual (<= 1e-9) and the
    gap between its value and the cycle mean eta (<= 1e-9) are checked on
    those arcs; the dual inequality cost(j, k) + u[j] - u[(j+k) mod N] >=
    eta - 1e-9 is checked on every arc.
    """
    heads = _heads(lp)
    policy, bias, cycles = _howard(lp.cost, heads)
    eta = min(mean for mean, _ in cycles)
    nodes = np.sort(next(cyc for mean, cyc in cycles if mean == eta))
    arcs = policy[nodes]
    weight = np.full(nodes.size, 1.0 / nodes.size)
    mass = float(weight.sum())
    if abs(mass - 1.0) > 1e-10:
        raise NumericalFailure(f"optimal measure mass {mass} is off unity")
    flow = np.bincount(heads[nodes, arcs], weights=weight, minlength=lp.N)
    flow[nodes] -= weight  # inflow minus outflow at every grid point
    residual = float(np.max(np.abs(flow)))
    if residual > 1e-9:
        raise NumericalFailure(f"holonomy residual {residual} too large")
    primal = float(lp.cost[nodes, arcs].mean())
    gap = primal - eta
    if abs(gap) > 1e-9:
        raise NumericalFailure(f"primal-dual gap {gap} too large")
    u = -bias
    worst = float(np.min(lp.cost + u[:, None] - u[heads])) - eta
    if worst < -1e-9:
        raise NumericalFailure(f"dual infeasible, worst arc slack {worst}")
    return LPSolution(nodes=nodes, jumps=lp.jumps[arcs], u=u, primal=primal, dual=eta)
