#!/usr/bin/env python3
"""Check and time the fklab kernels, with or without numba.

Each numpy kernel in ``fklab._kernels`` is compared with its loop twin (the
``_jit`` functions; without numba ``njit`` is a passthrough, so the twins run
as plain Python) on small inputs.  Chain DP and phi DP do the same floating
point operations on both paths and must agree exactly; the simplex twins
update the tableau in a different order, so their optimal values must agree
to 1e-9.  Then each numpy kernel is timed on the acceptance-scale inputs and
printed next to its operation count (DP cells, simplex pivots).

Usage (from the repository root): python3 fkbench/kernels.py
Exits 1 when a kernel pair disagrees.
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fklab import _kernels, circle_model, discretize_circle  # noqa: E402
from fklab._accel import USE_NUMBA  # noqa: E402
from fklab.holonomic_lp import _build_constraints  # noqa: E402


REPEAT = 5  # timings report the best of this many calls


def chain_dp_inputs(G, B, n, seed):
    rng = np.random.default_rng(seed)
    V = rng.uniform(0.0, 0.03, G)
    Wd = 0.5 * (0.08 * np.arange(-B, B + 1) - 1.618) ** 2
    return V, Wd, n, -B


def phi_dp_inputs(G, n_max, seed):
    rng = np.random.default_rng(seed)
    cost = np.full((G, G), np.inf)
    iu = np.triu_indices(G, k=1)
    cost[iu] = rng.uniform(-0.2, 1.0, iu[0].size)
    return cost, n_max


def circle_lp(N, T_max):
    lp = discretize_circle(circle_model(1.0, 0.5), N, T_max)
    A, b = _build_constraints(lp)
    return A, b, lp.cost.ravel()


def simplex_solve(loop, A, b, c):
    """Two-phase simplex with the given pivot loop: (optimal value, pivots)."""
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    basis = np.arange(n, n + m, dtype=np.int64)
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    pivots = 0
    for phase in (1, 2):
        if phase == 2:
            T[m, :] = 0.0
            T[m, :n] = c
            for i in range(m):
                f = T[m, basis[i]]
                if f != 0.0:
                    T[m, :] -= f * T[i, :]
        status, it = loop(T, basis, n, 1e-10, 200_000)
        if status != 0:
            raise RuntimeError(f"simplex phase {phase} ended with status {status}")
        pivots += it - 1  # the last iteration finds no entering column
    return -T[m, -1], pivots


def check_pairs() -> list:
    """Mismatch messages between each numpy kernel and its loop twin."""
    fails = []
    V, Wd, n, dlo = chain_dp_inputs(120, 6, 8, 0)
    for end_idx in (-1, 60):
        a = _kernels.chain_dp_backward_np(V, Wd, n, dlo, end_idx)
        b = _kernels._chain_dp_backward_jit(V, Wd, n, dlo, end_idx)
        if not np.array_equal(a, b):
            fails.append(f"chain DP (end_idx={end_idx}): {np.count_nonzero(a != b)} cells differ")
    cost, n_max = phi_dp_inputs(30, 20, 1)
    (d_np, b_np), (d_lp, b_lp) = _kernels.phi_dp_np(cost, n_max), _kernels._phi_dp_jit(cost, n_max)
    if not (np.array_equal(d_np, d_lp) and np.array_equal(b_np, b_lp)):
        fails.append("phi DP: tables differ")
    lp = circle_lp(8, 2.0)
    v_np, _ = simplex_solve(_kernels.simplex_pivot_loop_np, *lp)
    v_lp, _ = simplex_solve(_kernels._simplex_pivot_loop_jit, *lp)
    if not abs(v_np - v_lp) <= 1e-9:
        fails.append(f"simplex: optimal values {v_np!r} and {v_lp!r} differ")
    return fails


def best_time(fn):
    best, out = float("inf"), None
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def main():
    print(f"USE_NUMBA={USE_NUMBA}; loop twins run {'compiled' if USE_NUMBA else 'as plain Python'}")
    fails = check_pairs()
    print("kernel pairs agree" if not fails else "\n".join("MISMATCH " + f for f in fails))

    V, Wd, n, dlo = chain_dp_inputs(4000, 30, 64, 0)
    t_chain, _ = best_time(lambda: _kernels.chain_dp_backward_np(V, Wd, n, dlo, -1))
    cost, n_max = phi_dp_inputs(240, 160, 1)
    t_phi, _ = best_time(lambda: _kernels.phi_dp_np(cost, n_max))
    lp = circle_lp(32, 2.0)
    t_lp, (_, pivots) = best_time(lambda: simplex_solve(_kernels.simplex_pivot_loop_np, *lp))
    rows = [
        ("chain DP (G=4000, D=61, n=64)", t_chain, n * V.size * Wd.size, "cells"),
        ("phi DP (G=240, n_max=160)", t_phi, n_max * cost.shape[0] ** 2, "cells"),
        ("simplex (circle LP, N=32)", t_lp, pivots, "pivots"),
    ]
    print(f"{'numpy kernel':<30}  {'time':>10}  {'operations':>16}  {'ns/op':>9}")
    for name, t, ops, unit in rows:
        print(f"{name:<30}  {t * 1e3:>8.2f}ms  {ops:>9d} {unit:<6}  {t / ops * 1e9:>9.1f}")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
