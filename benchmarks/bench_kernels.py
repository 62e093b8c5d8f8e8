#!/usr/bin/env python3
"""Benchmark the numba kernels against the pure-numpy fallbacks.

Runs each hot kernel on a representative workload and prints both timings and
the speedup.  Workload sizes mirror the acceptance-scale runs (length-64 free
chains, a Mane table).

Usage:
    python3 benchmarks/bench_kernels.py [--repeat 5]
"""

import argparse
import time

import numpy as np

from fklab import _kernels
from fklab._accel import USE_NUMBA


def timeit(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_chain_dp(repeat):
    rng = np.random.default_rng(0)
    G, B, n = 4000, 60, 64
    V = rng.uniform(0.0, 0.03, G)
    Wd = 0.5 * (0.08 * np.arange(0, B + 1) - 1.618) ** 2

    def run_np():
        return _kernels.chain_dp_backward_np(V, Wd, n, 0, -1)

    t_np, ref = timeit(run_np, repeat)
    t_nb = None
    if USE_NUMBA:
        _kernels._chain_dp_backward_jit(V[:8], Wd[:3], 2, 0, -1)  # compile
        t_nb, out = timeit(lambda: _kernels._chain_dp_backward_jit(V, Wd, n, 0, -1), repeat)
        assert np.allclose(ref, out, atol=1e-12)
    return "chain DP (G=4000, B=60, n=64)", t_np, t_nb


def bench_phi_dp(repeat):
    rng = np.random.default_rng(1)
    G, n_max = 240, 160
    cost = np.full((G, G), np.inf)
    iu = np.triu_indices(G, k=1)
    cost[iu] = rng.uniform(-0.2, 1.0, iu[0].size)

    t_np, (ref, _) = timeit(lambda: _kernels.phi_dp_np(cost, n_max), repeat)
    t_nb = None
    if USE_NUMBA:
        _kernels._phi_dp_jit(cost[:4, :4].copy(), 2)
        t_nb, (out, _) = timeit(lambda: _kernels._phi_dp_jit(cost, n_max), repeat)
        assert np.allclose(ref, out, atol=1e-12)
    return "Mane phi DP (G=240, n_max=160)", t_np, t_nb


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    if not USE_NUMBA:
        print("numba unavailable or disabled (FKLAB_NUMBA=0): timing numpy path only\n")
    rows = [bench_chain_dp(args.repeat), bench_phi_dp(args.repeat)]
    width = max(len(r[0]) for r in rows)
    print(f"{'kernel':<{width}}  {'numpy':>10}  {'numba':>10}  {'speedup':>8}")
    for name, t_np, t_nb in rows:
        if t_nb is None:
            print(f"{name:<{width}}  {t_np * 1e3:>8.2f}ms  {'-':>10}  {'-':>8}")
        else:
            print(
                f"{name:<{width}}  {t_np * 1e3:>8.2f}ms  {t_nb * 1e3:>8.2f}ms"
                f"  {t_np / t_nb:>7.1f}x"
            )


if __name__ == "__main__":
    main()
