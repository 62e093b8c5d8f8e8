#!/usr/bin/env python3
"""Time the two numpy DP kernels of ``fklab._kernels``.

Runs each kernel on a representative workload and prints the best time, the
number of DP cells it relaxes and the time per cell.  Workload sizes mirror
the acceptance-scale runs (length-64 free chains, a Mane table).  The chain
DP's cells are G times the (layer, offset) pairs its band pruning relaxed,
as the kernel counts them, out of n * G * (B + 1) nominal cells; the Mane DP
relaxes each of its G(G-1)/2 monotone steps once.

Usage:
    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeat 5]
"""

import argparse
import time

import numpy as np

from fklab import _kernels


def timeit(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_chain_dp(repeat):
    rng = np.random.default_rng(0)
    G, B, n = 4000, 60, 64
    V = rng.uniform(0.0, 0.03, G)
    Wd = 0.5 * (0.08 * np.arange(0, B + 1) - 1.618) ** 2
    t = timeit(lambda: _kernels.chain_dp_backward_np(V, Wd, n, 0, -1), repeat)
    _, relaxed = _kernels.chain_dp_backward_np(V, Wd, n, 0, -1)
    return "chain DP (G=4000, B=60, n=64)", t, relaxed * G


def bench_phi_dp(repeat):
    rng = np.random.default_rng(1)
    G = 240
    cost = np.full((G, G), np.inf)
    iu = np.triu_indices(G, k=1)
    cost[iu] = rng.uniform(-0.2, 1.0, iu[0].size)
    t = timeit(lambda: _kernels.phi_dp(cost), repeat)
    return "Mane phi DP (G=240)", t, G * (G - 1) // 2


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    rows = [bench_chain_dp(args.repeat), bench_phi_dp(args.repeat)]
    width = max(len(r[0]) for r in rows)
    print(f"{'kernel':<{width}}  {'time':>10}  {'cells':>10}  {'ns/cell':>8}")
    for name, t, cells in rows:
        print(f"{name:<{width}}  {t * 1e3:>8.2f}ms  {cells:>10d}  {t * 1e9 / cells:>8.2f}")


if __name__ == "__main__":
    main()
