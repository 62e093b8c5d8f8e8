#!/usr/bin/env python3
"""Time the two numpy DP kernels of ``fklab._kernels``, the LP solve, the
exact Beatty membership test, the Beatty point reads and process start-up.

Runs each kernel on a representative workload and prints the best time, the
number of DP cells it relaxes and the time per cell.  Workload sizes mirror
the acceptance-scale runs: a length-64 free chain, and the Mane DPs of the
quasicrystal workload's ``calibrate`` window, 16 node sets of 22 to 171
nodes sent in the stacks ``mane._stacks`` forms.  The chain DP row times the
checkpointed DP and the backtrack of its optimal chain; its cells are G
times the (layer, offset) pairs the band pruning relaxed, as the kernel
counts them, out of n * G * (B + 1) nominal cells, and its name carries the
peak of the two calls as ``tracemalloc`` sees it.  The ladder row reads the
soft-chain workload's ground-energy ladder, n = 8, 16, 32 and 64, from one
DP over its n = 64 grid (G = 4621, B = 70) that keeps layers 56, 48, 32 and 0,
and backtracks from each; its cells count the same way.  The Mane DP relaxes each
of a set's g(g-1)/2 monotone steps once.  The LP row times
``discretize_circle`` plus ``solve`` at the arc cap (N = 512, T_max = 2,
K = 1, lambda = 0.5); its cells are the arcs of the grid graph.  The Beatty
row runs ``AlphaValue.membership_range`` over the integers 0..10^6 - 1 at the
golden slope; its cells are the integers tested.  The point-read row replays
the ``PointSet.points_in`` windows of one quasicrystal-workload ``calibrate``
(seed 0) on a warm block memo; its cells are the reads.  The two start-up
rows run a fresh ``python -c "import fklab.cli; fklab.cli.load_config(...)"``
on the quasicrystal and the circle workload's config, the set-up every CLI
command pays before it starts (only the quasicrystal config loads
``fractions``, for its exact offset); each row's one cell is the process,
and its name carries the peak RSS of those processes (``RUSAGE_CHILDREN`` of
a small launcher that spawns them), with fklab's bytecode compiled first.

Usage:
    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeat 5]
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import fklab
from fklab import (
    AlphaValue,
    EnvPoint,
    GridSpec,
    PointSet,
    _kernels,
    calibrate_window,
    circle_model,
    discretize_circle,
    ground_energy,
    mane,
    solve,
    spring_value,
    sturm_model,
)
from fklab.lagrangians import potential_values


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

    def solve():
        dp = _kernels.chain_dp_backward_np(V, Wd, n, 0, ())
        _kernels.chain_dp_path(dp, int(np.argmin(dp.layers[0])), 0)
        return dp

    t = timeit(solve, repeat)
    tracemalloc.start()
    try:
        relaxed = solve().relaxed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return f"chain DP (G=4000, B=60, n=64, traced peak {peak / 2**20:.2f} MB)", t, relaxed * G


def bench_ladder(repeat):
    # the soft-chain workload's ground-energy grid: K = 0.1, lambda = 0.5,
    # h = 0.05 and the jump cap 3.5 around the n = 64 chain's midpoint 16
    model, h, n = circle_model(0.1, 0.5), 0.05, 64
    V = potential_values(model, EnvPoint.circle(0.0), -99.5 + h * np.arange(4621))
    Wd = spring_value(model, h * np.arange(71))
    keep = [n - m for m in (8, 16, 32, 64)]

    def ladder():
        dp = _kernels.chain_dp_backward_np(V, Wd, n, 0, keep)
        for k in keep:
            _kernels.chain_dp_path(dp, int(np.argmin(dp.layers[k])), k)
        return dp

    t = timeit(ladder, repeat)
    return "chain DP ladder (soft chain, n=8,16,32,64 from one DP)", t, ladder().relaxed * V.size


# node counts of the 16 Mane DPs of the quasicrystal workload's calibrate window
CALIBRATE_SIZES = (171, 171, 171, 170, 170, 170, 169, 169, 168, 149, 128, 106, 86, 65, 44, 22)


def bench_phi_dp(repeat):
    rng = np.random.default_rng(1)
    calls = []
    for batch in mane._stacks(CALIBRATE_SIZES):
        sizes = [CALIBRATE_SIZES[i] for i in batch]
        cost = rng.uniform(-0.2, 1.0, (len(sizes), sizes[0], sizes[0]))
        calls.append((cost, sizes))

    def stage():
        for cost, sizes in calls:
            _kernels.phi_dp(cost, sizes)

    t = timeit(stage, repeat)
    cells = sum(g * (g - 1) // 2 for g in CALIBRATE_SIZES)
    return f"Mane phi DP ({len(CALIBRATE_SIZES)} sets in {len(calls)} stacks)", t, cells


def bench_lp(repeat):
    model = circle_model(1.0, 0.5)
    t = timeit(lambda: solve(discretize_circle(model, 512, 2.0)), repeat)
    arcs = discretize_circle(model, 512, 2.0).cost.size
    return "LP solve (circle, N=512, T_max=2)", t, arcs


def bench_membership(repeat):
    alpha, n = AlphaValue.parse("(-1+1√5)/2"), 10**6
    t = timeit(lambda: alpha.membership_range(0, n - 1), repeat)
    return "Beatty membership (1e6 window)", t, n


def bench_point_reads(repeat):
    alpha = AlphaValue.parse("(-1+1√5)/2")
    model, env = sturm_model(alpha, 0.5, 1.0, 1.618), EnvPoint.quasicrystal(alpha)
    grid = GridSpec(h=0.08, X=2.0, N_outer=64, W=8)
    windows = []
    points_in = PointSet.points_in

    def record(pset, lo, hi):
        windows.append((pset, lo, hi))
        return points_in(pset, lo, hi)

    PointSet.points_in = record
    try:
        est = ground_energy(model, env, [4, 8, 16, 32], grid)
        calibrate_window(model, env, est.lower_bound, grid)
    finally:
        PointSet.points_in = points_in
    t = timeit(lambda: [pset.points_in(lo, hi) for pset, lo, hi in windows], repeat)
    return "Beatty point reads (quasicrystal calibrate)", t, len(windows)


# the quasicrystal benchmark workload's config at seed 0
QUASICRYSTAL_INI = """\
[environment]
variant = quasicrystal
alpha = (-1+1√5)/2
offset = 0.0
seeds = 3

[lagrangian]
spring = quadratic
lambda = 1.618
a0 = 0.5
a1 = 1.0

[grid]
h = 0.08
x = 2.0
n_max = 100
n_outer = 64
w = 8
n_list = 4,8,16,32
"""


# the circle benchmark workload's config at seed 0
CIRCLE_INI = """\
[environment]
variant = circle
phase = 0.0

[lagrangian]
spring = quadratic
lambda = 0.5
k = 1.0

[grid]
h = 0.05
x = 4.0
n_max = 100
n_outer = 64
w = 8
n_list = 4,8,16,32

[lp]
n = 56
t_max = 2.0
"""


# Spawns the start-up processes and prints the best wall time and their peak
# RSS in KB.  It runs in its own small process: on Linux a child's peak RSS
# starts from the resident size of the process that spawned it, and this
# script is large by the time the start-up row runs.
LAUNCHER = """\
import resource, subprocess, sys, time
best = float("inf")
for _ in range(int(sys.argv[1])):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", sys.argv[2]], check=True)
    best = min(best, time.perf_counter() - t0)
print(best, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def bench_startup(repeat, workload, ini):
    # the children import the fklab this script imported
    src = str(Path(fklab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    # byte-compile fklab once, as installing it would: with PYTHONDONTWRITEBYTECODE
    # set and no current bytecode, every timed child would compile it, which
    # adds about 1.8 MB to its peak RSS
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run([sys.executable, "-c", "import fklab.cli"], env=env, check=True)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.ini"
        cfg.write_text(ini, encoding="utf-8")
        code = f"import fklab.cli; fklab.cli.load_config({str(cfg)!r})"
        argv = [sys.executable, "-c", LAUNCHER, str(repeat), code]
        out = subprocess.run(argv, env=env, check=True, capture_output=True, text=True).stdout
    t, peak_kb = out.split()
    peak = f"peak RSS {int(peak_kb) / 1024:.1f} MB"
    name = f"Start-up {workload} (import fklab.cli + load_config, {peak})"
    return name, float(t), 1


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    rows = [
        bench_chain_dp(args.repeat),
        bench_ladder(args.repeat),
        bench_phi_dp(args.repeat),
        bench_lp(args.repeat),
        bench_membership(args.repeat),
        bench_point_reads(args.repeat),
        bench_startup(args.repeat, "quasicrystal", QUASICRYSTAL_INI),
        bench_startup(args.repeat, "circle", CIRCLE_INI),
    ]
    width = max(len(r[0]) for r in rows)
    print(f"{'kernel':<{width}}  {'time':>10}  {'cells':>10}  {'ns/cell':>8}")
    for name, t, cells in rows:
        print(f"{name:<{width}}  {t * 1e3:>8.2f}ms  {cells:>10d}  {t * 1e9 / cells:>8.2f}")


if __name__ == "__main__":
    main()
