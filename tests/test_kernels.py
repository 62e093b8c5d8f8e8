"""The numpy DP kernels against their plain-loop oracles."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from fklab import _kernels

from oracles import chain_dp_backward_loop, phi_dp_loop


class TestKernelPairs:
    def test_chain_dp_pair(self):
        rng = np.random.default_rng(0)
        V = rng.uniform(0, 1, 40)
        Wd = rng.uniform(0, 2, 9)
        for end in (-1, 17):
            a = _kernels.chain_dp_backward_np(V, Wd, 6, -4, end)
            b = chain_dp_backward_loop(V, Wd, 6, -4, end)
            assert np.allclose(a, b, atol=1e-12, equal_nan=True)

    def test_phi_dp_pair(self):
        # integer costs are full of exact ties, which exercise the tie rules
        rng = np.random.default_rng(1)
        for G, integer_costs in itertools.product((2, 5, 12, 25), (False, True)):
            cost = np.full((G, G), np.inf)
            iu = np.triu_indices(G, k=1)
            if integer_costs:
                cost[iu] = rng.integers(-2, 3, iu[0].size)
            else:
                cost[iu] = rng.uniform(-1, 1, iu[0].size)
            phi, n_steps = _kernels.phi_dp(cost)
            D = phi_dp_loop(cost, G - 1)
            assert np.array_equal(phi[1:], D[1:, 1:].min(axis=0))
            assert np.array_equal(n_steps[1:], D[1:, 1:].argmin(axis=0) + 1)


def test_bench_kernels_smoke():
    """The kernel benchmark still runs against the current kernels."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "bench_kernels.py"), "--repeat", "1"],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.strip().splitlines()
    assert header.split() == ["kernel", "time", "cells", "ns/cell"]
    assert [r.split("(")[0].strip() for r in rows] == ["chain DP", "Mane phi DP"]
    for r in rows:
        assert int(r.split()[-2]) > 0 and float(r.split()[-1]) > 0
