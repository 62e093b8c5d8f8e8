"""The numpy DP kernels against their plain-loop oracles."""

import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from fklab import _kernels
from fklab.chain_opt import GridSpec, ground_energy, minimize_free
from fklab.environments import EnvPoint
from fklab.lagrangians import circle_model

from oracles import chain_dp_backward_loop, chain_dp_path_loop, phi_dp_loop


def _spring_table(kind, D, rng):
    if kind == "convex":
        return 0.5 * (0.3 * np.arange(D) - rng.uniform(0.0, 0.3 * D)) ** 2
    if kind == "nonconvex":
        return rng.uniform(-1.0, 2.0, D)
    if kind == "near-tie":
        # integer costs nudged by less than the backtrack's 1e-12 tie window and
        # by more: the first offset within the window need not be the least
        return rng.integers(-2, 3, D) + rng.choice([0.0, 3e-13, -3e-13, 2e-12], D)
    return rng.integers(-2, 3, D).astype(float)  # integer costs: exact ties everywhere


def _site_table(kind, G, rng):
    if kind == "near-tie":
        return rng.integers(-2, 3, G) + rng.choice([0.0, 4e-13, 1e-12], G)
    if kind == "integer":
        return rng.integers(-2, 3, G).astype(float)
    return rng.uniform(-1, 1, G)


def _check_chain_dp(V, Wd, n, dlo, starts, keep, case):
    """The stored layers' bits and the backtracks from each kept layer, from its
    argmin and from each finite start row, against the loop oracles.

    The DP stores exactly the checkpoints and ``keep``; layer 0 is always
    checked, kept or not.
    """
    C = chain_dp_backward_loop(V, Wd, n, dlo)
    dp = _kernels.chain_dp_backward_np(V, Wd, n, dlo, keep)
    checkpoints = {*range(0, n, _kernels.STRIDE), n}
    assert set(dp.layers) == checkpoints | set(keep), case
    for k, layer in dp.layers.items():
        assert layer.tobytes() == C[k].tobytes(), (case, k)
    assert dp.layers[0].tobytes() == C[0].tobytes(), case
    assert 1 <= dp.relaxed <= n * Wd.size, case
    for k in sorted({0, *keep}):
        for j in [int(np.argmin(C[k])), *starts]:
            if np.isfinite(C[k, j]):
                path = _kernels.chain_dp_path(dp, j, k)
                assert path.tolist() == chain_dp_path_loop(C, Wd, dlo, j, k), (case, k, j)


class TestKernelPairs:
    def test_chain_dp_pair(self):
        """C[0] has the full-band bits and the checkpointed backtrack the full table's path.

        Bands reaching down to -D+1, straddling 0 and starting at 0; convex,
        non-convex, integer-tie and near-tie springs;
        G < D; n = 1, 7, 8, 9 and 64 (one step, checkpoint stride - 1, stride,
        stride + 1 and eight strides); every third start row.  Kept layers: n
        (the zero layer, a one-point path), n - 1, a layer inside the first
        segment above 0 and, at n = 64, a ladder's 28 and 60 beside its
        checkpoints 56, 48 and 32.
        """
        shapes = [(40, 9, 1), (40, 9, 7), (40, 9, 8), (40, 9, 9), (40, 9, 64), (5, 9, 9)]
        for (G, D, n), dlo, kind in itertools.product(
            shapes, (-8, -4, 0), ("convex", "nonconvex", "integer", "near-tie")
        ):
            rng = np.random.default_rng([G, D, n, dlo + 8])
            V = _site_table(kind, G, rng)
            Wd = _spring_table(kind, D, rng)
            keep = {n, n - 1, min(3, n)} | ({28, 32, 48, 56, 60} if n == 64 else set())
            _check_chain_dp(V, Wd, n, dlo, range(0, G, 3), keep, (G, D, n, dlo, kind))

    def test_chain_dp_random_sweep(self, monkeypatch):
        """Random shapes, every other one with a run buffer of 7 cells, so in
        blocks of 1 to 7 grid rows: a real buffer holds any grid here."""
        rng = np.random.default_rng(12)
        block = _kernels.BLOCK
        for i in range(150):
            monkeypatch.setattr(_kernels, "BLOCK", 7 if i % 2 else block)
            G, D, n = (int(v) for v in rng.integers(1, (30, 14, 20)))
            dlo = int(rng.integers(-D - 2, 3))
            kind = rng.choice(["convex", "nonconvex", "integer", "near-tie"])
            V = _site_table(kind, G, rng)
            Wd = _spring_table(kind, D, rng)
            if rng.random() < 0.2:
                Wd[rng.integers(D)] = np.inf  # a forbidden offset
            keep = {int(k) for k in rng.integers(0, n + 1, 3)}
            _check_chain_dp(V, Wd, n, dlo, [int(rng.integers(G))], keep, (G, D, n))

    def test_chain_dp_prunes_the_circle_band(self, monkeypatch):
        """A circle-workload free solve relaxes at most half of its band."""
        calls = []

        def spy(V, Wd, n, dlo, keep):
            dp = kernel(V, Wd, n, dlo, keep)
            calls.append((V.size, Wd.size, n, dp.relaxed))
            return dp

        kernel = _kernels.chain_dp_backward_np
        monkeypatch.setattr(_kernels, "chain_dp_backward_np", spy)
        minimize_free(circle_model(1.0, 0.5), EnvPoint.circle(0.0), 32, GridSpec(h=0.05))
        [(G, D, n, relaxed)] = calls
        assert (G, D, n) == (2381, 71, 32)
        assert relaxed <= 0.5 * n * D

    def test_chain_dp_memory_on_the_soft_chain(self, monkeypatch):
        """The soft-chain workload's ladder, one n = 64 DP and a backtrack from each of
        its layers 56, 48, 32 and 0: they peak under 1.2 MB, where the full
        (n + 1) x G table alone takes 2.4 MB, and within what ``chain_dp_bytes``
        counts."""
        calls = []
        kernel = _kernels.chain_dp_backward_np

        def spy(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(_kernels, "chain_dp_backward_np", spy)
        ground_energy(circle_model(0.1, 0.5), EnvPoint.circle(0.0), [8, 16, 32, 64], GridSpec(h=0.05))
        monkeypatch.undo()
        [(V, Wd, n, dlo, keep)] = calls
        assert (V.size, Wd.size, n, list(keep)) == (4621, 71, 64, [56, 48, 32, 0])
        assert (n + 1) * V.size * 8 > 2.4e6
        tracemalloc.start()
        try:
            dp = _kernels.chain_dp_backward_np(V, Wd, n, dlo, keep)
            for k in keep:
                _kernels.chain_dp_path(dp, int(np.argmin(dp.layers[k])), k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2e6
        assert peak <= _kernels.chain_dp_bytes(V.size, Wd.size, n, dlo, keep)

    def test_phi_dp_pair(self):
        """Each set of a stack gets the layered oracle's phi and least step counts.

        The sets have unequal sizes; every entry the kernel may not read (the
        upper triangle, the diagonal and the padding) is NaN, so a stray read
        shows.  Integer costs are full of exact ties, which exercise the tie
        rule; ``steps=False`` must give the same phi bits.
        """
        rng = np.random.default_rng(1)
        sizes = [25, 25, 12, 5, 2, 1]
        for kind in ("float", "integer", "forbidden"):
            G = sizes[0]
            cost = np.full((len(sizes), G, G), np.nan)
            blocks = []
            for block, g in zip(cost, sizes):
                c = np.full((g, g), np.inf)  # c[i, j] is the cost of step i -> j
                iu = np.triu_indices(g, k=1)
                if kind == "integer":
                    c[iu] = rng.integers(-2, 3, iu[0].size)
                else:
                    c[iu] = rng.uniform(-1, 1, iu[0].size)
                if kind == "forbidden":
                    # +inf steps: node 3 is unreachable, and so is any node
                    # reached only through it
                    c[iu] = np.where(rng.random(iu[0].size) < 0.5, np.inf, c[iu])
                    c[:, 3:4] = np.inf
                block[iu[1], iu[0]] = c[iu]
                blocks.append(c)
            phi, n_steps = _kernels.phi_dp(cost, sizes, steps=True)
            phi_only, none = _kernels.phi_dp(cost, sizes)
            assert none is None
            assert phi_only.tobytes() == phi.tobytes()
            for m, (c, g) in enumerate(zip(blocks, sizes)):
                assert phi[m, 0] == 0.0 and n_steps[m, 0] == 0
                if g == 1:
                    continue
                D = phi_dp_loop(c, g - 1)
                want = D[1:, 1:].min(axis=0)
                assert np.array_equal(phi[m, 1:g], want), (kind, m)
                # the fewest steps among the optimal chains, 0 where no chain exists
                fewest = np.where(np.isfinite(want), D[1:, 1:].argmin(axis=0) + 1, 0)
                assert np.array_equal(n_steps[m, 1:g], fewest), (kind, m)
            if kind == "forbidden":
                assert np.isinf(phi[0, 3]) and n_steps[0, 3] == 0


def test_bench_kernels_smoke():
    """The kernel benchmark still runs against the current kernels, ladder, LP solve,
    Beatty reads and start-up."""
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
    assert [r.split("(")[0].strip() for r in rows] == [
        "chain DP",
        "chain DP ladder",
        "Mane phi DP",
        "LP solve",
        "Beatty membership",
        "Beatty point reads",
        "Start-up quasicrystal",
        "Start-up circle",
    ]
    for r in rows:
        assert int(r.split()[-2]) > 0 and float(r.split()[-1]) > 0
