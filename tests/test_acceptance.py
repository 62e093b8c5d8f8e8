"""Acceptance suite: one test per criterion, each at its stated tolerance.

Each test prints one pass line on success (pytest -s shows them live).
"""

import itertools
import math
import time

import numpy as np
import pytest

from fklab import (
    EnvPoint,
    GridSpec,
    calibrate_window,
    circle_model,
    cocycle_defects,
    discretize_circle,
    ground_energy,
    mane_table,
    minimize_free,
    rotation_number,
    solve,
    sturm_model,
    torus_model,
)
from fklab.cli import main as cli_main

from oracles import (
    FIB,
    brute_force_phi,
    brute_force_repair,
    crossing_gain,
    cylinder_at,
    equidistribution_counts,
    lp_edges,
    make_chain,
    min_mean_cycle,
    repair_loop,
)

CIRCLE = EnvPoint.circle(0.0)
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _report(k, name):
    print(f"\n[acceptance] criterion {k} ({name}): PASS")


def test_criterion_01_zero_potential_exactness():
    t0 = time.perf_counter()
    for lam in (0.0, 0.7, 1.0):
        m = circle_model(0.0, lam)
        est = ground_energy(m, CIRCLE, [4, 8, 16], GridSpec(h=0.05))
        assert abs(est.extrapolated) <= 1e-8
        assert abs(est.lower_bound) <= 1e-8
        res = minimize_free(m, CIRCLE, 16, GridSpec(h=0.05))
        spacing = np.diff(res.positions)
        assert np.max(np.abs(spacing - lam)) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s over the 5s budget"
    _report(1, "zero-potential exactness")


def test_criterion_02_aubry_crossing():
    models = [
        (circle_model(1.0, 0.5), CIRCLE, True),
        (circle_model(2.0, 0.5, spring="quartic"), CIRCLE, False),
        (torus_model(1.0, 1.0, 0.0), EnvPoint.torus(0.1, 0.3), True),
        (torus_model(1.0, 2.0, 0.3, spring="quartic"), EnvPoint.torus(0.0, 0.0), False),
        (sturm_model(FIB, 0.5, 1.0, PHI), EnvPoint.quasicrystal(FIB), True),
    ]
    rng = np.random.default_rng(2024)
    for model, env, quadratic in models:
        for _ in range(10_000):
            x0, x1 = rng.uniform(-3.0, 3.0, size=2)
            y0 = x0 + rng.uniform(0.02, 2.0)
            y1 = x1 - rng.uniform(0.02, 2.0)
            g = crossing_gain(model, env, x0, x1, y0, y1)
            assert g > 0.0
            if quadratic:
                assert g == pytest.approx(abs((y0 - x0) * (y1 - x1)), abs=1e-12)
    _report(2, "Aubry crossing gains")


def test_criterion_03_monotone_reduction_oracle():
    m = circle_model(1.0, 0.3)
    grid = [0.0, 0.5, 1.0, 1.5, 2.0]
    checked = 0
    for n in (2, 3, 4):
        for xs in itertools.product(grid, repeat=n + 1):
            if xs[0] == xs[-1]:
                continue  # the repair contract requires distinct endpoints
            ch = make_chain(m, CIRCLE, xs)
            rr = repair_loop(m, CIRCLE, ch)
            assert rr.energy <= ch.energy + 1e-12
            assert rr.energy == pytest.approx(brute_force_repair(m, CIRCLE, xs), abs=1e-12)
            checked += 1
    assert checked > 2500
    _report(3, f"monotone reduction vs brute force on {checked} chains")


def test_criterion_04_mane_dp_vs_brute_force():
    t0 = time.perf_counter()
    for K in (0.0, 1.0):
        m = circle_model(K, 0.5)
        table = mane_table(m, CIRCLE, 0.0, 2.0, 0.5)
        for sign in (1, -1):
            nodes = sign * 0.5 * np.arange(5)
            for j in range(1, 5):
                expect = brute_force_phi(m, CIRCLE, nodes, j, 0.0, 6)
                # targets k h for k = -4..4, so t = nodes[j] sits at index 4 + sign j
                assert table.targets[4 + sign * j] == nodes[j]
                assert table.phi[4 + sign * j] == pytest.approx(expect, abs=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s over the 10s budget"
    _report(4, "Mane DP equals exhaustive monotone enumeration")


def test_criterion_05_cocycle_suite():
    m = circle_model(1.0, 0.5)
    h = 0.05
    est = ground_energy(m, CIRCLE, [4, 8, 16, 32], GridSpec(h=h))
    table = mane_table(m, CIRCLE, est.lower_bound, 2.0, h)
    d = cocycle_defects(m, table, samples=12, seed=0)
    assert d["subadd_max"] <= 10.0 * h * d["lip_bound"]
    assert d["one_step_max"] <= 1e-9
    assert d["lower_bound_max"] <= 1e-9
    assert np.isfinite(d["sublinearity_ratio"])
    _report(
        5,
        f"cocycle suite (subadd {d['subadd_max']:.2e}, ratio {d['sublinearity_ratio']:.3f})",
    )


def test_criterion_06_lp_duality():
    t0 = time.perf_counter()
    gaps = {}
    for K in (0.0, 1.0):
        m = circle_model(K, 0.5)
        est = ground_energy(m, CIRCLE, [4, 8, 16, 32], GridSpec(h=0.05))
        sol32 = solve(discretize_circle(m, 32, 2.0))
        p32 = sol32.primal
        assert abs(p32 - sol32.dual) <= 1e-6
        for N in (8, 16):
            lp_small = discretize_circle(m, N, 2.0)
            p_small = solve(lp_small).primal
            assert p_small == pytest.approx(min_mean_cycle(N, lp_edges(lp_small)), abs=1e-9)
        p64 = solve(discretize_circle(m, 64, 2.0)).primal
        assert abs(p32 - est.extrapolated) <= 2e-2
        assert abs(p64 - est.extrapolated) <= abs(p32 - est.extrapolated) + 1e-12
        gaps[K] = abs(p32 - est.extrapolated)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s over the 30s budget"
    _report(6, f"LP duality (chain gaps at N=32: {gaps[0.0]:.2e}, {gaps[1.0]:.2e})")


def test_criterion_07_torus_degenerate_mather_point():
    m = torus_model(1.0, 1.0, 0.0)
    env = EnvPoint.torus(0.0, 0.0)
    est = ground_energy(m, env, [4, 8, 16], GridSpec(h=0.05))
    assert abs(est.lower_bound) <= 1e-6
    assert abs(est.extrapolated) <= 1e-6
    rep = calibrate_window(m, env, est.lower_bound, GridSpec(h=0.05, N_outer=32, W=8))
    assert rep.max_defect <= 1e-6
    _report(7, "torus Mather point and constant-chain calibration")


def test_criterion_08_quasicrystal_structure():
    t0 = time.perf_counter()
    m = sturm_model(FIB, 0.5, 1.0, PHI)
    env = EnvPoint.quasicrystal(FIB)
    grid = GridSpec(h=0.08)
    R_cap = grid.jump_cap(m)
    est = ground_energy(m, env, [16, 32, 64], grid)
    rep = rotation_number(m, est)
    assert not rep.degenerate
    rots = [r for _, r in rep.values]
    assert all(r > 0 for r in rots)
    for a, b in itertools.combinations(rots, 2):
        assert abs(a - b) <= 5e-2
    xs64 = est.positions[-1]
    jumps = np.diff(xs64)
    assert np.all(jumps > 0)
    assert float(np.max(jumps)) <= R_cap
    chain = make_chain(m, env, xs64)
    R = float(FIB.inv_floor() + 1)
    sec = cylinder_at(env, float(xs64[len(xs64) // 2]), R)
    counts, _ = equidistribution_counts(chain, env, sec, R)
    assert counts.size >= 3
    assert counts.max() - counts.min() <= 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.2f}s over the 2min budget"
    _report(
        8,
        f"quasicrystal structure (rotations {rots}, counts {sorted(set(counts.tolist()))})",
    )


def test_criterion_09_tower_algebra():
    from fklab import induce_tower, level0_tower, tower_measure_residual

    t0 = level0_tower(FIB, 1e5)
    t1, m01 = induce_tower(t0)
    t2, m12 = induce_tower(t1)
    assert np.array_equal(m01.T.astype(float) @ t0.heights, t1.heights)
    assert np.array_equal(m12.T.astype(float) @ t1.heights, t2.heights)
    assert tower_measure_residual(t0, t1, m01) <= 1e-3
    assert tower_measure_residual(t1, t2, m12) <= 1e-3
    N = 1_000_000
    count = int(np.sum(np.asarray(FIB.membership_range(1, N))))
    assert count == FIB.floor_mul(N)
    _report(9, f"tower algebra (count law at N=1e6: {count})")


_DET_CONFIGS = {
    "ground-energy": (
        "[environment]\nvariant = circle\nphase = 0.0\n"
        "[lagrangian]\nspring = quadratic\nlambda = 0.5\nk = 1.0\n"
        "[grid]\nh = 0.05\nn_list = 4,8,16\n"
    ),
    "mane": (
        "[environment]\nvariant = circle\nphase = 0.0\n"
        "[lagrangian]\nspring = quadratic\nlambda = 0.5\nk = 1.0\n"
        "[grid]\nh = 0.05\nx = 2.0\nn_max = 120\nn_list = 4,8,16\n"
    ),
    "calibrate": (
        "[environment]\nvariant = torus\nw1 = 0.0\nw2 = 0.0\n"
        "[lagrangian]\nspring = quadratic\nlambda = 0.0\nk1 = 1.0\nk2 = 1.0\n"
        "[grid]\nh = 0.05\nn_outer = 32\nw = 8\nn_list = 4,8,16\n"
    ),
    "tower": (
        "[environment]\nvariant = quasicrystal\nalpha = (-1+1√5)/2\n"
        "[lagrangian]\nspring = quadratic\nlambda = 1.618\na0 = 0.5\na1 = 1.0\n"
    ),
    "lp": (
        "[environment]\nvariant = circle\nphase = 0.0\n"
        "[lagrangian]\nspring = quadratic\nlambda = 0.5\nk = 1.0\n"
        "[lp]\nn = 32\nt_max = 2.0\n"
    ),
    "env-report": (
        "[environment]\nvariant = quasicrystal\nalpha = (-1+1√5)/2\nseeds = 3\n"
        "[lagrangian]\nspring = quadratic\nlambda = 1.618\na0 = 0.5\na1 = 1.0\n"
    ),
}


def test_criterion_10_cli_determinism(tmp_path):
    for command, text in _DET_CONFIGS.items():
        cfg = tmp_path / f"{command}.ini"
        cfg.write_text(text, encoding="utf-8")
        snap = {}
        for run in (1, 2):
            out = tmp_path / f"{command}-{run}"
            code = cli_main(
                [command, "--config", str(cfg), "--out", str(out), "--seed", "17"]
            )
            assert code == 0, f"{command} failed"
            snap[run] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert snap[1].keys() == snap[2].keys()
        for name in snap[1]:
            assert snap[1][name] == snap[2][name], f"{command}/{name} not byte-identical"
    _report(10, "CLI determinism across reruns")
