import math

import numpy as np
import pytest

from fklab import (
    AlphaValue,
    DomainError,
    EnvPoint,
    GridSpec,
    InsufficientDataError,
    ResourceError,
    calibrate_window,
    circle_model,
    cocycle_defects,
    energy,
    grid_sensitivity,
    ground_energy,
    mane_table,
    minimize_free,
    rotation_number,
    sturm_model,
    torus_model,
)
from fklab import _kernels, mane
from fklab.environments import translate_env

from oracles import (
    FIB,
    brute_force_phi,
    cylinder_at,
    equidistribution_counts,
    make_chain,
    subadditivity_loop,
)

CIRCLE = EnvPoint.circle(0.0)
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def phi_closed_form_zero_potential(lam, t, n_cap=400):
    """min over n >= 1 of n * W(t/n) for W(s) = (s - lam)^2 / 2."""
    if t == 0.0:
        return 0.5 * lam * lam
    return min(n * 0.5 * (t / n - lam) ** 2 for n in range(1, n_cap + 1))


class TestManeTable:
    def test_zero_potential_closed_forms(self):
        m = circle_model(0.0, 1.0)
        t = mane_table(m, CIRCLE, 0.0, 2.0, 0.5)
        assert t.targets.tolist() == [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]
        assert t.phi[8] == pytest.approx(0.0, abs=1e-12)
        assert t.phi[5] == pytest.approx(0.125, abs=1e-12)
        assert t.phi[4] == pytest.approx(0.5, abs=1e-12)
        assert t.n_steps[8] == 2

    @pytest.mark.parametrize("K", [0.0, 1.0])
    def test_matches_exhaustive_enumeration(self, K):
        m = circle_model(K, 0.5)
        table = mane_table(m, CIRCLE, 0.0, 2.0, 0.5)
        for sign in (1, -1):
            nodes = sign * 0.5 * np.arange(5)
            for j in range(1, 5):
                expect = brute_force_phi(m, CIRCLE, nodes, j, 0.0, 6)
                assert table.targets[4 + sign * j] == nodes[j]
                assert table.phi[4 + sign * j] == pytest.approx(expect, abs=1e-12)

    def test_one_step_bound(self):
        m = circle_model(1.0, 0.5)
        t = mane_table(m, CIRCLE, 0.01, 2.0, 0.1)
        for tt, ph in zip(t.targets, t.phi):
            assert ph <= energy(m, CIRCLE, 0.0, float(tt)) - 0.01 + 1e-9

    def test_grid_sensitivity_bounded(self):
        m = circle_model(1.0, 0.5)
        rep = grid_sensitivity(m, mane_table(m, CIRCLE, 0.0, 2.0, 0.1))
        assert rep["max_change"] <= rep["bound_Ch"]

    def test_preconditions(self):
        m = circle_model(0.0, 0.0)
        with pytest.raises(DomainError):
            mane_table(m, CIRCLE, 0.0, 2.0, 0.0)
        with pytest.raises(DomainError):
            mane_table(m, CIRCLE, 0.0, -1.0, 0.5)
        with pytest.raises(DomainError):
            mane_table(m, CIRCLE, 0.0, 0.4, 0.5)  # X < h: no target besides t = 0

    def test_node_cap(self):
        # 2049 nodes per side is the largest DP; 2050 raises before allocating
        m = circle_model(0.0, 0.0)
        assert mane_table(m, CIRCLE, 0.0, 2048.0, 1.0).n_max == 2048
        with pytest.raises(ResourceError):
            mane_table(m, CIRCLE, 0.0, 2049.0, 1.0)

    def test_long_chains_are_not_capped(self):
        # with no potential and drift 0.1, Phi(0 -> 2) is reached only by 20
        # steps of 0.1: every chain of fewer steps costs more
        m = circle_model(0.0, 0.1)
        t = mane_table(m, CIRCLE, 0.0, 2.0, 0.1)
        j = int(np.argmin(np.abs(t.targets - 2.0)))
        assert t.n_steps[j] == 20
        assert t.phi[j] == pytest.approx(0.0, abs=1e-12)
        assert t.n_max == 20

    def test_nonzero_targets_skip_the_closed_form(self, monkeypatch):
        # E(0, 0) - Ebar serves only a target at 0, so without one it is never evaluated
        m = circle_model(1.0, 0.5)
        rel = np.array([-0.5, 0.25, 1.0])
        [want] = mane._phi_to(m, [(CIRCLE, rel)], 0.05, 0.01, steps=True)

        def no_energy(*args):
            raise AssertionError("energy evaluated")

        monkeypatch.setattr(mane, "energy", no_energy)
        [got] = mane._phi_to(m, [(CIRCLE, rel)], 0.05, 0.01, steps=True)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestStackedDPs:
    @pytest.mark.parametrize("case", ["circle", "quasicrystal"])
    def test_jobs_match_one_job_calls(self, case, monkeypatch):
        """One call over many jobs returns exactly what one call per job returns.

        The jobs have both signs, a zero-only target and unequal node counts.
        The one-job calls run every node set alone; the many-job call stacks
        them, several sets per kernel call over several calls.
        """
        if case == "circle":
            m, env, h = circle_model(1.0, 0.5), CIRCLE, 0.05
        else:
            m, env, h = sturm_model(FIB, 0.5, 1.0, PHI), EnvPoint.quasicrystal(FIB), 0.08
        rels = [
            np.array([-0.5, 0.25, 1.0]),
            np.array([0.0]),
            np.array([0.3, 0.0, -1.37, 2.2]),
            np.array([-2.0, -0.04]),
            np.array([0.61, 0.62, 0.0]),
            np.array([1.9]),
        ]
        jobs = [(translate_env(env, 0.37 * k), rel) for k, rel in enumerate(rels)]
        kernel = _kernels.phi_dp
        stacks = []

        def spy(cost, sizes, steps=False):
            stacks.append(len(sizes))
            return kernel(cost, sizes, steps)

        monkeypatch.setattr(_kernels, "phi_dp", spy)
        for steps in (False, True):
            monkeypatch.setattr(mane, "_BATCH_CELLS", 1)
            want = [mane._phi_to(m, [job], h, 0.01, steps)[0] for job in jobs]
            assert set(stacks) == {1}
            stacks.clear()
            monkeypatch.setattr(mane, "_BATCH_CELLS", 3 * 40**2)
            got = mane._phi_to(m, jobs, h, 0.01, steps)
            assert len(stacks) > 1 and max(stacks) > 1, stacks
            stacks.clear()
            assert len(got) == len(jobs)
            for (g_phi, g_steps), (w_phi, w_steps), (_, rel) in zip(got, want, jobs):
                assert g_phi.shape == rel.shape and g_phi.tobytes() == w_phi.tobytes()
                if steps:
                    assert np.array_equal(g_steps, w_steps)
                else:
                    assert g_steps is None and w_steps is None

    def test_calibration_stacks_stay_bounded(self, monkeypatch):
        """On the quasicrystal workload's window, no stack exceeds the cell bound."""
        kernel = _kernels.phi_dp
        shapes = []

        def spy(cost, sizes, steps=False):
            shapes.append((cost.shape, list(sizes), steps))
            return kernel(cost, sizes, steps)

        monkeypatch.setattr(_kernels, "phi_dp", spy)
        m = sturm_model(FIB, 0.5, 1.0, 1.618)
        grid = GridSpec(h=0.08, X=2.0, N_outer=64, W=8)
        calibrate_window(m, EnvPoint.quasicrystal(FIB), 0.0122, grid)
        assert sum(len(sizes) for _, sizes, _ in shapes) == 16  # one set per m
        assert len(shapes) < 16
        for (M, G, G2), sizes, steps in shapes:
            assert G == G2 == sizes[0] and len(sizes) == M and not steps
            assert M * G * G <= max(mane._BATCH_CELLS, G * G)

    def test_over_cap_set_is_refused_before_any_work(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(_kernels, "phi_dp", forbidden)
        monkeypatch.setattr(mane, "potential_values", forbidden)
        m = circle_model(0.0, 0.0)
        jobs = [(CIRCLE, np.array([1.0])), (CIRCLE, np.array([2049.0]))]
        with pytest.raises(ResourceError, match="2050 nodes"):
            mane._phi_to(m, jobs, 1.0, 0.0)


class TestCocycleDefects:
    def test_circle_suite(self):
        m = circle_model(1.0, 0.5)
        est = ground_energy(m, CIRCLE, [4, 8, 16], GridSpec(h=0.05))
        table = mane_table(m, CIRCLE, est.lower_bound, 2.0, 0.05)
        d = cocycle_defects(m, table, samples=12, seed=0)
        assert d["subadd_max"] <= 10.0 * 0.05 * d["lip_bound"]
        assert d["one_step_max"] <= 1e-9
        assert d["lower_bound_max"] <= 1e-9
        assert np.isfinite(d["sublinearity_ratio"])

    @pytest.mark.parametrize("case", ["circle", "quasicrystal"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_subadditivity_matches_shifted_tables(self, case, seed):
        # one DP toward t per pair gives exactly the full shifted table's entry
        if case == "circle":
            m, env, ebar, h = circle_model(1.0, 0.5), CIRCLE, 0.02, 0.1
        else:
            m, env, ebar, h = sturm_model(FIB, 0.5, 1.0, PHI), EnvPoint.quasicrystal(FIB), 0.05, 0.08
        table = mane_table(m, env, ebar, 2.0, h)
        d = cocycle_defects(m, table, samples=12, seed=seed)
        assert d["subadd_max"] == subadditivity_loop(m, table, 12, seed)

    @pytest.mark.parametrize(
        "m,env",
        [
            (circle_model(1.0, 0.5), CIRCLE),
            (circle_model(2.0, 0.5, spring="quartic"), CIRCLE),
            (torus_model(1.0, 2.0, 0.3), EnvPoint.torus(0.1, 0.7)),
            (sturm_model(FIB, 0.5, 1.0, PHI), EnvPoint.quasicrystal(FIB)),
        ],
        ids=["circle", "circle-quartic", "torus", "quasicrystal"],
    )
    def test_lipschitz_bound_holds_on_nearby_pairs(self, m, env):
        # E(x, x + t) moves by at most lip_bound (|dx| + |dt|) for |t| <= 2X
        X = 2.0
        lip = mane.lipschitz_bound(m, X)
        rng = np.random.default_rng(17)
        x = rng.uniform(-30.0, 30.0, size=4000)
        t = rng.uniform(-2.0 * X, 2.0 * X, size=x.size)
        dx = rng.uniform(-0.05, 0.05, size=x.size)
        dt = np.clip(t + rng.uniform(-0.05, 0.05, size=x.size), -2.0 * X, 2.0 * X) - t
        change = np.abs(energy(m, env, x + dx, x + dx + t + dt) - energy(m, env, x, x + t))
        assert np.all(change <= lip * (np.abs(dx) + np.abs(dt)) + 1e-12)

    def test_zero_potential_ratio_matches_closed_form(self):
        # the convex closed form makes the ratio computable independently;
        # negative displacements dominate because they fight the drift
        m = circle_model(0.0, 1.0)
        table = mane_table(m, CIRCLE, 0.0, 2.0, 0.25)
        d = cocycle_defects(m, table, samples=10, seed=0)
        expect = max(
            abs(phi_closed_form_zero_potential(1.0, float(t))) / (1.0 + abs(float(t)))
            for t in table.targets
        )
        assert d["sublinearity_ratio"] == pytest.approx(expect, abs=1e-9)


class TestCalibration:
    def test_zero_potential_window(self):
        m = circle_model(0.0, 1.0)
        rep = calibrate_window(m, CIRCLE, 0.0, GridSpec(h=0.05, N_outer=32, W=8))
        assert rep.max_defect <= 1e-6
        assert rep.rotation == pytest.approx(1.0, abs=1e-8)

    def test_torus_degenerate_point(self):
        m = torus_model(1.0, 1.0, 0.0)
        env = EnvPoint.torus(0.0, 0.0)
        est = ground_energy(m, env, [4, 8, 16], GridSpec(h=0.05))
        assert est.lower_bound == pytest.approx(0.0, abs=1e-6)
        rep = calibrate_window(m, env, est.lower_bound, GridSpec(h=0.05, N_outer=32, W=8))
        assert rep.max_defect <= 1e-6

    def test_defects_nonnegative(self):
        m = circle_model(1.0, 0.5)
        est = ground_energy(m, CIRCLE, [4, 8, 16], GridSpec(h=0.05))
        rep = calibrate_window(m, CIRCLE, est.lower_bound, GridSpec(h=0.05, N_outer=32, W=8))
        assert rep.defects[:, 2].min() >= -1e-8

    def test_defect_nonincreasing_with_outer_length(self):
        m = circle_model(1.0, 0.5)
        est = ground_energy(m, CIRCLE, [4, 8, 16], GridSpec(h=0.05))
        r32 = calibrate_window(m, CIRCLE, est.lower_bound, GridSpec(h=0.05, N_outer=32, W=8))
        r64 = calibrate_window(m, CIRCLE, est.lower_bound, GridSpec(h=0.05, N_outer=64, W=8))
        assert r64.max_defect <= r32.max_defect + 1e-12


class TestRotationNumber:
    def test_unit_drift(self):
        m = circle_model(0.0, 1.0)
        est = ground_energy(m, CIRCLE, [8, 16], GridSpec(h=0.05))
        rep = rotation_number(m, est)
        for _, r in rep.values:
            assert r == pytest.approx(1.0, abs=1e-8)
        assert rep.inf_diag == 0.5  # W(0) = lambda^2 / 2, exactly
        assert not rep.degenerate

    def test_circle_positive_and_cauchy(self):
        m = circle_model(1.0, 0.5)
        est = ground_energy(m, CIRCLE, [16, 32, 64], GridSpec(h=0.05))
        rep = rotation_number(m, est)
        rots = [r for _, r in rep.values]
        assert all(r > 0 for r in rots)
        assert max(rots) - min(rots) <= 5e-2

    def test_degenerate_flag(self):
        m = circle_model(0.0, 0.0)
        est = ground_energy(m, CIRCLE, [8, 16], GridSpec(h=0.05))
        rep = rotation_number(m, est)
        assert rep.degenerate
        assert est.positions[0] == pytest.approx(np.full(9, est.positions[0][0]), abs=1e-9)


class TestEquidistribution:
    def test_periodic_counts_equal(self):
        half = AlphaValue.rational(1, 2)
        env = EnvPoint.quasicrystal(half)
        m = sturm_model(half, 0.0, 0.0, 2.0)
        ch = make_chain(m, env, np.arange(0.0, 64.0, 2.0))
        sec = cylinder_at(env, 32.0, 3.0)
        counts, _ = equidistribution_counts(ch, env, sec, 3.0)
        assert counts.max() == counts.min()

    def test_fibonacci_minimizer_counts(self):
        m = sturm_model(FIB, 0.5, 1.0, PHI)
        env = EnvPoint.quasicrystal(FIB)
        res = minimize_free(m, env, 64, GridSpec(h=0.08))
        R = float(FIB.inv_floor() + 1)
        mid = res.positions[len(res.positions) // 2]
        sec = cylinder_at(env, float(mid), R)
        counts, _ = equidistribution_counts(res, env, sec, R)
        assert counts.size >= 3
        assert counts.max() - counts.min() <= 2

    def test_too_few_returns(self):
        env = EnvPoint.quasicrystal(FIB)
        m = sturm_model(FIB, 0.5, 1.0, PHI)
        ch = make_chain(m, env, [0.0, 1.0, 2.0])
        sec = cylinder_at(env, 1.0, 2.0)
        with pytest.raises(InsufficientDataError):
            equidistribution_counts(ch, env, sec, 2.0)

    def test_nonmonotone_rejected(self):
        env = EnvPoint.quasicrystal(FIB)
        m = sturm_model(FIB, 0.5, 1.0, PHI)
        ch = make_chain(m, env, [0.0, 2.0, 1.0])
        sec = cylinder_at(env, 1.0, 2.0)
        with pytest.raises(DomainError):
            equidistribution_counts(ch, env, sec, 2.0)
