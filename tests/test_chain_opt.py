import math

import numpy as np
import pytest

from fklab import (
    AlphaValue,
    DomainError,
    EnvPoint,
    GridSpec,
    NumericalFailure,
    aubry_exchange_repair,
    chain_energy,
    circle_model,
    crossing_gain,
    energy,
    ground_energy,
    make_chain,
    minimize_fixed,
    minimize_free,
    structure_report,
    sturm_model,
    torus_model,
    translate_env,
)

from fklab import chain_opt
from fklab.chain_opt import DEFAULT_SWEEPS
from fklab.lagrangians import potential_d1, spring_d1

from oracles import brute_force_fixed_chain, brute_force_free_chain, brute_force_repair

CIRCLE = EnvPoint.circle(0.0)
FIB = AlphaValue.fibonacci()
PHI = (1.0 + math.sqrt(5.0)) / 2.0


class TestMinimizeFixed:
    def test_zero_potential_equally_spaced(self):
        m = circle_model(0.0, 1.0)
        res = minimize_fixed(m, CIRCLE, 0.0, 5.0, 5, h=0.05)
        assert res.chain.positions == pytest.approx(np.arange(6.0), abs=1e-9)
        assert res.energy == pytest.approx(0.0, abs=1e-12)

    def test_pinched_endpoints_symmetric(self):
        m = circle_model(0.0, 1.0)
        res = minimize_fixed(m, CIRCLE, 0.0, 0.0, 2, h=0.05)
        assert res.chain.positions[1] == pytest.approx(0.0, abs=1e-9)
        assert res.energy == pytest.approx(1.0, abs=1e-12)

    def test_small_instance_equals_grid_brute_force(self):
        m = circle_model(1.0, 0.3)
        h = 0.25
        grid = np.arange(-13, 14) * h  # the window the solver uses, R_max = 3.3
        best, _ = brute_force_fixed_chain(m, CIRCLE, grid[np.abs(grid) <= 1.0 + 3.3], 0.0, 1.0, 3)
        res = minimize_fixed(m, CIRCLE, 0.0, 1.0, 3, h=h)
        assert res.dp_energy == pytest.approx(best, abs=1e-12)

    def test_endpoint_distance_guard(self):
        m = circle_model(0.0, 0.0)
        with pytest.raises(DomainError):
            minimize_fixed(m, CIRCLE, 0.0, 100.0, 2, h=0.1)

    def test_nonconvergence_carries_best_iterate(self):
        m = circle_model(1.0, 0.5)
        with pytest.raises(NumericalFailure) as exc_info:
            minimize_fixed(m, CIRCLE, 0.0, 8.0, 16, h=0.05, max_sweeps=0, newton_polish=False)
        assert exc_info.value.best is not None
        assert len(exc_info.value.best.positions) == 17


class TestMinimizeFree:
    def test_zero_potential(self):
        m = circle_model(0.0, 0.7)
        res = minimize_free(m, CIRCLE, 12, h=0.035)
        assert res.energy == pytest.approx(0.0, abs=1e-12)
        assert np.diff(res.chain.positions) == pytest.approx(np.full(12, 0.7), abs=1e-9)

    def test_small_instance_equals_brute_force(self):
        # align the oracle with the solver grid: window (-2, 2), step 0.25
        m = circle_model(1.0, 0.4)
        h = 0.25
        grid = -2.0 + h * np.arange(17)
        best = brute_force_free_chain(m, CIRCLE, grid, 2)
        res = minimize_free(m, CIRCLE, 2, window=(-2.0, 2.0), h=h, R_max=2.0)
        assert res.dp_energy == pytest.approx(best, abs=1e-12)

    def test_dp_dominance(self):
        m = circle_model(1.0, 0.5)
        res = minimize_free(m, CIRCLE, 16, h=0.05)
        assert res.energy <= res.dp_energy + 1e-12

    def test_negative_drift(self):
        m = circle_model(0.0, -0.5)
        res = minimize_free(m, CIRCLE, 10, h=0.025)
        assert res.energy == pytest.approx(0.0, abs=1e-12)
        assert np.diff(res.chain.positions) == pytest.approx(np.full(10, -0.5), abs=1e-9)

    def test_per_site_nondecreasing(self):
        m = circle_model(1.0, 0.5)
        vals = [minimize_free(m, CIRCLE, n, h=0.05).energy / n for n in (4, 8, 16, 32)]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-9


def chain_gradient(model, env, xs):
    """dE/dx_k of E = sum_k W(x_{k+1} - x_k) + V(x_k), from the closed-form derivatives."""
    dw = np.atleast_1d(spring_d1(model, np.diff(xs)))
    g = np.zeros(xs.size)
    g[:-1] += np.atleast_1d(potential_d1(model, env, xs[:-1])) - dw
    g[1:] += dw
    return g


REFINE_CASES = [
    (circle_model(1.0, 0.5), EnvPoint.circle(0.3)),
    (torus_model(1.0, 0.7, 0.4), EnvPoint.torus(0.1, 0.6)),
    (sturm_model(FIB, 0.5, 1.0, PHI), translate_env(EnvPoint.quasicrystal(FIB), 0.375)),
]
REFINE_IDS = ["circle", "torus", "quasicrystal"]


class TestRefinement:
    """The red-black sweeps end at a stationary chain no worse than the DP chain."""

    @pytest.mark.parametrize("model,env", REFINE_CASES, ids=REFINE_IDS)
    @pytest.mark.parametrize("n", [2, 7, 24])
    def test_fixed_stationary(self, model, env, n):
        res = minimize_fixed(model, env, 0.25, 0.25 + n * model.lam + 0.1, n, h=0.05)
        xs = res.chain.positions
        assert res.converged and not res.polish_used
        assert np.max(np.abs(chain_gradient(model, env, xs)[1:-1])) <= 1e-7
        assert res.energy <= res.dp_energy + 1e-12

    @pytest.mark.parametrize("model,env", REFINE_CASES, ids=REFINE_IDS)
    @pytest.mark.parametrize("n", [1, 8, 31])
    def test_free_stationary(self, model, env, n):
        res = minimize_free(model, env, n, h=0.05)
        assert res.converged and not res.polish_used
        assert np.max(np.abs(chain_gradient(model, env, res.chain.positions))) <= 1e-7
        assert res.energy <= res.dp_energy + 1e-12

    def test_concave_sites_take_the_bracketed_search(self, monkeypatch):
        # lam = 1/2 from 0 puts every odd site on a maximum of the K = 8 cosine,
        # where the site energy is concave and Newton has no descent step
        m = circle_model(8.0, 0.5)
        start = np.linspace(0.0, 4.0, 9)
        searched = []
        search = chain_opt._bracket_search

        def spy(*args):
            searched.append(args[1].size)
            return search(*args)

        monkeypatch.setattr(chain_opt, "_bracket_search", spy)
        xs, _, converged = chain_opt._sweep_refine(m, CIRCLE, start, 0.05, True, DEFAULT_SWEEPS)
        assert searched and converged
        assert np.max(np.abs(chain_gradient(m, CIRCLE, xs)[1:-1])) <= 1e-7
        assert chain_energy(m, CIRCLE, xs) < chain_energy(m, CIRCLE, start)

    def test_soft_chain_reaches_the_polish(self):
        # K = 0.1 leaves soft modes that use up the sweep budget; the polish finishes
        m = circle_model(0.1, 0.5)
        res = minimize_free(m, CIRCLE, 64, h=0.05)
        assert res.sweeps == DEFAULT_SWEEPS
        assert res.polish_used and res.converged
        assert np.max(np.abs(chain_gradient(m, CIRCLE, res.chain.positions))) <= 1e-7
        assert res.energy <= res.dp_energy + 1e-12


class TestGroundEnergy:
    def test_zero_potential_estimate(self):
        for lam in (0.0, 0.7, 1.0):
            m = circle_model(0.0, lam)
            est = ground_energy(m, CIRCLE, [4, 8, 16], GridSpec(h=0.05))
            assert est.extrapolated == pytest.approx(0.0, abs=1e-8)

    def test_apriori_sandwich(self):
        m = circle_model(1.0, 0.5)
        est = ground_energy(m, CIRCLE, [4, 8, 16], GridSpec(h=0.05))
        assert est.inf_pair_sampled <= est.extrapolated + 1e-8
        assert est.extrapolated <= est.inf_diag_sampled + 1e-8
        assert est.lower_bound <= est.extrapolated

    def test_fekete_superadditivity(self):
        m = circle_model(1.0, 0.5)
        est = ground_energy(m, CIRCLE, [4, 8, 12, 16, 24, 32], GridSpec(h=0.05))
        mv = dict(zip(est.n_list, est.m_values))
        for a in est.n_list:
            for b in est.n_list:
                if a + b in mv:
                    assert mv[a + b] >= mv[a] + mv[b] - 1e-9

    def test_refinement_self_consistency(self):
        m = circle_model(1.0, 0.5)
        e1 = ground_energy(m, CIRCLE, [4, 8, 16], GridSpec(h=0.05)).extrapolated
        e2 = ground_energy(m, CIRCLE, [4, 8, 16], GridSpec(h=0.025)).extrapolated
        assert abs(e1 - e2) <= 2e-3

    def test_environment_independence(self):
        m = circle_model(1.0, 0.5)
        rng = np.random.default_rng(4)
        vals = []
        for _ in range(5):
            env = EnvPoint.circle(rng.uniform(0, 1))
            vals.append(ground_energy(m, env, [4, 8, 16], GridSpec(h=0.05)).extrapolated)
        assert max(vals) - min(vals) <= 3 * 2e-3


class TestRepair:
    M = circle_model(1.0, 0.3)

    def test_monotone_unchanged(self):
        ch = make_chain(self.M, CIRCLE, [0.0, 0.4, 1.1, 1.5])
        rr = aubry_exchange_repair(self.M, CIRCLE, ch)
        assert rr.energy == ch.energy
        assert rr.kept.tolist() == [0, 1, 2, 3]

    def test_zigzag_improves_and_matches_brute_force(self):
        xs = [0.0, 1.0, 0.2, 1.2]
        ch = make_chain(self.M, CIRCLE, xs)
        rr = aubry_exchange_repair(self.M, CIRCLE, ch)
        assert rr.energy < ch.energy
        assert rr.energy == pytest.approx(brute_force_repair(self.M, CIRCLE, xs), abs=1e-12)

    def test_never_worse_random(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            xs = rng.uniform(-2, 2, size=n + 1)
            if abs(xs[-1] - xs[0]) < 1e-9:
                continue
            ch = make_chain(self.M, CIRCLE, xs)
            rr = aubry_exchange_repair(self.M, CIRCLE, ch)
            assert rr.energy <= ch.energy + 1e-12
            d = np.diff(rr.chain.positions)
            assert np.all(d > 0) or np.all(d < 0)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            xs = rng.uniform(-2, 2, size=n + 1)
            if abs(xs[-1] - xs[0]) < 1e-9:
                continue
            rr = aubry_exchange_repair(self.M, CIRCLE, make_chain(self.M, CIRCLE, xs))
            assert rr.energy == pytest.approx(brute_force_repair(self.M, CIRCLE, xs), abs=1e-12)

    def test_equal_endpoints_rejected(self):
        ch = make_chain(self.M, CIRCLE, [0.0, 1.0, 0.0])
        with pytest.raises(DomainError):
            aubry_exchange_repair(self.M, CIRCLE, ch)


class TestCrossingGain:
    def test_quadratic_closed_form(self):
        m = circle_model(1.0, 0.5)
        assert crossing_gain(m, CIRCLE, 0.0, 1.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_requires_crossing(self):
        m = circle_model(1.0, 0.5)
        with pytest.raises(DomainError):
            crossing_gain(m, CIRCLE, 0.0, 0.0, 1.0, 1.0)

    def test_positive_on_random_crossings(self):
        models = [
            (circle_model(1.0, 0.5), CIRCLE),
            (circle_model(2.0, 0.5, spring="quartic"), CIRCLE),
            (torus_model(1.0, 1.0, 0.0), EnvPoint.torus(0.1, 0.2)),
            (sturm_model(FIB, 0.5, 1.0, PHI), EnvPoint.quasicrystal(FIB)),
        ]
        rng = np.random.default_rng(12)
        for m, env in models:
            for _ in range(2000):
                x0, x1 = rng.uniform(-3, 3, size=2)
                y0 = x0 + rng.uniform(0.05, 2.0)
                y1 = x1 - rng.uniform(0.05, 2.0)
                g = crossing_gain(m, env, x0, x1, y0, y1)
                assert g > 0.0


class TestStructureReport:
    def test_equally_spaced(self):
        m = circle_model(0.0, 1.0)
        res = minimize_free(m, CIRCLE, 8, h=0.05)
        rep = structure_report(res.chain, m, CIRCLE, 4.0)
        assert rep.strictly_monotone
        assert rep.max_jump == pytest.approx(1.0, abs=1e-9)
        assert rep.defect <= 1e-10

    def test_minimizer_monotone_with_bounded_jumps(self):
        m = circle_model(1.0, 0.5)
        res = minimize_free(m, CIRCLE, 32, h=0.05)
        rep = structure_report(res.chain, m, CIRCLE, 3.5)
        assert rep.strictly_monotone
        assert rep.within_R
        assert rep.defect <= 1e-8

    def test_perturbed_chain_has_defect(self):
        m = circle_model(1.0, 0.5)
        res = minimize_free(m, CIRCLE, 16, h=0.05)
        xs = res.chain.positions.copy()
        xs[8] += 0.1
        rep = structure_report(make_chain(m, CIRCLE, xs), m, CIRCLE, 3.5)
        assert rep.defect > 1e-6


class TestChainType:
    def test_energy_cache_consistent(self):
        m = circle_model(1.0, 0.5)
        rng = np.random.default_rng(2)
        for _ in range(50):
            xs = rng.uniform(-3, 3, size=6)
            ch = make_chain(m, CIRCLE, xs)
            assert ch.energy == pytest.approx(chain_energy(m, CIRCLE, xs), abs=1e-10)

    def test_positions_frozen(self):
        ch = make_chain(circle_model(0.0, 0.0), CIRCLE, [0.0, 1.0])
        with pytest.raises(ValueError):
            ch.positions[0] = 5.0


class TestTorusDegenerate:
    def test_ground_energy_zero(self):
        m = torus_model(1.0, 1.0, 0.0)
        env = EnvPoint.torus(0.0, 0.0)
        est = ground_energy(m, env, [4, 8, 16], GridSpec(h=0.05))
        assert est.extrapolated == pytest.approx(0.0, abs=1e-6)
        res = minimize_free(m, env, 8, h=0.05)
        assert res.chain.positions == pytest.approx(np.zeros(9), abs=1e-6)
