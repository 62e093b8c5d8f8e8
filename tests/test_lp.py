import time

import numpy as np
import pytest

from fklab import (
    DiscreteMeasure,
    DomainError,
    EnvPoint,
    GridSpec,
    NumericalFailure,
    ResourceError,
    circle_model,
    discretize_circle,
    energy,
    ground_energy,
    holonomic_lp,
    mather_support,
    solve_dual,
    solve_primal,
    support_projection,
    torus_model,
)

from oracles import lp_edges, min_mean_cycle

CIRCLE = EnvPoint.circle(0.0)


class TestDiscretize:
    def test_arc_count(self):
        m = circle_model(1.0, 0.5)
        lp = discretize_circle(m, 16, 2.0)
        assert lp.cost.size == 16 * (2 * 2 * 16 + 1)

    def test_self_loops_zero_cost(self):
        m = circle_model(0.0, 0.0)
        lp = discretize_circle(m, 8, 1.0)
        j0 = (lp.jumps.size - 1) // 2
        assert np.allclose(lp.cost[:, j0], 0.0, atol=1e-15)

    def test_costs_match_energy(self):
        m = circle_model(1.0, 0.5)
        lp = discretize_circle(m, 32, 2.0)
        rng = np.random.default_rng(0)
        for _ in range(100):
            j = int(rng.integers(0, 32))
            mi = int(rng.integers(0, lp.jumps.size))
            t = lp.jumps[mi] / 32
            assert lp.cost[j, mi] == pytest.approx(
                energy(m, EnvPoint.circle(j / 32), 0.0, t), abs=1e-12
            )

    def test_guards(self):
        m = circle_model(1.0, 0.5)
        with pytest.raises(DomainError):
            discretize_circle(m, 4, 2.0)
        with pytest.raises(DomainError):
            discretize_circle(m, 16, 1.0)
        with pytest.raises(ResourceError):
            discretize_circle(m, 512, 8.0)
        with pytest.raises(DomainError):
            discretize_circle(torus_model(1.0, 1.0, 0.0), 16, 2.0)


class TestPrimal:
    def test_zero_potential_unit_drift(self):
        m = circle_model(0.0, 1.0)
        lp = discretize_circle(m, 8, 2.0)
        measure, value = solve_primal(lp)
        assert value == pytest.approx(0.0, abs=1e-12)
        for j, k in mather_support(measure):
            assert k == 8  # all support jumps are t = 1

    def test_value_above_min_cost(self):
        m = circle_model(1.0, 0.5)
        lp = discretize_circle(m, 16, 2.0)
        _, value = solve_primal(lp)
        assert value >= float(lp.cost.min()) - 1e-12

    def test_measure_invariants(self):
        m = circle_model(1.0, 0.5)
        lp = discretize_circle(m, 16, 2.0)
        measure, _ = solve_primal(lp)
        w = measure.weights
        assert w.min() >= -1e-12
        assert w.sum() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("K", [0.0, 1.0])
    def test_min_mean_cycle_oracle(self, K):
        for N in (8, 16, 56):
            m = circle_model(K, 0.5)
            lp = discretize_circle(m, N, 2.0)
            _, value = solve_primal(lp)
            assert value == pytest.approx(min_mean_cycle(N, lp_edges(lp)), abs=1e-9)


class TestDual:
    def test_zero_potential(self):
        m = circle_model(0.0, 1.0)
        lp = discretize_circle(m, 8, 2.0)
        measure, value = solve_primal(lp)
        dual = solve_dual(lp, measure)
        assert dual.value == pytest.approx(0.0, abs=1e-9)
        # u == 0 is itself dual feasible at value 0 for this instance
        assert float(lp.cost.min()) >= 0.0 - 1e-15

    def test_weak_and_strong_duality(self):
        for K, lam in ((0.0, 1.0), (1.0, 0.5), (4.0, 0.3)):
            m = circle_model(K, lam)
            lp = discretize_circle(m, 16, 2.0)
            measure, primal = solve_primal(lp)
            dual = solve_dual(lp, measure)
            assert dual.value <= primal + 1e-9
            assert abs(primal - dual.value) <= 1e-6

    def test_arc_inequality(self):
        m = circle_model(1.0, 0.5)
        lp = discretize_circle(m, 16, 2.0)
        measure, _ = solve_primal(lp)
        dual = solve_dual(lp, measure)
        N, u, v = lp.N, dual.u, dual.value
        for j in range(N):
            for mi, k in enumerate(lp.jumps):
                assert lp.cost[j, mi] + u[j] - u[(j + int(k)) % N] >= v - 1e-9

    def test_largest_grid_within_budget(self):
        # N = 512 at T_max = 2 is 1,049,088 arcs, just under the arc cap
        t0 = time.perf_counter()
        lp = discretize_circle(circle_model(1.0, 0.5), 512, 2.0)
        measure, primal = solve_primal(lp)
        dual = solve_dual(lp, measure)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"N=512 LP took {elapsed:.2f}s, over its 5s budget"
        assert abs(primal - dual.value) <= 1e-9
        heads = (np.arange(lp.N)[:, None] + lp.jumps[None, :]) % lp.N
        slack = lp.cost + dual.u[:, None] - dual.u[heads] - dual.value
        assert float(slack.min()) >= -1e-9


class TestCertificates:
    """Each certificate the solvers check raises NumericalFailure when broken."""

    def setup_method(self):
        self.lp = discretize_circle(circle_model(1.0, 0.5), 16, 2.0)
        self.measure, self.primal = solve_primal(self.lp)

    def test_flow_residual(self, monkeypatch):
        # a "cycle" of one node whose policy arc leaves it is not holonomic
        N = self.lp.N
        policy = np.full(N, (self.lp.jumps.size - 1) // 2 + 1)  # jump +1

        def fake_howard(cost, heads):
            return policy, np.zeros(N), [(0.0, [0])]

        monkeypatch.setattr(holonomic_lp, "_howard", fake_howard)
        with pytest.raises(NumericalFailure, match="holonomy residual"):
            solve_primal(self.lp)

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(holonomic_lp, "_MAX_ITER", 1)
        with pytest.raises(NumericalFailure, match="did not converge"):
            solve_primal(self.lp)

    def test_dual_arc_violation(self):
        bias = self.measure.bias.copy()
        bias[3] += 1.0
        bent = DiscreteMeasure(weights=self.measure.weights, bias=bias, value=self.primal)
        with pytest.raises(NumericalFailure, match="dual infeasible"):
            solve_dual(self.lp, bent)

    def test_primal_dual_gap(self):
        off = DiscreteMeasure(
            weights=self.measure.weights, bias=self.measure.bias, value=self.primal + 1e-6
        )
        with pytest.raises(NumericalFailure, match="gap"):
            solve_dual(self.lp, off)


class TestMatherSupport:
    def test_nonempty(self):
        m = circle_model(1.0, 0.5)
        lp = discretize_circle(m, 16, 2.0)
        measure, _ = solve_primal(lp)
        assert len(mather_support(measure)) >= 1

    def test_strong_pinning_concentrates(self):
        m = circle_model(25.0, 0.0)
        lp = discretize_circle(m, 32, 1.0)
        measure, value = solve_primal(lp)
        proj = support_projection(mather_support(measure))
        # direct minimization of the discrete Lagrangian over the grid
        jstar, mstar = np.unravel_index(np.argmin(lp.cost), lp.cost.shape)
        assert value == pytest.approx(float(lp.cost.min()), abs=1e-9)
        assert proj == [int(jstar)]
        assert int(lp.jumps[mstar]) == 0


class TestChainConsistency:
    def test_primal_brackets_chain_estimate(self):
        m = circle_model(1.0, 0.5)
        est = ground_energy(m, CIRCLE, [4, 8, 16, 32], GridSpec(h=0.05))
        lp32 = discretize_circle(m, 32, 2.0)
        _, p32 = solve_primal(lp32)
        assert p32 >= est.lower_bound - 2e-2
        assert abs(p32 - est.extrapolated) <= 2e-2
        lp64 = discretize_circle(m, 64, 2.0)
        _, p64 = solve_primal(lp64)
        assert abs(p64 - est.extrapolated) <= abs(p32 - est.extrapolated) + 1e-12
