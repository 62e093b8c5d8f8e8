import time

import numpy as np
import pytest

from fklab import (
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
    solve,
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
        sol = solve(lp)
        assert sol.primal == pytest.approx(0.0, abs=1e-12)
        for k in sol.jumps:
            assert k == 8  # all support jumps are t = 1

    def test_value_above_min_cost(self):
        m = circle_model(1.0, 0.5)
        lp = discretize_circle(m, 16, 2.0)
        value = solve(lp).primal
        assert value >= float(lp.cost.min()) - 1e-12

    def test_measure_invariants(self):
        m = circle_model(1.0, 0.5)
        lp = discretize_circle(m, 16, 2.0)
        sol = solve(lp)
        # the optimum is uniform on the cycle: weight 1/L on each of its L arcs
        w = np.full(sol.nodes.size, 1.0 / sol.nodes.size)
        assert w.min() >= -1e-12
        assert w.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.diff(sol.nodes) > 0) and sol.jumps.shape == sol.nodes.shape

    @pytest.mark.parametrize("K", [0.0, 1.0])
    def test_min_mean_cycle_oracle(self, K):
        for N in (8, 16, 56):
            m = circle_model(K, 0.5)
            lp = discretize_circle(m, N, 2.0)
            value = solve(lp).primal
            assert value == pytest.approx(min_mean_cycle(N, lp_edges(lp)), abs=1e-9)

    @pytest.mark.parametrize("K, lam", [(0.5, 0.3), (1.0, 0.618), (2.5, 0.618), (4.0, 0.618)])
    def test_cycle_closes_at_the_oracle_mean(self, K, lam):
        # every case of this matrix has an optimal cycle of 3 to 13 arcs
        for N in (8, 12, 16):
            lp = discretize_circle(circle_model(K, lam), N, 2.0)
            sol = solve(lp)
            assert sol.nodes.size >= 3
            heads = (sol.nodes + sol.jumps) % N
            assert np.array_equal(np.sort(heads), sol.nodes)
            assert abs(sol.primal - min_mean_cycle(N, lp_edges(lp))) <= 1e-9


class TestDual:
    def test_zero_potential(self):
        m = circle_model(0.0, 1.0)
        lp = discretize_circle(m, 8, 2.0)
        sol = solve(lp)
        assert sol.dual == pytest.approx(0.0, abs=1e-9)
        # u == 0 is itself dual feasible at value 0 for this instance
        assert float(lp.cost.min()) >= 0.0 - 1e-15

    def test_weak_and_strong_duality(self):
        for K, lam in ((0.0, 1.0), (1.0, 0.5), (4.0, 0.3)):
            m = circle_model(K, lam)
            lp = discretize_circle(m, 16, 2.0)
            sol = solve(lp)
            assert sol.dual <= sol.primal + 1e-9
            assert abs(sol.primal - sol.dual) <= 1e-6

    def test_arc_inequality(self):
        m = circle_model(1.0, 0.5)
        lp = discretize_circle(m, 16, 2.0)
        sol = solve(lp)
        N, u, v = lp.N, sol.u, sol.dual
        for j in range(N):
            for mi, k in enumerate(lp.jumps):
                assert lp.cost[j, mi] + u[j] - u[(j + int(k)) % N] >= v - 1e-9

    def test_largest_grid_within_budget(self):
        # N = 512 at T_max = 2 is 1,049,088 arcs, just under the arc cap
        t0 = time.perf_counter()
        lp = discretize_circle(circle_model(1.0, 0.5), 512, 2.0)
        sol = solve(lp)
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"N=512 LP took {elapsed:.2f}s, over its 5s budget"
        assert abs(sol.primal - sol.dual) <= 1e-9
        heads = (np.arange(lp.N)[:, None] + lp.jumps[None, :]) % lp.N
        slack = lp.cost + sol.u[:, None] - sol.u[heads] - sol.dual
        assert float(slack.min()) >= -1e-9


class TestCertificates:
    """Each certificate ``solve`` checks raises NumericalFailure when broken."""

    def setup_method(self):
        self.lp = discretize_circle(circle_model(1.0, 0.5), 16, 2.0)
        self.howard = holonomic_lp._howard

    def fake_howard(self, monkeypatch, edit):
        """Run the real policy iteration, then let ``edit`` spoil its output."""

        def fake(cost, heads):
            return edit(*self.howard(cost, heads))

        monkeypatch.setattr(holonomic_lp, "_howard", fake)

    def test_flow_residual(self, monkeypatch):
        # a "cycle" of one node whose policy arc leaves it is not holonomic
        N = self.lp.N
        policy = np.full(N, (self.lp.jumps.size - 1) // 2 + 1)  # jump +1
        self.fake_howard(monkeypatch, lambda _p, _b, _c: (policy, np.zeros(N), [(0.0, [0])]))
        with pytest.raises(NumericalFailure, match="holonomy residual"):
            solve(self.lp)

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(holonomic_lp, "_MAX_ITER", 1)
        with pytest.raises(NumericalFailure, match="did not converge"):
            solve(self.lp)

    def test_dual_arc_violation(self, monkeypatch):
        def bend(policy, bias, cycles):
            bias = bias.copy()
            bias[3] += 1.0
            return policy, bias, cycles

        self.fake_howard(monkeypatch, bend)
        with pytest.raises(NumericalFailure, match="dual infeasible"):
            solve(self.lp)

    def test_primal_dual_gap(self, monkeypatch):
        def shift(policy, bias, cycles):
            return policy, bias, [(mean + 1e-6, cyc) for mean, cyc in cycles]

        self.fake_howard(monkeypatch, shift)
        with pytest.raises(NumericalFailure, match="primal-dual gap"):
            solve(self.lp)


class TestMatherSupport:
    def test_nonempty(self):
        m = circle_model(1.0, 0.5)
        lp = discretize_circle(m, 16, 2.0)
        assert solve(lp).nodes.size >= 1

    def test_strong_pinning_concentrates(self):
        m = circle_model(25.0, 0.0)
        lp = discretize_circle(m, 32, 1.0)
        sol = solve(lp)
        value, proj = sol.primal, sol.nodes.tolist()
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
        p32 = solve(lp32).primal
        assert p32 >= est.lower_bound - 2e-2
        assert abs(p32 - est.extrapolated) <= 2e-2
        lp64 = discretize_circle(m, 64, 2.0)
        p64 = solve(lp64).primal
        assert abs(p64 - est.extrapolated) <= abs(p32 - est.extrapolated) + 1e-12
