import math

import numpy as np
import pytest

from fklab import (
    AlphaValue,
    DomainError,
    EnvPoint,
    GridSpec,
    NumericalFailure,
    ResourceError,
    chain_energy,
    circle_model,
    ground_energy,
    minimize_free,
    sturm_model,
    torus_model,
    translate_env,
)

from fklab import _kernels, chain_opt, lagrangians
from fklab.lagrangians import potential_derivs, spring_derivs

from oracles import (
    FIB,
    brute_force_free_chain,
    brute_force_repair,
    chain_structure_loop,
    crossing_gain,
    extrapolated_eager,
    make_chain,
    repair_loop,
)

CIRCLE = EnvPoint.circle(0.0)
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def solve_with_dp(monkeypatch, *args):
    """``minimize_free(*args)`` and the (positions, energy) of its grid DP chain, the
    chain its refinement starts from."""
    seen = []
    refine = chain_opt._refine

    def spy(model, env, xs, fixed_ends, e_cur):
        seen.append((xs.copy(), e_cur))
        return refine(model, env, xs, fixed_ends, e_cur)

    with monkeypatch.context() as mp:
        mp.setattr(chain_opt, "_refine", spy)
        res = minimize_free(*args)
    [dp] = seen
    return res, dp


class TestMinimizeFree:
    def test_zero_potential(self):
        m = circle_model(0.0, 0.7)
        res = minimize_free(m, CIRCLE, 12, GridSpec(h=0.035))
        assert res.energy == pytest.approx(0.0, abs=1e-12)
        assert np.diff(res.positions) == pytest.approx(np.full(12, 0.7), abs=1e-9)

    def test_small_instance_equals_brute_force(self):
        # the DP on the oracle's grid (-2, 2) of step 0.25, with jumps of 0 to 2
        m = circle_model(1.0, 0.4)
        h = 0.25
        grid = -2.0 + h * np.arange(17)
        best = brute_force_free_chain(m, CIRCLE, grid, 2)
        V = lagrangians.potential_values(m, CIRCLE, grid)
        Wd = lagrangians.spring_value(m, h * np.arange(9))
        dp = _kernels.chain_dp_backward_np(V, Wd, 2, 0, ())
        path = _kernels.chain_dp_path(dp, int(np.argmin(dp.layers[0])), 0)
        assert chain_energy(m, CIRCLE, grid[path]) == pytest.approx(best, abs=1e-12)

    def test_dp_dominance(self, monkeypatch):
        m = circle_model(1.0, 0.5)
        res, (_, dp_energy) = solve_with_dp(monkeypatch, m, CIRCLE, 16, GridSpec(h=0.05))
        assert res.energy <= dp_energy + 1e-12

    def test_negative_drift(self):
        m = circle_model(0.0, -0.5)
        res = minimize_free(m, CIRCLE, 10, GridSpec(h=0.025))
        assert res.energy == pytest.approx(0.0, abs=1e-12)
        assert np.diff(res.positions) == pytest.approx(np.full(10, -0.5), abs=1e-9)

    def test_per_site_nondecreasing(self):
        m, grid = circle_model(1.0, 0.5), GridSpec(h=0.05)
        vals = [minimize_free(m, CIRCLE, n, grid).energy / n for n in (4, 8, 16, 32)]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-9

    def test_nonconvergence_carries_best_iterate(self, monkeypatch):
        m = circle_model(1.0, 0.5)
        monkeypatch.setattr(chain_opt, "MAX_ITER", 0)
        with pytest.raises(NumericalFailure) as exc_info:
            minimize_free(m, CIRCLE, 16, GridSpec(h=0.05))
        assert exc_info.value.best is not None
        assert len(exc_info.value.best.positions) == 17


def chain_gradient(model, env, xs):
    """dE/dx_k of E = sum_k W(x_{k+1} - x_k) + V(x_k), from the closed-form derivatives."""
    dw, _ = spring_derivs(model, np.diff(xs))
    g = np.zeros(xs.size)
    g[:-1] += potential_derivs(model, env, xs[:-1])[0] - dw
    g[1:] += dw
    return g


REFINE_CASES = [
    (circle_model(1.0, 0.5), EnvPoint.circle(0.3)),
    (torus_model(1.0, 0.7, 0.4), EnvPoint.torus(0.1, 0.6)),
    (sturm_model(FIB, 0.5, 1.0, PHI), translate_env(EnvPoint.quasicrystal(FIB), 0.375)),
]
REFINE_IDS = ["circle", "torus", "quasicrystal"]


class TestDPSizeCap:
    """The chain DP refuses sizes over its cell and byte caps before it allocates."""

    M = circle_model(1.0, 0.5)

    def _sizes(self, monkeypatch):
        """(cells, bytes held) of a small free solve, read from the kernel's arguments."""
        seen = []
        kernel = _kernels.chain_dp_backward_np

        def spy(V, Wd, n, dlo, keep):
            nbytes = _kernels.chain_dp_bytes(V.size, Wd.size, n, dlo, keep)
            seen.append((n * V.size * Wd.size, nbytes))
            return kernel(V, Wd, n, dlo, keep)

        with monkeypatch.context() as mp:
            mp.setattr(_kernels, "chain_dp_backward_np", spy)
            minimize_free(self.M, CIRCLE, 3, GridSpec(h=0.25))
        [sizes] = seen
        return sizes

    @pytest.mark.parametrize("cap", ["_MAX_DP_CELLS", "_MAX_DP_BYTES"])
    def test_boundary(self, monkeypatch, cap):
        cells, nbytes = self._sizes(monkeypatch)
        size = cells if cap == "_MAX_DP_CELLS" else nbytes
        monkeypatch.setattr(chain_opt, cap, size)
        at_cap = minimize_free(self.M, CIRCLE, 3, GridSpec(h=0.25))
        monkeypatch.setattr(chain_opt, cap, size - 1)
        with pytest.raises(ResourceError) as err:
            minimize_free(self.M, CIRCLE, 3, GridSpec(h=0.25))
        assert f"{cells} cells holding {nbytes} bytes" in str(err.value)
        monkeypatch.undo()
        again = minimize_free(self.M, CIRCLE, 3, GridSpec(h=0.25))
        assert at_cap.energy == again.energy

    def test_refused_before_the_potential_is_evaluated(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("potential evaluated for an over-cap DP")

        monkeypatch.setattr(chain_opt, "potential_values", unreachable)
        monkeypatch.setattr(chain_opt, "_MAX_DP_CELLS", 0)
        with pytest.raises(ResourceError):
            minimize_free(self.M, CIRCLE, 3, GridSpec(h=0.25))

    @pytest.mark.parametrize("cap", ["_MAX_DP_CELLS", "_MAX_DP_BYTES"])
    def test_ladder_refused_before_the_potential_is_evaluated(self, monkeypatch, cap):
        def unreachable(*args):
            raise AssertionError("potential evaluated for an over-cap DP")

        monkeypatch.setattr(chain_opt, "potential_values", unreachable)
        monkeypatch.setattr(chain_opt, cap, 0)
        with pytest.raises(ResourceError):
            ground_energy(self.M, CIRCLE, [3, 8], GridSpec(h=0.25))

    def test_ladder_counts_its_kept_row(self, monkeypatch):
        # the ladder 4, 8, 16, 32 keeps layer 28, which is no checkpoint: at the
        # bytes of the bare n = 32 DP, that DP runs and the ladder is refused
        grid = GridSpec(h=0.25)
        seen = []
        kernel = _kernels.chain_dp_backward_np

        def spy(V, Wd, n, dlo, keep):
            seen.append((V.size, Wd.size, n, dlo))
            return kernel(V, Wd, n, dlo, keep)

        with monkeypatch.context() as mp:
            mp.setattr(_kernels, "chain_dp_backward_np", spy)
            minimize_free(self.M, CIRCLE, 32, grid)
        [(G, D, n, dlo)] = seen
        bare = _kernels.chain_dp_bytes(G, D, n, dlo, ())
        assert _kernels.chain_dp_bytes(G, D, n, dlo, [28, 24, 16, 0]) == bare + 8 * (G + D - 1)
        monkeypatch.setattr(chain_opt, "_MAX_DP_BYTES", bare)
        minimize_free(self.M, CIRCLE, 32, grid)
        with pytest.raises(ResourceError):
            ground_energy(self.M, CIRCLE, [4, 8, 16, 32], grid)


def seeded_model(rng, family, spring, lam):
    """A catalog model of ``family`` with random amplitudes, at a random environment."""
    if family == "circle":
        return circle_model(rng.uniform(0, 3), lam, spring), EnvPoint.circle(rng.uniform())
    if family == "torus":
        model = torus_model(rng.uniform(0, 2), rng.uniform(0, 2), lam, spring)
        return model, EnvPoint.torus(rng.uniform(), rng.uniform())
    env = translate_env(EnvPoint.quasicrystal(FIB), rng.integers(-64, 64) / 16)
    return sturm_model(FIB, rng.uniform(0, 1), rng.uniform(0, 1.5), lam), env


class TestSignBand:
    """The DP's lambda-signed jump band finds the least C[0] of the full band [-B, B]."""

    @pytest.mark.parametrize("sign", [1, -1], ids=["lam_pos", "lam_neg"])
    @pytest.mark.parametrize(
        "family, spring",
        [
            ("circle", "quadratic"),
            ("circle", "quartic"),
            ("torus", "quadratic"),
            ("torus", "quartic"),
            ("quasicrystal", "quadratic"),
        ],
    )
    def test_signed_band_matches_full_band(self, monkeypatch, family, spring, sign):
        class Stop(Exception):
            pass

        def record(*args):
            calls.append((model, grid.h, *args))
            raise Stop

        calls = []
        monkeypatch.setattr(_kernels, "chain_dp_backward_np", record)
        rng = np.random.default_rng([28, sign + 1, len(family), len(spring)])
        for i in range(20):
            lam = sign * (1e-3 if i == 0 else rng.uniform(0, 2))
            model, env = seeded_model(rng, family, spring, lam)
            grid = GridSpec(h=float(rng.choice([0.05, 0.08, 0.1])))
            with pytest.raises(Stop):
                minimize_free(model, env, int(rng.integers(1, 17)), grid)
        monkeypatch.undo()
        for model, h, V, Wd, n, dlo, keep in calls:
            B = Wd.size - 1
            assert dlo == (-B if sign < 0 else 0)
            full_Wd = lagrangians.spring_value(model, np.arange(-B, B + 1) * h)
            assert Wd.tobytes() == full_Wd[dlo + B : dlo + 2 * B + 1].tobytes()
            full = _kernels.chain_dp_backward_np(V, full_Wd, n, -B, ()).layers[0]
            signed = _kernels.chain_dp_backward_np(V, Wd, n, dlo, ()).layers[0]
            assert np.min(signed) == np.min(full)


class TestRefinement:
    """The Newton refinement ends at a stationary chain no worse than the DP chain."""

    @pytest.mark.parametrize("model,env", REFINE_CASES, ids=REFINE_IDS)
    @pytest.mark.parametrize("n", [2, 7, 24])
    def test_fixed_stationary(self, model, env, n):
        # the pinned mode, from the straight chain between the ends: only the
        # interior moves
        start = np.linspace(0.25, 0.25 + n * model.lam + 0.1, n + 1)
        e_start = chain_energy(model, env, start)
        xs, _, e = chain_opt._refine(model, env, start, True, e_start)
        assert (xs[0], xs[-1]) == (start[0], start[-1])
        assert e == chain_energy(model, env, xs)
        assert np.max(np.abs(chain_gradient(model, env, xs)[1:-1])) <= 1e-7
        assert e <= e_start

    @pytest.mark.parametrize("model,env", REFINE_CASES, ids=REFINE_IDS)
    @pytest.mark.parametrize("n", [1, 8, 31])
    def test_free_stationary(self, monkeypatch, model, env, n):
        res, (_, dp_energy) = solve_with_dp(monkeypatch, model, env, n, GridSpec(h=0.05))
        assert not res.polish_used
        assert np.max(np.abs(chain_gradient(model, env, res.positions))) <= 1e-7
        assert res.energy <= dp_energy + 1e-12

    def test_saddle_start_escapes(self):
        # lam = 1/2 from 0 puts every odd site on a maximum of the K = 8 cosine:
        # the start is stationary, so only the negative-curvature step can descend
        m = circle_model(8.0, 0.5)
        start = np.linspace(0.0, 4.0, 9)
        assert np.max(np.abs(chain_gradient(m, CIRCLE, start)[1:-1])) <= 1e-11
        xs, _, e = chain_opt._refine(m, CIRCLE, start, True, chain_energy(m, CIRCLE, start))
        assert e == chain_energy(m, CIRCLE, xs)
        assert np.max(np.abs(chain_gradient(m, CIRCLE, xs)[1:-1])) <= 1e-7
        assert e < chain_energy(m, CIRCLE, start)

    def test_free_solve_evaluates_the_dp_chain_once(self, monkeypatch):
        # the DP returns its chain's energy, and the refinement starts from it
        seen = []

        def recording(model, env, positions):
            seen.append(np.array(positions, dtype=float))
            return chain_energy(model, env, positions)

        monkeypatch.setattr(chain_opt, "chain_energy", recording)
        m, grid = circle_model(1.0, 0.5), GridSpec(h=0.05)
        _, (dp_positions, _) = solve_with_dp(monkeypatch, m, CIRCLE, 8, grid)
        assert sum(np.array_equal(xs, dp_positions) for xs in seen) == 1

    def test_newton_step_finds_the_bump_gaps_once(self, monkeypatch):
        # V' and V'' of one gradient-and-Hessian evaluation share one gap lookup
        model, env = REFINE_CASES[2]
        calls = []
        real = lagrangians._bump_tables

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(lagrangians, "_bump_tables", counting)
        xs = 0.25 + model.lam * np.arange(9.0)
        chain_opt._grad_hess(model, env, xs, False)
        assert len(calls) == 1

    def test_indefinite_start_stays_in_its_wells(self):
        # a pinned chain with every interior site at x = 0.1, on the concave
        # flank of the K = 8 well at -0.17: an uncapped shifted step carries
        # sites wells away, to a stationary chain 0.9 higher
        m, env = circle_model(8.0, 0.0), EnvPoint.circle(0.17)
        start = np.full(41, 0.1)
        start[-1] = 0.47
        xs, _, e = chain_opt._refine(m, env, start, True, chain_energy(m, env, start))
        assert np.max(np.abs(xs - start)) <= 0.5
        assert e == pytest.approx(0.4446721865541363, abs=1e-9)

    @pytest.mark.parametrize(
        "K,lam,n,expected",
        [
            (1.0, 1 / 3, 8, 0.15806748404513665),
            (0.3, 0.5, 21, 0.15020887984968162),
            (1.0, -0.7, 21, 0.4521267671988683),
        ],
        ids=["lam_third", "lam_half", "lam_negative"],
    )
    def test_indefinite_free_chain_converges(self, K, lam, n, expected):
        # these pass through indefinite Hessians, where a shift far above the
        # needed one makes steps too short to converge within MAX_ITER; the
        # expected minima come from a red-black Gauss-Seidel sweep solver
        m = circle_model(K, lam)
        env = EnvPoint.circle(0.17)
        res = minimize_free(m, env, n, GridSpec(h=0.05))
        assert np.max(np.abs(chain_gradient(m, env, res.positions))) <= 1e-7
        assert res.energy == pytest.approx(expected, abs=1e-9)

    def test_soft_chain_converges(self, monkeypatch):
        # K = 0.1 leaves soft modes, which site-by-site relaxation resolves slowly
        m = circle_model(0.1, 0.5)
        res, (_, dp_energy) = solve_with_dp(monkeypatch, m, CIRCLE, 64, GridSpec(h=0.05))
        assert res.sweeps <= 50
        assert np.max(np.abs(chain_gradient(m, CIRCLE, res.positions))) <= 1e-7
        assert res.energy <= dp_energy + 1e-12


class TestGroundEnergy:
    def test_zero_potential_estimate(self):
        for lam in (0.0, 0.7, 1.0):
            m = circle_model(0.0, lam)
            est = ground_energy(m, CIRCLE, [4, 8, 16], GridSpec(h=0.05))
            assert est.extrapolated == pytest.approx(0.0, abs=1e-8)

    def test_apriori_sandwich(self):
        # inf E = 0 <= Ebar <= inf_x E(x, x) = W(0), since inf V = 0
        m = circle_model(1.0, 0.5)
        est = ground_energy(m, CIRCLE, [4, 8, 16], GridSpec(h=0.05))
        assert 0.0 <= est.lower_bound <= est.extrapolated
        assert est.extrapolated <= lagrangians.spring_value(m, 0.0) + 1e-8

    def test_fekete_superadditivity(self):
        m = circle_model(1.0, 0.5)
        est = ground_energy(m, CIRCLE, [4, 8, 12, 16, 24, 32], GridSpec(h=0.05))
        mv = dict(zip(est.n_list, est.m_values))
        for a in est.n_list:
            for b in est.n_list:
                if a + b in mv:
                    assert mv[a + b] >= mv[a] + mv[b] - 1e-9

    @pytest.mark.parametrize("n_list", [(32,), ()])
    def test_needs_two_chain_lengths(self, n_list):
        with pytest.raises(DomainError):
            ground_energy(circle_model(1.0, 0.5), CIRCLE, n_list, GridSpec(h=0.05))

    def test_keeps_each_minimizer(self):
        m = circle_model(1.0, 0.5)
        est = ground_energy(m, CIRCLE, [4, 8, 16], GridSpec(h=0.05))
        for n, xs, m_n in zip(est.n_list, est.positions, est.m_values):
            assert xs.size == n + 1
            assert chain_energy(m, CIRCLE, xs) == m_n

    @pytest.mark.parametrize(
        "lam, n_list, clamped",
        [
            (0.5, (4, 8, 16), False),
            (0.5, (4, 8, 16, 32), False),
            (0.618, (4, 8, 12), True),
            (0.3, (3, 5, 7, 9), True),
        ],
    )
    def test_extrapolated_is_the_eager_fit(self, lam, n_list, clamped, monkeypatch):
        # the fit runs when read, not when the estimate is built, and gives
        # the bits the eager fit gave, the clamp to the lower estimate included
        calls = []
        lstsq = np.linalg.lstsq

        def counting(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        est = ground_energy(circle_model(1.0, lam), CIRCLE, n_list, GridSpec(h=0.05))
        assert not calls
        got = est.extrapolated
        assert len(calls) == 1
        expect = extrapolated_eager(est.n_list, est.m_values)
        assert got.hex() == expect.hex()
        assert (expect == est.lower_bound) == clamped

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


QC_ALPHA = AlphaValue.parse("(-1+1√5)/2")


def workload_config(workload, seed):
    """(model, env, grid, n_list) of a benchmark workload's config at ``seed``: the
    quasicrystal offset (37 seed mod 64)/16, the circle phase (seed mod 4)/4."""
    if workload == "quasicrystal":
        env = EnvPoint.quasicrystal(QC_ALPHA, (37 * seed) % 64 / 16)
        return sturm_model(QC_ALPHA, 0.5, 1.0, 1.618), env, GridSpec(h=0.08), (4, 8, 16, 32)
    K, n_list = (1.0, (4, 8, 16, 32)) if workload == "circle" else (0.1, (8, 16, 32, 64))
    return circle_model(K, 0.5), EnvPoint.circle(seed % 4 / 4), GridSpec(h=0.05, X=4.0), n_list


class TestLadder:
    """The ladder read from the longest chain's DP against one solve per length."""

    @pytest.mark.parametrize("workload", ["quasicrystal", "circle", "soft-chain"])
    def test_workload_ladders_match_per_length_solves(self, workload):
        # seeds 0..5; the circle phases repeat after seed 3
        seeds = range(6) if workload == "quasicrystal" else range(4)
        for seed in seeds:
            model, env, grid, n_list = workload_config(workload, seed)
            est = ground_energy(model, env, n_list, grid)
            alone = [minimize_free(model, env, n, grid).energy for n in n_list]
            for n, m_n, m_alone in zip(n_list, est.m_values, alone):
                assert abs(m_n - m_alone) <= 1e-12, (workload, seed, n)
            lower = max(m / n for m, n in zip(alone, n_list))
            assert est.lower_bound.hex() == lower.hex(), (workload, seed)

    def test_aligned_torus_layers_reach_the_per_length_minimum(self, monkeypatch):
        # with lambda > 0 and the default jump cap the grid of N steps starts
        # 1.5 (N - m) below the m-step grid, a whole number of steps of 0.05,
        # and holds it: from each row of the m-step grid, layer N - m finds a
        # grid chain at least as good, and so does its least entry
        class Stop(Exception):
            pass

        kernel = _kernels.chain_dp_backward_np

        def first_dp(*args):
            dps.append(kernel(*args))
            raise Stop

        monkeypatch.setattr(_kernels, "chain_dp_backward_np", first_dp)
        rng = np.random.default_rng(31)
        grid = GridSpec(h=0.05)
        for _ in range(12):
            model = torus_model(rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, 2))
            env = EnvPoint.torus(rng.uniform(), rng.uniform())
            n_list = sorted(int(n) for n in rng.choice(np.arange(1, 33), 3, replace=False))
            dps = []
            with pytest.raises(Stop):
                ground_energy(model, env, n_list, grid)
            for m in n_list:
                with pytest.raises(Stop):
                    minimize_free(model, env, m, grid)
            ladder, *alone = dps
            N, R = n_list[-1], grid.jump_cap(model)
            for m, dp in zip(n_list, alone):
                lo_m, lo_N = (chain_opt._window(model.lam, R, n)[0] for n in (m, N))
                shift = (lo_m - lo_N) / 0.05
                a = round(shift)
                assert abs(shift - a) < 1e-9 and a == 30 * (N - m)
                layer, c0 = ladder.layers[N - m], dp.layers[0]
                assert np.all(layer[a : a + c0.size] <= c0 + 1e-12), (model, env, m)
                assert np.min(layer) <= np.min(c0) + 1e-12


    def test_short_chains_start_in_their_own_window(self):
        # the first least row of the whole layer 56 starts the 8-chain near
        # x = 62, where the line search stalls at max|g| = 1.0e-8 (exit 3);
        # from its own window [-15.4, 19.0] it converges, as an 8-step DP does
        model = circle_model(2.0778652849103256, 0.44951242961465576)
        env, grid = EnvPoint.circle(0.695720854954777), GridSpec(h=0.05)
        est = ground_energy(model, env, [4, 8, 16, 32], grid)
        R = grid.jump_cap(model)
        for n, xs in zip(est.n_list, est.positions):
            lo, hi = chain_opt._window(model.lam, R, n)
            assert lo - 0.05 <= xs[0] <= hi + 0.05, n


    @pytest.mark.parametrize("lam", [-2.0, 2.0])
    def test_short_jump_cap_holds_every_window(self, monkeypatch, lam):
        # with the jump cap 1 below |lambda| the windows drift apart: the
        # 4-chain's window [-7, -1] lies above the 32-chain's [-49, -15] at
        # lambda = -2, and [1, 7] below [15, 49] at lambda = 2.  The grid
        # spans them all, here in whole steps of 0.05 from each window's
        # lower end, so each chain starts in its own window and matches its
        # own DP
        starts = []
        refine = chain_opt._refine

        def spy(model, env, xs, fixed_ends, e_cur):
            starts.append(xs[0])
            return refine(model, env, xs, fixed_ends, e_cur)

        model, grid, n_list = circle_model(1.0, lam), GridSpec(h=0.05, R_max=1.0), (4, 8, 16, 32)
        with monkeypatch.context() as mp:
            mp.setattr(chain_opt, "_refine", spy)
            est = ground_energy(model, CIRCLE, n_list, grid)
        for n, x0, m_n in zip(n_list, starts, est.m_values):
            lo, hi = chain_opt._window(lam, 1.0, n)
            assert lo - 1e-9 <= x0 <= hi + 0.05, n
            assert abs(m_n - minimize_free(model, CIRCLE, n, grid).energy) <= 1e-12, n


class TestRepair:
    M = circle_model(1.0, 0.3)

    def test_monotone_unchanged(self):
        ch = make_chain(self.M, CIRCLE, [0.0, 0.4, 1.1, 1.5])
        rr = repair_loop(self.M, CIRCLE, ch)
        assert rr.energy == ch.energy
        assert rr.kept.tolist() == [0, 1, 2, 3]

    def test_zigzag_improves_and_matches_brute_force(self):
        xs = [0.0, 1.0, 0.2, 1.2]
        ch = make_chain(self.M, CIRCLE, xs)
        rr = repair_loop(self.M, CIRCLE, ch)
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
            rr = repair_loop(self.M, CIRCLE, ch)
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
            rr = repair_loop(self.M, CIRCLE, make_chain(self.M, CIRCLE, xs))
            assert rr.energy == pytest.approx(brute_force_repair(self.M, CIRCLE, xs), abs=1e-12)



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
    # the minimizers' local structure, read from the site-by-site oracle
    def test_equally_spaced(self):
        m = circle_model(0.0, 1.0)
        res = minimize_free(m, CIRCLE, 8, GridSpec(h=0.05))
        monotone, max_jump, _, defect = chain_structure_loop(res, m, CIRCLE, 4.0)
        assert monotone
        assert max_jump == pytest.approx(1.0, abs=1e-9)
        assert defect <= 1e-10

    def test_minimizer_monotone_with_bounded_jumps(self):
        m = circle_model(1.0, 0.5)
        res = minimize_free(m, CIRCLE, 32, GridSpec(h=0.05))
        monotone, _, within_R, defect = chain_structure_loop(res, m, CIRCLE, 3.5)
        assert monotone
        assert within_R
        assert defect <= 1e-8

    def test_perturbed_chain_has_defect(self):
        # the defect check above can fail: one kicked site shows up
        m = circle_model(1.0, 0.5)
        res = minimize_free(m, CIRCLE, 16, GridSpec(h=0.05))
        xs = res.positions.copy()
        xs[8] += 0.1
        _, _, _, defect = chain_structure_loop(make_chain(m, CIRCLE, xs), m, CIRCLE, 3.5)
        assert defect > 1e-6


class TestChainType:
    def test_energy_cache_consistent(self):
        m = circle_model(1.0, 0.5)
        rng = np.random.default_rng(2)
        for _ in range(50):
            xs = rng.uniform(-3, 3, size=6)
            ch = make_chain(m, CIRCLE, xs)
            assert ch.energy == pytest.approx(chain_energy(m, CIRCLE, xs), abs=1e-10)

    def test_positions_frozen(self):
        m, grid = circle_model(1.0, 0.5), GridSpec(h=0.05)
        est = ground_energy(m, CIRCLE, (4, 8), grid)
        for xs in (minimize_free(m, CIRCLE, 4, grid).positions, *est.positions):
            with pytest.raises(ValueError):
                xs[0] = 5.0


class TestTorusDegenerate:
    def test_ground_energy_zero(self):
        m = torus_model(1.0, 1.0, 0.0)
        env = EnvPoint.torus(0.0, 0.0)
        est = ground_energy(m, env, [4, 8, 16], GridSpec(h=0.05))
        assert est.extrapolated == pytest.approx(0.0, abs=1e-6)
        res = minimize_free(m, env, 8, GridSpec(h=0.05))
        assert res.positions == pytest.approx(np.zeros(9), abs=1e-6)
