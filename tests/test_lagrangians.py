import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from fklab import (
    AlphaValue,
    DomainError,
    EnvPoint,
    GridSpec,
    chain_energy,
    circle_model,
    coercivity_probe,
    energy,
    equivariant_potential,
    ground_energy,
    return_times,
    cylinder_at,
    sturm_model,
    torus_model,
    translate_env,
    twist_defect,
)
from fklab import environments
from fklab.environments import PointSet
from fklab.lagrangians import LagrangianSpec, potential_d1, potential_d2, potential_values

FIB = AlphaValue.fibonacci()
PHI = (1.0 + math.sqrt(5.0)) / 2.0

CIRCLE = EnvPoint.circle(0.0)
TORUS = EnvPoint.torus(0.0, 0.0)
QC = EnvPoint.quasicrystal(FIB)

CATALOG = [
    (circle_model(1.0, 0.5), CIRCLE),
    (circle_model(2.0, 0.5, spring="quartic"), CIRCLE),
    (torus_model(1.0, 1.0, 0.0), TORUS),
    (torus_model(1.0, 2.0, 0.3, spring="quartic"), TORUS),
    (sturm_model(FIB, 0.5, 1.0, PHI), QC),
]


class TestEnergy:
    def test_zero_potential_zero_spring(self):
        m = circle_model(0.0, 1.0)
        assert energy(m, CIRCLE, 0.0, 1.0) == 0.0

    def test_circle_formula(self):
        # K = (2 pi)^2 makes the cosine amplitude exactly 1
        m = circle_model((2 * math.pi) ** 2, 0.7)
        got = energy(m, EnvPoint.circle(0.25), 0.0, 0.0)
        assert got == pytest.approx(0.7 ** 2 / 2 + 1.0, abs=1e-12)

    def test_variant_mismatch(self):
        with pytest.raises(DomainError):
            energy(circle_model(1.0, 0.0), TORUS, 0.0, 0.0)

    @pytest.mark.parametrize("model,env", CATALOG)
    def test_equivariance(self, model, env):
        # O(1) positions keep the identity testable at 1e-12 in doubles
        # (the quartic spring amplifies the rounding of (y+t)-(x+t) otherwise)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            x, y = rng.uniform(-2, 2, size=2)
            t = rng.uniform(-10, 10)
            lhs = energy(model, env, x + t, y + t)
            rhs = energy(model, translate_env(env, t), x, y)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_quartic_needs_periodic_potential(self):
        with pytest.raises(DomainError):
            LagrangianSpec("quartic", 1.0, "quasicrystal_bumps", a0=1.0, a1=1.0, alpha=FIB)


class TestBumpPotential:
    def test_vanishes_at_set_points(self):
        m = sturm_model(FIB, 0.5, 1.0, PHI)
        for p in QC.pset.points_in(0.0, 30.0):
            assert equivariant_potential(m, QC, float(p)) == pytest.approx(0.0, abs=1e-12)

    def test_long_gap_midpoint(self):
        m = sturm_model(FIB, 0.5, 1.0, PHI)
        pts = QC.pset.points_in(0.0, 50.0)
        gaps = np.rint(np.diff(pts)).astype(int)
        i = int(np.where(gaps == 2)[0][0])
        assert equivariant_potential(m, QC, float(pts[i]) + 1.0) == pytest.approx(
            1.0 / 16.0, abs=1e-12
        )
        j = int(np.where(gaps == 1)[0][0])
        assert equivariant_potential(m, QC, float(pts[j]) + 0.5) == pytest.approx(
            0.5 / 16.0, abs=1e-12
        )

    def test_nonnegative_and_flat_at_gap_ends(self):
        # amplitude >= 0 gives U >= 0, vanishing with its derivative at the
        # support endpoints (the set points)
        m = sturm_model(FIB, 0.5, 1.0, PHI)
        xs = np.linspace(0.0, 40.0, 4001)
        vals = np.atleast_1d(potential_values(m, QC, xs))
        assert vals.min() >= 0.0
        eps = 1e-7
        for p in QC.pset.points_in(1.0, 30.0)[:8]:
            left = equivariant_potential(m, QC, float(p) - eps)
            right = equivariant_potential(m, QC, float(p) + eps)
            assert left <= 1e-12  # ~ eps^2 / L^2 scale
            assert right <= 1e-12

    def test_strong_equivariance_on_matched_returns(self):
        # V(x) == V(y) whenever the radius floor(1/a)+1 patterns around x, y agree
        m = sturm_model(FIB, 0.5, 1.0, PHI)
        R = FIB.inv_floor() + 1
        sec = cylinder_at(QC, 7.0, float(R))
        rts = return_times(QC, sec, (0.0, 800.0))[:100]
        base = rts[0]
        rng = np.random.default_rng(5)
        offs = rng.uniform(-0.49, 0.49, size=20)
        for t in rts:
            for u in offs:
                assert equivariant_potential(m, QC, base + u) == pytest.approx(
                    equivariant_potential(m, QC, float(t) + u), abs=1e-12
                )

    def test_transversally_constant_energy(self):
        # energies agree between environments whose patterns match on a
        # radius covering [x, y] plus the equivariance range
        m = sturm_model(FIB, 0.5, 1.0, PHI)
        S = 3.0
        R = FIB.inv_floor() + 1 + S
        sec = cylinder_at(QC, 11.0, R)
        rts = return_times(QC, sec, (0.0, 2000.0))[:50]
        envs = [translate_env(QC, float(t)) for t in rts]
        rng = np.random.default_rng(6)
        for _ in range(100):
            x, y = rng.uniform(-S, S, size=2)
            ref = energy(m, envs[0], x, y)
            for e in envs[1:]:
                assert energy(m, e, x, y) == pytest.approx(ref, abs=1e-12)


class TestTabulatedBumps:
    """The slope's shared index table reproduces a fresh per-point materialization."""

    M = sturm_model(FIB, 0.5, 1.0, PHI)
    FUNCS = (potential_values, potential_d1, potential_d2)

    @pytest.fixture(autouse=True)
    def fresh_tables(self):
        environments._TABLES.clear()
        yield
        environments._TABLES.clear()

    def _per_point(self, monkeypatch, env, xs):
        # one call per x, each locating its gap through PointSet.points_in
        with monkeypatch.context() as mp:
            mp.setattr(PointSet, "tabulated_points", PointSet.points_in)
            return [np.array([f(self.M, env, float(x)) for x in xs]) for f in self.FUNCS]

    def _assert_bit_identical(self, monkeypatch, env, xs):
        tabulated = [np.atleast_1d(f(self.M, env, xs)) for f in self.FUNCS]
        for got, want in zip(tabulated, self._per_point(monkeypatch, env, xs)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "offset", [Fraction(0), Fraction(3, 16), Fraction(-37, 8), Fraction(1025, 64)]
    )
    @pytest.mark.parametrize("shift", [Fraction(0), Fraction(5, 4), Fraction(-301, 32)])
    def test_matches_points_in_at_dyadic_offsets(self, monkeypatch, offset, shift):
        env = translate_env(EnvPoint.quasicrystal(FIB, offset), shift)
        rng = np.random.default_rng(21)
        xs = rng.uniform(-60.0, 60.0, size=60)
        on_points = env.pset.points_in(-20.0, 20.0)
        self._assert_bit_identical(monkeypatch, env, np.concatenate([xs, on_points]))

    def test_far_windows_grow_the_table(self, monkeypatch):
        env = EnvPoint.quasicrystal(FIB, Fraction(7, 4))
        rng = np.random.default_rng(22)
        for centre in (0.0, 3.0e3, -2.5e4, 3.0e5, -1.0e6):
            xs = centre + rng.uniform(-30.0, 30.0, size=20)
            on_points = env.pset.points_in(centre - 5.0, centre + 5.0)
            self._assert_bit_identical(monkeypatch, env, np.concatenate([xs, on_points]))
            lo, hi, _ = environments._TABLES[FIB]
            assert lo <= centre - 30.0 and centre + 30.0 <= hi
            assert hi - lo <= environments._TABLE_SPAN

    def test_window_wider_than_table(self, monkeypatch):
        env = EnvPoint.quasicrystal(FIB, Fraction(1, 2))
        xs = np.array([-4.0e4, -1.25, 0.0, 17.5, 4.0e4 + 0.25])
        self._assert_bit_identical(monkeypatch, env, xs)

    def test_concurrent_growth(self):
        # more threads than cores, switching often, each growing and rebuilding
        # the shared table in its own order
        env = EnvPoint.quasicrystal(FIB, Fraction(5, 8))
        rng = np.random.default_rng(23)
        centres = (0.0, 4.0e3, -9.0e3, 2.0e4, -3.0e5, 5.0e5, 70.0, -70.0)
        windows = [c + rng.uniform(-20.0, 20.0, size=16) for c in centres]
        want = [potential_values(self.M, env, xs) for xs in windows]
        got = {}

        def work(t):
            for rep in range(10):
                for j in np.roll(np.arange(len(windows)), t + rep):
                    got.setdefault((t, j), []).append(potential_values(self.M, env, windows[j]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            environments._TABLES.clear()
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert len(got) == 4 * len(windows)
        for (_, j), vals in got.items():
            assert all(np.array_equal(v, want[j]) for v in vals)
        lo, hi, ns = environments._TABLES[FIB]
        assert np.array_equal(ns, PointSet(FIB).raw_indices_in(lo, hi))

    def test_threads_share_the_table(self):
        env = EnvPoint.quasicrystal(FIB, Fraction(37, 16))
        grid = GridSpec(h=0.08)
        one = ground_energy(self.M, env, [4, 8, 16, 32], grid, threads=1)
        environments._TABLES.clear()
        two = ground_energy(self.M, env, [4, 8, 16, 32], grid, threads=2)
        assert one.m_values == two.m_values
        assert one.extrapolated == two.extrapolated


class TestChainEnergy:
    def test_constant_chain_zero(self):
        m = circle_model(0.0, 0.0)
        assert chain_energy(m, CIRCLE, [0.3, 0.3, 0.3]) == 0.0

    def test_additivity(self):
        m = circle_model(1.0, 0.5)
        rng = np.random.default_rng(11)
        xs = rng.uniform(-4, 4, size=9)
        whole = chain_energy(m, CIRCLE, xs)
        split = chain_energy(m, CIRCLE, xs[:5]) + chain_energy(m, CIRCLE, xs[4:])
        assert whole == pytest.approx(split, abs=1e-12)

    def test_three_point_hand_sum(self):
        m = circle_model(1.0, 0.5)
        xs = [0.1, 0.9, 1.4]
        hand = energy(m, CIRCLE, 0.1, 0.9) + energy(m, CIRCLE, 0.9, 1.4)
        assert chain_energy(m, CIRCLE, xs) == pytest.approx(hand, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(DomainError):
            chain_energy(circle_model(0.0, 0.0), CIRCLE, [1.0])


class TestTwistDefect:
    def test_quadratic_constant(self):
        m = circle_model(1.0, 0.5)
        d = twist_defect(m, CIRCLE, ((-1.0, 1.0), (-1.0, 1.0)), 16)
        assert d == pytest.approx(-1.0, abs=1e-6)

    def test_quartic_degenerate_line(self):
        m = circle_model(1.0, 0.0, spring="quartic")
        d = twist_defect(m, CIRCLE, ((-1.0, 1.0), (-1.0, 1.0)), 16)
        # box width 2, grid 16 -> h = 1/32; FD bias at the line is -2 h^2
        assert -0.01 <= d <= 1e-9

    def test_quartic_off_line(self):
        # every sample in this box has y - x in [1, 2]
        m = circle_model(0.0, 0.0, spring="quartic")
        d = twist_defect(m, CIRCLE, ((0.0, 0.5), (1.5, 2.0)), 32)
        assert d <= -3.0 + 1e-3

    def test_fd_matches_closed_form(self):
        m = circle_model(0.7, 0.0, spring="quartic")
        grid = 16
        box = ((0.0, 1.0), (1.25, 2.25))
        h = 1.0 / (4 * grid)
        xs = np.linspace(0.0, 1.0, grid)
        ys = np.linspace(1.25, 2.25, grid)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        closed = float((-3.0 * (Y - X) ** 2).max())
        got = twist_defect(m, CIRCLE, box, grid)
        assert got == pytest.approx(closed, abs=10.0 * h * h)


class TestCoercivityProbe:
    @pytest.mark.parametrize("model,env", CATALOG)
    def test_nondecreasing(self, model, env):
        vals = coercivity_probe(model, env, [1.0, 2.0, 4.0, 8.0])
        for (_, a), (_, b) in zip(vals, vals[1:]):
            assert b >= a - 1e-9

    def test_quadratic_scale(self):
        m = circle_model(1.0, 0.0)
        vals = dict(coercivity_probe(m, CIRCLE, [2.0, 4.0]))
        pot_range = 1.0 / (2 * math.pi) ** 2
        assert abs(vals[4.0] - 4.0 ** 2 / 2.0) <= pot_range + 1e-9

    def test_quartic_scale(self):
        m = circle_model(1.0, 0.0, spring="quartic")
        vals = dict(coercivity_probe(m, CIRCLE, [2.0, 4.0]))
        pot_range = 1.0 / (2 * math.pi) ** 2
        assert abs(vals[4.0] - 4.0 ** 4 / 4.0) <= pot_range + 1e-9


class TestDerivatives:
    @pytest.mark.parametrize("model,env", CATALOG)
    def test_potential_derivatives_fd(self, model, env):
        rng = np.random.default_rng(8)
        xs = rng.uniform(0.05, 20.0, size=40)
        h1, h2 = 1e-6, 1e-4  # second differences need the larger step
        v1 = np.atleast_1d(potential_d1(model, env, xs))
        v2 = np.atleast_1d(potential_d2(model, env, xs))
        fd1 = (
            np.atleast_1d(potential_values(model, env, xs + h1))
            - np.atleast_1d(potential_values(model, env, xs - h1))
        ) / (2 * h1)
        fd2 = (
            np.atleast_1d(potential_values(model, env, xs + h2))
            - 2 * np.atleast_1d(potential_values(model, env, xs))
            + np.atleast_1d(potential_values(model, env, xs - h2))
        ) / (h2 * h2)
        # bump potentials have second-derivative jumps at set points; skip
        # samples within the FD stencil of a point
        if model.potential == "quasicrystal_bumps":
            pts = env.pset.points_in(-1.0, 22.0)
            keep = np.array([np.min(np.abs(pts - x)) > 2 * h2 for x in xs])
        else:
            keep = np.ones(xs.size, dtype=bool)
        assert np.max(np.abs((v1 - fd1)[keep])) < 1e-6
        assert np.max(np.abs((v2 - fd2)[keep])) < 1e-5
