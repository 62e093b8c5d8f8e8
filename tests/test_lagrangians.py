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
    energy,
    minimize_free,
    sturm_model,
    torus_model,
    translate_env,
)
from fklab import environments
from fklab.environments import PointSet
from fklab.lagrangians import (
    LagrangianSpec,
    potential_derivs,
    potential_slope_sup,
    potential_values,
    spring_derivs,
    spring_value,
)

from oracles import FIB, cylinder_at, membership_range_oneshot, points_in_oneshot, return_times_loop

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

    def test_slope_mismatch(self):
        # a bump model reads its gap types from its own alpha, so a point set
        # of another slope would be classified wrongly
        m = sturm_model(FIB, 0.5, 1.0, PHI)
        env = EnvPoint.quasicrystal(AlphaValue.rational(2, 5))
        with pytest.raises(DomainError):
            energy(m, env, 0.3, 1.9)
        with pytest.raises(DomainError):
            minimize_free(m, env, 8, GridSpec(h=0.1))

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

    @pytest.mark.parametrize("model,env", CATALOG)
    def test_broadcast_matches_scalar_loop(self, model, env):
        rng = np.random.default_rng(4)
        xs = rng.uniform(-6, 6, size=37)
        ys = xs + rng.uniform(-3, 3, size=37)

        def loop(xx, yy):
            xx, yy = np.broadcast_arrays(xx, yy)
            pairs = zip(xx.ravel(), yy.ravel())
            scalar = [energy(model, env, float(a), float(b)) for a, b in pairs]
            return np.array(scalar).reshape(xx.shape)

        assert isinstance(energy(model, env, 0.3, 1.1), float)
        for xx, yy in [(xs, ys), (0.0, ys), (xs, 0.0), (xs, xs), (xs[:5, None], ys[None, :])]:
            got = energy(model, env, xx, yy)
            assert isinstance(got, np.ndarray)
            assert np.array_equal(got, loop(xx, yy))

    @pytest.mark.parametrize("bad", [-1e-300, -1.0, math.nan])
    def test_amplitudes_must_be_nonnegative(self, bad):
        for build in (
            lambda: circle_model(bad, 0.5),
            lambda: torus_model(bad, 1.0, 0.0),
            lambda: torus_model(1.0, bad, 0.0),
            lambda: sturm_model(FIB, bad, 1.0, PHI),
            lambda: sturm_model(FIB, 0.5, bad, PHI),
        ):
            with pytest.raises(DomainError, match="nonnegative"):
                build()

    def test_quartic_needs_periodic_potential(self):
        with pytest.raises(DomainError):
            LagrangianSpec("quartic", 1.0, "quasicrystal", a0=1.0, a1=1.0, alpha=FIB)
        with pytest.raises(DomainError):
            sturm_model(FIB, 1.0, 1.0, 1.0, spring="quartic")


class TestBumpPotential:
    def test_vanishes_at_set_points(self):
        m = sturm_model(FIB, 0.5, 1.0, PHI)
        for p in QC.pset.points_in(0.0, 30.0):
            assert potential_values(m, QC, float(p)) == pytest.approx(0.0, abs=1e-12)

    def test_long_gap_midpoint(self):
        m = sturm_model(FIB, 0.5, 1.0, PHI)
        pts = QC.pset.points_in(0.0, 50.0)
        gaps = np.rint(np.diff(pts)).astype(int)
        i = int(np.where(gaps == 2)[0][0])
        assert potential_values(m, QC, float(pts[i]) + 1.0) == pytest.approx(
            1.0 / 16.0, abs=1e-12
        )
        j = int(np.where(gaps == 1)[0][0])
        assert potential_values(m, QC, float(pts[j]) + 0.5) == pytest.approx(
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
            left = potential_values(m, QC, float(p) - eps)
            right = potential_values(m, QC, float(p) + eps)
            assert left <= 1e-12  # ~ eps^2 / L^2 scale
            assert right <= 1e-12

    def test_strong_equivariance_on_matched_returns(self):
        # V(x) == V(y) whenever the radius floor(1/a)+1 patterns around x, y agree
        m = sturm_model(FIB, 0.5, 1.0, PHI)
        R = FIB.inv_floor() + 1
        sec = cylinder_at(QC, 7.0, float(R))
        rts = return_times_loop(QC, sec, (0.0, 800.0))[:100]
        base = rts[0]
        rng = np.random.default_rng(5)
        offs = rng.uniform(-0.49, 0.49, size=20)
        for t in rts:
            for u in offs:
                assert potential_values(m, QC, base + u) == pytest.approx(
                    potential_values(m, QC, float(t) + u), abs=1e-12
                )

    def test_transversally_constant_energy(self):
        # energies agree between environments whose patterns match on a
        # radius covering [x, y] plus the equivariance range
        m = sturm_model(FIB, 0.5, 1.0, PHI)
        S = 3.0
        R = FIB.inv_floor() + 1 + S
        sec = cylinder_at(QC, 11.0, R)
        rts = return_times_loop(QC, sec, (0.0, 2000.0))[:50]
        envs = [translate_env(QC, float(t)) for t in rts]
        rng = np.random.default_rng(6)
        for _ in range(100):
            x, y = rng.uniform(-S, S, size=2)
            ref = energy(m, envs[0], x, y)
            for e in envs[1:]:
                assert energy(m, e, x, y) == pytest.approx(ref, abs=1e-12)


class TestTabulatedBumps:
    """Bump potentials read through the slope's memoized index blocks reproduce a
    fresh one-shot materialization per point."""

    M = sturm_model(FIB, 0.5, 1.0, PHI)

    @pytest.fixture(autouse=True)
    def fresh_blocks(self):
        environments._block.cache_clear()
        yield
        environments._block.cache_clear()

    def _outputs(self, env, xs):
        # V, then both outputs of the derivative evaluator
        return [potential_values(self.M, env, xs), *potential_derivs(self.M, env, xs)]

    def _per_point(self, monkeypatch, env, xs):
        # one call per x, each locating its gap from an exact window of its own
        with monkeypatch.context() as mp:
            mp.setattr(PointSet, "points_in", points_in_oneshot)
            per_x = [self._outputs(env, xs[i : i + 1]) for i in range(xs.size)]
        return [np.concatenate(column) for column in zip(*per_x)]

    def _assert_bit_identical(self, monkeypatch, env, xs):
        pad = FIB.max_gap() + 1.0
        window = (xs.min() - pad, xs.max() + pad)
        assert env.pset.points_in(*window).tobytes() == points_in_oneshot(env.pset, *window).tobytes()
        batched = self._outputs(env, xs)
        assert len(batched) == 3
        for got, want in zip(batched, self._per_point(monkeypatch, env, xs)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "offset", [Fraction(0), Fraction(3, 16), Fraction(-37, 8), Fraction(1025, 64)]
    )
    @pytest.mark.parametrize("shift", [Fraction(0), Fraction(5, 4), Fraction(-301, 32)])
    def test_matches_points_in_at_dyadic_offsets(self, monkeypatch, offset, shift):
        env = translate_env(EnvPoint.quasicrystal(FIB, offset), shift)
        rng = np.random.default_rng(21)
        xs = rng.uniform(-60.0, 60.0, size=60)
        on_points = points_in_oneshot(env.pset, -20.0, 20.0)
        self._assert_bit_identical(monkeypatch, env, np.concatenate([xs, on_points]))

    def test_far_windows_and_block_edges(self, monkeypatch):
        env = EnvPoint.quasicrystal(FIB, Fraction(7, 4))
        rng = np.random.default_rng(22)
        # block edges sit at multiples of 1024; the offset moves them to -7/4 in x
        for centre in (0.0, 1022.25, -1025.75, 2046.25, 3.0e3, -2.5e4, 3.0e5, -1.0e6):
            xs = centre + rng.uniform(-30.0, 30.0, size=20)
            on_points = points_in_oneshot(env.pset, centre - 5.0, centre + 5.0)
            self._assert_bit_identical(monkeypatch, env, np.concatenate([xs, on_points]))

    def test_window_wider_than_table(self, monkeypatch):
        env = EnvPoint.quasicrystal(FIB, Fraction(1, 2))
        xs = np.array([-4.0e4, -1.25, 0.0, 17.5, 4.0e4 + 0.25])
        self._assert_bit_identical(monkeypatch, env, xs)

    def test_window_wider_than_the_memo_leaves_it_alone(self):
        env = EnvPoint.quasicrystal(FIB, Fraction(3, 8))
        pset = env.pset
        cached = pset.points_in(-30.0, 3000.0)  # fills blocks -1..2
        ks = range(-1, 3)
        blocks = [environments._block(FIB, k) for k in ks]
        info = environments._block.cache_info()
        got = pset.points_in(-5.0e4, 5.0e4)
        assert environments._block.cache_info() == info
        assert all(environments._block(FIB, k) is blk for k, blk in zip(ks, blocks))
        assert got.tobytes() == points_in_oneshot(pset, -5.0e4, 5.0e4).tobytes()
        assert np.array_equal(cached, got[(got >= cached[0]) & (got <= cached[-1])])

    def test_concurrent_growth(self):
        # more threads than cores, switching often, each filling the shared
        # blocks in its own order
        env = EnvPoint.quasicrystal(FIB, Fraction(5, 8))
        rng = np.random.default_rng(23)
        centres = (0.0, 4.0e3, -9.0e3, 2.0e4, -3.0e5, 5.0e5, 70.0, -70.0, 1024.0, -2048.0)
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
            environments._block.cache_clear()
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
        # the blocks of the windows' exact integer bounds; all of them are
        # still cached, and each must equal a one-shot membership test
        B, pad, off = environments._BLOCK, FIB.max_gap() + 1.0, Fraction(5, 8)
        ks = {
            k
            for xs in windows
            for k in range(
                math.ceil(Fraction(xs.min() - pad) + off) // B,
                math.floor(Fraction(xs.max() + pad) + off) // B + 1,
            )
        }
        assert environments._block.cache_info().currsize == len(ks)
        for k in sorted(ks):
            hits = environments._block.cache_info().hits
            ns = environments._block(FIB, k)
            assert environments._block.cache_info().hits == hits + 1
            want_ns = np.flatnonzero(membership_range_oneshot(FIB, k * B, (k + 1) * B - 1))
            assert np.array_equal(ns, want_ns + k * B)


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


def twist_defect(model, env, box, grid):
    """Max over a grid in the box of the central-difference d2E/dxdy of ``energy``.

    The step is tied to the box size (width / (4 grid)).
    """
    (x_lo, x_hi), (y_lo, y_hi) = box
    h = min(x_hi - x_lo, y_hi - y_lo) / (4.0 * grid)
    X, Y = np.meshgrid(np.linspace(x_lo, x_hi, grid), np.linspace(y_lo, y_hi, grid), indexing="ij")

    def E(dx, dy):
        return energy(model, env, X + dx, Y + dy)

    return float(((E(h, h) - E(h, -h) - E(-h, h) + E(-h, -h)) / (4.0 * h * h)).max())


class TestTwistDefect:
    # the catalog's closed form: d2E/dxdy = -W''(y - x) <= 0
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
        closed = float((-spring_derivs(m, Y - X)[1]).max())
        assert closed == float((-3.0 * (Y - X) ** 2).max())
        got = twist_defect(m, CIRCLE, box, grid)
        assert got == pytest.approx(closed, abs=10.0 * h * h)


class TestCoercivityProbe:
    # superlinearity in closed form: W(t)/|t| -> infinity over a bounded V
    @pytest.mark.parametrize("model,env", CATALOG)
    def test_nondecreasing(self, model, env):
        xs = np.linspace(0.0, 20.0, 401)
        v = potential_values(model, env, xs)
        cosines = 2.0 * (model.K + model.K1 + model.K2) / (2 * math.pi) ** 2
        assert v.min() >= 0.0 and v.max() <= cosines + max(model.a0, model.a1) / 16.0
        for sign in (1.0, -1.0):
            per_R = [energy(model, env, xs, xs + sign * R).min() / R for R in (8.0, 16.0, 32.0, 64.0)]
            assert np.all(np.diff(per_R) > 0.0)

    def test_quadratic_scale(self):
        m = circle_model(1.0, 0.0)
        xs = np.linspace(0.0, 1.0, 41)
        pot_range = 1.0 / (2 * math.pi) ** 2
        for t in (4.0, -4.0):
            assert abs(energy(m, CIRCLE, xs, xs + t).min() - 4.0 ** 2 / 2.0) <= pot_range + 1e-9

    def test_quartic_scale(self):
        m = circle_model(1.0, 0.0, spring="quartic")
        xs = np.linspace(0.0, 1.0, 41)
        pot_range = 1.0 / (2 * math.pi) ** 2
        for t in (4.0, -4.0):
            assert abs(energy(m, CIRCLE, xs, xs + t).min() - 4.0 ** 4 / 4.0) <= pot_range + 1e-9


class TestDerivatives:
    @pytest.mark.parametrize("model,env", CATALOG)
    def test_potential_derivatives_fd(self, model, env):
        rng = np.random.default_rng(8)
        xs = rng.uniform(0.05, 20.0, size=40)
        h1, h2 = 1e-6, 1e-4  # second differences need the larger step
        v1, v2 = potential_derivs(model, env, xs)
        fd1 = (potential_values(model, env, xs + h1) - potential_values(model, env, xs - h1)) / (
            2 * h1
        )
        fd2 = (
            potential_values(model, env, xs + h2)
            - 2 * potential_values(model, env, xs)
            + potential_values(model, env, xs - h2)
        ) / (h2 * h2)
        # bump potentials have second-derivative jumps at set points; skip
        # samples within the FD stencil of a point
        if model.potential == "quasicrystal":
            pts = env.pset.points_in(-1.0, 22.0)
            keep = np.array([np.min(np.abs(pts - x)) > 2 * h2 for x in xs])
        else:
            keep = np.ones(xs.size, dtype=bool)
        assert np.max(np.abs((v1 - fd1)[keep])) < 1e-6
        assert np.max(np.abs((v2 - fd2)[keep])) < 1e-5

    @pytest.mark.parametrize("model,env", CATALOG)
    def test_potential_derivs_match_per_point(self, model, env):
        # the vectorized evaluator gives each x the bits of a one-point call
        xs = np.random.default_rng(10).uniform(-20.0, 20.0, size=30)
        both = potential_derivs(model, env, xs)
        per_x = [potential_derivs(model, env, xs[i : i + 1]) for i in range(xs.size)]
        for got, column in zip(both, zip(*per_x)):
            assert got.shape == xs.shape
            assert got.tobytes() == np.concatenate(column).tobytes()

    @pytest.mark.parametrize(
        "model,env",
        CATALOG + [(sturm_model(AlphaValue.rational(2, 5), 0.3, 1.1, 2.5), None)],
    )
    def test_slope_sup_is_the_dense_maximum(self, model, env):
        # 4e5 points over [-200, 200]: the circle and bump maxima are met to
        # the sampling step; on the torus the line only comes near the peak
        env = env or EnvPoint.quasicrystal(model.alpha)
        xs = np.linspace(-200.0, 200.0, 400_001)
        dense = np.max(np.abs(potential_derivs(model, env, xs)[0]))
        sup = potential_slope_sup(model)
        assert dense <= sup * (1.0 + 1e-12)
        rel = 1e-3 if model.potential == "torus" else 1e-6
        assert dense >= sup * (1.0 - rel)

    @pytest.mark.parametrize("spring", ["quadratic", "quartic"])
    def test_spring_derivatives_fd(self, spring):
        model = circle_model(1.0, 0.7, spring=spring)
        ts = np.random.default_rng(9).uniform(-2.5, 3.5, size=40)
        h1, h2 = 1e-6, 1e-4
        w1, w2 = spring_derivs(model, ts)
        fd1 = (spring_value(model, ts + h1) - spring_value(model, ts - h1)) / (2 * h1)
        w_lo, w_mid, w_hi = (spring_value(model, ts + d) for d in (-h2, 0.0, h2))
        fd2 = (w_hi - 2 * w_mid + w_lo) / (h2 * h2)
        assert w1.shape == w2.shape == ts.shape
        assert np.max(np.abs(w1 - fd1)) < 1e-6
        assert np.max(np.abs(w2 - fd2)) < 1e-5
