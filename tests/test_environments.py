import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from fklab import (
    AlphaValue,
    DomainError,
    EnvPoint,
    PointSet,
    ResourceError,
    hull_distance,
    translate_env,
)
from fklab import environments
from fklab.environments import _unique
from fklab.exact import _BLOCK

from oracles import (
    FIB,
    CylinderSpec,
    Pattern,
    beatty_indices_mp,
    cylinder_at,
    floor_mul_mp,
    membership_range_oneshot,
    pattern_at,
    points_in_oneshot,
    return_times_loop,
)

HALF = AlphaValue.rational(1, 2)
ALPHAS = [FIB, AlphaValue.rational(2, 5), AlphaValue.quadratic(0, 1, 2, 2)]
SECTIONS = {
    # "a set point sits at the origin": half the short gap isolates that point
    "canonical": lambda env: CylinderSpec(Pattern(0.5 * env.pset.alpha.inv_floor(), (0.0,))),
    "cylinder-10-3": lambda env: cylinder_at(env, 10.0, 3.0),
    "cylinder-m7.25-6": lambda env: cylinder_at(env, -7.25, 6.0),
}


def _same_unique(a):
    want, got = np.unique(a), _unique(a)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=want.dtype.kind == "f")
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestUnique:
    # numpy's sort path, without the numpy.ma import of a plain np.unique
    @pytest.mark.parametrize(
        "values",
        [
            [3.0, 1.0, 3.0, 2.0, 1.0],
            [-0.0, 0.0],
            [0.0, -0.0],
            [np.nan, 1.0, np.nan, -np.nan, 0.5, np.nan],
            [np.inf, -np.inf, np.inf, 0.0, -np.inf],
            [],
            [-0.0],
            [np.nan],
        ],
        ids=[
            "duplicates", "minus-zero-first", "zero-first", "nans", "infs", "empty", "one", "one-nan"
        ],
    )
    def test_small_cases(self, values):
        _same_unique(np.array(values, dtype=float))

    def test_int64(self):
        _same_unique(np.array([5, -3, 5, 0, 2**62, -3, 0], dtype=np.int64))
        _same_unique(np.arange(40, dtype=np.int64)[::-1] % 7)

    def test_long_mixed_arrays(self):
        # longer than 16 entries, so numpy's sort leaves its insertion-sort path
        pool = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0, 2.5])
        rng = np.random.default_rng(14)
        for n in (17, 33, 100, 300):
            for _ in range(25):
                a = np.round(rng.normal(size=n), 1)
                pick = rng.random(n) < 0.3
                a[pick] = rng.choice(pool, int(pick.sum()))
                _same_unique(a)
                _same_unique(rng.choice(pool, n))


class TestAlphaValue:
    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            AlphaValue.rational(3, 2)
        with pytest.raises(DomainError):
            AlphaValue.rational(-1, 2)
        with pytest.raises(DomainError):
            AlphaValue.quadratic(1, 1, 5, 2)  # (1+sqrt5)/2 > 1

    def test_square_d_folds_to_rational(self):
        a = AlphaValue.quadratic(1, 1, 4, 6)  # (1 + 2)/6 = 1/2
        assert a.is_rational and a.value == 0.5

    def test_parse_roundtrip(self):
        assert AlphaValue.parse("1/2") == HALF
        assert AlphaValue.parse("(-1+1√5)/2") == FIB
        assert AlphaValue.parse("(-1+1sqrt5)/2") == FIB
        with pytest.raises(DomainError):
            AlphaValue.parse("0.5")

    def test_rational_reduces_like_fraction(self):
        # the gcd reduction puts the sign on the numerator, as Fraction does
        assert AlphaValue.parse("-1/-2") == AlphaValue.rational(1, 2) == HALF
        assert AlphaValue.parse("-6/-12") == AlphaValue.rational(3, 6)
        for p in range(-7, 8):
            for q in (-9, -4, -1, 1, 3, 8, 10):
                f = Fraction(p, q)
                if 0 < f < 1:
                    assert AlphaValue.rational(p, q) == (f.numerator, 0, f.denominator, 0)
                else:
                    with pytest.raises(DomainError):
                        AlphaValue.rational(p, q)

    def test_range_check_against_mpmath(self):
        # seeded (a + b sqrt d)/c, a third drawn at random and the rest one unit
        # either side of 0 or of 1; the constructor accepts exactly the values
        # that 60-digit mpmath puts strictly inside (0, 1)
        rng = np.random.default_rng(28)
        nonsquare = [d for d in range(2, 100) if math.isqrt(d) ** 2 != d]
        near = {True: 0, False: 0}
        with mp.workdps(60):
            for i in range(600):
                b = 0 if i % 5 == 0 else int(rng.integers(1, 10**6)) * int(rng.choice([-1, 1]))
                d = int(rng.choice(nonsquare)) if b else 0
                c = int(rng.integers(1, 10**6))
                if i % 3 == 0:
                    a = int(rng.integers(-2 * c - 2 * abs(b) * 10, 2 * c + 2 * abs(b) * 10))
                else:
                    # a + b sqrt(d) lies within one unit of 0 (or of c, so alpha near 1)
                    r = -math.isqrt(b * b * d) if b > 0 else math.isqrt(b * b * d)
                    a = r + int(rng.integers(-1, 2)) + (c if i % 3 == 2 else 0)
                x = (a + b * mp.sqrt(d)) / c
                inside = bool(0 < x < 1)
                if min(abs(x), abs(1 - x)) < mp.mpf(1) / c:
                    near[inside] += 1
                if inside:
                    assert 0 < AlphaValue(a, b, c, d).value < 1
                else:
                    with pytest.raises(DomainError, match="strictly in"):
                        AlphaValue(a, b, c, d)
        assert min(near.values()) >= 100

    @pytest.mark.parametrize("text", ["1/0", "0/0", "(1+1√5)/0"])
    def test_zero_denominator_is_domain_error(self, text):
        with pytest.raises(DomainError, match="denominator must be nonzero"):
            AlphaValue.parse(text)

    @pytest.mark.parametrize(
        "alpha",
        [HALF, AlphaValue.rational(2, 5), FIB, AlphaValue.quadratic(0, 1, 2, 2)],
    )
    def test_floor_mul_against_mpmath(self, alpha):
        for n in [-(2 ** 40), -12345, -17, -2, -1, 0, 1, 2, 3, 17, 12345, 2 ** 40]:
            assert alpha.floor_mul(n) == floor_mul_mp(alpha, n)

    def test_membership_matches_floor_jumps(self):
        for alpha in (FIB, AlphaValue.rational(2, 5)):
            mask = alpha.membership_range(-50, 50)
            for off, n in enumerate(range(-50, 51)):
                expect = alpha.floor_mul(n) - alpha.floor_mul(n - 1) == 1
                assert mask[off] == expect

    @pytest.mark.parametrize(
        "alpha",
        [FIB, AlphaValue.quadratic(1, 1, 2, 3), AlphaValue.quadratic(7, -2, 10, 3)],
    )
    def test_membership_at_the_int64_boundary(self, alpha):
        # the largest |n| with |n b| sqrt(d) < 2e9 is admitted and still exact
        # against the scalar floors in Python integers; one further integer raises
        top = math.floor(2e9 / (abs(alpha.b) * math.sqrt(alpha.d)))
        while top * abs(alpha.b) * math.sqrt(alpha.d) >= 2e9:
            top -= 1
        for lo, hi in ((top - 300, top), (-top + 1, -top + 300)):
            floors = [alpha.floor_mul(n) for n in range(lo - 1, hi + 1)]
            expect = np.diff(floors) == 1
            assert np.array_equal(alpha.membership_range(lo, hi), expect)
        with pytest.raises(ResourceError):
            alpha.membership_range(top - 10, top + 1)
        with pytest.raises(ResourceError):
            alpha.membership_range(-top, -top + 10)

    def test_membership_refuses_int64_overflow_of_n_a(self):
        alpha = AlphaValue.rational(10**12, 10**12 + 1)
        floors = [alpha.floor_mul(n) for n in range(-6, 6)]
        assert np.array_equal(alpha.membership_range(-5, 5), np.diff(floors) == 1)
        with pytest.raises(ResourceError):
            alpha.membership_range(5 * 10**6, 5 * 10**6 + 10)

    @pytest.mark.parametrize(
        "alpha",
        [FIB, AlphaValue.quadratic(7, -2, 10, 3), AlphaValue.rational(2, 5)],
        ids=str,
    )
    @pytest.mark.parametrize(
        "lo, hi",
        [
            (0, _BLOCK - 2),
            (0, _BLOCK - 1),
            (0, _BLOCK),
            (1, _BLOCK + 1),
            (_BLOCK - 1, 3 * _BLOCK + 1),
            (_BLOCK + 1, 3 * _BLOCK - 1),
            (-_BLOCK - 1, _BLOCK + 1),
            (-2 * _BLOCK - 5, -3),
            (-3 * _BLOCK + 1, -_BLOCK - 1),
            (7, 7),
            (_BLOCK, _BLOCK),
            (10, 9),
            (10, 3),
        ],
    )
    def test_blocked_membership_matches_one_shot(self, alpha, lo, hi):
        # windows ending on either side of a block boundary k 2^13, single
        # integers, empty windows and negative windows
        mask = alpha.membership_range(lo, hi)
        expect = membership_range_oneshot(alpha, lo, hi)
        assert mask.dtype == bool and mask.shape == (max(hi - lo + 1, 0),)
        assert np.array_equal(mask, expect)

    def test_membership_memory_is_one_block(self):
        # the result is 1 MB; the one-shot formula peaked at 54 MB
        tracemalloc.start()
        try:
            FIB.membership_range(0, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_inv_floor(self):
        assert HALF.inv_floor() == 2
        assert FIB.inv_floor() == 1
        assert AlphaValue.rational(2, 5).inv_floor() == 2


class TestBeattyPoints:
    def test_alpha_half_window(self):
        # floor(n/2) - floor((n-1)/2) = 1 exactly at even n, including 0
        ns = PointSet(HALF).raw_indices_in(0, 10)
        assert ns.dtype == np.int64
        assert ns.tolist() == [0, 2, 4, 6, 8, 10]

    def test_fibonacci_count_equals_floor(self):
        ns = PointSet(FIB).raw_indices_in(1, 20)
        assert len(ns) == FIB.floor_mul(20) == 12
        assert ns.tolist() == beatty_indices_mp(FIB, 1, 20)

    @pytest.mark.parametrize("alpha", [FIB, AlphaValue.rational(2, 5), AlphaValue.quadratic(0, 1, 2, 2)])
    def test_gap_law(self, alpha):
        ps = PointSet(alpha)
        gaps = np.unique(np.diff(ps.points_in(-500.0, 500.0)))
        g = alpha.inv_floor()
        assert set(np.rint(gaps).astype(int)) <= {g, g + 1}

    def test_count_law_over_prefix(self):
        # telescoping: #(raw indices in [1, N]) == floor(N alpha), exactly
        ps = PointSet(FIB)
        for N in (10, 137, 10_000):
            assert len(ps.raw_indices_in(1, N)) == FIB.floor_mul(N)

    def test_interval_guards(self):
        with pytest.raises(ResourceError):
            PointSet(HALF).raw_indices_in(0, 2 * 10**7)


class TestPointReader:
    """The exact integer window of a float window, and the one reader behind it."""

    @pytest.fixture(autouse=True)
    def fresh_blocks(self):
        environments._block.cache_clear()
        yield
        environments._block.cache_clear()

    @pytest.mark.parametrize(
        "offset",
        # dyadic, then not: translate_env keeps a Fraction offset as given
        [Fraction(0), Fraction(3, 16), Fraction(-37, 8)]
        + [Fraction(1, 3), Fraction(-2, 7), Fraction(-(10**8), 3)],
    )
    def test_index_window_is_exact(self, offset):
        pset = translate_env(EnvPoint.quasicrystal(FIB), offset).pset
        assert pset.offset == offset
        rng = np.random.default_rng(31)
        on_points = points_in_oneshot(pset, -20.0, 20.0)
        xs = np.concatenate(
            [
                rng.uniform(-100.0, 100.0, 200),
                rng.uniform(-1e15, 1e15, 100),
                [0.0, -0.0, 1e15, -1e15, 0.5, -0.5, 2.0**-60, -(2.0**-60)],
                on_points,
            ]
        )
        # every ordered pair of neighbours, so about half the windows have hi < lo
        for lo, hi in zip(xs, np.roll(xs, 1)):
            want = (
                math.ceil(Fraction(float(lo)) + offset),
                math.floor(Fraction(float(hi)) + offset),
            )
            assert pset.index_window(lo, hi) == want
        if offset.denominator & (offset.denominator - 1) == 0:
            # a dyadic offset puts each point exactly on its float, so a window
            # that starts and ends on a point holds just that point
            for p in on_points:
                assert pset.points_in(p, p).tolist() == [p]

    def test_writing_a_read_leaves_the_memo_alone(self):
        pset = PointSet(FIB, Fraction(3, 8))
        B = environments._BLOCK
        # inside one block, across block edges, one block exactly, a single member
        for lo, hi in ((3, 100), (-B - 6, 2 * B + 52), (-B, -1), (0, 0)):
            want = np.flatnonzero(membership_range_oneshot(FIB, lo, hi)) + lo
            first = pset.raw_indices_in(lo, hi)
            assert np.array_equal(first, want)
            first[:] = -1
            assert np.array_equal(pset.raw_indices_in(lo, hi), want)
        assert pset.raw_indices_in(5, 4).size == 0


class TestTranslation:
    def test_circle_examples(self):
        assert translate_env(EnvPoint.circle(0.25), 0.75).phase == pytest.approx(0.0, abs=1e-15)
        e = translate_env(EnvPoint.torus(0.0, 0.0), 1.0)
        assert e.w1 == pytest.approx(0.0, abs=1e-15)
        assert e.w2 == pytest.approx(math.sqrt(2) % 1.0, abs=1e-15)

    def test_cocycle_property(self):
        rng = np.random.default_rng(0)
        env_q = EnvPoint.quasicrystal(FIB, 0.25)
        env_c = EnvPoint.circle(0.3)
        env_t = EnvPoint.torus(0.2, 0.7)
        for _ in range(1000):
            s, t = rng.uniform(-20, 20, size=2)
            a = translate_env(translate_env(env_q, s), t)
            b = translate_env(env_q, Fraction(float(s)) + Fraction(float(t)))
            assert a.pset.offset == b.pset.offset  # exact
            for env in (env_c, env_t):
                a = translate_env(translate_env(env, s), t)
                b = translate_env(env, s + t)
                for x, y in ((a.phase, b.phase), (a.w1, b.w1), (a.w2, b.w2)):
                    d = abs(x - y) % 1.0
                    assert min(d, 1.0 - d) < 1e-12

    def test_exact_inverse(self):
        env = EnvPoint.quasicrystal(FIB, 0.1)
        back = translate_env(translate_env(env, 0.3), -0.3)
        assert back.pset.offset == env.pset.offset

    def test_offsets_stay_exact_fractions(self):
        # a bare PointSet holds the integer 0; every built or translated
        # quasicrystal offset is an exact Fraction
        bare = PointSet(FIB)
        assert type(bare.offset) is int and bare.offset == 0
        assert bare.index_window(-3.5, 7.25) == PointSet(FIB, Fraction(0)).index_window(-3.5, 7.25)
        moved = translate_env(EnvPoint("quasicrystal", pset=bare), 0.1)
        assert type(moved.pset.offset) is Fraction and moved.pset.offset == Fraction(0.1)
        for env in (EnvPoint.quasicrystal(FIB), EnvPoint.quasicrystal(FIB, 0.1)):
            assert type(env.pset.offset) is Fraction


class TestPatterns:
    def test_alpha_half_pattern(self):
        env = EnvPoint.quasicrystal(HALF)
        # even integers within the closed 4-ball of the origin
        assert pattern_at(env, 0.0, 4.0).points == (-4.0, -2.0, 0.0, 2.0, 4.0)

    def test_empty_pattern(self):
        env = EnvPoint.quasicrystal(HALF)
        assert pattern_at(env, 1.0, 0.1).points == ()

    def test_fibonacci_matches_window_scan(self):
        env = EnvPoint.quasicrystal(FIB)
        pts = env.pset.points_in(0.0, 40.0)
        x = float(pts[10])
        pat = pattern_at(env, x, 5.0)
        raw = [float(n) - x for n in beatty_indices_mp(FIB, -20, 80)]
        expect = tuple(p for p in raw if abs(p) <= 5.0 + 1e-12)
        assert pat.points == pytest.approx(expect, abs=1e-9)

    def test_requires_quasicrystal(self):
        with pytest.raises(DomainError):
            pattern_at(EnvPoint.circle(0.0), 0.0, 1.0)


class TestHullDistance:
    def test_identity(self):
        env = EnvPoint.quasicrystal(FIB)
        assert hull_distance(env, env, 16.0) == pytest.approx(1.0 / 17.0, abs=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        base = EnvPoint.quasicrystal(FIB)
        for _ in range(100):
            a = translate_env(base, rng.uniform(0, 50))
            b = translate_env(base, rng.uniform(0, 50))
            assert hull_distance(a, b, 8.0) == hull_distance(b, a, 8.0)

    def test_small_offset_bound(self):
        env = EnvPoint.quasicrystal(FIB)
        shifted = translate_env(env, 1e-3)
        r_star = 1.0
        r = 1.0
        while r <= 2048.0:
            if 1.0 / r > 1e-3:
                r_star = r
            r *= 2.0
        assert hull_distance(env, shifted, 2048.0) <= 1.0 / (r_star + 1.0)

    def test_mixed_alphas_rejected(self):
        with pytest.raises(DomainError):
            hull_distance(EnvPoint.quasicrystal(FIB), EnvPoint.quasicrystal(HALF), 4.0)


class TestReturnTimes:
    """The loop oracle, the one return-time code, which the equivariance and
    equidistribution checks read."""

    def test_periodic_progression(self):
        env = EnvPoint.quasicrystal(HALF)
        sec = cylinder_at(env, 2.0, 2.0)
        rt = return_times_loop(env, sec, (0.0, 20.0))
        assert rt == pytest.approx(np.arange(0.0, 21.0, 2.0), abs=1e-9)

    def test_empty_window(self):
        env = EnvPoint.quasicrystal(HALF)
        sec = cylinder_at(env, 2.0, 2.0)
        assert return_times_loop(env, sec, (5.0, 4.0)).size == 0

    def test_fibonacci_against_candidate_oracle(self):
        env = EnvPoint.quasicrystal(FIB, 0.125)
        sec = cylinder_at(env, 10.0, 3.0)
        got = return_times_loop(env, sec, (0.0, 10_000.0))
        # independent check: exhaustive candidate list from raw indices
        anchor = sec.anchor.points
        raw = [float(n) - 0.125 for n in beatty_indices_mp(FIB, -10, 16200)]
        cands = sorted({round(p - a, 9) for p in raw for a in anchor if 0 <= p - a <= 10_000})
        expect = []
        for t in cands:
            local = tuple(p - t for p in raw if abs(p - t) <= 3.0 + 1e-9)
            if len(local) == len(anchor) and all(
                abs(u - v) <= 1e-9 for u, v in zip(local, anchor)
            ):
                expect.append(t)
        assert got == pytest.approx(np.asarray(expect), abs=1e-9)

    def test_separation_and_count_bound(self):
        env = EnvPoint.quasicrystal(FIB)
        sec = cylinder_at(env, 0.0, 2.0)
        T = 500.0
        rt = return_times_loop(env, sec, (-T, T))
        gaps = np.diff(rt)
        assert np.all(gaps > 1e-9)
        assert rt.size <= 2 * T / FIB.inv_floor() + 1

    @pytest.mark.parametrize("section", SECTIONS)
    # the last two offsets put a set point 1e-10 inside the window's ends
    @pytest.mark.parametrize("offset", [0, 0.125, 3.5, 2939.0000000001, -610.9999999999])
    @pytest.mark.parametrize("alpha", ALPHAS, ids=str)
    def test_matches_loop_oracle(self, alpha, offset, section):
        # a scan that puts the anchor's first point on each set point and reads
        # the pattern there finds the loop's return times; the canonical
        # section's return times are the set's points themselves
        env = EnvPoint.quasicrystal(alpha, offset)
        sec = SECTIONS[section](env)
        got = return_times_loop(env, sec, (-1000.0, 1000.0))
        anchor, rho = sec.anchor.points, sec.anchor.radius
        cands = env.pset.points_in(-1000.0 + anchor[0], 1000.0 + anchor[0]) - anchor[0]
        expect = [
            t
            for t in cands
            if len(pat := pattern_at(env, t, rho).points) == len(anchor)
            and np.max(np.abs(np.subtract(pat, anchor))) <= 1e-9
        ]
        assert got.size > 0
        assert got == pytest.approx(np.asarray(expect), abs=1e-9)
        if section == "canonical":
            assert np.array_equal(got, env.pset.points_in(-1000.0, 1000.0))

    def test_anchor_outside_its_ball_never_matches(self):
        # no candidate window holds a set point, so nothing matches
        env = EnvPoint.quasicrystal(FIB)
        sec = CylinderSpec(Pattern(0.3, (0.5,)))
        assert return_times_loop(env, sec, (0.0, 100.0)).size == 0
