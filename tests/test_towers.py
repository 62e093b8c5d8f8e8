import math

import numpy as np
import pytest

from fklab import (
    AlphaValue,
    DomainError,
    InsufficientDataError,
    PointSet,
    induce_tower,
    level0_tower,
    tower_measure_residual,
)
from fklab.towers import Tower

from oracles import FIB, beatty_indices_mp, induce_tower_loop

HALF = AlphaValue.rational(1, 2)
ALPHAS = [FIB, AlphaValue.rational(2, 5), AlphaValue.quadratic(0, 1, 2, 2)]
PHI = (1.0 + math.sqrt(5.0)) / 2.0


class TestLevel0:
    def test_periodic_single_floor(self):
        t = level0_tower(HALF, 5000.0)
        assert t.labels == ((2,),)
        assert t.heights.tolist() == [2.0]
        assert t.nu[0] == pytest.approx(0.5, abs=1e-12)

    def test_fibonacci_two_floors(self):
        t = level0_tower(FIB, 1e5)
        assert t.labels == ((1,), (2,))
        assert t.heights.tolist() == [1.0, 2.0]
        # long/short frequency ratio converges to (phi-1)/(2-phi)
        assert t.nu[1] / t.nu[0] == pytest.approx((PHI - 1) / (2 - PHI), abs=5e-3)

    def test_mass_near_one(self):
        t = level0_tower(FIB, 1e5)
        assert t.measure_mass() == pytest.approx(1.0, abs=5e-3)

    def test_window_precondition(self):
        with pytest.raises(DomainError):
            level0_tower(FIB, 100.0)

    @pytest.mark.parametrize("alpha", ALPHAS + [AlphaValue.rational(3, 7)], ids=str)
    def test_bincount_letters_match_unique(self, alpha):
        t = level0_tower(alpha, 1e5)
        idx = PointSet(alpha).raw_indices_in(0, 10**5)
        gaps = np.diff(idx)
        letters, seq, counts = np.unique(gaps, return_inverse=True, return_counts=True)
        assert t.labels == tuple((int(g),) for g in letters)
        assert np.array_equal(t.heights, letters.astype(float))
        assert np.array_equal(t.nu, counts / float(idx[-1] - idx[0]))
        assert np.array_equal(t.sequence, seq)
        assert t.sequence.dtype == np.int32

    def test_sequence_matches_oracle(self):
        t = level0_tower(FIB, 2100.0)
        idx = beatty_indices_mp(FIB, 0, 2100)
        gaps = np.diff(np.asarray(idx))
        letters = [t.labels[i][0] for i in t.sequence]
        assert letters == [int(g) for g in gaps]


class TestInduction:
    def test_periodic_fixed_point(self):
        t0 = level0_tower(HALF, 5000.0)
        t1, m = induce_tower(t0)
        assert t1.labels == t0.labels
        assert m.tolist() == [[1]]

    def test_fibonacci_return_words_oracle(self):
        t0 = level0_tower(FIB, 20_000.0)
        t1, m01 = induce_tower(t0)
        # independent symbolic scan for the return words to the short letter
        idx = beatty_indices_mp(FIB, 0, 20_000)
        gaps = [int(g) for g in np.diff(np.asarray(idx))]
        occ = [i for i, g in enumerate(gaps) if g == 1]
        words = {tuple(gaps[a:b]) for a, b in zip(occ, occ[1:])}
        assert set(t1.labels) == words
        # column height identity, exact
        for b in range(m01.shape[1]):
            assert float(m01[:, b] @ t0.heights) == float(t1.heights[b])

    def test_two_levels_exact_heights_and_growth(self):
        t0 = level0_tower(FIB, 1e5)
        t1, m01 = induce_tower(t0)
        t2, m12 = induce_tower(t1)
        assert np.array_equal(m01.T.astype(float) @ t0.heights, t1.heights)
        assert np.array_equal(m12.T.astype(float) @ t1.heights, t2.heights)
        # word growth: min height upstairs at least the base height downstairs
        assert t1.heights.min() >= t0.heights[t0.base_index]
        assert t2.heights.min() >= t1.heights[t1.base_index]
        # labels concatenate lower labels
        for lab in t2.labels:
            s = "".join(map(str, lab))
            assert any(s.startswith("".join(map(str, l1))) for l1 in t1.labels)

    def test_insufficient_window(self):
        t0 = level0_tower(FIB, 2500.0)
        # after enough inductions the base stops occurring often enough
        with pytest.raises((DomainError, InsufficientDataError)):
            t = t0
            for _ in range(8):
                t, _ = induce_tower(t)

    def test_shallow_word_is_insufficient_data(self):
        # 121 base occurrences: the word (0, 1) is seen 120 times, (0, 1, 1) once
        seq = np.array([0, 1] * 120 + [0, 1, 1, 0])
        t = Tower(
            level=0,
            labels=((1,), (2,)),
            heights=np.array([1.0, 2.0]),
            base_index=0,
            nu=np.array([0.5, 0.25]),
            sequence=seq,
        )
        with pytest.raises(InsufficientDataError, match=r"^1 return word\(s\) observed"):
            induce_tower(t)

    @pytest.mark.parametrize("alpha", ALPHAS, ids=str)
    def test_matches_loop_oracle_at_two_levels(self, alpha):
        fast = slow = level0_tower(alpha, 1e5)
        for _ in range(2):
            (fast, m_fast), (slow, m_slow) = (
                induce_tower(fast),
                induce_tower_loop(slow),
            )
            assert fast.labels == slow.labels
            assert np.array_equal(fast.heights, slow.heights)
            assert np.array_equal(m_fast, m_slow)
            assert m_fast.dtype == m_slow.dtype == np.int64
            assert np.array_equal(fast.sequence, slow.sequence)
            assert fast.sequence.dtype == slow.sequence.dtype
            assert np.array_equal(fast.nu, slow.nu)
            assert fast.base_index == slow.base_index


class TestMeasureRelation:
    def test_periodic_residual_zero(self):
        t0 = level0_tower(HALF, 5000.0)
        t1, m = induce_tower(t0)
        assert tower_measure_residual(t0, t1, m) == pytest.approx(0.0, abs=1e-12)

    def test_fibonacci_residual_small(self):
        t0 = level0_tower(FIB, 1e5)
        t1, m01 = induce_tower(t0)
        t2, m12 = induce_tower(t1)
        assert tower_measure_residual(t0, t1, m01) <= 1e-3
        assert tower_measure_residual(t1, t2, m12) <= 1e-3

    def test_residual_scales_with_window(self):
        t0 = level0_tower(FIB, 20_000.0)
        t1, m01 = induce_tower(t0)
        res = tower_measure_residual(t0, t1, m01)
        assert res <= 10.0 * (1.0 / 20_000.0) * len(t0.labels)

    def test_permutation_invariance(self):
        t0 = level0_tower(FIB, 1e5)
        t1, m = induce_tower(t0)
        perm = [1, 0]
        t0p = type(t0)(
            level=t0.level,
            labels=tuple(t0.labels[i] for i in perm),
            heights=t0.heights[perm],
            base_index=perm.index(t0.base_index),
            nu=t0.nu[perm],
            sequence=t0.sequence,
        )
        assert tower_measure_residual(t0p, t1, m[perm, :]) == pytest.approx(
            tower_measure_residual(t0, t1, m), abs=1e-15
        )

    def test_dimension_mismatch(self):
        t0 = level0_tower(FIB, 1e5)
        t1, m01 = induce_tower(t0)
        t2, m12 = induce_tower(t1)
        with pytest.raises(DomainError):
            tower_measure_residual(t0, t2, m01)
