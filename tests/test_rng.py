"""The in-repo PCG64 stream against numpy's default_rng, byte for byte."""

import numpy as np
import pytest

from fklab import DomainError
from fklab._rng import Rng

# 2**64 - 1 is the largest CLI seed; the last two seeds have four and seven
# 32-bit words, and only the seven-word one runs SeedSequence's loop over
# entropy words beyond its four-word pool
SEEDS = list(range(200)) + [2**32 - 1, 2**32, 2**64 - 1, 2**100 + 12345, 2**200 + 7]
# the uniform bounds fklab draws at: sampled x, sampled steps |t| <= R for
# the default jump caps lambda + 3, and env-report's hull offsets
BOUNDS = [(-5.0, 5.0), (-3.5, 3.5), (-4.618, 4.618), (0.0, 10.0)]


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def test_uniform_matches_numpy():
    for seed in SEEDS:
        ours, ref = Rng(seed), np.random.default_rng(seed)
        for low, high in BOUNDS:
            want = ref.uniform(low, high, size=400)
            assert _bits(ours.uniform(low, high, size=400)) == _bits(want), (seed, low)
            got = ours.uniform(low, high)
            assert isinstance(got, float)
            assert _bits(got) == _bits(ref.uniform(low, high)), (seed, low)


def test_integers_match_numpy():
    for seed in SEEDS:
        for K in (0, 1, 25, 50):
            ours, ref = Rng(seed), np.random.default_rng(seed)
            got = [ours.integers(-K, K + 1) for _ in range(50)]
            assert got == [int(ref.integers(-K, K + 1)) for _ in range(50)], (seed, K)


def test_mixed_calls_keep_the_buffered_half():
    # a uniform draw takes a fresh 64-bit word and leaves the buffered
    # 32-bit half of the last integers draw for the next one
    for seed in (0, 5, 2**64 - 1):
        ours, ref = Rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert ours.integers(-25, 26) == int(ref.integers(-25, 26))
            assert _bits(ours.uniform(0.0, 10.0)) == _bits(ref.uniform(0.0, 10.0))


def test_lemire_rejection_near_two_to_the_31(monkeypatch):
    # 2**31 + 11 values: 2**32 mod n = 2**31 - 11, so about half of the
    # scaled draws are rejected and redrawn
    calls = []
    next32 = Rng._next32

    def counted(self):
        calls.append(None)
        return next32(self)

    monkeypatch.setattr(Rng, "_next32", counted)
    low, high = -(2**30) - 5, 2**30 + 6
    for seed in (0, 1, 2**32):
        ours, ref = Rng(seed), np.random.default_rng(seed)
        got = [ours.integers(low, high) for _ in range(50)]
        assert got == [int(ref.integers(low, high)) for _ in range(50)]
    assert len(calls) > 150  # the loop redrew some of the 150 draws


def test_full_32_bit_range():
    ours, ref = Rng(7), np.random.default_rng(7)
    assert [ours.integers(0, 2**32) for _ in range(9)] == [
        int(ref.integers(0, 2**32)) for _ in range(9)
    ]


def test_domain():
    with pytest.raises(DomainError):
        Rng(-1)
    with pytest.raises(DomainError):
        Rng(0).integers(0, 2**32 + 1)
    with pytest.raises(DomainError):
        Rng(0).integers(3, 3)
