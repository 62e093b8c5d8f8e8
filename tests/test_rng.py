"""The in-repo SplitMix64 stream: reference outputs, ranges and the rejection loop."""

import pytest

from fklab import DomainError
from fklab._rng import Rng


def test_seed_zero_matches_the_reference_outputs():
    # the first three outputs of Vigna's splitmix64.c from state 0
    rng = Rng(0)
    assert [rng._next64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_uniform_stays_in_range():
    for seed in (0, 1, 5, 2**64 - 1):
        rng = Rng(seed)
        for low, high in ((0.0, 10.0), (-5.0, 5.0), (2.5, 2.5 + 1e-12)):
            for _ in range(200):
                u = rng.uniform(low, high)
                assert isinstance(u, float)
                assert low <= u < high


def test_integers_cover_the_range():
    rng = Rng(3)
    got = [rng.integers(-25, 26) for _ in range(2000)]
    assert set(got) == set(range(-25, 26))


def test_single_value_range_returns_low():
    rng = Rng(9)
    assert [rng.integers(-7, -6) for _ in range(20)] == [-7] * 20


def test_lemire_rejection_loop(monkeypatch):
    # 2**63 + 11 values: 2**64 mod n = 2**63 - 11, so about half of the
    # scaled draws are rejected and redrawn
    calls = []
    next64 = Rng._next64

    def counted(self):
        calls.append(None)
        return next64(self)

    monkeypatch.setattr(Rng, "_next64", counted)
    low, high = -(2**62), 2**62 + 2**62 + 11
    for seed in (0, 1, 2**32):
        rng = Rng(seed)
        for _ in range(50):
            assert low <= rng.integers(low, high) < high
    assert len(calls) > 150  # the loop redrew some of the 150 draws


def test_domain():
    with pytest.raises(DomainError):
        Rng(-1)
    with pytest.raises(DomainError):
        Rng(2**64)
    with pytest.raises(DomainError):
        Rng(0).integers(3, 3)
    with pytest.raises(DomainError):
        Rng(0).integers(0, 2**64 + 1)
