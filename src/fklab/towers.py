"""Kakutani-Rohlin towers for the Beatty suspension.

The hull of omega(alpha) is the suspension of the gap sequence, so the
abstract flow-box induction specializes to return words of the symbolic gap
sequence: floors are words over the gap letters, heights are word lengths in
real time, and the homology matrix counts letters per word.  The transverse
measure is replaced by empirical occurrence frequencies over a finite window.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .environments import PointSet
from .errors import DomainError, InsufficientDataError
from .exact import AlphaValue


class Tower:
    """One level of the tower: its floors, their heights and frequencies.

    It holds only what the window gave: the span that normalizes ``nu`` is
    sum_a counts_a H_a, and whether the gap sequence is periodic is the
    slope's ``is_rational``.

    Not a tuple, unlike the other records: ``induce_tower`` returns the pair
    (tower, homology matrix), and a tower must never pass for such a pair.
    """

    __slots__ = ("level", "labels", "heights", "base_index", "nu", "sequence")

    def __init__(
        self,
        level: int,
        labels: Tuple[Tuple[int, ...], ...],  # flat gap-letter words, one per floor
        heights: np.ndarray,
        base_index: int,
        nu: np.ndarray,  # empirical transverse frequencies (counts / realized span)
        sequence: np.ndarray,  # floor indices along the window
    ):
        self.level = level
        self.labels = labels
        self.heights = heights
        self.base_index = base_index
        self.nu = nu
        self.sequence = sequence

    def measure_mass(self) -> float:
        """sum_a nu_a H_a, which approximates 1 for long windows."""
        return float(np.dot(self.nu, self.heights))


def level0_tower(alpha: AlphaValue, window_length: float) -> Tower:
    """Floors are the gap letters of omega(alpha) read over [0, window_length]."""
    if window_length < 1000.0 * alpha.max_gap():
        raise DomainError("window must cover at least 1000 max gaps")
    ps = PointSet(alpha)
    idx = ps.raw_indices_in(0, int(window_length))
    gaps = np.diff(idx)
    # the gaps are a few small positive integers: a bincount finds the letters
    # in ascending order, and its running count of letters numbers them
    hist = np.bincount(gaps)
    letters = np.flatnonzero(hist)
    counts = hist[letters]
    seq = (np.cumsum(hist > 0, dtype=np.int32) - 1)[gaps]
    span = float(idx[-1] - idx[0])
    labels = tuple((int(g),) for g in letters)
    heights = letters.astype(float)
    return Tower(
        level=0,
        labels=labels,
        heights=heights,
        base_index=0,  # lexicographically smallest letter
        nu=counts / span,
        sequence=seq,
    )


def induce_tower(t: Tower) -> Tuple[Tower, np.ndarray]:
    """Induce on the base floor: new floors are the distinct return words.

    Reads only ``t``: its floor sequence is the window it was built over.
    Returns the induced tower and the homology matrix M, an int64 array of
    (lower floors) x (upper floors): M[a, b] counts lower floor a in word b.

    The window is cut at the base occurrences into one row per return word,
    gathered from a sliding window view of the floor sequence and padded
    with -1 to the longest word, so the array is (return words) x (longest
    word) integers.  Equal rows are grouped by a lexsort over the
    columns; only the few distinct words are ordered in Python, by their
    concatenated lower labels and then by their floor indices.

    Heights are computed through the homology matrix, so the column identity
    sum_a M[a, b] H_a = H_b holds exactly.  If only one return word shows up
    the sequence is periodic, and the same construction gives the one-floor
    induced tower; no split of the base by follower letter is tried, since a
    unique return word forces a unique follower.
    """
    seq = t.sequence
    occ = np.flatnonzero(seq == t.base_index)
    if occ.size < 100:
        raise DomainError("base floor must occur at least 100 times in the window")

    lengths = np.diff(occ)
    width = int(lengths.max())
    cols = np.arange(width)
    # the window of width letters at each base occurrence, read through a
    # strided view; the padding only keeps the last windows in bounds
    padded = np.concatenate([seq[: occ[-1]], np.full(width, -1, dtype=seq.dtype)])
    windows = sliding_window_view(padded, width)[occ[:-1]]
    rows = np.where(cols < lengths[:, None], windows, -1)
    order = np.lexsort(rows.T[::-1])
    srt = rows[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = np.any(srt[1:] != srt[:-1], axis=1)
    group = np.empty(order.size, dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    words = [tuple(int(v) for v in r[r >= 0]) for r in srt[first]]
    distinct = sorted(words, key=lambda w: (tuple(t.labels[i] for i in w), w))
    rank = np.array([distinct.index(w) for w in words], dtype=np.int32)
    seq1 = rank[group]
    counts_arr = np.bincount(seq1, minlength=len(distinct)).astype(float)
    shallow = int(np.count_nonzero(counts_arr < 2))
    if shallow:
        raise InsufficientDataError(
            f"{shallow} return word(s) observed fewer than twice; lengthen the window"
        )

    n_lower = len(t.labels)
    M = np.zeros((n_lower, len(distinct)), dtype=np.int64)
    for b, w in enumerate(distinct):
        for i in w:
            M[i, b] += 1
    heights = M.T.astype(float) @ t.heights
    labels = tuple(sum((t.labels[i] for i in w), ()) for w in distinct)
    span1 = float(np.sum(counts_arr * heights))
    base1 = min(range(len(labels)), key=lambda b: labels[b])
    tower1 = Tower(
        level=t.level + 1,
        labels=labels,
        heights=heights,
        base_index=base1,
        nu=counts_arr / span1,
        sequence=seq1,
    )
    return tower1, M


def tower_measure_residual(lower: Tower, upper: Tower, M: np.ndarray) -> float:
    """max_a | nu^l_a - sum_b M[a, b] nu^{l+1}_b | for empirical frequencies."""
    if M.shape != (len(lower.labels), len(upper.labels)):
        raise DomainError("homology matrix shape does not match the tower pair")
    if upper.level != lower.level + 1:
        raise DomainError("towers must be consecutive levels")
    predicted = M.astype(float) @ upper.nu
    return float(np.max(np.abs(lower.nu - predicted)))
