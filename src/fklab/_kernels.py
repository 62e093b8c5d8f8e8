"""The two dynamic-programming kernels, in numpy.

``chain_dp_backward_np`` is the banded chain DP behind ground energies and
minimizers (``chain_opt._solve_free``): chains with both ends free, whose
jumps lie in one band of offsets (jumps of the sign of lambda, one run per
solve).  Its top layer is zero, so layer n - m holds the cost-to-go of every
m-step chain, and one DP over the longest chain serves a whole ladder of
lengths.  ``chain_dp_path`` backtracks an optimal chain from any stored
layer.  Each layer relaxes only a run of jump offsets around the cheapest
spring, in one strided add and one minimum, and stops when a certificate
shows that no other offset can lower any row: the least spring cost beyond
the run plus a suffix or prefix minimum of the next layer bounds every
skipped candidate from below, and float addition rounds monotonically, so a
bound above a row's best value proves that the full band gives the same
bits.  The DP keeps every STRIDE-th layer, the layers the caller asks for and
each layer's run, not the (n + 1) x G table of all layers; the backtrack
recomputes one segment of at most STRIDE steps at a time from the
checkpoint above it, on the rows the path can reach, and so reads the bits
the full table would hold.  ``phi_dp`` is the Mane DP behind Phi and the
calibration defects (``mane._phi_over_nodes``), one pass over the DAG of
monotone steps, so chains of any length are searched; it returns Phi and,
when asked, the optimal step counts, not the chains.  It runs a stack of
independent node sets at once, so its Python loop turns once per node
position for the whole stack rather than once per node of every set.  The
holonomic LP has no kernel: its policy iteration (``holonomic_lp._howard``)
walks each policy graph once in Python and improves it in one numpy pass.

Each kernel has this one definition; ``tests/oracles.py`` holds plain-loop
versions that the tests compare against bit for bit (the chain DP's stored
layers and paths against a full table and its backtrack).  The ``_np``
suffix of the chain DP stays because ``fkbench/tracer.py`` keys its
``kernels.chain_dp_*`` counters on that name.  ``benchmarks/bench_kernels.py``
times both kernels and a ground-energy ladder read from one chain DP.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

# --------------------------------------------------------------------------
# chain DP over a uniform grid with an offset band
# --------------------------------------------------------------------------

# the chain DP stores every STRIDE-th layer; the backtrack recomputes the
# layers between two stored ones from the upper one
STRIDE = 8
# a run's buffer holds at most BLOCK cells (2 MB; one grid row when the run
# has more offsets), and the run goes through the grid in blocks of rows that
# fit it, so the buffer stays in cache and does not grow with the grid; every
# benchmark workload's DP fits one block
BLOCK = 1 << 18


class ChainDP:
    """What ``chain_dp_backward_np`` keeps of its cost-to-go layers C[0..n].

    ``layers[k]`` is C[k] for each stored layer k: the checkpoints 0, STRIDE,
    2 STRIDE, .. and n, and every kept layer; ``runs[k]`` is the certified
    offset run (a_k, b_k) of layer k; ``relaxed`` counts the (layer, offset)
    pairs relaxed, out of n * len(Wd).  A plain slotted class: a
    ``NamedTuple`` would add about 0.6 ms to every import.
    """

    __slots__ = ("V", "Wd", "dlo", "layers", "runs", "relaxed")

    def __init__(self, V, Wd, dlo, layers, runs, relaxed):
        self.V, self.Wd, self.dlo = V, Wd, dlo
        self.layers, self.runs, self.relaxed = layers, runs, relaxed


def _pads(D, dlo):
    """The +inf rows a layer needs below and above the grid for offsets dlo .. dlo + D - 1."""
    return max(0, -dlo), max(0, dlo + D - 1)


def _shifted(rows, start, D, width):
    """View v[i, d, j] = rows[i, start + d + j] for offsets d < D and j < width.

    Built with ``as_strided``: ``sliding_window_view`` gives the same view but
    adds about 0.14 MB to a command's peak RSS the first time it runs.
    """
    step = rows.strides[1]
    return as_strided(rows[:, start:], (rows.shape[0], D, width), (rows.strides[0], step, step))


def _run_buffer(rows, width):
    """A buffer for runs of up to ``rows`` offsets over at most ``width`` grid rows."""
    return np.empty((rows, min(width, max(1, BLOCK // rows))))


def _relax_run(out, view, Wd, a, b, buf):
    """out = min over offsets a..b of Wd[d] + view[d], view[d] the layer above shifted by d.

    Goes through the grid rows in blocks as wide as ``buf``.
    """
    w = buf.shape[1]
    for c in range(0, out.shape[0], w):
        block = out[c : c + w]
        tmp = buf[: b - a + 1, : block.shape[0]]
        np.add(Wd[a : b + 1, None], view[a : b + 1, c : c + w], out=tmp)
        np.minimum.reduce(tmp, axis=0, out=block)


def _cleared(w, m, cap, s):
    """Whether w + m[max(j + s, 0)] > cap[j] for every row j with j + s < G.

    Rows with j + s >= G have no candidate beyond the run and pass.
    """
    G = cap.shape[0]
    if s >= G:
        return True
    if s >= 0:
        return bool((w + m[s:] > cap[: G - s]).all())
    if -s >= G:
        return bool(w + m[0] > cap.max())
    return bool(w + m[0] > cap[:-s].max()) and bool((w + m[: G + s] > cap[-s:]).all())


def _stored(n, keep):
    """The layers an n-step DP stores, ascending: the checkpoints and ``keep``."""
    return sorted({*range(0, n, STRIDE), n, *keep})


def chain_dp_bytes(G, D, n, dlo, keep):
    """An upper bound on the bytes ``chain_dp_backward_np`` and then ``chain_dp_path`` hold.

    Both hold the stored layers: the checkpoints and the kept layers that are
    not checkpoints.  The DP adds two padded working layers, a run buffer of
    at most min(D G, max(D, BLOCK)) cells and a few temporary rows for its
    certificate; the backtrack adds a segment of STRIDE padded rows, a run
    buffer no larger and the path.  Every row is counted padded and G wide.
    """
    L, R = _pads(D, dlo)
    rows = len(_stored(n, keep)) + STRIDE + 2
    return 8 * (rows * (L + G + R) + min(D * G, max(D, BLOCK)) + n + 1)


def chain_dp_backward_np(V, Wd, n, dlo, keep):
    """Backward cost-to-go layers C[k, j] of a free n-step chain on the grid, checkpointed.

    Step cost j -> j+delta is V[j] + Wd[delta - dlo]; the top layer C[n] is
    zero, so the final point is free, and C[n - m] is the least cost of the
    m-step chains from each row.  Returns a ``ChainDP`` that stores the
    checkpoints and the layers listed in ``keep`` (each in 0..n).

    Each layer relaxes a run [a, b] of offsets and stops once no other offset
    can lower any row: an offset d > b reaches row j only through nxt[i] with
    i >= j + dlo + b + 1, so every such candidate is at least
    min Wd[b+1:] + min nxt[j+dlo+b+1:], and offsets below a likewise.  Float
    addition rounds monotonically, so when that bound exceeds best[j] (or is
    +inf) each skipped candidate does too and a full-band minimum would have
    kept best[j]: each layer is the full-band layer, bit for bit, whatever Wd
    is.  A NaN bound fails the test, so the run widens instead.  The run
    starts at argmin Wd and carries over to the next layer, widening by two
    offsets on each side whose bound fails; for the convex springs of the
    catalog it stays a fraction of the band.  The run is relaxed in one
    strided add into a reused buffer and one minimum per block of rows;
    offsets a failed bound adds are relaxed one at a time.  Layers 0, STRIDE,
    2 STRIDE, .., n and those in ``keep`` are stored, the others dropped once
    the layer below is done.
    """
    G = V.shape[0]
    D = Wd.shape[0]
    L, R = _pads(D, dlo)
    # layer k lives in work[k % 2, L : L + G], with +inf rows around it, and
    # shifted[k % 2, d] is that layer shifted by offset dlo + d
    work = np.full((2, L + G + R), np.inf)
    shifted = _shifted(work, L + dlo, D, G)
    work[n % 2, L : L + G] = 0.0
    # the stored layers share one array: rows allocated one by one, each
    # under the mmap threshold, leave the heap fragmented and raise a
    # command's peak RSS by about 0.3 MB
    stored = _stored(n, keep)
    layers = dict(zip(stored, np.empty((len(stored), G))))
    layers[n][:] = 0.0
    runs = [None] * n
    # least spring cost right of offset b and left of offset a
    right = np.append(np.minimum.accumulate(Wd[::-1])[::-1][1:], np.inf)
    left = np.concatenate(([np.inf], np.minimum.accumulate(Wd)[:-1]))
    big = np.finfo(np.float64).max
    a = b = int(np.argmin(Wd))
    buf = _run_buffer(1, G)
    relaxed = 0
    for k in range(n - 1, -1, -1):
        nxt = work[(k + 1) % 2, L : L + G]
        view = shifted[(k + 1) % 2]
        best = work[k % 2, L : L + G]
        if buf.shape[0] < b - a + 1:
            # room for one more widening on each side: fewer reallocations
            # fragment the heap less, which a command's peak RSS shows
            rows = min(b - a + 5, D)
            buf = None  # freed before the wider buffer is allocated
            buf = _run_buffer(rows, G)
        _relax_run(best, view, Wd, a, b, buf)
        grow_r, grow_l = b < D - 1, a > 0
        if grow_r:
            suf = np.minimum.accumulate(nxt[::-1])[::-1]
        if grow_l:
            pre_r = np.minimum.accumulate(nxt)[::-1]  # the suffix minimum of nxt reversed
        while grow_r or grow_l:
            # best capped to the largest finite float: a finite bound never clears
            # an infinite best, an infinite bound clears every row
            cap = np.minimum(best, big)
            grow_r = grow_r and not _cleared(right[b], suf, cap, dlo + b + 1)
            grow_l = grow_l and not _cleared(left[a], pre_r, cap[::-1], 1 - dlo - a)
            if grow_r:
                for d in range(b + 1, min(b + 3, D)):
                    np.minimum(best, view[d] + Wd[d], out=best)
                b = min(b + 2, D - 1)
                grow_r = b < D - 1
            if grow_l:
                for d in range(max(a - 2, 0), a):
                    np.minimum(best, view[d] + Wd[d], out=best)
                a = max(a - 2, 0)
                grow_l = a > 0
        runs[k] = (a, b)
        relaxed += b - a + 1
        best += V
        if k in layers:
            layers[k][:] = best
    return ChainDP(V, Wd, dlo, layers, runs, relaxed)


def chain_dp_path(dp, j, k):
    """Grid rows of the optimal (n - k)-step chain from row j of stored layer k, which
    must have finite cost.

    Each step takes the first offset whose Wd[d] + C[k+1] lies within 1e-12 of
    the least one (the smallest successor row, the lexicographic rule).  The
    path runs in segments that end at checkpoints: the first from layer k to
    the next multiple of STRIDE (or n), the others STRIDE steps each.  The
    layers inside a segment of m <= STRIDE steps are recomputed from the
    checkpoint above it with the runs ``dp`` stored.  From row j the path
    reaches only rows j + t dlo .. j + t dhi at step t (dhi = dlo + D - 1);
    layer t is recomputed on those rows alone, from rows of layer t + 1 that
    lie in the same range for t + 1, and a step reads only them, so each value
    read has the bits of the full table.  All segments share one window of
    the width the longest segment can reach.
    """
    V, Wd, dlo, runs = dp.V, dp.Wd, dp.dlo, dp.runs
    G, D, n = V.shape[0], Wd.shape[0], len(runs)
    L, R = _pads(D, dlo)
    dhi = dlo + D - 1
    W = min(G, max(dhi, STRIDE * dhi) - min(dlo, STRIDE * dlo) + 1)
    # seg[t, L + i] holds C[k0 + 1 + t][w0 + i] on the rows the path can reach,
    # +inf around the window
    seg = np.full((min(STRIDE, n - k), L + W + R), np.inf)
    shifted = _shifted(seg, L + dlo, D, W)
    buf = _run_buffer(max((b - a for a, b in runs[k:]), default=0) + 1, W)
    path = np.empty(n - k + 1, dtype=np.intp)
    path[0] = j
    k0 = k
    while k0 < n:
        k1 = min((k0 // STRIDE + 1) * STRIDE, n)
        m = k1 - k0
        w0 = min(max(0, j + min(dlo, m * dlo)), G - W)
        seg[m - 1, L : L + W] = dp.layers[k1][w0 : w0 + W]
        for t in range(m - 1, 0, -1):
            s, e = max(0, j + t * dlo) - w0, min(G, j + t * dhi + 1) - w0
            a, b = runs[k0 + t]
            out = seg[t - 1, L + s : L + e]
            _relax_run(out, shifted[t, :, s:e], Wd, a, b, buf)
            out += V[w0 + s : w0 + e]
        for t in range(m):
            # rows off the grid read +inf and are never the first within 1e-12
            vals = Wd + seg[t, L + j + dlo - w0 : L + j + dhi + 1 - w0]
            j += dlo + int((vals <= np.minimum.reduce(vals) + 1e-12).argmax())
            path[k0 - k + t + 1] = j
        k0 = k1
    return path


# --------------------------------------------------------------------------
# Mane cocycle DP: shortest paths on the DAG of an ordered node set
# --------------------------------------------------------------------------


def phi_dp(cost, sizes, steps=False):
    """One-pass DAG DP from node 0 over a stack of independent node sets.

    ``cost`` is an (M, G, G) stack; set m has ``sizes[m]`` nodes and
    cost[m, j, i] is the cost of its step i -> j.  Only entries with
    i < j < sizes[m] are read, so padding and the upper triangle may stay
    unset.  ``sizes`` must not increase, which makes the sets still running
    at node j a prefix of the stack: each j is one pass over that prefix,
    phi[:, j] = min_{i<j} phi[:, i] + cost[:, j, i] with phi[:, 0] = 0.

    Returns (phi, n_steps), both (M, G); entries at j >= sizes[m] are
    meaningless.  With ``steps``, n_steps[m, j] is the fewest steps over the
    optimal chains 0 -> j, one more than the least n_steps among j's tied
    best predecessors (0 at node 0 and at unreachable nodes); without it
    n_steps is None and the tie work is skipped.  A minimum is exact, so
    each set gets the bits a DP over that set alone gives.
    """
    M, G = cost.shape[0], cost.shape[1]
    phi = np.full((M, G), np.inf)
    phi[:, 0] = 0.0
    n_steps = np.zeros((M, G), dtype=np.int64) if steps else None
    k = M
    for j in range(1, max(sizes, default=1)):
        while sizes[k - 1] <= j:
            k -= 1
        s = phi[:k, :j] + cost[:k, j, :j]
        best = np.minimum.reduce(s, axis=1, out=phi[:k, j])
        if steps:
            tied = s == best[:, None]
            fewest = np.minimum.reduce(n_steps[:k, :j], axis=1, where=tied, initial=G)
            np.add(fewest, 1, out=n_steps[:k, j])
    if steps:
        # an unreachable node ties with every predecessor; no reachable node
        # ties with it, so its count is reset here rather than in the loop
        n_steps[phi == np.inf] = 0
    return phi, n_steps
