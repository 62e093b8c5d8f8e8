"""The two dynamic-programming kernels, in numpy.

``chain_dp_backward_np`` is the banded chain DP behind ground energies and
minimizers (``chain_opt._dp_solve``).  Each layer relaxes only a run of jump
offsets around the cheapest spring and stops when a certificate shows that
no other offset can lower any row: the least spring cost beyond the run plus
a suffix or prefix minimum of the next layer bounds every skipped candidate
from below, and float addition rounds monotonically, so a bound above a
row's best value proves that the full band gives the same bits.  ``phi_dp``
is the Mane DP behind Phi and the calibration defects
(``mane._phi_over_nodes``), one pass over the DAG of monotone steps, so
chains of any length are searched; it returns Phi and, when asked, the
optimal step counts, not the chains.  It runs a stack of independent node
sets at once, so its Python loop turns once per node position for the whole
stack rather than once per node of every set.  The holonomic LP has no
kernel: its policy iteration (``holonomic_lp._howard``) walks each policy
graph once in Python and improves it in one numpy pass.

Each kernel has this one definition; ``tests/oracles.py`` holds plain-loop
versions that the tests compare against bit for bit.  The ``_np`` suffix of
the chain DP stays because ``fkbench/tracer.py`` keys its
``kernels.chain_dp_*`` counters on that name.  ``benchmarks/bench_kernels.py``
times both kernels.
"""

from __future__ import annotations

import numpy as np

# --------------------------------------------------------------------------
# chain DP over a uniform grid with an offset band
# --------------------------------------------------------------------------


def _relax(best, nxt, w, delta):
    """best[j] = min(best[j], w + nxt[j + delta]) over the rows with j + delta on the grid."""
    G = best.shape[0]
    if delta >= 0:
        if delta < G:
            np.minimum(best[: G - delta], w + nxt[delta:], out=best[: G - delta])
    elif -delta < G:
        np.minimum(best[-delta:], w + nxt[: G + delta], out=best[-delta:])


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


def chain_dp_backward_np(V, Wd, n, dlo, end_idx):
    """Backward cost-to-go table C[k, j] for an n-step chain on the grid.

    Step cost j -> j+delta is V[j] + Wd[delta - dlo].  end_idx >= 0 pins the
    final point, end_idx == -1 leaves it free.  Returns (C, relaxed), where
    relaxed counts the (layer, offset) pairs the DP relaxed; the full band
    has n * len(Wd).

    Each layer relaxes a run [a, b] of offsets and stops once no other offset
    can lower any row: an offset d > b reaches row j only through nxt[i] with
    i >= j + dlo + b + 1, so every such candidate is at least
    min Wd[b+1:] + min nxt[j+dlo+b+1:], and offsets below a likewise.  Float
    addition rounds monotonically, so when that bound exceeds best[j] (or is
    +inf) each skipped candidate does too and a full-band minimum would have
    kept best[j]: the table is the full-band table, bit for bit, whatever Wd
    is.  A NaN bound fails the test, so the run widens instead.  The run
    starts at argmin Wd and carries over to the next layer, widening by two
    offsets on each side whose bound fails; for the convex springs of the
    catalog it stays a fraction of the band.
    """
    G = V.shape[0]
    D = Wd.shape[0]
    C = np.empty((n + 1, G))
    if end_idx >= 0:
        C[n] = np.inf
        C[n, end_idx] = 0.0
    else:
        C[n] = 0.0
    # least spring cost right of offset b and left of offset a
    right = np.append(np.minimum.accumulate(Wd[::-1])[::-1][1:], np.inf)
    left = np.concatenate(([np.inf], np.minimum.accumulate(Wd)[:-1]))
    big = np.finfo(np.float64).max
    a = b = int(np.argmin(Wd))
    relaxed = 0
    for k in range(n - 1, -1, -1):
        nxt = C[k + 1]
        best = np.full(G, np.inf)
        for di in range(a, b + 1):
            _relax(best, nxt, Wd[di], dlo + di)
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
                for di in range(b + 1, min(b + 3, D)):
                    _relax(best, nxt, Wd[di], dlo + di)
                b = min(b + 2, D - 1)
                grow_r = b < D - 1
            if grow_l:
                for di in range(max(a - 2, 0), a):
                    _relax(best, nxt, Wd[di], dlo + di)
                a = max(a - 2, 0)
                grow_l = a > 0
        relaxed += b - a + 1
        C[k] = V + best
    return C, relaxed


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
