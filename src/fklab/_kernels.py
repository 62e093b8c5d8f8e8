"""The two dynamic-programming kernels, in numpy.

``chain_dp_backward_np`` is the banded chain DP behind ground energies and
minimizers (``chain_opt._dp_solve``); ``phi_dp`` is the Mane DP behind Phi
and the calibration defects (``mane._phi_over_nodes``), one pass over the DAG
of monotone steps, so chains of any length are searched; it returns Phi and
the optimal step counts, not the chains.  The holonomic LP
has no kernel: its policy iteration (``holonomic_lp._howard``) walks each
policy graph once in Python and improves it in one numpy pass.

Each kernel has this one definition; ``tests/oracles.py`` holds plain-loop
versions that the tests compare against.  The ``_np`` suffix of the chain DP
stays because ``fkbench/tracer.py`` keys its ``kernels.chain_dp_*`` counters
on that name.  ``benchmarks/bench_kernels.py`` times both kernels.
"""

from __future__ import annotations

import numpy as np

# --------------------------------------------------------------------------
# chain DP over a uniform grid with an offset band
# --------------------------------------------------------------------------


def chain_dp_backward_np(V, Wd, n, dlo, end_idx):
    """Backward cost-to-go table C[k, j] for an n-step chain on the grid.

    Step cost j -> j+delta is V[j] + Wd[delta - dlo].  end_idx >= 0 pins the
    final point, end_idx == -1 leaves it free.
    """
    G = V.shape[0]
    D = Wd.shape[0]
    C = np.empty((n + 1, G))
    if end_idx >= 0:
        C[n] = np.inf
        C[n, end_idx] = 0.0
    else:
        C[n] = 0.0
    for k in range(n - 1, -1, -1):
        best = np.full(G, np.inf)
        nxt = C[k + 1]
        for di in range(D):
            delta = dlo + di
            if delta >= 0:
                if delta < G:
                    np.minimum(best[: G - delta], Wd[di] + nxt[delta:], out=best[: G - delta])
            else:
                if -delta < G:
                    np.minimum(best[-delta:], Wd[di] + nxt[: G + delta], out=best[-delta:])
        C[k] = V + best
    return C


# --------------------------------------------------------------------------
# Mane cocycle DP: shortest paths on the DAG of an ordered node set
# --------------------------------------------------------------------------


def phi_dp(cost):
    """One-pass DAG DP from node 0 over the strict upper triangle of ``cost``.

    phi[j] = min_{i<j} phi[i] + cost[i, j] with phi[0] = 0 (0 steps).  Returns
    (phi, n_steps); n_steps[j] is the fewest steps over the optimal chains
    0 -> j, one more than the least n_steps among j's tied best predecessors
    (0 at node 0 and at unreachable nodes).
    """
    G = cost.shape[0]
    phi = np.full(G, np.inf)
    n_steps = np.zeros(G, dtype=np.int64)
    phi[0] = 0.0
    for j in range(1, G):
        s = phi[:j] + cost[:j, j]
        best = s.min()
        if best == np.inf:
            continue
        phi[j] = best
        n_steps[j] = n_steps[:j][s == best].min() + 1
    return phi, n_steps


