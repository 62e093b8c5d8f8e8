"""Hot numeric kernels: numba @njit loops with vectorized numpy fallbacks.

Two kernels live here, the banded chain DP and the Mane cocycle DP.  The
holonomic LP has no kernel: its policy iteration (``holonomic_lp._howard``)
walks each policy graph once in Python and improves it in one numpy pass.

The selected implementation is bound to the public name at import time (see
``_accel``).  All kernels operate on plain float64/int arrays so the numba and
numpy paths share identical semantics; parity is covered by tests and timed by
``benchmarks/bench_kernels.py``.
"""

from __future__ import annotations

import numpy as np

from ._accel import USE_NUMBA, njit

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


@njit(cache=True)
def _chain_dp_backward_jit(V, Wd, n, dlo, end_idx):
    G = V.shape[0]
    D = Wd.shape[0]
    C = np.empty((n + 1, G))
    for j in range(G):
        C[n, j] = np.inf
    if end_idx >= 0:
        C[n, end_idx] = 0.0
    else:
        for j in range(G):
            C[n, j] = 0.0
    for k in range(n - 1, -1, -1):
        for j in range(G):
            best = np.inf
            for di in range(D):
                jj = j + dlo + di
                if 0 <= jj < G:
                    v = Wd[di] + C[k + 1, jj]
                    if v < best:
                        best = v
            C[k, j] = V[j] + best
    return C


# --------------------------------------------------------------------------
# Mane cocycle DP: layered shortest paths on an ordered node set
# --------------------------------------------------------------------------


def phi_dp_np(cost, n_max):
    """Layered DP from node 0: D[m, j] = best m-step cost, back[m, j] = argmin."""
    G = cost.shape[0]
    D = np.full((n_max + 1, G), np.inf)
    back = np.full((n_max + 1, G), -1, dtype=np.int32)
    D[0, 0] = 0.0
    for m in range(1, n_max + 1):
        S = D[m - 1][:, None] + cost
        D[m] = S.min(axis=0)
        bm = S.argmin(axis=0).astype(np.int32)
        bm[~np.isfinite(D[m])] = -1
        back[m] = bm
    return D, back


@njit(cache=True)
def _phi_dp_jit(cost, n_max):
    G = cost.shape[0]
    D = np.full((n_max + 1, G), np.inf)
    back = np.full((n_max + 1, G), -1, dtype=np.int32)
    D[0, 0] = 0.0
    for m in range(1, n_max + 1):
        for j in range(G):
            best = np.inf
            bi = -1
            for i in range(G):
                dv = D[m - 1, i]
                if dv < np.inf:
                    v = dv + cost[i, j]
                    if v < best:
                        best = v
                        bi = i
            if bi >= 0:
                D[m, j] = best
                back[m, j] = bi
    return D, back


if USE_NUMBA:
    chain_dp_backward = _chain_dp_backward_jit
    phi_dp = _phi_dp_jit
else:
    chain_dp_backward = chain_dp_backward_np
    phi_dp = phi_dp_np


def warmup():
    """Trigger JIT compilation of all kernels on tiny inputs."""
    V = np.zeros(4)
    Wd = np.zeros(2)
    chain_dp_backward(V, Wd, 2, 0, -1)
    cost = np.zeros((3, 3))
    phi_dp(cost, 2)
