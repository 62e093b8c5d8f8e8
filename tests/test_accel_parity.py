"""The numba kernels and the pure-numpy fallbacks must agree.

Runs a small workload through both paths.  In-process comparison uses the
explicit _np/_jit pairs; a subprocess check exercises the FKLAB_NUMBA=0
selection route end to end.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fklab import _kernels
from fklab._accel import USE_NUMBA

_SCRIPT = r"""
import json
import numpy as np
from fklab import EnvPoint, circle_model, discretize_circle, minimize_free, solve_primal
from fklab.mane import mane_table

m = circle_model(1.0, 0.5)
env = EnvPoint.circle(0.0)
res = minimize_free(m, env, 8, h=0.1)
table = mane_table(m, env, 0.0, 1.0, 0.25, 8)
lp = discretize_circle(m, 8, 2.0)
_, primal = solve_primal(lp)
print(json.dumps({
    "positions": list(res.chain.positions),
    "energy": res.energy,
    "phi": list(table.phi),
    "primal": primal,
}))
"""


def _run_with_flag(flag: str):
    env = dict(os.environ)
    env["FKLAB_NUMBA"] = flag
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


class TestKernelPairs:
    def test_chain_dp_pair(self):
        rng = np.random.default_rng(0)
        V = rng.uniform(0, 1, 40)
        Wd = rng.uniform(0, 2, 9)
        for end in (-1, 17):
            a = _kernels.chain_dp_backward_np(V, Wd, 6, -4, end)
            b = _kernels._chain_dp_backward_jit(V, Wd, 6, -4, end)
            assert np.allclose(a, b, atol=1e-12, equal_nan=True)

    def test_phi_dp_pair(self):
        rng = np.random.default_rng(1)
        G = 12
        cost = np.full((G, G), np.inf)
        iu = np.triu_indices(G, k=1)
        cost[iu] = rng.uniform(-1, 1, iu[0].size)
        Da, ba = _kernels.phi_dp_np(cost, 8)
        Db, bb = _kernels._phi_dp_jit(cost, 8)
        assert np.allclose(Da, Db, atol=1e-12)
        assert np.array_equal(ba, bb)

    @pytest.mark.skipif(not USE_NUMBA, reason="numba path not active")
    def test_selected_names_point_at_jit(self):
        assert _kernels.chain_dp_backward is _kernels._chain_dp_backward_jit


class TestEndToEndParity:
    def test_numpy_flag_matches_default(self):
        ref = _run_with_flag("1")
        alt = _run_with_flag("0")
        assert np.allclose(ref["positions"], alt["positions"], atol=1e-9)
        assert ref["energy"] == pytest.approx(alt["energy"], abs=1e-12)
        assert np.allclose(ref["phi"], alt["phi"], atol=1e-12)
        assert ref["primal"] == pytest.approx(alt["primal"], abs=1e-12)
