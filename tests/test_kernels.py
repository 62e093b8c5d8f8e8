"""The numpy DP kernels against their plain-loop oracles."""

import itertools

import numpy as np

from fklab import _kernels

from oracles import chain_dp_backward_loop, phi_dp_loop


class TestKernelPairs:
    def test_chain_dp_pair(self):
        rng = np.random.default_rng(0)
        V = rng.uniform(0, 1, 40)
        Wd = rng.uniform(0, 2, 9)
        for end in (-1, 17):
            a = _kernels.chain_dp_backward_np(V, Wd, 6, -4, end)
            b = chain_dp_backward_loop(V, Wd, 6, -4, end)
            assert np.allclose(a, b, atol=1e-12, equal_nan=True)

    def test_phi_dp_pair(self):
        # integer costs are full of exact ties, which exercise the tie rules
        rng = np.random.default_rng(1)
        for G, integer_costs in itertools.product((2, 5, 12, 25), (False, True)):
            cost = np.full((G, G), np.inf)
            iu = np.triu_indices(G, k=1)
            if integer_costs:
                cost[iu] = rng.integers(-2, 3, iu[0].size)
            else:
                cost[iu] = rng.uniform(-1, 1, iu[0].size)
            phi, n_steps, back = _kernels.phi_dp(cost)
            D, layer_back = phi_dp_loop(cost, G - 1)
            assert np.array_equal(phi[1:], D[1:, 1:].min(axis=0))
            assert np.array_equal(n_steps[1:], D[1:, 1:].argmin(axis=0) + 1)
            for j in range(1, G):
                dag = [j]
                while back[dag[-1]] >= 0:
                    dag.append(int(back[dag[-1]]))
                layered, m = [j], int(n_steps[j])
                while m > 0:
                    layered.append(int(layer_back[m, layered[-1]]))
                    m -= 1
                assert dag == layered
