"""Metamorphic oracles: exact symmetries of the model, checked without a second solver.

On the circle with the quadratic spring W(s) = (s - lambda)^2 / 2, lambda ->
lambda + 1 shifts every jump by one period and lambda -> -lambda mirrors the
chain (V is even), so the holonomic LP value is the same at lambda, lambda + 1,
-lambda and 1 - lambda.  The circle environment of phase phi is the one of
phase 0 translated by phi, and a translate of a free chain is a free chain,
so every least n-chain energy m_n is the same at every phase.
"""

import numpy as np
import pytest

from fklab import EnvPoint, GridSpec, circle_model, discretize_circle, ground_energy, solve


@pytest.mark.parametrize("N", [32, 56])
@pytest.mark.parametrize("K, lam", [(0.1, 0.3), (1.0, 0.5), (2.0, 0.618), (1.0, 0.25)])
def test_lp_value_lambda_relations(K, lam, N):
    values = [
        solve(discretize_circle(circle_model(K, image), N, 3.0)).dual
        for image in (lam, lam + 1.0, -lam, 1.0 - lam)
    ]
    assert max(values) - min(values) <= 1e-12, values


@pytest.mark.parametrize("K, lam", [(1.0, 0.5), (1.0, 0.3), (3.0, 0.75), (0.1, 0.5)])
def test_ground_energy_phase_invariance(K, lam):
    """Every m_n is the same at 16 phases on the grid of step h = 0.05 and at 16 off it.

    Two cases wait for a chain solver whose basin does not depend on the grid
    (ROADMAP item 17): at n = 32, (K, lambda) = (2, 0.618) spreads by 5.5e-4
    and (4, 0.4) by 8.8e-4 over the same phases, on and off the grid alike.
    """
    model, grid = circle_model(K, lam), GridSpec(h=0.05)
    phases = [j / 16 for j in range(16)] + [0.013 + j / 16 for j in range(16)]
    ladders = [ground_energy(model, EnvPoint.circle(phi), (4, 8, 16, 32), grid) for phi in phases]
    m = np.array([est.m_values for est in ladders])
    assert np.max(np.ptp(m, axis=0)) <= 1e-12, np.ptp(m, axis=0)
