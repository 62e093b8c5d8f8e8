"""Metamorphic oracles: exact symmetries of the model, checked without a second solver.

On the circle with the quadratic spring W(s) = (s - lambda)^2 / 2, lambda ->
lambda + 1 shifts every jump by one period and lambda -> -lambda mirrors the
chain (V is even), so the holonomic LP value is the same at lambda, lambda + 1,
-lambda and 1 - lambda.
"""

import pytest

from fklab import circle_model, discretize_circle, solve


@pytest.mark.parametrize("N", [32, 56])
@pytest.mark.parametrize("K, lam", [(0.1, 0.3), (1.0, 0.5), (2.0, 0.618), (1.0, 0.25)])
def test_lp_value_lambda_relations(K, lam, N):
    values = [
        solve(discretize_circle(circle_model(K, image), N, 3.0)).dual
        for image in (lam, lam + 1.0, -lam, 1.0 - lam)
    ]
    assert max(values) - min(values) <= 1e-12, values
