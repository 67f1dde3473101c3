"""Bulk OU draws: bitwise the per-step reference, stream left in place."""

import numpy as np
import pytest

from repro.traces.behavior import _ou_process


def _ou_process_per_step(rng, n, dt, sigma, tau):
    """The per-step form: one ``normal(size=3)`` draw per step."""
    x = np.zeros((n, 3))
    if sigma <= 0:
        return x
    alpha = np.exp(-dt / tau)
    drive = sigma * np.sqrt(max(1e-12, 1.0 - alpha**2))
    for i in range(1, n):
        x[i] = alpha * x[i - 1] + drive * rng.normal(size=3)
    return x


@pytest.mark.parametrize("n", [0, 1, 2, 301])
@pytest.mark.parametrize("seed", [0, 1, 7, 123, 2021])
@pytest.mark.parametrize("sigma,tau", [(0.05, 1.5), (0.03, 0.4), (0.0, 1.0)])
def test_bulk_draws_match_per_step_bitwise(n, seed, sigma, tau):
    bulk_rng = np.random.default_rng(seed)
    step_rng = np.random.default_rng(seed)
    bulk = _ou_process(bulk_rng, n, 1.0 / 30.0, sigma, tau)
    step = _ou_process_per_step(step_rng, n, 1.0 / 30.0, sigma, tau)
    assert bulk.shape == (n, 3)
    assert bulk.tobytes() == step.tobytes()
    # Both leave the stream at the same position.
    assert bulk_rng.normal(size=4).tobytes() == step_rng.normal(size=4).tobytes()
