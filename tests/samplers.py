"""Parameter samplers that only the tests use."""

import math

import numpy as np


def sample_outside_pairs(n: int, rng: np.random.Generator) -> list[tuple[float, float]]:
    """Draw (alpha, beta) with alpha <= 2, beta <= 1 outside the region.

    Such points exist only for beta < 1/2, between the invariance bound
    and 2.
    """
    out = []
    for _ in range(n):
        beta = float(rng.uniform(0.01, 0.45))
        bound = 1.0 + 2.0 * math.sqrt(beta * (1.0 - beta))
        alpha = float(bound + (2.0 - bound) * rng.uniform(1e-6, 1.0))
        out.append((alpha, beta))
    return out
