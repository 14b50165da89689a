"""Deterministic random number streams.

All randomness in a simulation flows from a single master seed. Every
consumer derives its own counter-based (Philox) stream from a tuple key,
so Monte Carlo runs are reproducible, order-independent and safe to
execute in parallel.
"""

import numpy as np

# purpose codes for sub-stream keys
TRUTH = 1
MEASUREMENT = 2
FILTER_PD = 3
PLAN_TREE = 5


def stream(*key: int) -> np.random.Generator:
    """Return a Generator keyed by a tuple of non-negative integers."""
    entropy = tuple(int(k) for k in key)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
