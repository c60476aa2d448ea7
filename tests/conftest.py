import tracemalloc

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_simplex(rng, n, k, concentration=1.0):
    """Interior simplex rows (Dirichlet draws, bounded away from 0)."""
    q = rng.dirichlet(np.full(k, concentration), size=n)
    q = np.clip(q, 1e-12, None)
    return q / q.sum(axis=1, keepdims=True)


def peaked_simplex(rng, n, k):
    """Dirichlet rows with concentration 0.5, plus 0.25 k on one random class
    per row: the shape of the benchmark's probability rows."""
    alpha = np.full((n, k), 0.5)
    alpha[np.arange(n), rng.integers(0, k, size=n)] += 0.25 * k
    q = rng.gamma(alpha)
    return q / q.sum(axis=1, keepdims=True)


def traced_peak(fn):
    """fn() and the peak of the memory tracemalloc traced during the call,
    in bytes above what was traced when it began."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    return result, peak
