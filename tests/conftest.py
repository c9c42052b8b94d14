"""Shared random-instance generators and a memory probe.

All randomness is seeded per test; generators occasionally zero out entries
(then renormalize exactly) so zero-mass corner cases get exercised.
"""

import tracemalloc

import numpy as np

from fbconv.probability import CodeSizes, JointPmf, SinglePmf


def random_single(rng, n, allow_zeros=True):
    m = rng.dirichlet(np.full(n, 0.8))
    if allow_zeros and n > 1 and rng.random() < 0.3:
        k = rng.integers(1, n)
        m[rng.choice(n, size=k, replace=False)] = 0.0
        if m.sum() <= 0:
            m[rng.integers(n)] = 1.0
        m = m / m.sum()
    return SinglePmf(m)


def random_joint(rng, n1, n2, allow_zeros=True):
    m = rng.dirichlet(np.full(n1 * n2, 0.8)).reshape(n1, n2)
    if allow_zeros and n1 * n2 > 1 and rng.random() < 0.3:
        k = rng.integers(1, n1 * n2)
        flat = m.reshape(-1)
        flat[rng.choice(n1 * n2, size=k, replace=False)] = 0.0
        if flat.sum() <= 0:
            flat[rng.integers(n1 * n2)] = 1.0
        m = (flat / flat.sum()).reshape(n1, n2)
    return JointPmf(m)


def random_sw_sizes(rng, max_m=2):
    return CodeSizes(int(rng.integers(1, max_m + 1)), int(rng.integers(1, max_m + 1)))


def peak_mib(fn):
    """Peak memory traced by tracemalloc while fn() runs, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
