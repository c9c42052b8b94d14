"""Shared random-instance generators, an LP dual certificate and a memory probe.

All randomness is seeded per test; generators occasionally zero out entries
(then renormalize exactly) so zero-mass corner cases get exercised.
"""

import tracemalloc

import numpy as np

from fbconv.lp_core import solve
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


def assert_dual_certificate(model, sol, rel=1e-9):
    """Assert that sol.dual certifies sol.value for the Optimal solve sol of
    model, in the sign convention of the lp_core docstring: the row
    multipliers have their signs, each reduced cost of c - A^T y is nonzero
    only on a finite bound, and rhs y plus the bound terms equals sol.value.
    Tolerances are rel times max(1, |value|, max |c|)."""
    assert sol.status == "Optimal"
    tol = rel * max(1.0, abs(sol.value), float(np.abs(model.objective).max(initial=0.0)))
    y = sol.dual
    relations = np.array(model.relations)
    # flip a min model into the max convention: y >= 0 on <=, y <= 0 on >=
    sgn = 1.0 if model.sense == "max" else -1.0
    assert np.all(sgn * y[relations == "<="] >= -tol)
    assert np.all(sgn * y[relations == ">="] <= tol)
    r = model.objective - model.a_matrix.T @ y
    r = np.where(np.abs(r) <= tol, 0.0, r)
    # the bound each reduced cost reads: upper where it pushes x up, lower where down
    on = r != 0
    bound = np.where(sgn * r > 0, model.upper, model.lower)[on]
    assert np.all(np.isfinite(bound)), "reduced cost on an infinite bound"
    assert abs(float(model.rhs @ y) + float(r[on] @ bound) - sol.value) <= tol


def certified_solve(model):
    """lp_core.solve, asserting the dual certificate of an Optimal result."""
    sol = solve(model)
    if sol.status == "Optimal":
        assert_dual_certificate(model, sol)
    return sol


def peak_mib(fn):
    """Peak memory traced by tracemalloc while fn() runs, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
