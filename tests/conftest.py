"""Shared random-instance generators, an LP dual certificate, the dual
checker held against its hand-written oracle, and a memory probe.

All randomness is seeded per test; generators occasionally zero out entries
(then renormalize exactly) so zero-mass corner cases get exercised.
"""

import dataclasses
import math
import tracemalloc

import numpy as np

from dual_oracle import HAND_AXES, HAND_CHECKERS
from fbconv.lp_core import solve
from fbconv.probability import CodeSizes, JointPmf, SinglePmf
from fbconv.relaxations import _table_of, check_feasible


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


def assert_checkers_agree(inst, pt, tol):
    """check_feasible(inst, pt, tol), asserting that the hand-written oracle
    reports the same violations: the same ids, the same indices once its
    axes are mapped onto the block's letters, and residuals to 1e-12."""
    letters = {cid: axes for _, axes, cid in _table_of(inst, pt)[1]}

    def moved(v):
        hand = HAND_AXES.get(v.constraint_id, letters[v.constraint_id])
        return v.constraint_id, tuple(v.index[hand.index(k)] for k in letters[v.constraint_id])

    found = check_feasible(inst, pt, tol=tol)
    got = sorted(((v.constraint_id, v.index), v.residual) for v in found)
    want = sorted((moved(v), v.residual) for v in HAND_CHECKERS[type(pt)](inst, pt, tol=tol))
    assert [k for k, _ in got] == [k for k, _ in want]
    np.testing.assert_allclose([r for _, r in got], [r for _, r in want], rtol=0, atol=1e-12)
    return found


def _perturbed(pt, rng):
    """pt with three entries of every set multiplier field moved by up to 1e-3."""
    moved = {}
    for f in dataclasses.fields(pt):
        val = getattr(pt, f.name)
        if f.name != "which" and val is not None:
            val = np.array(val)
            flat = val.reshape(-1)
            at = rng.choice(flat.size, size=min(3, flat.size), replace=False)
            flat[at] += rng.uniform(-1e-3, 1e-3, at.size)
            moved[f.name] = val
    return dataclasses.replace(pt, **moved)


def check_with_oracle(inst, pt, tol):
    """check_feasible(inst, pt, tol), once the hand-written oracle agrees with
    it on pt at tol, on every residual of pt where its LP has at most 20,000
    columns, and on a perturbed copy of pt at tol."""
    sizes, cols, _, _ = _table_of(inst, pt)
    if sum(math.prod(sizes[k] for k in axes) for _, axes, _ in cols) <= 20_000:
        assert_checkers_agree(inst, pt, -np.inf)
    assert_checkers_agree(inst, _perturbed(pt, np.random.default_rng(0)), tol)
    return assert_checkers_agree(inst, pt, tol)


def peak_mib(fn):
    """Peak memory traced by tracemalloc while fn() runs, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
