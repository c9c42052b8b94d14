"""Shared random-instance generators, the jointly-encoded instance of a
pair, an LP primal and dual certificate, the dual checker held against its
hand-written oracle, and a memory probe.

All randomness is seeded per test; generators occasionally zero out entries
(then renormalize exactly) so zero-mass corner cases get exercised.
"""

import dataclasses
import math
import tracemalloc

import numpy as np

from dual_oracle import HAND_AXES, HAND_CHECKERS
from fbconv.lp_core import solve
from fbconv.probability import CodeSizes, DistortionSpec, JointPmf, SinglePmf
from fbconv.relaxations import ScInstance, _table_of, check_feasible


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


def sw_je_instance(inst):
    """The jointly-encoded relaxation of a distributed instance: one encoder
    sees the pair, alphabet flattened in row-major order, M = M1*M2."""
    n1, n2, m1, m2 = inst.dims
    flat = SinglePmf(inst.joint.mass.reshape(-1))
    return ScInstance(flat, m1 * m2, DistortionSpec.lossless(n1 * n2))


def _products(model, x, y):
    """(A x, A^T y) from the model's row-wise arrays, without densifying A."""
    start, index, value = model.a_rows
    row = np.repeat(np.arange(model.rhs.size), np.diff(start))
    return (np.bincount(row, weights=value * x[index], minlength=model.rhs.size),
            np.bincount(index, weights=value * y[row], minlength=model.num_variables))


def assert_certificate(model, sol, rel=1e-9):
    """Assert that sol.primal is feasible with objective sol.value and that
    sol.dual certifies sol.value for the Optimal solve sol of model, in the
    sign convention of the lp_core docstring: the row multipliers have their
    signs, each reduced cost of c - A^T y is nonzero only on a finite bound,
    and rhs y plus the bound terms equals sol.value.  The dual and value
    tolerances are rel times max(1, |value|, max |c|); the primal's rows and
    bounds are also held to rel times max |rhs|."""
    assert sol.status == "Optimal"
    tol = rel * max(1.0, abs(sol.value), float(np.abs(model.objective).max(initial=0.0)))
    row_tol = max(tol, rel * float(np.abs(model.rhs).max(initial=0.0)))
    x, y = sol.primal, sol.dual
    assert x.shape == model.objective.shape and y.shape == model.rhs.shape
    relations = np.array(model.relations)
    ax, aty = _products(model, x, y)
    slack = ax - model.rhs
    assert np.all(np.abs(slack[relations == "="]) <= row_tol)
    assert np.all(slack[relations == "<="] <= row_tol)
    assert np.all(slack[relations == ">="] >= -row_tol)
    assert np.all(x >= model.lower - row_tol) and np.all(x <= model.upper + row_tol)
    assert abs(float(model.objective @ x) - sol.value) <= tol
    # flip a min model into the max convention: y >= 0 on <=, y <= 0 on >=
    sgn = 1.0 if model.sense == "max" else -1.0
    assert np.all(sgn * y[relations == "<="] >= -tol)
    assert np.all(sgn * y[relations == ">="] <= tol)
    r = model.objective - aty
    r = np.where(np.abs(r) <= tol, 0.0, r)
    # the bound each reduced cost reads: upper where it pushes x up, lower where down
    on = r != 0
    bound = np.where(sgn * r > 0, model.upper, model.lower)[on]
    assert np.all(np.isfinite(bound)), "reduced cost on an infinite bound"
    assert abs(float(model.rhs @ y) + float(r[on] @ bound) - sol.value) <= tol


def certified_solve(model):
    """lp_core.solve, asserting the primal and the dual certificate of an
    Optimal result against the model itself."""
    sol = solve(model)
    if sol.status == "Optimal":
        assert_certificate(model, sol)
    return sol


def assert_checkers_agree(inst, pt, tol):
    """check_feasible(inst, pt, tol), asserting that the hand-written oracle
    reports the same violations: the same ids, the same indices once its
    axes are mapped onto the block's letters, and residuals to 1e-12."""
    _, cols, _, _, _ = _table_of(inst, type(pt), getattr(pt, "which", None))
    letters = {cid: axes for _, axes, cid in cols}

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
    sizes, cols, _, _, _ = _table_of(inst, type(pt), getattr(pt, "which", None))
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
