import dataclasses
import math
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.optimize

from fbconv import lp_core
from fbconv import relaxations as rx
from fbconv.converses_ptp import _covered_mass_lp
from fbconv.lp_core import (
    DimensionMismatch,
    LpError,
    LpModel,
    LpSolution,
    NumericalBreakdown,
    OrbitMismatch,
    SolverUnavailable,
    WarmStart,
    _dense_rows,
    _load_highs,
    solve,
)
from fbconv.probability import CodeSizes, JointPmf

from conftest import assert_certificate, certified_solve, random_joint, sw_je_instance


def scipy_reference(model):
    """Independent solve via scipy/HiGHS; returns (status, value)."""
    c = model.objective if model.sense == "min" else -model.objective
    rel = np.array(model.relations)
    # >= rows enter as negated <= rows
    flip = np.where(rel == ">=", -1.0, 1.0)
    ub, eq = rel != "=", rel == "="
    A, b = flip[:, None] * model.a_matrix, flip * model.rhs
    kw = dict(
        A_ub=A[ub] if ub.any() else None, b_ub=b[ub] if ub.any() else None,
        A_eq=A[eq] if eq.any() else None, b_eq=b[eq] if eq.any() else None,
        bounds=list(zip(
            [None if lo == -math.inf else lo for lo in model.lower],
            [None if up == math.inf else up for up in model.upper])),
        method="highs")
    res = scipy.optimize.linprog(c, **kw)
    if res.status in (2, 3, 4):
        # HiGHS presolve sometimes conflates infeasible and unbounded; settle
        # it with a zero-objective feasibility solve
        feas = scipy.optimize.linprog(np.zeros_like(c), **kw)
        return ("Unbounded" if feas.status == 0 else "Infeasible"), math.nan
    assert res.status == 0, res.message
    v = res.fun if model.sense == "min" else -res.fun
    return "Optimal", v


def test_textbook_max():
    # max 3x + 2y st x + y <= 4, x + 3y <= 6 -> 12 at (4, 0)
    m = LpModel("max", [3.0, 2.0], _dense_rows([[1.0, 1.0], [1.0, 3.0]]), ("<=", "<="), [4.0, 6.0])
    sol = solve(m)
    assert sol.status == "Optimal"
    assert sol.value == pytest.approx(12.0, abs=1e-9)
    np.testing.assert_allclose(sol.primal, [4.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(sol.dual, [3.0, 0.0], atol=1e-9)
    assert_certificate(m, sol)


def test_equality_and_free_variable():
    # min x + y st x - y = 1, x + y >= 3, y free
    m = LpModel("min", [1.0, 1.0], _dense_rows([[1.0, -1.0], [1.0, 1.0]]), ("=", ">="), [1.0, 3.0],
                lower=[0.0, -math.inf])
    sol = solve(m)
    assert sol.status == "Optimal"
    assert sol.value == pytest.approx(3.0, abs=1e-9)
    assert_certificate(m, sol)


def test_infeasible():
    m = LpModel("min", [1.0], _dense_rows([[1.0], [1.0]]), ("<=", ">="), [1.0, 2.0])
    assert solve(m).status == "Infeasible"


def test_unbounded():
    m = LpModel("max", [1.0, 0.0], _dense_rows([[0.0, 1.0]]), ("<=",), [1.0])
    assert solve(m).status == "Unbounded"


def test_redundant_equality_rows():
    m = LpModel("min", [1.0, 2.0], _dense_rows([[1.0, 1.0], [2.0, 2.0]]), ("=", "="), [1.0, 2.0])
    sol = solve(m)
    assert sol.status == "Optimal"
    assert sol.value == pytest.approx(1.0, abs=1e-9)
    assert_certificate(m, sol)


def test_feasible_unbounded_not_reported_infeasible():
    # a random LP on which HiGHS with presolve answered "infeasible"
    A = [[-0.5, -1.23, -0.81, 0.71, 0.69], [-1.84, 0.84, -0.02, -2.26, -0.94],
         [-0.55, -1.09, -0.64, 0.58, 0.19], [0.72, 0.03, -1.37, 1.78, -0.56],
         [0.62, -1.95, -0.19, -2.6, -1.77]]
    b = [1.5099, -5.0586, 0.2752, 2.3611, -6.7669]
    m = LpModel("min", [0.19, 0.11, -0.35, -0.66, -0.85], _dense_rows(A),
                ("<=", "<=", "=", "<=", "<="), b, lower=[-math.inf, -math.inf, 0, 0, 0])
    assert solve(m).status == "Unbounded"


def test_unbounded_or_infeasible_settled_by_feasibility_solve(monkeypatch):
    # HiGHS may answer "unbounded or infeasible"; a zero-cost solve decides
    status = lp_core._load_highs().HighsModelStatus
    real = lp_core._run_highs
    costs = []

    def first_undecided(model, cost):
        costs.append(cost)
        out = real(model, cost)
        return (status.kUnboundedOrInfeasible,) + out[1:] if len(costs) == 1 else out

    monkeypatch.setattr(lp_core, "_run_highs", first_undecided)
    m = LpModel("max", [1.0, 0.0], _dense_rows([[0.0, 1.0]]), ("<=",), [1.0])
    assert solve(m).status == "Unbounded"
    assert len(costs) == 2 and not np.any(costs[1])
    costs.clear()
    m = LpModel("min", [1.0], _dense_rows([[1.0], [1.0]]), ("<=", ">="), [1.0, 2.0])
    assert solve(m).status == "Infeasible"


def test_finite_upper_bounds():
    m = LpModel("max", [1.0, 1.0], _dense_rows([[1.0, 2.0]]), ("<=",), [10.0], upper=[3.0, np.inf])
    sol = solve(m)
    assert sol.value == pytest.approx(3.0 + 3.5, abs=1e-9)
    assert_certificate(m, sol)


def test_shifted_lower_bound():
    # min x st x >= -2 (bound), x <= 5
    m = LpModel("min", [1.0], _dense_rows([[1.0]]), ("<=",), [5.0], lower=[-2.0])
    sol = solve(m)
    assert sol.value == pytest.approx(-2.0, abs=1e-9)
    assert_certificate(m, sol)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        LpModel("min", np.ones(2), _dense_rows(np.ones((1, 3))), ("<=",), np.ones(1))
    with pytest.raises(DimensionMismatch):
        LpModel("min", np.ones(2), _dense_rows(np.ones((2, 2))), ("<=",), np.ones(2))
    with pytest.raises(DimensionMismatch):
        LpModel("min", [1.0, np.nan], _dense_rows(np.ones((1, 2))), ("<=",), np.ones(1))
    with pytest.raises(DimensionMismatch):
        LpModel("huge", np.ones(1), _dense_rows(np.ones((1, 1))), ("<=",), np.ones(1))
    with pytest.raises(DimensionMismatch):
        LpModel("min", np.ones(1), _dense_rows(np.ones((1, 1))), ("<",), np.ones(1))
    # a non-2-D matrix is an error, not reshaped into rows
    for A in (np.ones(2), np.ones((1, 1, 2)), np.zeros(0)):
        with pytest.raises(DimensionMismatch):
            _dense_rows(A)


# x0 + x2 <= 1 and x1 <= 2, held row-wise, and one broken copy per rule
GOOD_ROWS = ([0, 2, 3], [0, 2, 1], [1.0, 1.0, 1.0])


@pytest.mark.parametrize("start, index, value", [
    ([0, 3, 2], [0, 2, 1], [1.0, 1.0, 1.0]),           # decreasing start
    ([1, 2, 3], [0, 2, 1], [1.0, 1.0, 1.0]),           # start not from 0
    ([0, 2, 2], [0, 2, 1], [1.0, 1.0, 1.0]),           # start short of the entry count
    ([0, 2, 3], [0, 3, 1], [1.0, 1.0, 1.0]),           # column past the variable count
    ([0, 2, 3], [0, -1, 1], [1.0, 1.0, 1.0]),          # negative column
    ([0, 2, 3], [2, 2, 1], [1.0, 1.0, 1.0]),           # a column repeated within a row
    ([0, 2, 3], [2, 0, 1], [1.0, 1.0, 1.0]),           # columns out of order within a row
    ([0, 2, 3], [0, 2, 1], [1.0, np.inf, 1.0]),        # a non-finite value
    ([0, 2, 3], [0, 2, 1], [1.0, np.nan, 1.0]),
    ([0, 2, 3], [0, 2, 1], [1.0, 1.0]),                # value and index disagree
    ([0, 3], [0, 1, 2], [1.0, 1.0, 1.0]),              # start length disagrees with rhs
    ([0, 1, 2, 3], [0, 2, 1], [1.0, 1.0, 1.0]),
])
def test_row_arrays_validated(start, index, value):
    rhs, rel = [1.0, 2.0], ("<=", "<=")
    assert solve(LpModel("max", np.ones(3), GOOD_ROWS, rel, rhs)).value == pytest.approx(3.0)
    with pytest.raises(DimensionMismatch):
        LpModel("max", np.ones(3), (start, index, value), rel, rhs)


def test_row_arrays_frozen_and_copied():
    # the model owns read-only copies: changing the caller's arrays afterwards
    # changes neither the model nor its solve
    A = np.array([[1.0, 1.0], [1.0, 3.0]])
    rows = _dense_rows(A)
    m = LpModel("max", [3.0, 2.0], rows, ("<=", "<="), [4.0, 6.0])
    before = solve(m)
    for given, held in zip(rows, m.a_rows):
        assert not held.flags.writeable and not np.shares_memory(given, held)
        with pytest.raises(ValueError):
            held[0] = 0
        given[...] = 0
    np.testing.assert_array_equal(m.a_matrix, A)
    after = solve(m)
    assert after.value == before.value == pytest.approx(12.0, abs=1e-9)
    np.testing.assert_array_equal(after.primal, before.primal)
    np.testing.assert_array_equal(after.dual, before.dual)


def test_dense_rows_is_nonzero_in_row_major_order():
    A = np.array([[0.0, 2.0, 0.0, -1.0], [0.0, 0.0, 0.0, 0.0], [5.0, 0.0, 3.0, 0.0]])
    start, index, value = _dense_rows(A)
    rows, cols = np.nonzero(A)
    np.testing.assert_array_equal(start, [0, 2, 2, 4])
    np.testing.assert_array_equal(index, cols)
    np.testing.assert_array_equal(value, A[rows, cols])
    m = LpModel("min", np.ones(4), (start, index, value), ("<=",) * 3, np.ones(3))
    np.testing.assert_array_equal(m.a_matrix, A)


def _random_model(rng, n=None, m=None):
    n = n or int(rng.integers(1, 7))
    m = m or int(rng.integers(1, 7))
    A = rng.normal(size=(m, n)).round(2)
    # build around a known feasible point so Optimal cases dominate
    x0 = rng.uniform(0, 2, size=n).round(2)
    rel = [("<=", "=", ">=")[rng.integers(3)] for _ in range(m)]
    b = A @ x0 + np.array([0.3 if r == "<=" else -0.3 if r == ">=" else 0.0 for r in rel])
    c = rng.normal(size=n).round(2)
    sense = "min" if rng.random() < 0.5 else "max"
    lower = np.where(rng.random(n) < 0.15, -math.inf, 0.0)
    # finite caps above x0 on some variables, so solve sees native bounds
    upper = np.where(rng.random(n) < 0.3, (x0 + rng.uniform(0, 1, size=n)).round(2), math.inf)
    return LpModel(sense, c, _dense_rows(A), tuple(rel), b, lower=lower, upper=upper)


def test_random_models_against_scipy():
    rng = np.random.default_rng(20240817)
    n_opt = n_capped = 0
    for _ in range(250):
        m = _random_model(rng)
        ref_status, ref_value = scipy_reference(m)
        sol = solve(m)
        assert sol.status == ref_status
        if ref_status == "Optimal":
            n_opt += 1
            n_capped += bool(np.any(np.isfinite(m.upper)))
            assert np.all(sol.primal >= m.lower - 1e-9) and np.all(sol.primal <= m.upper + 1e-9)
            assert sol.value == pytest.approx(ref_value, abs=1e-7 * max(1, abs(ref_value)))
            # returned primal is feasible and attains the value
            assert sol.value == pytest.approx(float(m.objective @ sol.primal), abs=1e-9)
            for a, r, v in zip(m.a_matrix, m.relations, m.rhs):
                ax = float(a @ sol.primal)
                if r == "<=":
                    assert ax <= v + 1e-9
                elif r == ">=":
                    assert ax >= v - 1e-9
                else:
                    assert ax == pytest.approx(v, abs=1e-9)
            assert_certificate(m, sol)
    assert n_opt > 150  # the generator is meant to mostly produce solvable LPs
    assert n_capped > 50


def test_strong_duality_and_complementary_slackness_random():
    # finite caps and shifted lower bounds included: the certificate prices them
    for seed, count in ((7, 150), (99, 60)):
        rng = np.random.default_rng(seed)
        checked = 0
        for _ in range(count):
            m = _random_model(rng)
            sol = solve(m)
            if sol.status != "Optimal":
                continue
            assert_certificate(m, sol)
            # a multiplier is nonzero only on a row the primal makes tight
            slack = m.rhs - m.a_matrix @ sol.primal
            assert np.all(np.abs(sol.dual * slack) <= 1e-7 * max(1.0, abs(sol.value)))
            checked += 1
        assert checked > count // 2


def test_degenerate_cycling_candidate():
    # classic Beale-style degenerate LP, on which Dantzig pricing cycles
    m = LpModel("min", [-0.75, 150.0, -0.02, 6.0],
                _dense_rows([[0.25, -60.0, -1.0 / 25.0, 9.0], [0.5, -90.0, -1.0 / 50.0, 3.0],
                             [0.0, 0.0, 1.0, 0.0]]), ("<=",) * 3, [0.0, 0.0, 1.0])
    sol = solve(m)
    assert sol.status == "Optimal"
    assert sol.value == pytest.approx(-0.05, abs=1e-9)
    assert_certificate(m, sol)


def test_missing_extension_raises_typed_error(tmp_path):
    with pytest.raises(SolverUnavailable):
        _load_highs(str(tmp_path))
    assert issubclass(SolverUnavailable, LpError)


# ---------------------------------------------------------------------------
# one HiGHS instance per thread, reset on every solve


def _bits(sol):
    """A solve's status, value, primal and dual, as bytes."""
    return (sol.status, np.float64(sol.value).tobytes(),
            *(None if a is None else a.tobytes() for a in (sol.primal, sol.dual)))


def test_a_symmetric_model_solves_on_its_quotient_and_lifts():
    # x0 + x1 = 1 and x1 + x2 = 1 map onto each other when x0 and x2 swap
    model = LpModel("min", [1.0, 3.0, 1.0], _dense_rows([[1, 1, 0], [0, 1, 1]]), ("=", "="),
                    [1.0, 1.0])
    warm = WarmStart(model, [0, 1, 0], [0, 0])
    np.testing.assert_array_equal(warm.quotient.a_matrix, [[1.0, 1.0]])
    np.testing.assert_array_equal(warm.quotient.rhs, [1.0])
    warm.reference = warm.reduce(model.objective)
    np.testing.assert_array_equal(warm.reference, [2.0, 3.0])
    sol = certified_solve(dataclasses.replace(model, warm=warm))
    assert warm.quotient is None and warm.basis is not None
    assert sol.value == 2.0
    np.testing.assert_array_equal(sol.primal, [1.0, 0.0, 1.0])
    np.testing.assert_array_equal(sol.dual, [1.0, 1.0])   # w = 2 over the orbit's two rows
    # a cost that tells x0 from x2 solves the full model cold
    off = dataclasses.replace(model, objective=[1.0, 3.0, 2.0], warm=warm)
    assert warm.reduce(off.objective) is None
    assert certified_solve(off).value == solve(dataclasses.replace(off, warm=None)).value == 3.0


@pytest.mark.parametrize("rows, rhs, relations, upper, col_orbit, row_orbit", [
    ([[1, 1], [1, 0]], [1, 1], "==", None, [0, 1], [0, 0]),   # rows with other sums
    ([[1, 1], [1, 0]], [1, 0.5], "==", None, [0, 0], [0, 1]),   # columns with other sums
    ([[1, 0], [0, 1]], [1, 2], "==", None, [0, 0], [0, 0]),   # rhs
    ([[1, 0], [0, 1]], [1, 1], "<>", None, [0, 0], [0, 0]),   # relations
    ([[1, 1]], [1], "=", [1.0, 2.0], [0, 0], [0]),   # bounds
    ([[1, 1]], [1], "=", None, [0, 2], [0]),   # orbit numbers with a gap
])
def test_a_partition_that_is_no_symmetry_is_refused(rows, rhs, relations, upper, col_orbit,
                                                     row_orbit):
    rel = tuple({"=": "=", "<": "<=", ">": ">="}[r] for r in relations)
    model = LpModel("min", [1.0, 1.0], _dense_rows(rows), rel, rhs, upper=upper)
    with pytest.raises(OrbitMismatch):
        WarmStart(model, col_orbit, row_orbit)


def test_orbit_maps_must_match_the_model():
    model = LpModel("min", [1.0, 1.0], _dense_rows([[1, 1]]), ("=",), [1.0])
    for col_orbit, row_orbit in (([0], [0]), ([0, 0], [0, 0])):
        with pytest.raises(DimensionMismatch):
            WarmStart(model, col_orbit, row_orbit)


def _in_fresh_thread(fn, *args):
    out = []
    thread = threading.Thread(target=lambda: out.append(fn(*args)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(out) == 1
    return out[0]


def test_solves_sharing_a_thread_match_a_fresh_thread(monkeypatch):
    rng = np.random.default_rng(83)
    inst, other = (rx.SwInstance(random_joint(rng, 3, 2), CodeSizes(2, 1)) for _ in range(2))
    unbounded = LpModel("max", [1.0, 0.0], _dense_rows([[0.0, 1.0]]), ("<=",), [1.0])
    # two SW models of one table: each warm solve must start from the
    # table's basis, not from where the other left the instance
    models = [rx.build_lp_sw(inst), rx.build_lp_sw(other), rx.build_lp_je(inst),
              rx.build_lpsi(inst, 1), rx.build_lpsi(inst, 2),
              rx.build_lp_sc(sw_je_instance(inst)), _covered_mass_lp(inst, "uvw")[0],
              LpModel("min", [1.0], _dense_rows([[1.0], [1.0]]), ("<=", ">="), [1.0, 2.0]),
              unbounded]
    # HiGHS answers this LP "unbounded" at once; answering "unbounded or
    # infeasible" instead sends it down the zero-cost feasibility re-solve
    S, real, resolves = lp_core._load_highs().HighsModelStatus, lp_core._run_highs, []

    def undecided(model, cost):
        out = real(model, cost)
        if model is not unbounded:
            return out
        resolves.append(not cost.any())
        return out if resolves[-1] else (S.kUnboundedOrInfeasible,) + out[1:]

    monkeypatch.setattr(lp_core, "_run_highs", undecided)
    first = [_in_fresh_thread(lambda m: _bits(solve(m)), m) for m in models]
    assert [s[0] for s in first[-3:]] == ["Optimal", "Infeasible", "Unbounded"]
    assert resolves == [False, True]
    order = list(range(len(models))) * 3
    random.Random(89).shuffle(order)
    for i in order:
        assert _bits(solve(models[i])) == first[i], i
    assert resolves.count(True) == 4


# the relax_lp benchmark's inputs at seed 1: (|S1|, |S2|, M1, M2), masses
# drawn Dirichlet(1) in this order from default_rng(1)
RELAX_DIMS = [(3, 2, 1, 1), (3, 3, 1, 1), (3, 3, 1, 1), (3, 2, 2, 1), (3, 2, 2, 1),
              (3, 2, 2, 1), (2, 3, 1, 2), (2, 3, 1, 2), (3, 3, 2, 1)]


def test_two_threads_hold_their_own_instances():
    rng = np.random.default_rng(1)
    insts = [rx.SwInstance(JointPmf(rng.dirichlet(np.ones(n1 * n2)).reshape(n1, n2)),
                           CodeSizes(m1, m2)) for n1, n2, m1, m2 in RELAX_DIMS]
    builders = (rx.build_lp_sw, rx.build_lp_je, lambda i: rx.build_lpsi(i, 1),
                lambda i: rx.build_lpsi(i, 2))
    held = {}

    def op(inst):
        out = [_bits(solve(build(inst))) for build in builders]
        held[threading.get_ident()] = lp_core._thread.highs
        return out

    rx._structures.cache_clear()
    serial = [op(inst) for inst in insts]
    main = held.pop(threading.get_ident())
    # each of the first two ops waits for the other, so both workers start
    # and each solves at least one op
    both = threading.Barrier(2, timeout=60)

    def first_op(inst):
        out = op(inst)
        both.wait()
        return out

    rx._structures.cache_clear()   # the workers find the WarmStarts themselves
    with ThreadPoolExecutor(max_workers=2) as pool:
        head = [pool.submit(first_op, inst) for inst in insts[:2]]
        rest = list(pool.map(op, insts[2:]))
        threaded = [f.result() for f in head] + rest
    assert threaded == serial
    assert len(held) == 2
    a, b = held.values()
    assert a is not b and main is not a and main is not b
