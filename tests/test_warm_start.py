"""Warm-started relaxation solves: every SI, JE and SW model shares its
table's WarmStart, and its solve runs the primal simplex from the table's
fixed basis, the optimum at the uniform pmf.

The LPs are degenerate, so a warm solve's primal and dual may differ from
the cold dual simplex's.  The tests therefore hold the values to the cold
solve's, every dual to the hand-written checkers, and each table's output
to itself across call orders and cache states.
"""

import dataclasses
import itertools
import types

import numpy as np
import pytest

from fbconv import lp_core
from fbconv import relaxations as rx
from fbconv.probability import CodeSizes, JointPmf

from conftest import certified_solve, check_with_oracle, random_joint, sw_je_instance

KINDS = {   # builder, dual slicer, table
    "si1": (lambda i: rx.build_lpsi(i, 1),
            lambda i, s: rx.dual_point_from_solution(i, s, rx.DualPointSI, 1),
            lambda i: rx._si_table(i, 1)),
    "si2": (lambda i: rx.build_lpsi(i, 2),
            lambda i, s: rx.dual_point_from_solution(i, s, rx.DualPointSI, 2),
            lambda i: rx._si_table(i, 2)),
    "je": (rx.build_lp_je, lambda i, s: rx.dual_point_from_solution(i, s, rx.DualPointJE),
           rx._je_table),
    "sw": (rx.build_lp_sw, lambda i, s: rx.dual_point_from_solution(i, s, rx.DualPointSW),
           rx._sw_table),
}

# (|S1|, |S2|, M1, M2) with codebooks below the alphabets, where the LPs are
# not trivial, and each SW LP solves in a few ms
DIMS = [(2, 2, 1, 1), (2, 3, 1, 2), (3, 2, 2, 1), (3, 3, 1, 1), (3, 3, 2, 1), (3, 2, 1, 1)]


def _outputs(sol):
    return sol.value, sol.primal, sol.dual


def _assert_bit_equal(got, want):
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        np.testing.assert_array_equal(g, w)


def _cold(model):
    return lp_core.solve(dataclasses.replace(model, warm=None))


def test_relaxation_models_share_their_tables_warm_start():
    inst = rx.SwInstance(random_joint(np.random.default_rng(3), 3, 2), CodeSizes(2, 1))
    for build, _, table in KINDS.values():
        a, b = build(inst), build(inst)
        assert isinstance(a.warm, lp_core.WarmStart)
        assert a.warm is b.warm is rx._structure(table(inst))[2].warm
    assert rx.build_lp_sc(sw_je_instance(inst)).warm is None


@pytest.mark.parametrize("kind", KINDS)
def test_output_does_not_depend_on_call_order_or_cache(kind):
    build = KINDS[kind][0]
    rng = np.random.default_rng(5)
    insts = [rx.SwInstance(random_joint(rng, 3, 3, allow_zeros=i % 2 == 1), CodeSizes(2, 1))
             for i in range(5)]
    rx._structures.cache_clear()
    forward = [_outputs(certified_solve(build(inst))) for inst in insts]
    rx._structures.cache_clear()
    backward = [_outputs(certified_solve(build(inst))) for inst in insts[::-1]]
    for got, want in zip(backward[::-1], forward):
        _assert_bit_equal(got, want)


@pytest.mark.parametrize("kind", KINDS)
def test_warm_values_match_cold_and_duals_pass_the_oracle(kind):
    build, dual, _ = KINDS[kind]
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(54):
        inst = rx.SwInstance(random_joint(rng, *DIMS[i % len(DIMS)][:2]),
                             CodeSizes(*DIMS[i % len(DIMS)][2:]))
        model = build(inst)
        sol, ref = certified_solve(model), _cold(model)
        worst = max(worst, abs(sol.value - ref.value))
        assert check_with_oracle(inst, dual(inst, sol), tol=1e-9) == []
    assert worst <= 1e-12


def test_sparse_pmfs_match_cold():
    # masses with whole rows and columns at zero, where the uniform basis is
    # furthest from the optimum
    rng = np.random.default_rng(11)
    for build, dual, _ in KINDS.values():
        for n1, n2, m1, m2 in DIMS:
            mass = rng.dirichlet(np.ones(n1 * n2)).reshape(n1, n2)
            mass[rng.integers(n1)] = 0.0
            mass[:, rng.integers(n2)] = 0.0
            if mass.sum() == 0.0:
                mass[0, 0] = 1.0
            inst = rx.SwInstance(JointPmf(mass / mass.sum()), CodeSizes(m1, m2))
            model = build(inst)
            sol = certified_solve(model)
            assert abs(sol.value - _cold(model).value) <= 1e-12
            assert check_with_oracle(inst, dual(inst, sol), tol=1e-9) == []


def test_evicted_table_solves_as_before():
    maxsize = rx._structures.cache_parameters()["maxsize"]
    tables = list(itertools.product((1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3)))
    assert len(tables) > maxsize
    rng = np.random.default_rng(13)
    insts = [rx.SwInstance(random_joint(rng, n1, n2), CodeSizes(M, 1)) for n1, n2, M in tables]
    rx._structures.cache_clear()
    first_model = rx.build_lpsi(insts[0])
    first = _outputs(certified_solve(first_model))
    for inst in insts[1:]:
        certified_solve(rx.build_lpsi(inst))
    again = rx.build_lpsi(insts[0])
    assert again.warm is not first_model.warm   # evicted, so found again
    _assert_bit_equal(_outputs(certified_solve(again)), first)


def _held_bytes(warm) -> int:
    """An upper bound on what a solved WarmStart holds: 8 bytes for every
    number of its HighsLp and basis, and its reference cost."""
    lp, mat = warm.lp, warm.lp.a_matrix_
    numbers = sum(len(v) for v in (lp.col_cost_, lp.col_lower_, lp.col_upper_, lp.row_lower_,
                                   lp.row_upper_, mat.start_, mat.index_, mat.value_,
                                   warm.basis.col_status, warm.basis.row_status))
    return 8 * numbers + warm.reference.nbytes


def test_held_state_of_sw_3x3_m22_stays_small():
    inst = rx.SwInstance(random_joint(np.random.default_rng(17), 3, 3), CodeSizes(2, 2))
    model = rx.build_lp_sw(inst)
    certified_solve(model)
    assert model.warm.basis is not None
    assert _held_bytes(model.warm) < 2 ** 20


def test_extension_without_the_warm_api_is_unavailable():
    class Options:
        simplex_strategy = 1

    class Highs:
        def getBasis(self):
            pass

        def changeColsCost(self):
            pass

    module = types.SimpleNamespace(_Highs=Highs, HighsOptions=Options)
    with pytest.raises(lp_core.SolverUnavailable, match="setBasis"):
        lp_core._checked(module)
    Highs.setBasis = Highs.getBasis
    assert lp_core._checked(module) is module
    del Options.simplex_strategy
    with pytest.raises(lp_core.SolverUnavailable, match="simplex_strategy"):
        lp_core._checked(module)
