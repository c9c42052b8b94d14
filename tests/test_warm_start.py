"""Warm-started relaxation solves: every relaxation model shares its
table's WarmStart, the quotient of its LP by the message relabellings, and
its solve runs the primal simplex on that quotient from the table's fixed
basis, the optimum at the uniform pmf, then lifts the result to the full LP.

The LPs are degenerate, so a warm solve's primal and dual may differ from
the cold dual simplex's.  The tests therefore hold the values to the cold
solve's, every lifted primal and dual to a certificate against the full
model, every dual to the hand-written checkers, and each table's output to
itself across call orders and cache states.
"""

import dataclasses
import itertools
import types

import numpy as np
import pytest

from fbconv import lp_core
from fbconv import relaxations as rx
from fbconv.probability import CodeSizes, DistortionSpec, JointPmf

from conftest import (certified_solve, check_with_oracle, random_joint, random_single,
                      sw_je_instance)


def _sc_instance(inst, k):
    """The point-to-point instance of pair instance number k: for even k the
    jointly-encoded one (lossless), for odd k its source and codebook under
    a random distortion at level 1, entries in {0, 1, 2, inf}, to as many
    reconstructions as source letters when k % 4 == 1 and to one more when
    k % 4 == 3."""
    sc = sw_je_instance(inst)
    if k % 2 == 0:
        return sc
    d = np.random.default_rng(k).choice([0.0, 1.0, 2.0, np.inf], size=(sc.n, sc.n + k % 4 // 2))
    return rx.ScInstance(sc.source, sc.M, DistortionSpec(d, 1.0))


def _pair(inst, k):
    return inst


KINDS = {   # builder, dual slicer, table, the kind's instance of pair instance number k
    "si1": (lambda i: rx.build_lpsi(i, 1),
            lambda i, s: rx.dual_point_from_solution(i, s, rx.DualPointSI, 1),
            lambda i: rx._si_table(i, 1), _pair),
    "si2": (lambda i: rx.build_lpsi(i, 2),
            lambda i, s: rx.dual_point_from_solution(i, s, rx.DualPointSI, 2),
            lambda i: rx._si_table(i, 2), _pair),
    "je": (rx.build_lp_je, lambda i, s: rx.dual_point_from_solution(i, s, rx.DualPointJE),
           rx._je_table, _pair),
    "sw": (rx.build_lp_sw, lambda i, s: rx.dual_point_from_solution(i, s, rx.DualPointSW),
           rx._sw_table, _pair),
    "sc": (rx.build_lp_sc, lambda i, s: rx.dual_point_from_solution(i, s, rx.DualPointSC),
           rx._sc_table, _sc_instance),
}

# (|S1|, |S2|, M1, M2) with codebooks below the alphabets, where the LPs are
# not trivial, and each SW LP solves in a few ms
DIMS = [(2, 2, 1, 1), (2, 3, 1, 2), (3, 2, 2, 1), (3, 3, 1, 1), (3, 3, 2, 1), (3, 2, 1, 1)]
# both encoders with several messages, where the quotient is smallest
# against the LP; the cold SW solve at M = (2,3) takes about 0.6 s
QUOTIENT_DIMS = [(3, 3, 2, 2), (3, 3, 2, 3)]


def _outputs(sol):
    return sol.value, sol.primal, sol.dual


def _assert_bit_equal(got, want):
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        np.testing.assert_array_equal(g, w)


def _cold(model):
    return lp_core.solve(dataclasses.replace(model, warm=None))


def _sparse_joint(rng, n1, n2):
    """A random pmf with a whole row and a whole column at zero."""
    mass = rng.dirichlet(np.ones(n1 * n2)).reshape(n1, n2)
    mass[rng.integers(n1)] = 0.0
    mass[:, rng.integers(n2)] = 0.0
    if mass.sum() == 0.0:
        mass[0, 0] = 1.0
    return JointPmf(mass / mass.sum())


def _assert_symmetry_breaking_cost_solves_cold(model, rng):
    """A copy of model whose cost is moved off every column orbit keeps the
    WarmStart, so it must take the cold path: certified against the copy
    and equal to the copy's solve without a WarmStart."""
    cost = model.objective + rng.uniform(0.0, 1e-2, model.num_variables)
    moved = dataclasses.replace(model, objective=cost)
    assert moved.warm is model.warm
    # the identity quotient of single messages takes every cost
    assert (model.warm.reduce(cost) is None) == (model.warm.col_size.max() > 1)
    assert abs(certified_solve(moved).value - _cold(moved).value) <= 1e-12


def test_relaxation_models_share_their_tables_warm_start():
    pair = rx.SwInstance(random_joint(np.random.default_rng(3), 3, 2), CodeSizes(2, 1))
    for build, _, table, of in KINDS.values():
        inst = of(pair, 0)
        a, b = build(inst), build(inst)
        assert isinstance(a.warm, lp_core.WarmStart)
        assert a.warm is b.warm is rx._structure(table(inst))[2].warm
    # an SC table's sizes fix no distortion: lossless and lossy share it
    lossless, lossy = _sc_instance(pair, 0), _sc_instance(pair, 1)
    assert not np.array_equal(lossless.distortion.excess(), lossy.distortion.excess())
    assert rx.build_lp_sc(lossy).warm is rx.build_lp_sc(lossless).warm


@pytest.mark.parametrize("kind", KINDS)
def test_output_does_not_depend_on_call_order_or_cache(kind):
    # SC's 9 x 9 table holds lossless and lossy distortions (k = 0, 1, 2, 4)
    build, _, _, of = KINDS[kind]
    rng = np.random.default_rng(5)
    insts = [of(rx.SwInstance(random_joint(rng, 3, 3, allow_zeros=i % 2 == 1), CodeSizes(2, 1)), i)
             for i in range(5)]
    rx._structures.cache_clear()
    forward = [_outputs(certified_solve(build(inst))) for inst in insts]
    rx._structures.cache_clear()
    backward = [_outputs(certified_solve(build(inst))) for inst in insts[::-1]]
    for got, want in zip(backward[::-1], forward):
        _assert_bit_equal(got, want)


@pytest.mark.parametrize("kind", KINDS)
def test_warm_values_match_cold_and_duals_pass_the_oracle(kind):
    # 54 instances over DIMS, then three per QUOTIENT_DIMS entry, the second
    # of them sparse; every third one's cost is also moved off the orbits
    build, dual, _, of = KINDS[kind]
    rng, moves = np.random.default_rng(7), np.random.default_rng(8)
    insts = [rx.SwInstance(random_joint(rng, *DIMS[i % len(DIMS)][:2]),
                           CodeSizes(*DIMS[i % len(DIMS)][2:])) for i in range(54)]
    insts += [rx.SwInstance(joint(rng, n1, n2), CodeSizes(m1, m2))
              for n1, n2, m1, m2 in QUOTIENT_DIMS
              for joint in (random_joint, _sparse_joint, random_joint)]
    worst = 0.0
    for i, pair in enumerate(insts):
        inst = of(pair, i)
        model = build(inst)
        sol, ref = certified_solve(model), _cold(model)
        worst = max(worst, abs(sol.value - ref.value))
        assert check_with_oracle(inst, dual(inst, sol), tol=1e-9) == []
        if i % 3 == 0:
            _assert_symmetry_breaking_cost_solves_cold(model, moves)
    assert worst <= 1e-12


def test_sparse_pmfs_match_cold():
    # masses with whole rows and columns at zero, where the uniform basis is
    # furthest from the optimum
    rng = np.random.default_rng(11)
    for build, dual, _, of in KINDS.values():
        for k, (n1, n2, m1, m2) in enumerate(DIMS + QUOTIENT_DIMS):
            inst = of(rx.SwInstance(_sparse_joint(rng, n1, n2), CodeSizes(m1, m2)), k)
            model = build(inst)
            sol = certified_solve(model)
            assert abs(sol.value - _cold(model).value) <= 1e-12
            assert check_with_oracle(inst, dual(inst, sol), tol=1e-9) == []


@pytest.mark.parametrize("m1, m2", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_sw_3x3_quotient_is_451_by_456_for_every_codebook(m1, m2):
    # per block, the orbits are the non-message letters times, per encoder,
    # {equal, unequal} when the block holds both its letters: none grow with M
    inst = rx.SwInstance(random_joint(np.random.default_rng(19), 3, 3), CodeSizes(m1, m2))
    warm = rx.build_lp_sw(inst).warm
    assert (warm.row_size.size, warm.col_size.size) == (451, 456)


def test_sw_4x4_m22_quotient_is_1273_by_1320():
    inst = rx.SwInstance(random_joint(np.random.default_rng(23), 4, 4), CodeSizes(2, 2))
    model = rx.build_lp_sw(inst)
    assert (model.rhs.size, model.num_variables) == (5004, 5264)
    assert (model.warm.row_size.size, model.warm.col_size.size) == (1273, 1320)


@pytest.mark.parametrize("M", [2, 3, 5])
def test_sc_4_letter_quotient_is_29_by_40_for_every_codebook(M):
    # the full LP grows from 54 x 80 at M = 2 to 189 x 440 at M = 5
    inst = rx.ScInstance(random_single(np.random.default_rng(41), 4), M,
                         DistortionSpec.lossless(4))
    warm = rx.build_lp_sc(inst).warm
    assert (warm.row_size.size, warm.col_size.size) == (29, 40)


@pytest.mark.parametrize("kind", KINDS)
def test_single_messages_give_the_identity_quotient(kind):
    build, _, _, of = KINDS[kind]
    inst = of(rx.SwInstance(random_joint(np.random.default_rng(29), 3, 2), CodeSizes(1, 1)), 3)
    rx._structures.cache_clear()   # a fresh WarmStart still holds its quotient
    model = build(inst)
    warm = model.warm
    np.testing.assert_array_equal(warm.col_orbit, np.arange(model.num_variables))
    np.testing.assert_array_equal(warm.row_orbit, np.arange(model.rhs.size))
    for got, want in zip(warm.quotient.a_rows + (warm.quotient.rhs,), model.a_rows + (model.rhs,)):
        np.testing.assert_array_equal(got, want)
    assert warm.quotient.relations == model.relations


@pytest.mark.parametrize("groups, attr, dims", [
    (("xh",), "_SI_GROUPS", (3, 2, 3, 1)),    # x and h both of size 3: the cost is not invariant
    (("xh",), "_SI_GROUPS", (3, 2, 2, 1)),    # x of size 2, h of size 3
    (("xy", "uv"), "_PAIR_GROUPS", (3, 3, 2, 2)),
])
def test_a_table_naming_no_symmetry_raises_at_build(monkeypatch, groups, attr, dims):
    monkeypatch.setattr(rx, attr, groups)
    inst = rx.SwInstance(random_joint(np.random.default_rng(31), *dims[:2]), CodeSizes(*dims[2:]))
    build = (lambda i: rx.build_lpsi(i, 1)) if attr == "_SI_GROUPS" else rx.build_lp_sw
    with pytest.raises(lp_core.OrbitMismatch):
        build(inst)


def test_every_warm_solve_runs_on_the_quotient(monkeypatch):
    # the only HighsLp of a table's warm models is its quotient's, filled
    # once; a cost off the orbits fills the full LP, once per solve
    filled, fill = [], lp_core._highs_lp
    monkeypatch.setattr(lp_core, "_highs_lp", lambda m, c: filled.append(m) or fill(m, c))
    rng = np.random.default_rng(37)
    # 3x2, so that the two SI sides are two tables; SC's one table holds
    # a lossless, a lossy and a lossless distortion
    pairs = [rx.SwInstance(random_joint(rng, 3, 2), CodeSizes(2, 2)) for _ in range(3)]
    rx._structures.cache_clear()
    for build, _, _, of in KINDS.values():
        insts = [of(pair, k) for k, pair in enumerate(pairs)]
        quotient = build(insts[0]).warm.quotient
        for inst in insts:
            certified_solve(build(inst))
        assert filled == [quotient]
        model = build(insts[0])
        assert model.warm.quotient is None and model.warm.lp.num_col_ == model.warm.col_size.size
        _assert_symmetry_breaking_cost_solves_cold(model, rng)
        assert [m.num_variables for m in filled[1:]] == [model.num_variables] * 2
        filled.clear()


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
    number of its HighsLp and basis, and every array it holds, the orbit
    maps and the reference cost among them."""
    lp, mat = warm.lp, warm.lp.a_matrix_
    numbers = sum(len(v) for v in (lp.col_cost_, lp.col_lower_, lp.col_upper_, lp.row_lower_,
                                   lp.row_upper_, mat.start_, mat.index_, mat.value_,
                                   warm.basis.col_status, warm.basis.row_status))
    assert warm.quotient is None   # lp holds it now
    held = [getattr(warm, name) for name in type(warm).__slots__]
    return 8 * numbers + sum(a.nbytes for a in held if isinstance(a, np.ndarray))


def test_held_state_of_sw_3x3_m22_stays_small():
    # the full LP's HighsLp, basis and reference held 229 KiB
    inst = rx.SwInstance(random_joint(np.random.default_rng(17), 3, 3), CodeSizes(2, 2))
    model = rx.build_lp_sw(inst)
    certified_solve(model)
    assert model.warm.basis is not None
    assert _held_bytes(model.warm) < 128 * 2 ** 10


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
