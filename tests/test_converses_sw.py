"""Distributed converses: LP metaconverse, scalar bounds, dual synthesis.

Frozen anchors were computed by hand before the module was written:
  - uniform 2x2, M1=M2=1: a single codeword pair forces one decoder guess,
    so the optimum is 1 - max P = 0.75; the flow phi_hat = P attains it.
  - DSBS n=1 p=0.25, M1=M2=1: 1 - 0.375 = 0.625, same argument.
  - uniform 2x2, M1=M2=1 scalar bound: every pair threshold coefficient is
    1, the only breakpoint is t = 1/4, and 1 - 3/4 = 0.25.
"""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fbconv import converses_ptp, converses_sw, relaxations
from fbconv.dsbs import DsbsSpec, dsbs_je_bound, expand_joint
from fbconv.lp_core import LpModel, _dense_rows, _row_arrays, solve
from fbconv.oracle import exact_opt_sw
from fbconv.probability import CodeSizes, DistortionSpec, JointPmf, PmfError, SinglePmf
from fbconv.relaxations import (
    DualPointJE,
    DualPointSI,
    InstanceTooLarge,
    ScInstance,
    SwInstance,
    build_lp_je,
    build_lp_sw,
    build_lpsi,
    check_feasible,
    dpje_flows,
    dpsi_flows,
    dual_objective,
    dual_point_from_solution,
)
from fbconv.converses_ptp import meta_je, meta_sid, sid_classic, sid_improved
from fbconv.converses_sw import (
    InfeasibleInput,
    combine_feasible,
    embed_je_feasible,
    embed_sid_feasible,
    max_converse,
    meta_sw,
    meta_sw_eta,
    mk_classic,
    mk_classic_at,
    mk_flows,
    mk_improved,
    mk_improved_at,
)

from conftest import certified_solve, check_with_oracle, peak_mib, random_joint, random_single


def _sw(mass, M1, M2):
    return SwInstance(JointPmf(np.asarray(mass, dtype=float)), CodeSizes(M1, M2))


def _uniform22(M1=1, M2=1):
    return _sw(np.full((2, 2), 0.25), M1, M2)


def _dsbs1(p=0.25):
    return _sw([[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]], 1, 1)


def _random_inst(rng, max_n=3, max_m=2):
    n1 = int(rng.integers(2, max_n + 1))
    n2 = int(rng.integers(2, max_n + 1))
    return _sw(random_joint(rng, n1, n2).mass,
               int(rng.integers(1, max_m + 1)), int(rng.integers(1, max_m + 1)))


def _witness_flows(rep):
    return tuple(rep.witness[k] for k in ("phi_hat", "phi_12", "phi_21"))


def _three_flow_lp(inst):
    """Reference: the three-flow metaconverse as an LP over whole flow
    tensors, with epigraph variables for the min and the three maxima."""
    n1, n2, m1, m2 = inst.dims
    K = n1 * n2
    nv = 4 * K + 1 + n1 + n2
    P = inst.joint.mass.reshape(-1)
    i_hat, i_12, i_21, i_t = 0, K, 2 * K, 3 * K
    i_u, i_v, i_w = 4 * K, 4 * K + 1, 4 * K + 1 + n1

    obj = np.zeros(nv)
    obj[i_t:i_t + K] = 1.0
    obj[i_u] = -float(m1 * m2)
    obj[i_v:i_v + n1] = -float(m2)
    obj[i_w:i_w + n2] = -float(m1)

    rows = []
    for a in range(n1):
        for b in range(n2):
            k = a * n2 + b
            r = np.zeros(nv)            # t <= phi_hat + phi_12 + phi_21
            r[i_t + k] = 1.0
            r[i_hat + k] = r[i_12 + k] = r[i_21 + k] = -1.0
            rows.append(r)
            r = np.zeros(nv)            # u >= phi_hat
            r[i_hat + k] = 1.0
            r[i_u] = -1.0
            rows.append(r)
            r = np.zeros(nv)            # v(s1) >= phi_21(s1, .)
            r[i_21 + k] = 1.0
            r[i_v + a] = -1.0
            rows.append(r)
            r = np.zeros(nv)            # w(s2) >= phi_12(., s2)
            r[i_12 + k] = 1.0
            r[i_w + b] = -1.0
            rows.append(r)

    upper = np.concatenate([P, P, P, P, np.full(1 + n1 + n2, math.inf)])
    return certified_solve(LpModel("max", obj, _dense_rows(rows), ("<=",) * len(rows),
                                   np.zeros(len(rows)), upper=upper)).value


def _threshold_lp(inst):
    """Reference: meta_sw as an LP in (t, u, v, w) with K = n1 n2 epigraph
    variables 0 <= t <= P and K rows t - u - v(s1) - w(s2) <= 0."""
    n1, n2, m1, m2 = inst.dims
    K = n1 * n2
    A = np.hstack([np.eye(K), -np.ones((K, 1)),
                   -np.repeat(np.eye(n1), n2, axis=0), -np.tile(np.eye(n2), (n1, 1))])
    obj = np.concatenate([np.ones(K), [-float(m1 * m2)],
                          np.full(n1, -float(m2)), np.full(n2, -float(m1))])
    upper = np.concatenate([inst.joint.mass.reshape(-1), np.full(1 + n1 + n2, math.inf)])
    return certified_solve(LpModel("max", obj, _dense_rows(A), ("<=",) * K, np.zeros(K),
                                   upper=upper)).value


def _sid_threshold_lp(inst, which):
    """Reference: meta_sid as an LP in (phi, w) with one epigraph variable
    w(side) and a row phi(enc, side) - w(side) <= 0 per pair."""
    n1, n2, m1, m2 = inst.dims
    P, M = (inst.joint.mass, m1) if which == 1 else (inst.joint.mass.T, m2)
    ne, ns = P.shape
    K = ne * ns
    A = np.hstack([np.eye(K), -np.tile(np.eye(ns), (ne, 1))])
    obj = np.concatenate([np.ones(K), np.full(ns, -float(M))])
    upper = np.concatenate([P.reshape(-1), np.full(ns, math.inf)])
    return certified_solve(LpModel("max", obj, _dense_rows(A), ("<=",) * K, np.zeros(K),
                                   upper=upper)).value


def _mixed_inst(rng):
    """1-6 letters per side, zero masses in about 30 %, M up to n + 1."""
    n1, n2 = (int(k) for k in rng.integers(1, 7, size=2))
    return _sw(random_joint(rng, n1, n2).mass,
               int(rng.integers(1, n1 + 2)), int(rng.integers(1, n2 + 2)))


# ---------------------------------------------------------------------------
# metaconverse LP


def test_meta_sw_anchors():
    rep = meta_sw(_uniform22())
    assert rep.raw_value == pytest.approx(0.75, abs=1e-9)
    assert rep.name == "meta-sw"
    rep = meta_sw(_dsbs1())
    assert rep.raw_value == pytest.approx(0.625, abs=1e-9)


def test_meta_sw_witness_in_range_and_reproduces():
    rng = np.random.default_rng(11)
    for _ in range(10):
        inst = _random_inst(rng)
        rep = meta_sw(inst)
        P = inst.joint.mass
        for phi in _witness_flows(rep):
            assert phi.shape == P.shape
            assert np.all(phi >= 0.0) and np.all(phi <= P)
        assert meta_sw_eta(inst, *_witness_flows(rep)).raw_value == rep.raw_value


def test_meta_raw_values_not_above_exact_formula():
    # the formulas evaluated in exact rational arithmetic at the witnesses
    rng = np.random.default_rng(12)
    F = np.vectorize(Fraction)
    for _ in range(40):
        inst = _random_inst(rng, max_n=4, max_m=4)
        P, (n1, n2, m1, m2) = F(inst.joint.mass), inst.dims
        rep = meta_sw(inst)
        ph, p12, p21 = (F(phi) for phi in _witness_flows(rep))
        exact = (np.minimum(P, ph + p12 + p21).sum() - m1 * m2 * ph.max()
                 - m1 * p12.max(axis=0).sum() - m2 * p21.max(axis=1).sum())
        assert Fraction(rep.raw_value) <= exact
        rep = meta_sid(inst, 1)
        phi = F(rep.witness["phi"])
        assert Fraction(rep.raw_value) <= phi.sum() - m1 * phi.max(axis=0).sum()


def test_meta_sw_equals_three_flow_lp():
    rng = np.random.default_rng(26)
    for _ in range(30):
        n1, n2 = (int(k) for k in rng.integers(2, 7, size=2))
        inst = _sw(random_joint(rng, n1, n2).mass,
                   int(rng.integers(1, n1 + 1)), int(rng.integers(1, n2 + 1)))
        assert meta_sw(inst).raw_value == pytest.approx(_three_flow_lp(inst), abs=1e-9)
    inst = expand_joint(DsbsSpec(3, 0.11, 2.0 / 3.0, 2.0 / 3.0))
    got = meta_sw(inst).raw_value
    assert got == pytest.approx(_three_flow_lp(inst), abs=1e-9)
    assert got == pytest.approx(0.2079, abs=1e-9)


@pytest.mark.parametrize("n", [4, 5])
def test_meta_sw_dsbs_equals_je_bound(n):
    spec = DsbsSpec(n, 0.11, 0.5, 0.5)
    assert meta_sw(expand_joint(spec)).raw_value == pytest.approx(
        dsbs_je_bound(spec).raw_value, abs=1e-9)


def test_meta_sw_cap(monkeypatch):
    # the covered-mass LP has 1 + n1 + n2 rows for meta_sw, n2 rows for
    # meta_sid(1) and n1 for meta_sid(2), over K = n1 n2 columns
    inst = _sw(random_joint(np.random.default_rng(27), 3, 2).mass, 2, 1)
    for bound, rows in ((meta_sw, 1 + 3 + 2), (lambda i: meta_sid(i, 1), 2),
                        (lambda i: meta_sid(i, 2), 3)):
        monkeypatch.setattr(relaxations, "MAX_LP_ENTRIES", rows * 6)
        bound(inst)
        monkeypatch.setattr(relaxations, "MAX_LP_ENTRIES", rows * 6 - 1)
        with pytest.raises(InstanceTooLarge):
            bound(inst)


def test_metaconverses_match_threshold_lps():
    rng = np.random.default_rng(28)
    for _ in range(400):
        inst = _mixed_inst(rng)
        assert meta_sw(inst).raw_value == pytest.approx(_threshold_lp(inst), abs=1e-12)
        for which in (1, 2):
            assert meta_sid(inst, which).raw_value == pytest.approx(
                _sid_threshold_lp(inst, which), abs=1e-12)


@pytest.mark.parametrize("caps", ["uvw", "v", "w"])
def test_covered_mass_lp_duals_certify(caps):
    # meta_sw and meta_sid read these row duals as (u, v, w) over 0 <= mu <= 1
    rng = np.random.default_rng(31)
    for inst in [_random_inst(rng) for _ in range(20)] + [_mixed_inst(rng) for _ in range(60)]:
        model, _ = converses_ptp._covered_mass_lp(inst, caps)
        assert certified_solve(model).status == "Optimal"


def test_covered_mass_lp_shape(monkeypatch):
    shapes = []

    def spy(model):
        shapes.append((model.rhs.size, model.num_variables))
        return solve(model)

    monkeypatch.setattr(converses_sw, "solve", spy)
    monkeypatch.setattr(converses_ptp, "solve", spy)
    inst = _sw(random_joint(np.random.default_rng(29), 4, 3).mass, 2, 2)
    meta_sw(inst)
    meta_sid(inst, 1)
    meta_sid(inst, 2)
    meta_je(inst)
    assert shapes == [(1 + 4 + 3, 12), (3, 12), (4, 12)]


def _reference_covered_mass_lp(inst, caps):
    """The covered-mass LP built from scratch on every call, with no cache:
    the reference for the cached model of _covered_mass_lp."""
    n1, n2, m1, m2 = inst.dims
    P = inst.joint.mass
    keep = np.repeat([c in caps for c in "uvw"], [1, n1, n2])
    s1, s2 = np.indices((n1, n2)).reshape(2, -1)
    row = np.cumsum(keep) - 1
    kept = [row[cap_of_cell] for f, cap_of_cell in
            (("u", 0 * s1), ("v", 1 + s1), ("w", 1 + n1 + s2)) if f in caps]
    a_rows = _row_arrays(np.concatenate(kept), np.tile(np.arange(P.size), len(kept)),
                         np.ones(len(kept) * P.size), int(keep.sum()))
    b = np.repeat([m1 * m2, m2, m1], [1, n1, n2])[keep].astype(float)
    return LpModel("max", P.reshape(-1), a_rows, ("<=",) * b.size, b, upper=np.ones(P.size))


def _models_solved(monkeypatch):
    """The list that every model meta_sw and meta_sid solve is appended to."""
    models = []

    def spy(model):
        models.append(model)
        return solve(model)

    monkeypatch.setattr(converses_sw, "solve", spy)
    monkeypatch.setattr(converses_ptp, "solve", spy)
    return models


def test_repeat_covered_mass_lp_checks_the_cost_alone(monkeypatch):
    inst = _sw(random_joint(np.random.default_rng(71), 4, 3).mass, 2, 3)
    bounds = (meta_sw, lambda i: meta_sid(i, 1), lambda i: meta_sid(i, 2))
    models = _models_solved(monkeypatch)
    first = [bound(inst) for bound in bounds]
    checked = []
    check = LpModel.__post_init__

    def counted(model):
        checked.append(model)
        check(model)

    monkeypatch.setattr(LpModel, "__post_init__", counted)
    again = [bound(inst) for bound in bounds]
    assert checked == []
    assert [r.raw_value for r in again] == [r.raw_value for r in first]
    for old, new in zip(models[:3], models[3:]):
        for name in ("a_rows", "rhs", "upper"):
            assert getattr(new, name) is getattr(old, name), name
        assert new.warm is None


def test_cached_covered_mass_lp_solves_match_the_reference():
    rng = np.random.default_rng(73)
    cases = [(inst.oriented(which), caps, which) for inst in
             [_random_inst(rng, max_n=5, max_m=3) for _ in range(6)] + [_mixed_inst(rng)
                                                                       for _ in range(6)]
             for caps in ("uvw", "w") for which in (1, 2)]
    for order in range(3):
        converses_ptp._covered_mass_structure.cache_clear()
        for k in rng.permutation(len(cases)) if order else range(len(cases)):
            sw, caps, which = cases[k]
            got, want = (solve(m) for m in (converses_ptp._covered_mass_lp(sw, caps)[0],
                                            _reference_covered_mass_lp(sw, caps)))
            assert got.status == want.status == "Optimal"
            assert got.value == want.value, (k, caps, which)
            np.testing.assert_array_equal(got.primal, want.primal)
            np.testing.assert_array_equal(got.dual, want.dual)


def test_metaconverse_memory_64x64():
    rng = np.random.default_rng(30)
    inst = _sw(rng.dirichlet(np.ones(64 * 64)).reshape(64, 64), 3, 3)
    for bound in (meta_sw, lambda i: meta_sid(i, 1), lambda i: meta_sid(i, 2)):
        assert peak_mib(lambda: bound(inst)) < 16
    assert peak_mib(lambda: meta_je(inst)) < 1


def test_meta_sw_eta_trivials():
    inst = _dsbs1()
    z = np.zeros((2, 2))
    assert meta_sw_eta(inst, z, z, z).raw_value == 0.0
    P = inst.joint.mass
    sat = np.ones((2, 2))
    want = (P.sum() - P.max()
            - P.max(axis=0).sum() - P.max(axis=1).sum())
    assert meta_sw_eta(inst, sat, sat, sat).raw_value == pytest.approx(want, abs=1e-12)
    with pytest.raises(Exception):
        meta_sw_eta(inst, -sat, z, z)


def test_meta_sw_eta_rejects_nan_and_takes_inf():
    # a NaN eta reported raw_value nan with clamped_value 0.0
    inst = _dsbs1()
    P, z = inst.joint.mass, np.zeros((2, 2))
    for at in range(3):
        etas = [z, z, z]
        etas[at] = np.array([[0.1, np.nan], [0.0, 0.2]])
        with pytest.raises(PmfError, match="not NaN"):
            meta_sw_eta(inst, *etas)
    # min{P, inf} = P
    inf = np.full((2, 2), np.inf)
    assert meta_sw_eta(inst, inf, z, inf).raw_value == meta_sw_eta(inst, P, z, P).raw_value


def test_meta_sw_eta_below_lp():
    rng = np.random.default_rng(12)
    for _ in range(15):
        inst = _random_inst(rng)
        top = meta_sw(inst).raw_value
        for _ in range(3):
            etas = [rng.random(inst.joint.mass.shape) * 0.7 for _ in range(3)]
            assert meta_sw_eta(inst, *etas).raw_value <= top + 1e-9


def test_meta_sw_trivial_when_codes_fit():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n1 = int(rng.integers(2, 4))
        n2 = int(rng.integers(2, 4))
        inst = _sw(random_joint(rng, n1, n2).mass, n1, n2)
        rep = meta_sw(inst)
        assert rep.raw_value <= 1e-9
        assert rep.clamped_value == 0.0


def test_meta_sw_sandwich():
    rng = np.random.default_rng(14)
    for _ in range(20):
        inst = _random_inst(rng)
        v = meta_sw(inst).raw_value
        assert -1e-9 <= v <= exact_opt_sw(inst) + 1e-9


def test_meta_sw_dominates_single_problem_bounds():
    rng = np.random.default_rng(15)
    for _ in range(25):
        inst = _random_inst(rng)
        top = meta_sw(inst).raw_value
        assert meta_je(inst).raw_value <= top + 1e-9
        assert meta_sid(inst, 1).raw_value <= top + 1e-9
        assert meta_sid(inst, 2).raw_value <= top + 1e-9


def test_max_converse():
    rep = max_converse(_uniform22())
    assert rep.raw_value == pytest.approx(0.75, abs=1e-9)
    rep = max_converse(_sw([[0.5, 0.0], [0.0, 0.5]], 1, 1))
    assert rep.raw_value == pytest.approx(0.5, abs=1e-9)
    assert rep.witness["winner"] == "meta-je"
    rng = np.random.default_rng(16)
    for _ in range(10):
        inst = _random_inst(rng)
        want = max(meta_je(inst).raw_value,
                   meta_sid(inst, 1).raw_value, meta_sid(inst, 2).raw_value)
        assert max_converse(inst).raw_value == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# scalar bounds


def test_mk_anchors():
    for fn in (mk_classic, mk_improved):
        rep = fn(_uniform22())
        assert rep.raw_value == pytest.approx(0.25, abs=1e-9)
        assert rep.witness["t"] == pytest.approx(0.25, abs=1e-12)
    for fn in (mk_classic, mk_improved):
        rep = fn(_uniform22(2, 2))
        assert rep.raw_value <= 1e-12
        assert rep.clamped_value == 0.0
    rep = mk_improved(_sw([[1.0, 0.0], [0.0, 0.0]], 1, 1))
    assert rep.raw_value == pytest.approx(0.0, abs=1e-12)


def test_mk_chain():
    rng = np.random.default_rng(17)
    for _ in range(40):
        inst = _random_inst(rng)
        lo = mk_classic(inst).raw_value
        mid = mk_improved(inst).raw_value
        hi = meta_sw(inst).raw_value
        assert lo <= mid + 1e-9
        assert mid <= hi + 1e-9
        assert lo >= -1e-12 and mid >= -1e-12


def test_mk_witness_reeval_and_sup():
    # every scalar sup, the point-to-point ones included: its *_at at the
    # witness is its raw value, and no grid point beats it
    cp = converses_ptp
    rng = np.random.default_rng(18)
    grid = np.linspace(1e-6, 1 - 1e-6, 400)
    wide = np.geomspace(1e-6, 1e3, 400)          # kv's t ranges over t > 0
    betas = np.append(np.linspace(-5.0, 40.0, 400), 1e300)   # palzer's b
    for _ in range(10):
        inst = _random_inst(rng, max_m=3)
        src = random_single(rng, int(rng.integers(2, 6)))
        n, M = src.alphabet_size, int(rng.integers(1, 4))
        d = rng.integers(0, 3, size=(n, n)).astype(float)
        np.fill_diagonal(d, 0.0)
        sc = ScInstance(src, M, DistortionSpec(d, float(rng.choice([0.0, 1.0]))))
        cases = [(mk_classic(inst), lambda t: mk_classic_at(inst, t), "t", grid),
                 (mk_improved(inst), lambda t: mk_improved_at(inst, t), "t", grid),
                 (cp.lossless_gamma_bound(src, M), lambda t: cp.lossless_gamma_at(src, M, t),
                  "t", grid)]
        for w in (1, 2):
            cases += [(cp.sid_improved(inst, w), lambda t, w=w: cp.sid_improved_at(inst, t, w),
                       "t", grid),
                      (cp.sid_classic(inst, w), lambda t, w=w: cp.sid_classic_at(inst, t, w),
                       "t", grid)]
        for j in (None, cp.TiltedInfo(rng.normal(0.0, 2.0, n))):
            cases += [(cp.kv_tilted_improved(sc, j), lambda t, j=j: cp.kv_tilted_at(sc, t, j),
                       "t", wide),
                      (cp.palzer_timo(sc, j), lambda b, j=j: cp.palzer_timo_at(sc, b, j),
                       "beta", betas)]
        for rep, at, key, points in cases:
            assert at(rep.witness[key]) == rep.raw_value, rep.name
            assert max(at(float(x)) for x in points) <= rep.raw_value + 1e-12, rep.name


def _scalar_sups(seed=18):
    """Every scalar sup on the instances test_mk_witness_reeval_and_sup draws,
    as (name, thunk) pairs."""
    cp = converses_ptp
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(10):
        inst = _random_inst(rng, max_m=3)
        src = random_single(rng, int(rng.integers(2, 6)))
        n, M = src.alphabet_size, int(rng.integers(1, 4))
        d = rng.integers(0, 3, size=(n, n)).astype(float)
        np.fill_diagonal(d, 0.0)
        sc = ScInstance(src, M, DistortionSpec(d, float(rng.choice([0.0, 1.0]))))
        out += [lambda inst=inst: mk_classic(inst), lambda inst=inst: mk_improved(inst),
                lambda src=src, M=M: cp.lossless_gamma_bound(src, M)]
        for w in (1, 2):
            out += [lambda inst=inst, w=w: cp.sid_improved(inst, w),
                    lambda inst=inst, w=w: cp.sid_classic(inst, w)]
        for j in (None, cp.TiltedInfo(rng.normal(0.0, 2.0, n))):
            out += [lambda sc=sc, j=j: cp.kv_tilted_improved(sc, j),
                    lambda sc=sc, j=j: cp.palzer_timo(sc, j)]
    return out


@pytest.mark.parametrize("block", [1, 40])
def test_scalar_sups_do_not_depend_on_the_block(monkeypatch, block):
    # one candidate per block, or a few with a shorter last block: each
    # candidate's value is a row sum of its own, so nothing may move
    sups = _scalar_sups()
    want = [sup() for sup in sups]
    monkeypatch.setattr(converses_ptp, "MAX_BLOCK_ENTRIES", block)
    for sup, rep in zip(sups, want):
        got = sup()
        assert got.raw_value == rep.raw_value, rep.name
        assert got.witness == rep.witness, rep.name


def test_curve_sups_memory_60x60():
    # about 3,600 candidates over 3,600 cells: one (candidates x cells)
    # temporary would take 100 MiB, one block takes 0.5 MiB
    rng = np.random.default_rng(75)
    inst = _sw(rng.dirichlet(np.ones(60 * 60)).reshape(60, 60), 3, 3)
    for bound in (converses_ptp.sid_improved, converses_ptp.sid_classic, mk_improved,
                  mk_classic):
        assert peak_mib(lambda: bound(inst)) < 4, bound.__name__


def _at_calls():
    cp = converses_ptp
    inst = _sw(random_joint(np.random.default_rng(77), 3, 2).mass, 2, 1)
    sc = ScInstance(random_single(np.random.default_rng(78), 3, allow_zeros=False), 2,
                    DistortionSpec(np.eye(3) == 0, 0.0))
    return {"sid_improved_at": lambda t: cp.sid_improved_at(inst, t, 2),
            "sid_classic_at": lambda t: cp.sid_classic_at(inst, t, 1),
            "mk_classic_at": lambda t: mk_classic_at(inst, t),
            "mk_improved_at": lambda t: mk_improved_at(inst, t),
            "lossless_gamma_at": lambda t: cp.lossless_gamma_at(sc.source, 2, t),
            "kv_tilted_at": lambda t: cp.kv_tilted_at(sc, t),
            "palzer_timo_at": lambda b: cp.palzer_timo_at(sc, b)}


@pytest.mark.parametrize("name", list(_at_calls()))
def test_at_rejects_a_point_outside_its_domain(name):
    at = _at_calls()[name]
    bad = [math.nan] if name == "palzer_timo_at" else [math.nan, math.inf, -math.inf, -1.0]
    for x in bad:
        with pytest.raises(PmfError):
            at(x)
    good = [-math.inf, math.inf, -3.0, 0.0] if name == "palzer_timo_at" else [0.0, 0.5, 7.0]
    for x in good:
        assert math.isfinite(at(x)) and at(x) <= 1.0 + 1e-12


def test_palzer_infinite_thresholds_raise_no_warning():
    cp = converses_ptp
    # a zero-mass symbol makes the built-in j = +inf there
    sc = ScInstance(SinglePmf([0.5, 0.3, 0.2, 0.0]), 1, DistortionSpec(np.eye(4) == 0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for j in (None, cp.TiltedInfo([0.1, 2.0, -1.0, 5.0])):
            rep = cp.palzer_timo(sc, j)
            assert cp.palzer_timo_at(sc, rep.witness["beta"], j) == rep.raw_value
            assert cp.palzer_timo_at(sc, math.inf, j) == 0.0
            # b = -inf keeps every symbol: 1 - M max P
            assert cp.palzer_timo_at(sc, -math.inf, j) == 0.5


# ---------------------------------------------------------------------------
# dual-point constructors


def test_embed_sid_feasible_flows():
    rng = np.random.default_rng(19)
    for _ in range(15):
        inst = _random_inst(rng)
        for which in (1, 2):
            phi = rng.random(inst.joint.mass.shape) * inst.joint.mass
            pt = dpsi_flows(inst, which, phi)
            out = embed_sid_feasible(inst, pt)
            assert check_with_oracle(inst, out, 1e-12) == []
            assert dual_objective(inst, out) == pytest.approx(
                dual_objective(inst, pt), abs=1e-12)


def test_embed_sid_anchor_and_edges():
    inst = _uniform22()
    rep = meta_sid(inst, 1)
    pt = dpsi_flows(inst, 1, rep.witness["phi"])
    out = embed_sid_feasible(inst, pt)
    assert dual_objective(inst, out) == pytest.approx(0.5, abs=1e-9)

    zero = dpsi_flows(inst, 2, np.zeros((2, 2)))
    out = embed_sid_feasible(inst, zero)
    assert dual_objective(inst, out) == pytest.approx(0.0, abs=1e-15)
    assert check_with_oracle(inst, out, 1e-12) == []

    with pytest.raises(InfeasibleInput):
        embed_sid_feasible(inst, dpsi_flows(inst, 1, inst.joint.mass + 1.0))


def test_embed_je_feasible_flows():
    rng = np.random.default_rng(20)
    for _ in range(15):
        inst = _random_inst(rng)
        phi = rng.random(inst.joint.mass.shape) * inst.joint.mass
        pt = dpje_flows(inst, phi)
        out = embed_je_feasible(inst, pt)
        assert check_with_oracle(inst, out, 1e-12) == []
        assert dual_objective(inst, out) == pytest.approx(
            dual_objective(inst, pt), abs=1e-12)


def test_embed_je_anchor_and_edges():
    inst = _uniform22()
    rep = meta_je(inst)
    pt = dpje_flows(inst, rep.witness["phi"])
    out = embed_je_feasible(inst, pt)
    assert dual_objective(inst, out) == pytest.approx(0.75, abs=1e-9)

    out = embed_je_feasible(inst, dpje_flows(inst, np.zeros((2, 2))))
    assert dual_objective(inst, out) == pytest.approx(0.0, abs=1e-15)

    with pytest.raises(InfeasibleInput):
        embed_je_feasible(inst, dpje_flows(inst, inst.joint.mass + 1.0))


def test_combine_feasible_anchor_alpha_independent():
    inst = _uniform22()
    ph, p12, p21 = _witness_flows(meta_sw(inst))
    vals = []
    for alpha in (0.1, 0.5, 0.9):
        out = combine_feasible(inst, dpsi_flows(inst, 1, p12),
                               dpsi_flows(inst, 2, p21),
                               dpje_flows(inst, ph), alpha)
        assert check_with_oracle(inst, out, 1e-12) == []
        vals.append(dual_objective(inst, out))
    assert vals[0] == pytest.approx(0.75, abs=1e-9)
    assert max(vals) - min(vals) <= 1e-12


def test_combine_feasible_random():
    rng = np.random.default_rng(21)
    for _ in range(12):
        inst = _random_inst(rng)
        P = inst.joint.mass
        ph, p12, p21 = (rng.random(P.shape) * P for _ in range(3))
        out = combine_feasible(inst, dpsi_flows(inst, 1, p12),
                               dpsi_flows(inst, 2, p21),
                               dpje_flows(inst, ph), 0.3)
        assert check_with_oracle(inst, out, 1e-12) == []
        # the combined objective collapses to the fixed-flow metaconverse
        assert dual_objective(inst, out) == pytest.approx(
            meta_sw_eta(inst, ph, p12, p21).raw_value, abs=1e-9)


def test_combine_feasible_optimal_matches_lp():
    rng = np.random.default_rng(22)
    for _ in range(8):
        inst = _random_inst(rng)
        rep = meta_sw(inst)
        ph, p12, p21 = _witness_flows(rep)
        out = combine_feasible(inst, dpsi_flows(inst, 1, p12),
                               dpsi_flows(inst, 2, p21),
                               dpje_flows(inst, ph), 0.5)
        assert dual_objective(inst, out) == pytest.approx(rep.raw_value, abs=1e-9)


def test_combine_feasible_on_lp_duals_is_feasible_but_below_the_embedded_points():
    # the flow-form contract does not extend to other feasible inputs: fed the
    # SI and JE relaxation LPs' own optimal duals, the merge stays feasible
    # yet is worth less than the best point it was built from
    inst = SwInstance(random_joint(np.random.default_rng(0), 2, 3), CodeSizes(2, 2))
    si = [dual_point_from_solution(inst, solve(build_lpsi(inst, w)), DualPointSI, w)
          for w in (1, 2)]
    je = dual_point_from_solution(inst, solve(build_lp_je(inst)), DualPointJE)
    embedded = [dual_objective(inst, embed_sid_feasible(inst, pt, input_tol=1e-7)) for pt in si]
    embedded.append(dual_objective(inst, embed_je_feasible(inst, je, input_tol=1e-7)))
    out = combine_feasible(inst, *si, je, 0.5, input_tol=1e-7)
    assert check_with_oracle(inst, out, 1e-12) == []
    assert max(embedded) == pytest.approx(0.2025, abs=1e-4)
    assert dual_objective(inst, out) == pytest.approx(0.0155, abs=1e-4)


def test_combine_feasible_rejects():
    inst = _uniform22()
    z = np.zeros((2, 2))
    f1, f2, fj = dpsi_flows(inst, 1, z), dpsi_flows(inst, 2, z), dpje_flows(inst, z)
    for alpha in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(InfeasibleInput):
            combine_feasible(inst, f1, f2, fj, alpha)
    with pytest.raises(InfeasibleInput):
        combine_feasible(inst, f2, f1, fj, 0.5)
    bad = dpsi_flows(inst, 1, inst.joint.mass + 1.0)
    with pytest.raises(InfeasibleInput):
        combine_feasible(inst, bad, f2, fj, 0.5)
    out = combine_feasible(inst, f1, f2, fj, 0.5)
    assert dual_objective(inst, out) == pytest.approx(0.0, abs=1e-15)


def test_synthesis_rejects_nan_flows():
    # a NaN residual is a violation: once it passed every input check, and
    # dual_objective of the synthesized point was nan
    inst = SwInstance(random_joint(np.random.default_rng(26), 3, 3), CodeSizes(2, 2))
    P = inst.joint.mass
    phi = 0.5 * P
    phi[1, 2] = np.nan
    ok = 0.5 * P
    with pytest.raises(InfeasibleInput, match="worst residual nan"):
        embed_je_feasible(inst, dpje_flows(inst, phi))
    for which in (1, 2):
        with pytest.raises(InfeasibleInput):
            embed_sid_feasible(inst, dpsi_flows(inst, which, phi))
    for flows in ((phi, ok, ok), (ok, phi, ok), (ok, ok, phi)):
        with pytest.raises(InfeasibleInput):
            combine_feasible(inst, dpsi_flows(inst, 1, flows[0]), dpsi_flows(inst, 2, flows[1]),
                             dpje_flows(inst, flows[2]), 0.5)


def test_mk_flows_matches_scalar_bounds():
    inst = _uniform22()
    out = mk_flows(inst, 0.25)
    assert check_with_oracle(inst, out, 1e-12) == []
    assert dual_objective(inst, out) == pytest.approx(0.25, abs=1e-12)

    rng = np.random.default_rng(23)
    for _ in range(12):
        inst = _random_inst(rng)
        for t in (0.1, 0.5, 1.0 - 1e-9):
            out = mk_flows(inst, t)
            assert check_with_oracle(inst, out, 1e-12) == []
            obj = dual_objective(inst, out)
            assert obj == pytest.approx(mk_improved_at(inst, t), abs=1e-9)
            assert obj >= mk_classic_at(inst, t) - 1e-9


def test_mk_flows_edges():
    inst = _sw([[1.0, 0.0], [0.0, 0.0]], 1, 1)
    for t in (0.2, 0.9):
        out = mk_flows(inst, t)
        assert check_with_oracle(inst, out, 1e-12) == []
        assert dual_objective(inst, out) <= 1e-12
    for bad in (-0.5, float("inf"), float("nan")):
        with pytest.raises(InfeasibleInput):
            mk_flows(_uniform22(), bad)


def test_mk_flows_checks_its_size_before_allocating():
    rng = np.random.default_rng(79)
    big = SwInstance(random_joint(rng, 8, 8), CodeSizes(16, 16))   # (8*8*16*16)^2 = 2^28

    def attempt():
        with pytest.raises(InstanceTooLarge):
            mk_flows(big, 0.5)
    assert peak_mib(attempt) < 4
    with pytest.raises(InstanceTooLarge):
        mk_flows(SwInstance(random_joint(rng, 8, 8), CodeSizes(2 ** 70, 2)), 0.5)
    # the 8x8 / M=(4,4) DSBS point, 2^20 entries, stays allowed
    inst = expand_joint(DsbsSpec(3, 0.11, 2 / 3, 2 / 3))
    assert check_with_oracle(inst, mk_flows(inst, 0.01), 1e-9) == []


def test_dsbs_points_are_checked_one_slab_at_a_time():
    # the 8x8 / M=(4,4) DSBS points of a sw_bounds op: with the whole W
    # residual (2^20 entries) and its mask a check took 9.0 MiB, with a
    # slab of 2^16 entries and its mask it takes about 1.2 MiB
    inst = expand_joint(DsbsSpec(3, 0.11, 2 / 3, 2 / 3))
    P = inst.joint.mass
    ph, p12, p21 = (np.clip(np.asarray(meta_sw(inst).witness[k]), 0.0, P)
                    for k in ("phi_hat", "phi_12", "phi_21"))
    je = dpje_flows(inst, ph)
    points = [je, combine_feasible(inst, dpsi_flows(inst, 1, p12), dpsi_flows(inst, 2, p21), je, 0.5),
              mk_flows(inst, float(mk_improved(inst).witness["t"]))]
    for pt in points:
        assert peak_mib(lambda: check_feasible(inst, pt, 1e-9)) < 2, type(pt).__name__
    # the n = 4 DSBS point: 16x16 / M=(4,4), a W block of 2^24 entries,
    # 128 MiB as one array
    big = expand_joint(DsbsSpec(4, 0.11, 0.5, 0.5))
    pt = mk_flows(big, float(mk_improved(big).witness["t"]))
    found = []
    assert peak_mib(lambda: found.extend(check_feasible(big, pt, 1e-9))) < 4
    assert found == []


def test_code_sizes_past_float_range_are_typed():
    # M1 M2 = 2^1200 once raised a bare OverflowError; 2^1022 is a float
    joint = JointPmf([[0.4, 0.1], [0.2, 0.3]])
    bounds = (meta_sw, meta_je, mk_classic, mk_improved, max_converse,
              *(lambda inst, f=f, w=w: f(inst, w)
                for f in (meta_sid, sid_improved, sid_classic) for w in (1, 2)))
    for bound in bounds:
        with pytest.raises(InstanceTooLarge, match="float range"):
            bound(SwInstance(joint, CodeSizes(2 ** 600, 2 ** 600)))
        assert bound(SwInstance(joint, CodeSizes(2 ** 511, 2 ** 511))).raw_value == 0.0


def test_constructor_zero_fields_hold_no_memory():
    rng = np.random.default_rng(31)
    inst = _random_inst(rng)
    P = inst.joint.mass
    ph, p12, p21 = (rng.random(P.shape) * P for _ in range(3))
    pts = [embed_sid_feasible(inst, dpsi_flows(inst, 1, p12)),
           embed_sid_feasible(inst, dpsi_flows(inst, 2, p21)),
           embed_je_feasible(inst, dpje_flows(inst, ph)),
           combine_feasible(inst, dpsi_flows(inst, 1, p12), dpsi_flows(inst, 2, p21),
                            dpje_flows(inst, ph), 0.5),
           mk_flows(inst, 0.4)]
    for pt in pts:
        # the gammas are computed, as binding multipliers, not passed
        zero = [f.name for f in dataclasses.fields(pt) if not f.name.startswith("gamma")
                and not np.any(getattr(pt, f.name))]
        assert zero
        for name in zero:
            assert not any(getattr(pt, name).strides), name


def test_constructed_points_below_lp_value():
    rng = np.random.default_rng(24)
    for _ in range(4):
        inst = _sw(random_joint(rng, 2, 2).mass,
                   int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        top = certified_solve(build_lp_sw(inst)).value
        P = inst.joint.mass
        ph, p12, p21 = (rng.random(P.shape) * P for _ in range(3))
        pts = [
            embed_sid_feasible(inst, dpsi_flows(inst, 1, p12)),
            embed_sid_feasible(inst, dpsi_flows(inst, 2, p21)),
            embed_je_feasible(inst, dpje_flows(inst, ph)),
            combine_feasible(inst, dpsi_flows(inst, 1, p12),
                             dpsi_flows(inst, 2, p21), dpje_flows(inst, ph), 0.5),
            mk_flows(inst, 0.4),
        ]
        for pt in pts:
            assert check_with_oracle(inst, pt, 1e-12) == []
            assert dual_objective(inst, pt) <= top + 1e-7


def test_embed_solver_extracted_duals():
    rng = np.random.default_rng(25)
    for _ in range(4):
        inst = _sw(random_joint(rng, 2, 2).mass,
                   int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        top = certified_solve(build_lp_sw(inst)).value
        for which in (1, 2):
            sol = certified_solve(build_lpsi(inst, which))
            pt = dual_point_from_solution(inst, sol, DualPointSI, which)
            out = embed_sid_feasible(inst, pt, input_tol=1e-7)
            assert check_with_oracle(inst, out, 1e-7) == []
            assert dual_objective(inst, out) >= sol.value - 1e-7
            assert dual_objective(inst, out) <= top + 1e-7
        sol = certified_solve(build_lp_je(inst))
        out = embed_je_feasible(inst, dual_point_from_solution(inst, sol, DualPointJE),
                                input_tol=1e-7)
        assert check_with_oracle(inst, out, 1e-7) == []
        assert dual_objective(inst, out) >= sol.value - 1e-7
        assert dual_objective(inst, out) <= top + 1e-7
