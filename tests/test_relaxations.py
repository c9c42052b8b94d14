import math
from dataclasses import fields, replace

import numpy as np
import pytest

from fbconv import relaxations
from fbconv.converses_sw import meta_sw
from fbconv.lp_core import LpSolution
from fbconv.oracle import exact_opt_sc, exact_opt_sid, exact_opt_sw
from fbconv.probability import CodeSizes, DistortionSpec, JointPmf, PmfError, SinglePmf
from fbconv.relaxations import (
    DualPointJE,
    DualPointSC,
    DualPointSI,
    DualPointSW,
    InstanceTooLarge,
    ScInstance,
    SwInstance,
    _binding_gammas,
    _lay,
    _point,
    _slabs,
    _table_of,
    build_lp_je,
    build_lp_sc,
    build_lp_sw,
    build_lpsi,
    _layouts,
    check_feasible,
    dp_flows_sc,
    dpje_flows,
    dpsi_flows,
    dual_objective,
    dual_point_from_solution,
    dual_point_si_from_solution,
)

from conftest import (assert_checkers_agree, certified_solve, check_with_oracle, peak_mib,
                      random_joint, random_single, sw_je_instance)
from dual_oracle import HAND_AXES, HAND_CHECKERS


def _sc(mass, M):
    mass = np.asarray(mass, dtype=float)
    return ScInstance(SinglePmf(mass), M, DistortionSpec.lossless(len(mass)))


@pytest.mark.parametrize("make, match", [
    (lambda: ScInstance(SinglePmf([0.5, 0.5]), 2, DistortionSpec.lossless(3)), "rows"),
    (lambda: ScInstance(SinglePmf([0.5, 0.5]), 2, DistortionSpec(np.ones((1, 2)))), "rows"),
    (lambda: SwInstance(JointPmf([[0.5, 0.5]]), CodeSizes(2)), "both codebook sizes")])
def test_instances_refuse_mismatched_parts(make, match):
    with pytest.raises(PmfError, match=match):
        make()


def test_variable_counts():
    cols, rows = _layouts(_sc([0.5, 0.5], 2), DualPointSC)
    assert cols.total == 24
    inst = SwInstance(JointPmf(np.full((2, 2), 0.25)), CodeSizes(2, 2))
    cols, rows = _layouts(inst, DualPointSW)
    assert cols.total == 424
    assert rows.total == 440


def test_cap_raises():
    inst = SwInstance(JointPmf(np.full((4, 4), 1 / 16)), CodeSizes(4, 4))
    with pytest.raises(InstanceTooLarge):
        build_lp_sw(inst)


def test_cap_raises_before_allocating():
    # SW at 4x4 / M=(4,4) asks for a 39,576 x 74,272 constraint matrix, 21.9
    # GiB of float64; the JE cost tensor at 8x8 / M=(8,8) alone is 128 MiB
    for n, M, build in ((4, 4, build_lp_sw), (8, 8, build_lp_je)):
        inst = SwInstance(JointPmf(np.full((n, n), 1 / n ** 2)), CodeSizes(M, M))

        def attempt():
            with pytest.raises(InstanceTooLarge):
                build(inst)

        assert peak_mib(attempt) < 4


def test_sc_lp_anchors():
    assert certified_solve(build_lp_sc(_sc([0.7, 0.3], 2))).value == pytest.approx(0.0, abs=1e-9)
    assert certified_solve(build_lp_sc(_sc([0.25] * 4, 2))).value == pytest.approx(0.5, abs=1e-9)
    # an integral float M is the int it stands for
    assert certified_solve(build_lp_sc(_sc([0.25] * 4, 2.0))).value == pytest.approx(0.5, abs=1e-9)


def test_sc_lp_sandwich_and_duals():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        M = int(rng.integers(1, 3))
        inst = _sc(random_single(rng, n).mass, M)
        sol = certified_solve(build_lp_sc(inst))
        assert sol.status == "Optimal"
        assert sol.value <= exact_opt_sc(inst) + 1e-9
        assert sol.value >= -1e-9
        pt = dual_point_from_solution(inst, sol, DualPointSC)
        assert check_with_oracle(inst, pt, 1e-7) == []
        assert dual_objective(inst, pt) == pytest.approx(sol.value, abs=1e-7)


def test_sc_lossy_lp_below_oracle():
    d = np.abs(np.arange(4)[:, None] - np.arange(4)[None, :]).astype(float)
    inst = ScInstance(SinglePmf([0.4, 0.3, 0.2, 0.1]), 1, DistortionSpec(d, 1.0))
    sol = certified_solve(build_lp_sc(inst))
    assert sol.status == "Optimal"
    assert sol.value <= exact_opt_sc(inst) + 1e-9
    pt = dual_point_from_solution(inst, sol, DualPointSC)
    assert check_with_oracle(inst, pt, 1e-7) == []


def test_je_builders_agree():
    rng = np.random.default_rng(5)
    for n1, n2, m1, m2 in [(2, 2, 1, 1), (2, 2, 2, 1), (3, 2, 1, 2), (2, 3, 2, 1)]:
        inst = SwInstance(random_joint(rng, n1, n2), CodeSizes(m1, m2))
        a = certified_solve(build_lp_sc(sw_je_instance(inst)))
        b = certified_solve(build_lp_je(inst))
        assert a.status == b.status == "Optimal"
        assert a.value == pytest.approx(b.value, abs=1e-7)
        pt = dual_point_from_solution(inst, b, DualPointJE)
        assert check_with_oracle(inst, pt, 1e-7) == []
        assert dual_objective(inst, pt) == pytest.approx(b.value, abs=1e-7)


def test_lpsi_anchors_and_duals():
    uni = SwInstance(JointPmf(np.full((2, 2), 0.25)), CodeSizes(1, 1))
    for which in (1, 2):
        sol = certified_solve(build_lpsi(uni, which))
        assert sol.value == pytest.approx(0.5, abs=1e-9)
        pt = dual_point_from_solution(uni, sol, DualPointSI, which)
        assert check_with_oracle(uni, pt, 1e-7) == []
        assert dual_objective(uni, pt) == pytest.approx(0.5, abs=1e-7)


def test_lpsi_below_oracle():
    rng = np.random.default_rng(9)
    for _ in range(15):
        inst = SwInstance(random_joint(rng, 3, 2), CodeSizes(2, 2))
        for which in (1, 2):
            sol = certified_solve(build_lpsi(inst, which))
            assert sol.status == "Optimal"
            assert sol.value <= exact_opt_sid(inst, which) + 1e-9
            pt = dual_point_from_solution(inst, sol, DualPointSI, which)
            assert check_with_oracle(inst, pt, 1e-7) == []
            assert dual_objective(inst, pt) == pytest.approx(sol.value, abs=1e-7)


def test_sw_lp_uniform_anchor():
    inst = SwInstance(JointPmf(np.full((2, 2), 0.25)), CodeSizes(1, 1))
    sol = certified_solve(build_lp_sw(inst))
    assert sol.value == pytest.approx(0.75, abs=1e-9)
    pt = dual_point_from_solution(inst, sol, DualPointSW)
    assert check_with_oracle(inst, pt, 1e-7) == []
    assert dual_objective(inst, pt) == pytest.approx(0.75, abs=1e-7)


def test_sw_lp_random_duals_and_oracle():
    rng = np.random.default_rng(13)
    for k in range(8):
        m1 = int(rng.integers(1, 3))
        m2 = 1 if m1 == 2 else int(rng.integers(1, 3))
        inst = SwInstance(random_joint(rng, 2, 2), CodeSizes(m1, m2))
        sol = certified_solve(build_lp_sw(inst))
        assert sol.status == "Optimal"
        assert sol.value <= exact_opt_sw(inst) + 1e-9
        assert sol.value >= -1e-9
        pt = dual_point_from_solution(inst, sol, DualPointSW)
        assert check_with_oracle(inst, pt, 1e-7) == []
        assert dual_objective(inst, pt) == pytest.approx(sol.value, abs=1e-7)


def test_sw_lp_3x3_m22_between_meta_sw_and_exact():
    # 1750 rows x 1812 columns
    rng = np.random.default_rng(37)
    for _ in range(3):
        inst = SwInstance(random_joint(rng, 3, 3), CodeSizes(2, 2))
        sol = certified_solve(build_lp_sw(inst))
        assert sol.status == "Optimal"
        assert meta_sw(inst).raw_value <= sol.value + 1e-9
        assert sol.value <= exact_opt_sw(inst) + 1e-9
        pt = dual_point_from_solution(inst, sol, DualPointSW)
        assert check_with_oracle(inst, pt, 1e-9) == []
        assert dual_objective(inst, pt) == pytest.approx(sol.value, abs=1e-9)


def test_sw_lp_between_je_and_exact():
    rng = np.random.default_rng(17)
    for _ in range(5):
        inst = SwInstance(random_joint(rng, 2, 2), CodeSizes(1, 2))
        lp_sw = certified_solve(build_lp_sw(inst)).value
        lp_je = certified_solve(build_lp_je(inst)).value
        # the distributed LP keeps more structure than the joint-encoder one
        assert lp_je <= lp_sw + 1e-9
        assert lp_sw <= exact_opt_sw(inst) + 1e-9


def test_flow_points_feasible_and_valued():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        inst = _sc(random_single(rng, n).mass, int(rng.integers(1, 4)))
        phi = rng.uniform(0, 1, n) * inst.source.mass
        pt = dp_flows_sc(inst, phi)
        assert check_with_oracle(inst, pt, 1e-12) == []
        want = phi.sum() - inst.M * (phi[:, None] * inst.distortion.within()).sum(0).max()
        assert dual_objective(inst, pt) == pytest.approx(want, abs=1e-12)

    for _ in range(20):
        joint = random_joint(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        inst = SwInstance(joint, CodeSizes(int(rng.integers(1, 3)),
                                           int(rng.integers(1, 3))))
        phi = rng.uniform(0, 1, joint.sizes) * joint.mass
        for which in (1, 2):
            pt = dpsi_flows(inst, which, phi)
            assert check_with_oracle(inst, pt, 1e-12) == []
            M = inst.sizes.M1 if which == 1 else inst.sizes.M2
            pe = phi if which == 1 else phi.T
            want = phi.sum() - M * pe.max(axis=0).sum()
            assert dual_objective(inst, pt) == pytest.approx(want, abs=1e-12)
        pt = dpje_flows(inst, phi)
        assert check_with_oracle(inst, pt, 1e-12) == []
        want = phi.sum() - inst.sizes.M1 * inst.sizes.M2 * phi.max()
        assert dual_objective(inst, pt) == pytest.approx(want, abs=1e-12)


def test_checkers_flag_injected_violations():
    inst = _sc([0.6, 0.4], 2)
    sol = certified_solve(build_lp_sc(inst))
    pt = dual_point_from_solution(inst, sol, DualPointSC)
    bad = DualPointSC(pt.lam_s + 1e-3, pt.lam_c, pt.gamma_a, pt.gamma_b)
    ids = {v.constraint_id for v in check_feasible(inst, bad, tol=1e-7)}
    assert "P3" in ids
    # a NaN entry is reported, in P2 and in P3 on either message, and does
    # not hide a violation beside it
    lam_s = pt.lam_s + 1e-3
    lam_s[0, 0, 0] = np.nan
    found = check_feasible(inst, DualPointSC(lam_s, pt.lam_c, pt.gamma_a, pt.gamma_b),
                              tol=1e-7)
    assert {(v.constraint_id, v.index) for v in found if np.isnan(v.residual)} == \
        {("P2", (0, 0)), ("P3", (0, 0, 0, 0)), ("P3", (0, 1, 0, 0))}
    assert any(v.constraint_id == "P3" and v.residual > 0 for v in found)
    assert_checkers_agree(inst, DualPointSC(lam_s, pt.lam_c, pt.gamma_a, pt.gamma_b), 1e-7)

    uni = SwInstance(JointPmf(np.full((2, 2), 0.25)), CodeSizes(1, 1))
    swsol = certified_solve(build_lp_sw(uni))
    swpt = dual_point_from_solution(uni, swsol, DualPointSW)
    bad = replace(swpt, lam_c=swpt.lam_c + 5e-4)
    ids = {v.constraint_id for v in check_feasible(uni, bad, tol=1e-7)}
    assert ids and ids <= {"D4"}
    bad2 = replace(swpt, mu_s_1=swpt.mu_s_1 + 5e-4)
    ids = {v.constraint_id for v in check_feasible(uni, bad2, tol=1e-7)}
    assert "D6" in ids
    v = check_feasible(uni, bad2, tol=1e-7)[0]
    assert v.residual > 0


def test_checker_shape_validation():
    inst = _sc([0.6, 0.4], 2)
    with pytest.raises(PmfError):
        check_feasible(inst, DualPointSC(np.zeros((3, 2, 2)), np.zeros((2, 2, 2))))


def test_dual_points_reject_a_missing_multiplier():
    # only a normalization (gamma) field may be None; once a None lam_c
    # failed as an AttributeError inside the checker
    with pytest.raises(PmfError, match="lam_c"):
        check_feasible(_sc([0.6, 0.4], 2), DualPointSC(np.zeros((2, 2, 2)), None))
    for cls, extra in ((DualPointSC, {}), (DualPointSI, {"which": 1}), (DualPointJE, {}),
                       (DualPointSW, {})):
        names = [f.name for f in fields(cls) if f.name not in extra]
        for name in names:
            if not name.startswith("gamma"):
                with pytest.raises(PmfError, match=name):
                    cls(**extra, **{n: None if n == name else np.zeros(1) for n in names})


def test_dual_point_arrays_read_only():
    pt = DualPointJE(np.zeros((2, 2, 2, 2, 1, 1)), np.zeros((2, 2, 1, 1, 1, 1)))
    with pytest.raises(ValueError):
        pt.lam_s[0, 0, 0, 0, 0, 0] = 1.0


def _lossy_sc():
    d = np.abs(np.arange(4)[:, None] - np.arange(5)[None, :]).astype(float)
    return ScInstance(SinglePmf([0.4, 0.3, 0.2, 0.1]), 2, DistortionSpec(d, 1.0))


def _pair():
    return SwInstance(random_joint(np.random.default_rng(23), 3, 2), CodeSizes(2, 1))


each_lp = pytest.mark.parametrize("inst, build, kind", [
    (_lossy_sc(), build_lp_sc, (DualPointSC,)),
    (_pair(), lambda i: build_lpsi(i, 1), (DualPointSI, 1)),
    (_pair(), lambda i: build_lpsi(i, 2), (DualPointSI, 2)),
    (_pair(), build_lp_je, (DualPointJE,)),
    (_pair(), build_lp_sw, (DualPointSW,)),
], ids=["sc", "si1", "si2", "je", "sw"])


@each_lp
def test_checkers_reject_wrong_gamma_shapes(inst, build, kind):
    # a gamma of the wrong length neither broadcasts nor fails inside numpy
    pt = dual_point_from_solution(inst, LpSolution("Optimal", 0.0, None,
                                                   np.zeros(build(inst).rhs.size)), *kind)
    check_feasible(inst, pt)
    for f in [f for f in ("gamma_a", "gamma_b", "gamma_c") if hasattr(pt, f)]:
        for bad in (np.zeros(1), np.zeros(getattr(pt, f).size + 1)):
            with pytest.raises(PmfError):
                check_feasible(inst, replace(pt, **{f: bad}))


@each_lp
def test_builder_transpose_matches_hand_written_duals(inst, build, kind):
    # the dual constraints of min c.x, A x = b, x >= 0 are A^T y <= c, one per
    # column; the oracle states them by hand, so at any y its residuals must
    # be the entries of A^T y - c in some order
    model = build(inst)
    y = np.random.default_rng(29).normal(size=model.rhs.size)
    pt = dual_point_from_solution(inst, LpSolution("Optimal", 0.0, None, y), *kind)
    resid = np.sort([v.residual for v in HAND_CHECKERS[type(pt)](inst, pt, tol=-np.inf)])
    want = np.sort(model.a_matrix.T @ y - model.objective)
    assert resid.shape == want.shape
    assert np.abs(resid - want).max() <= 1e-12


@each_lp
def test_slicer_rejects_a_solution_without_duals(inst, build, kind):
    # a None dual once failed as "'NoneType' object is not subscriptable"
    with pytest.raises(PmfError, match="no duals"):
        dual_point_from_solution(inst, LpSolution("Infeasible", np.nan, None, None), *kind)


@each_lp
def test_slicer_rejects_duals_of_another_length(inst, build, kind):
    n = build(inst).rhs.size
    for dual in (np.zeros(n - 1), np.zeros(n + 1), np.zeros((1, n))):
        with pytest.raises(PmfError, match=f"has {n} rows"):
            dual_point_from_solution(inst, LpSolution("Optimal", 0.0, None, dual), *kind)


def test_slicer_rejects_another_lps_duals():
    # SW's 341 and JE's 104 duals, sliced as SI side 1's 67 rows, once gave
    # points of objective 0.0 (15 violations) and -1.0
    inst = SwInstance(JointPmf(np.full((3, 2), 1 / 6)), CodeSizes(2, 1))
    for build in (build_lp_sw, build_lp_je):
        with pytest.raises(PmfError, match="DualPointSI's LP has 67 rows"):
            dual_point_si_from_solution(inst, 1, certified_solve(build(inst)))


def _dense_records(resid, tol):
    return [(tuple(int(i) for i in idx), float(resid[tuple(idx)]))
            for idx in np.argwhere(~(resid <= tol))]   # NaN counts as violated


# the joint-family constraints as they were first written: the right side
# built as a dense array over every index and subtracted whole, both sides
# over the W block's letters

def _cost_p3(inst):
    return np.einsum("s, sh, xy -> sxyh", inst.source.mass,
                     inst.distortion.excess().astype(float), np.eye(inst.M))


def _dense_p3(inst, pt):
    lhs = pt.lam_s.transpose(0, 2, 1)[:, None, :, :] + \
        pt.lam_c.transpose(1, 0, 2)[:, :, :, None]
    return lhs - _cost_p3(inst)


def _cost_b3(inst, which):
    P = inst.oriented(which).joint.mass
    M = inst.oriented(which).sizes.M1
    return np.einsum("es, eh, xy -> esxyh", P, 1.0 - np.eye(P.shape[0]), np.eye(M))


def _dense_b3(inst, pt):
    lhs = pt.lam_s.transpose(0, 1, 3, 2)[:, :, None, :, :] + pt.lam_c[:, :, :, :, None]
    return lhs - _cost_b3(inst, pt.which)


def _cost_a3(inst):
    n1, n2, m1, m2 = inst.dims
    mism = 1.0 - np.einsum("ac, bd -> abcd", np.eye(n1), np.eye(n2))
    return np.einsum("ab, abcd, xu, yv -> abxyuvcd", inst.joint.mass, mism,
                     np.eye(m1), np.eye(m2))


def _dense_a3(inst, pt):
    lhs = pt.lam_s.transpose(0, 1, 4, 5, 2, 3)[:, :, None, None, :, :, :, :] + \
        pt.lam_c[:, :, :, :, :, :, None, None]
    return lhs - _cost_a3(inst)


def _dense_d4(inst, pt):
    lhs = pt.lam_s_12[:, :, None, :, :, :, :, :] \
        + pt.lam_s_21[:, :, :, None, :, :, :, :] \
        + pt.lam_c[:, :, :, :, :, :, None, None]
    return lhs - _cost_a3(inst)


def _lossy_sc_m(M):
    d = np.abs(np.arange(3)[:, None] - np.arange(4)[None, :]).astype(float)
    return ScInstance(SinglePmf([0.5, 0.3, 0.2]), M, DistortionSpec(d, 1.0))


def _cases(dims):
    """(instance, point class, row layout, W block's id, dense residual, its
    dense cost, built LP, extra fields) for each LP on one pair of alphabet
    and code sizes."""
    n1, n2, m1, m2 = dims
    inst = SwInstance(random_joint(np.random.default_rng(31), n1, n2), CodeSizes(m1, m2))
    sc = _lossy_sc_m(m1)
    out = [(sc, DualPointSC, _layouts(sc, DualPointSC)[1], "P3", _dense_p3, _cost_p3(sc),
            build_lp_sc(sc), {}),
           (inst, DualPointJE, _layouts(inst, DualPointJE)[1], "A3", _dense_a3, _cost_a3(inst),
            build_lp_je(inst), {}),
           (inst, DualPointSW, _layouts(inst, DualPointSW)[1], "D4", _dense_d4, _cost_a3(inst),
            build_lp_sw(inst), {})]
    for which, cid in ((1, "B3"), (2, "C3")):
        out.append((inst, DualPointSI, _layouts(inst, DualPointSI, which)[1], cid, _dense_b3,
                    _cost_b3(inst, which), build_lpsi(inst, which), {"which": which}))
    return out


DIMS = [(2, 2, 1, 1), (3, 2, 2, 1), (2, 3, 2, 3), (3, 3, 3, 2)]


@pytest.mark.parametrize("dims", DIMS)
def test_check_dpsw_d4_matches_dense_formula(dims):
    # the W block of every LP, whose cost check_feasible subtracts in place on
    # the message diagonal: (D4), (P3), (A3), (B3) and (C3)
    rng = np.random.default_rng(31)
    for inst, cls, rows, cid, dense, _, _, extra in _cases(dims):
        # entries of the size of P, so about half the joint residuals are positive
        size = inst.n if isinstance(inst, ScInstance) else inst.dims[0] * inst.dims[1]
        pt = cls(**extra, **{name: rng.uniform(0.0, 0.4 / size, size=shape)
                             for name, shape in rows.shapes.items()})
        for tol in (-np.inf, 0.0):
            got = [(v.index, v.residual)
                   for v in assert_checkers_agree(inst, pt, tol) if v.constraint_id == cid]
            assert got == _dense_records(dense(inst, pt), tol)


@pytest.mark.parametrize("dims", DIMS)
def test_build_cost_is_the_dense_formula(dims):
    # the cost each builder writes through W's message diagonal is, bit for
    # bit, the dense einsum over every W entry, and zero off the W block
    for *_, cost, model, _ in _cases(dims):
        want = np.zeros(model.num_variables)
        want[-cost.size:] = cost.reshape(-1)   # W is the last block of every table
        assert model.objective.tobytes() == want.tobytes()


# the binding normalization multipliers as each was first written by hand,
# on the table layouts

def _hand_gammas(pt):
    if isinstance(pt, DualPointSC):
        return {"gamma_a": pt.lam_c.sum(axis=2).min(axis=0),
                "gamma_b": pt.lam_s.sum(axis=0).T.min(axis=1)}
    if isinstance(pt, DualPointSI):
        return {"gamma_a": pt.lam_c.sum(axis=(1, 3)).min(axis=1),
                "gamma_b": pt.lam_s.sum(axis=0).min(axis=1)}
    if isinstance(pt, DualPointJE):
        return {"gamma_a": pt.lam_c.sum(axis=(4, 5)).min(axis=(2, 3)),
                "gamma_b": pt.lam_s.sum(axis=(0, 1)).min(axis=(0, 1))}
    dec = pt.mu_s_1.sum(axis=0) + pt.mu_s_2.sum(axis=0)
    return {"gamma_a": (pt.mu_c_1.sum(axis=(2, 3)) + pt.mu_c_12.sum(axis=2).T).min(axis=1),
            "gamma_b": (pt.mu_c_2.sum(axis=(2, 3)) + pt.mu_c_21.sum(axis=1).T).min(axis=1),
            "gamma_c": dec.min(axis=(0, 1))}


@pytest.mark.parametrize("dims", DIMS)
def test_binding_gammas_match_hand_formulas(dims):
    rng = np.random.default_rng(41)
    for inst, cls, rows, *_, extra in _cases(dims):
        for _ in range(3):
            pt = cls(**extra, **{name: rng.normal(size=shape)
                                 for name, shape in rows.shapes.items()
                                 if not name.startswith("gamma")})
            assert_checkers_agree(inst, pt, 0.0)   # every normalization block skipped
            got, want = _binding_gammas(inst, pt), _hand_gammas(pt)
            assert got.keys() == want.keys()
            for k in want:
                assert got[k].shape == want[k].shape
                assert np.abs(got[k] - want[k]).max() <= 1e-12


def _solved_points():
    """(instance, solver dual point, LP value) for SC, SI 1, SI 2 and JE."""
    sc = _lossy_sc_m(2)
    inst = SwInstance(random_joint(np.random.default_rng(43), 3, 2), CodeSizes(2, 1))
    out = []
    sol = certified_solve(build_lp_sc(sc))
    out.append((sc, dual_point_from_solution(sc, sol, DualPointSC), sol.value))
    for which in (1, 2):
        sol = certified_solve(build_lpsi(inst, which))
        out.append((inst, dual_point_from_solution(inst, sol, DualPointSI, which), sol.value))
    sol = certified_solve(build_lp_je(inst))
    out.append((inst, dual_point_from_solution(inst, sol, DualPointJE), sol.value))
    return out


def test_objective_ignores_stored_gammas():
    for inst, pt, value in _solved_points():
        raised = replace(pt, gamma_a=pt.gamma_a + 0.1)
        assert dual_objective(inst, raised) == pytest.approx(value, abs=1e-7)


def test_dual_points_are_views_of_the_read_only_solution():
    # solve returns read-only arrays, so slicing keeps each field as a view
    inst = SwInstance(random_joint(np.random.default_rng(49), 3, 2), CodeSizes(2, 1))
    sc = sw_je_instance(inst)
    cases = [(build_lp_sc(sc), lambda s: dual_point_from_solution(sc, s, DualPointSC)),
             (build_lpsi(inst, 1), lambda s: dual_point_from_solution(inst, s, DualPointSI, 1)),
             (build_lpsi(inst, 2), lambda s: dual_point_from_solution(inst, s, DualPointSI, 2)),
             (build_lp_je(inst), lambda s: dual_point_from_solution(inst, s, DualPointJE)),
             (build_lp_sw(inst), lambda s: dual_point_from_solution(inst, s, DualPointSW))]
    for model, dual in cases:
        sol = certified_solve(model)
        assert not sol.primal.flags.writeable and not sol.dual.flags.writeable
        with pytest.raises(ValueError):
            sol.dual[0] = 0.0
        pt = dual(sol)
        for f in fields(pt):
            if f.name != "which":
                assert np.shares_memory(getattr(pt, f.name), sol.dual), f.name


def test_si_point_in_table_layout():
    inst = SwInstance(random_joint(np.random.default_rng(47), 3, 2), CodeSizes(2, 1))
    for which in (1, 2):
        sol = certified_solve(build_lpsi(inst, which))
        rows = _layouts(inst, DualPointSI, which)[1]
        pt = dual_point_from_solution(inst, sol, DualPointSI, which)
        for name in ("lam_s", "lam_c", "gamma_a", "gamma_b"):
            assert np.array_equal(getattr(pt, name), rows.extract(sol.dual, name))


def _tables():
    """One instance per row table, with distinct sizes on letters that are
    not read together on a diagonal, so that a misplaced axis shows."""
    inst = SwInstance(random_joint(np.random.default_rng(53), 3, 2), CodeSizes(4, 5))
    sc = ScInstance(SinglePmf([0.5, 0.3, 0.2]), 2, DistortionSpec(np.ones((3, 4)), 0.5))
    return {"sc": (sc, DualPointSC, ()), "si": (inst, DualPointSI, (2,)),
            "je": (inst, DualPointJE, ()), "sw": (inst, DualPointSW, ())}


# (table, family, spec): a repeated letter, unheld letters and transposed
# operands on each of the four row tables
LAYS = [("sc", "lam_s", "s,sh"), ("sc", "lam_c", "xy,s"),
        ("si", "lam_s", "se,eh"), ("si", "lam_c", "ese,yx"),
        ("je", "lam_s", "ab,ac,bd"), ("je", "lam_c", "vu,abxy"),
        ("sw", "lam_s_12", "abcu,yv"), ("sw", "mu_s_2", "cbcduv,bd"),
        ("sw", "mu_c_21", "aby"), ("sw", "lam_s_12", "b,yv,ac,bd")]


@pytest.mark.parametrize("kind, name, spec", LAYS)
def test_lay_is_einsum_to_the_letters_it_holds(kind, name, spec):
    inst, point_type, lead = _tables()[kind]
    sizes, _, rows, _, _ = _table_of(inst, point_type, *lead)
    letters = dict((f, own) for f, own, _, _ in rows)[name]
    rng = np.random.default_rng(len(spec))
    operands = [rng.standard_normal(tuple(sizes[k] for k in held)) for held in spec.split(",")]
    held = "".join(k for k in letters if k in spec)
    want = np.einsum(f"{spec}->{held}", *operands)
    got = _lay(rows, name, spec, *operands)
    assert got.shape == tuple(sizes[k] if k in held else 1 for k in letters)
    full = tuple(sizes[k] for k in letters)
    np.testing.assert_allclose(np.broadcast_to(got, full),
                               np.broadcast_to(want.reshape(got.shape), full), rtol=1e-14)


@pytest.mark.parametrize("kind", ["sc", "si", "je", "sw"])
def test_point_broadcasts_read_only_fields_and_binds_the_gammas(kind):
    inst, point_type, lead = _tables()[kind]
    sizes, _, rows, _, _ = _table_of(inst, point_type, *lead)
    name, letters = next((f, own) for f, own, _, minus in rows if minus is not None)
    given = -np.random.default_rng(59).random(sizes[letters[0]])   # on the family's first letter
    pt = _point(inst, point_type, *lead, **{name: _lay(rows, name, letters[0], given)})
    gammas = _binding_gammas(inst, pt)
    for f, own, _, minus in rows:
        val = getattr(pt, f)
        assert val.shape == tuple(sizes[k] for k in own) and not val.flags.writeable, f
        if minus is None:
            assert np.array_equal(val, gammas[f]), f
        elif f == name:
            assert np.array_equal(val, np.broadcast_to(_lay(rows, f, own[0], given), val.shape))
        else:
            assert not val.any(), f


# ---------------------------------------------------------------------------
# the check in slabs of at most MAX_BLOCK_ENTRIES entries

def _slab_cases():
    """(instance, point class, extra fields, dense W formula): a W block
    over three or more slabs on each table, split on one lead letter or,
    at 8x8, on two, and at 40x2 and on the one-reconstruction SC a block
    that a family is summed down to (U, 102,400 entries; Q1, 80,000)."""
    rng = np.random.default_rng(61)
    pair = SwInstance(random_joint(rng, 5, 5), CodeSizes(4, 4))   # W: 160,000 entries
    wide = SwInstance(random_joint(rng, 8, 8), CodeSizes(4, 4))   # W: 2^20
    tall = SwInstance(random_joint(rng, 40, 2), CodeSizes(4, 2))   # W: 409,600
    side = SwInstance(random_joint(rng, 30, 30), CodeSizes(3, 3))   # SI W: 243,000
    lossless = _sc(rng.dirichlet(np.ones(100)), 4)   # W: 160,000
    narrow = ScInstance(random_single(rng, 20_000), 4, DistortionSpec(np.ones((20_000, 1))))
    return [(pair, DualPointSW, {}, _dense_d4), (pair, DualPointJE, {}, _dense_a3),
            (wide, DualPointSW, {}, _dense_d4), (tall, DualPointSW, {}, _dense_d4),
            (side, DualPointSI, {"which": 1}, _dense_b3), (side, DualPointSI, {"which": 2}, _dense_b3),
            (lossless, DualPointSC, {}, _dense_p3), (narrow, DualPointSC, {}, _dense_p3)]


def _slab_point(inst, cls, extra):
    """A point of cls on inst made from its table's family shapes: every
    field negative, so W is violated only where lam_c is set to 1, at the
    first, the middle and the last index of W's first letter, and at one
    NaN in the middle; the blocks that families are summed down to are
    violated on about half or more of their entries."""
    sizes, cols, rows, _, _ = _table_of(inst, cls, extra.get("which"))
    rng = np.random.default_rng(67)
    fields = {name: -rng.random(tuple(sizes[k] for k in own)) for name, own, _, _ in rows}
    own = dict((name, letters) for name, letters, _, _ in rows)["lam_c"]
    first = dict((name, letters) for name, letters, _ in cols)["W"][0]
    n, axis = sizes[first], own.index(first)
    for at, value in ((0, 1.0), (n // 2, 1.0), (n - 1, 1.0), (n // 2, np.nan)):
        index = [0 if value == 1.0 else -1] * len(own)
        index[axis] = at
        fields["lam_c"][tuple(index)] = value
    return cls(**extra, **fields)


def _bits(records):
    return [(v.constraint_id, v.index, float.hex(v.residual)) for v in records]


@pytest.mark.parametrize("case", range(8))
def test_check_in_slabs_is_the_whole_check(monkeypatch, case):
    inst, cls, extra, dense = _slab_cases()[case]
    pt = _slab_point(inst, cls, extra)
    sizes, cols, _, _, groups = _table_of(inst, cls, extra.get("which"))
    w_id, letters = next((cid, letters) for name, letters, cid in cols if name == "W")
    shape = tuple(sizes[k] for k in letters)
    slabs = _slabs(letters, shape, "".join(groups))
    assert len(slabs) >= 3
    assert all(math.prod(slab) <= relaxations.MAX_BLOCK_ENTRIES for _, _, slab in slabs)
    got = check_feasible(inst, pt, tol=0.0)
    # W's violations sit in its first, a middle and its last slab
    assert {0, shape[0] // 2, shape[0] - 1} <= {v.index[0] for v in got if v.constraint_id == w_id}
    assert any(np.isnan(v.residual) for v in got if v.constraint_id == w_id)
    # the hand oracle's records, moved onto the block letters, in block
    # order: the same records, W's bit for bit and the rest, whose sums may
    # round apart, to 1e-12; W's also bit for bit as the dense formula
    order = [cid for _, _, cid in cols]
    block = dict((cid, axes) for _, axes, cid in cols)
    oracle = sorted(((v.constraint_id,
                      tuple(v.index[HAND_AXES.get(v.constraint_id, block[v.constraint_id])
                                    .index(k)] for k in block[v.constraint_id]),
                      v.residual) for v in HAND_CHECKERS[cls](inst, pt, tol=0.0)),
                    key=lambda r: (order.index(r[0]), r[1]))
    assert [(v.constraint_id, v.index) for v in got] == [r[:2] for r in oracle]
    np.testing.assert_allclose([v.residual for v in got], [r[2] for r in oracle],
                               rtol=0, atol=1e-12)
    w_got = [(v.index, float.hex(v.residual)) for v in got if v.constraint_id == w_id]
    assert w_got == [(i, float.hex(r)) for c, i, r in oracle if c == w_id]
    assert w_got == [(i, float.hex(r)) for i, r in _dense_records(dense(inst, pt), 0.0)]
    # every block bit for bit as the check with each block in one slab
    monkeypatch.setattr(relaxations, "MAX_BLOCK_ENTRIES", 2 ** 62)
    assert len(_slabs(letters, shape, "".join(groups))) == 1
    assert _bits(check_feasible(inst, pt, tol=0.0)) == _bits(got)
