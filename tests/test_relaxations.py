from dataclasses import replace

import numpy as np
import pytest

from fbconv.converses_sw import meta_sw
from fbconv.lp_core import LpSolution, solve
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
    build_lp_je,
    build_lp_sc,
    build_lp_sw,
    build_lpsi,
    check_dp_feasible,
    check_dpje_feasible,
    check_dpsi_feasible,
    check_dpsw_feasible,
    dp_flows_sc,
    dp_objective,
    dpje_flows,
    dpje_objective,
    dpsi_flows,
    dpsi_objective,
    dpsw_objective,
    dual_point_je_from_solution,
    dual_point_sc_from_solution,
    dual_point_si_from_solution,
    dual_point_sw_from_solution,
    je_indexer,
    sc_indexer,
    si_indexer,
    sw_indexer,
    sw_je_instance,
)

from conftest import random_joint, random_single


def _sc(mass, M):
    mass = np.asarray(mass, dtype=float)
    return ScInstance(SinglePmf(mass), M, DistortionSpec.lossless(len(mass)))


def test_variable_counts():
    cols, rows = sc_indexer(_sc([0.5, 0.5], 2))
    assert cols.total == 24
    inst = SwInstance(JointPmf(np.full((2, 2), 0.25)), CodeSizes(2, 2))
    cols, rows = sw_indexer(inst)
    assert cols.total == 424
    assert rows.total == 440


def test_cap_raises():
    inst = SwInstance(JointPmf(np.full((4, 4), 1 / 16)), CodeSizes(4, 4))
    with pytest.raises(InstanceTooLarge):
        build_lp_sw(inst, cap=10_000)


def test_sc_lp_anchors():
    assert solve(build_lp_sc(_sc([0.7, 0.3], 2))).value == pytest.approx(0.0, abs=1e-9)
    assert solve(build_lp_sc(_sc([0.25] * 4, 2))).value == pytest.approx(0.5, abs=1e-9)


def test_sc_lp_sandwich_and_duals():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        M = int(rng.integers(1, 3))
        inst = _sc(random_single(rng, n).mass, M)
        sol = solve(build_lp_sc(inst))
        assert sol.status == "Optimal"
        assert sol.value <= exact_opt_sc(inst) + 1e-9
        assert sol.value >= -1e-9
        pt = dual_point_sc_from_solution(inst, sol)
        assert check_dp_feasible(inst, pt, tol=1e-7) == []
        assert dp_objective(inst, pt) == pytest.approx(sol.value, abs=1e-7)


def test_sc_lossy_lp_below_oracle():
    d = np.abs(np.arange(4)[:, None] - np.arange(4)[None, :]).astype(float)
    inst = ScInstance(SinglePmf([0.4, 0.3, 0.2, 0.1]), 1, DistortionSpec(d, 1.0))
    sol = solve(build_lp_sc(inst))
    assert sol.status == "Optimal"
    assert sol.value <= exact_opt_sc(inst) + 1e-9
    pt = dual_point_sc_from_solution(inst, sol)
    assert check_dp_feasible(inst, pt, tol=1e-7) == []


def test_je_builders_agree():
    rng = np.random.default_rng(5)
    for n1, n2, m1, m2 in [(2, 2, 1, 1), (2, 2, 2, 1), (3, 2, 1, 2), (2, 3, 2, 1)]:
        inst = SwInstance(random_joint(rng, n1, n2), CodeSizes(m1, m2))
        a = solve(build_lp_sc(sw_je_instance(inst)))
        b = solve(build_lp_je(inst))
        assert a.status == b.status == "Optimal"
        assert a.value == pytest.approx(b.value, abs=1e-7)
        pt = dual_point_je_from_solution(inst, b)
        assert check_dpje_feasible(inst, pt, tol=1e-7) == []
        assert dpje_objective(inst, pt) == pytest.approx(b.value, abs=1e-7)


def test_lpsi_anchors_and_duals():
    uni = SwInstance(JointPmf(np.full((2, 2), 0.25)), CodeSizes(1, 1))
    for which in (1, 2):
        sol = solve(build_lpsi(uni, which))
        assert sol.value == pytest.approx(0.5, abs=1e-9)
        pt = dual_point_si_from_solution(uni, which, sol)
        assert check_dpsi_feasible(uni, pt, tol=1e-7) == []
        assert dpsi_objective(uni, pt) == pytest.approx(0.5, abs=1e-7)


def test_lpsi_below_oracle():
    rng = np.random.default_rng(9)
    for _ in range(15):
        inst = SwInstance(random_joint(rng, 3, 2), CodeSizes(2, 2))
        for which in (1, 2):
            sol = solve(build_lpsi(inst, which))
            assert sol.status == "Optimal"
            assert sol.value <= exact_opt_sid(inst, which) + 1e-9
            pt = dual_point_si_from_solution(inst, which, sol)
            assert check_dpsi_feasible(inst, pt, tol=1e-7) == []
            assert dpsi_objective(inst, pt) == pytest.approx(sol.value, abs=1e-7)


def test_sw_lp_uniform_anchor():
    inst = SwInstance(JointPmf(np.full((2, 2), 0.25)), CodeSizes(1, 1))
    sol = solve(build_lp_sw(inst))
    assert sol.value == pytest.approx(0.75, abs=1e-9)
    pt = dual_point_sw_from_solution(inst, sol)
    assert check_dpsw_feasible(inst, pt, tol=1e-7) == []
    assert dpsw_objective(inst, pt) == pytest.approx(0.75, abs=1e-7)


def test_sw_lp_random_duals_and_oracle():
    rng = np.random.default_rng(13)
    for k in range(8):
        m1 = int(rng.integers(1, 3))
        m2 = 1 if m1 == 2 else int(rng.integers(1, 3))
        inst = SwInstance(random_joint(rng, 2, 2), CodeSizes(m1, m2))
        sol = solve(build_lp_sw(inst))
        assert sol.status == "Optimal"
        assert sol.value <= exact_opt_sw(inst) + 1e-9
        assert sol.value >= -1e-9
        pt = dual_point_sw_from_solution(inst, sol)
        assert check_dpsw_feasible(inst, pt, tol=1e-7) == []
        assert dpsw_objective(inst, pt) == pytest.approx(sol.value, abs=1e-7)


def test_sw_lp_3x3_m22_between_meta_sw_and_exact():
    # 1750 rows x 1812 columns
    rng = np.random.default_rng(37)
    for _ in range(3):
        inst = SwInstance(random_joint(rng, 3, 3), CodeSizes(2, 2))
        sol = solve(build_lp_sw(inst))
        assert sol.status == "Optimal"
        assert meta_sw(inst).raw_value <= sol.value + 1e-9
        assert sol.value <= exact_opt_sw(inst) + 1e-9
        pt = dual_point_sw_from_solution(inst, sol)
        assert check_dpsw_feasible(inst, pt, tol=1e-9) == []
        assert dpsw_objective(inst, pt) == pytest.approx(sol.value, abs=1e-9)


def test_sw_lp_between_je_and_exact():
    rng = np.random.default_rng(17)
    for _ in range(5):
        inst = SwInstance(random_joint(rng, 2, 2), CodeSizes(1, 2))
        lp_sw = solve(build_lp_sw(inst)).value
        lp_je = solve(build_lp_je(inst)).value
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
        assert check_dp_feasible(inst, pt, tol=1e-12) == []
        want = phi.sum() - inst.M * (phi[:, None] * inst.distortion.within()).sum(0).max()
        assert dp_objective(inst, pt) == pytest.approx(want, abs=1e-12)

    for _ in range(20):
        joint = random_joint(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        inst = SwInstance(joint, CodeSizes(int(rng.integers(1, 3)),
                                           int(rng.integers(1, 3))))
        phi = rng.uniform(0, 1, joint.sizes) * joint.mass
        for which in (1, 2):
            pt = dpsi_flows(inst, which, phi)
            assert check_dpsi_feasible(inst, pt, tol=1e-12) == []
            M = inst.sizes.M1 if which == 1 else inst.sizes.M2
            pe = phi if which == 1 else phi.T
            want = phi.sum() - M * pe.max(axis=0).sum()
            assert dpsi_objective(inst, pt) == pytest.approx(want, abs=1e-12)
        pt = dpje_flows(inst, phi)
        assert check_dpje_feasible(inst, pt, tol=1e-12) == []
        want = phi.sum() - inst.sizes.M1 * inst.sizes.M2 * phi.max()
        assert dpje_objective(inst, pt) == pytest.approx(want, abs=1e-12)


def test_checkers_flag_injected_violations():
    inst = _sc([0.6, 0.4], 2)
    sol = solve(build_lp_sc(inst))
    pt = dual_point_sc_from_solution(inst, sol)
    bad = DualPointSC(pt.lam_s + 1e-3, pt.lam_c, pt.gamma_a, pt.gamma_b)
    ids = {v.constraint_id for v in check_dp_feasible(inst, bad, tol=1e-7)}
    assert "P3" in ids

    uni = SwInstance(JointPmf(np.full((2, 2), 0.25)), CodeSizes(1, 1))
    swsol = solve(build_lp_sw(uni))
    swpt = dual_point_sw_from_solution(uni, swsol)
    bad = DualPointSW(swpt.lam_s_12, swpt.lam_s_21, swpt.lam_c + 5e-4,
                      swpt.mu_s_1, swpt.mu_s_2, swpt.mu_c_1, swpt.mu_c_2,
                      swpt.mu_c_12, swpt.mu_c_21,
                      swpt.gamma_a, swpt.gamma_b, swpt.gamma_c)
    ids = {v.constraint_id for v in check_dpsw_feasible(uni, bad, tol=1e-7)}
    assert ids and ids <= {"D4"}
    bad2 = DualPointSW(swpt.lam_s_12, swpt.lam_s_21, swpt.lam_c,
                       swpt.mu_s_1 + 5e-4, swpt.mu_s_2, swpt.mu_c_1, swpt.mu_c_2,
                       swpt.mu_c_12, swpt.mu_c_21,
                       swpt.gamma_a, swpt.gamma_b, swpt.gamma_c)
    ids = {v.constraint_id for v in check_dpsw_feasible(uni, bad2, tol=1e-7)}
    assert "D6" in ids
    v = check_dpsw_feasible(uni, bad2, tol=1e-7)[0]
    assert v.residual > 0


def test_checker_shape_validation():
    inst = _sc([0.6, 0.4], 2)
    with pytest.raises(PmfError):
        check_dp_feasible(inst, DualPointSC(np.zeros((3, 2, 2)), np.zeros((2, 2, 2))))


def test_dual_point_arrays_read_only():
    pt = DualPointJE(np.zeros((2, 2, 2, 2, 1, 1)), np.zeros((2, 2, 1, 1, 1, 1)))
    with pytest.raises(ValueError):
        pt.lam_s[0, 0, 0, 0, 0, 0] = 1.0


def _lossy_sc():
    d = np.abs(np.arange(4)[:, None] - np.arange(5)[None, :]).astype(float)
    return ScInstance(SinglePmf([0.4, 0.3, 0.2, 0.1]), 2, DistortionSpec(d, 1.0))


def _pair():
    return SwInstance(random_joint(np.random.default_rng(23), 3, 2), CodeSizes(2, 1))


@pytest.mark.parametrize("inst, build, dual, check", [
    (_lossy_sc(), build_lp_sc, dual_point_sc_from_solution, check_dp_feasible),
    (_pair(), lambda i: build_lpsi(i, 1),
     lambda i, s: dual_point_si_from_solution(i, 1, s), check_dpsi_feasible),
    (_pair(), lambda i: build_lpsi(i, 2),
     lambda i, s: dual_point_si_from_solution(i, 2, s), check_dpsi_feasible),
    (_pair(), build_lp_je, dual_point_je_from_solution, check_dpje_feasible),
    (_pair(), build_lp_sw, dual_point_sw_from_solution, check_dpsw_feasible),
], ids=["sc", "si1", "si2", "je", "sw"])
def test_builder_transpose_matches_hand_written_duals(inst, build, dual, check):
    # the dual constraints of min c.x, A x = b, x >= 0 are A^T y <= c, one per
    # column; the checkers state them by hand, so at any y their residuals
    # must be the entries of A^T y - c in some order
    model = build(inst)
    y = np.random.default_rng(29).normal(size=model.rhs.size)
    pt = dual(inst, LpSolution("Optimal", 0.0, None, y))
    resid = np.sort([v.residual for v in check(inst, pt, tol=-np.inf)])
    want = np.sort(model.a_matrix.T @ y - model.objective)
    assert resid.shape == want.shape
    assert np.abs(resid - want).max() <= 1e-12


def _dense_records(resid, tol):
    return [(tuple(int(i) for i in idx), float(resid[tuple(idx)]))
            for idx in np.argwhere(resid > tol)]


# the joint-family constraints as they were first written: the right side
# built as a dense array over every index and subtracted whole

def _dense_p3(inst, pt):
    rhs = np.einsum("s, sh, xy -> sxyh", inst.source.mass,
                    inst.distortion.excess().astype(float), np.eye(inst.M))
    lhs = pt.lam_s.transpose(0, 2, 1)[:, None, :, :] + \
        pt.lam_c.transpose(1, 0, 2)[:, :, :, None]
    return lhs - rhs


def _dense_b3(inst, pt):
    P = inst.joint.mass if pt.which == 1 else inst.joint.mass.T
    ne, M = P.shape[0], pt.lam_c.shape[2]
    rhs = np.einsum("es, eh, xy -> eshxy", P, 1.0 - np.eye(ne), np.eye(M))
    return pt.lam_s[:, :, :, None, :] + pt.lam_c[:, :, None, :, :] - rhs


def _dense_a3(inst, pt):
    n1, n2, m1, m2 = inst.dims
    mism = 1.0 - np.einsum("ac, bd -> abcd", np.eye(n1), np.eye(n2))
    rhs = np.einsum("ab, abcd, xu, yv -> abcdxyuv", inst.joint.mass, mism,
                    np.eye(m1), np.eye(m2))
    lhs = pt.lam_s[:, :, :, :, None, None, :, :] + \
        pt.lam_c[:, :, None, None, :, :, :, :]
    return lhs - rhs


def _dense_d4(inst, pt):
    n1, n2, m1, m2 = inst.dims
    mism = 1.0 - np.einsum("ac, bd -> abcd", np.eye(n1), np.eye(n2))
    rhs = np.einsum("ab, abcd, xu, yv -> abxyuvcd", inst.joint.mass, mism,
                    np.eye(m1), np.eye(m2))
    lhs = pt.lam_s_12[:, :, None, :, :, :, :, :] \
        + pt.lam_s_21[:, :, :, None, :, :, :, :] \
        + pt.lam_c[:, :, :, :, :, :, None, None]
    return lhs - rhs


def _lossy_sc_m(M):
    d = np.abs(np.arange(3)[:, None] - np.arange(4)[None, :]).astype(float)
    return ScInstance(SinglePmf([0.5, 0.3, 0.2]), M, DistortionSpec(d, 1.0))


def _cases(dims):
    """(instance, point class, row layout, checker, joint family id, dense
    formula, extra fields) for each LP on one pair of alphabet and code sizes."""
    n1, n2, m1, m2 = dims
    inst = SwInstance(random_joint(np.random.default_rng(31), n1, n2), CodeSizes(m1, m2))
    sc = _lossy_sc_m(m1)
    out = [(sc, DualPointSC, sc_indexer(sc)[1], check_dp_feasible, "P3", _dense_p3, {}),
           (inst, DualPointJE, je_indexer(inst)[1], check_dpje_feasible, "A3",
            _dense_a3, {}),
           (inst, DualPointSW, sw_indexer(inst)[1], check_dpsw_feasible, "D4",
            _dense_d4, {})]
    for which, cid in ((1, "B3"), (2, "C3")):
        out.append((inst, DualPointSI, si_indexer(inst, which)[1], check_dpsi_feasible,
                    cid, _dense_b3, {"which": which}))
    return out


@pytest.mark.parametrize("dims", [(2, 2, 1, 1), (3, 2, 2, 1), (2, 3, 2, 3), (3, 3, 3, 2)])
def test_check_dpsw_d4_matches_dense_formula(dims):
    # the joint family of every checker, each subtracting its right side in
    # place on the message diagonal: (D4), (P3), (A3), (B3) and (C3)
    rng = np.random.default_rng(31)
    for inst, cls, rows, check, cid, dense, extra in _cases(dims):
        # entries of the size of P, so about half the joint residuals are positive
        size = inst.n if isinstance(inst, ScInstance) else inst.dims[0] * inst.dims[1]
        pt = cls(**extra, **{name: rng.uniform(0.0, 0.4 / size, size=shape)
                             for name, shape in rows.shapes.items()})
        for tol in (-np.inf, 0.0):
            got = [(v.index, v.residual)
                   for v in check(inst, pt, tol=tol) if v.constraint_id == cid]
            assert got == _dense_records(dense(inst, pt), tol)


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


@pytest.mark.parametrize("dims", [(2, 2, 1, 1), (3, 2, 2, 1), (2, 3, 2, 3), (3, 3, 3, 2)])
def test_binding_gammas_match_hand_formulas(dims):
    rng = np.random.default_rng(41)
    for inst, cls, rows, _, _, _, extra in _cases(dims):
        for _ in range(3):
            pt = cls(**extra, **{name: rng.normal(size=shape)
                                 for name, shape in rows.shapes.items()
                                 if not name.startswith("gamma")})
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
    sol = solve(build_lp_sc(sc))
    out.append((sc, dual_point_sc_from_solution(sc, sol), sol.value))
    for which in (1, 2):
        sol = solve(build_lpsi(inst, which))
        out.append((inst, dual_point_si_from_solution(inst, which, sol), sol.value))
    sol = solve(build_lp_je(inst))
    out.append((inst, dual_point_je_from_solution(inst, sol), sol.value))
    return out


def test_objective_ignores_stored_gammas():
    objective = {DualPointSC: dp_objective, DualPointSI: dpsi_objective,
                 DualPointJE: dpje_objective}
    for inst, pt, value in _solved_points():
        raised = replace(pt, gamma_a=pt.gamma_a + 0.1)
        assert objective[type(pt)](inst, raised) == pytest.approx(value, abs=1e-7)


def test_si_point_in_table_layout():
    inst = SwInstance(random_joint(np.random.default_rng(47), 3, 2), CodeSizes(2, 1))
    for which in (1, 2):
        sol = solve(build_lpsi(inst, which))
        rows = si_indexer(inst, which)[1]
        pt = dual_point_si_from_solution(inst, which, sol)
        for name in ("lam_s", "lam_c", "gamma_a", "gamma_b"):
            assert np.array_equal(getattr(pt, name), rows.extract(sol.dual, name))
