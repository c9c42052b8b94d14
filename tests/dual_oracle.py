"""The dual constraints of each relaxation LP as they were first written, by
hand and apart from the LP tables: the oracle that fbconv.relaxations'
table-driven check_feasible is compared against.

A table error would otherwise be checked by the same table.  Each checker
reports (id, index, residual) records like check_feasible, with the index
over the axes of its hand formula: those differ from the column block's
letters for P1, B2/C2, B3/C3, A2 and A3 (see HAND_AXES).
"""

from typing import List

import numpy as np

from fbconv.relaxations import (
    ConstraintViolation,
    DualPointJE,
    DualPointSC,
    DualPointSI,
    DualPointSW,
    ScInstance,
    SwInstance,
    _check_shapes,
    _table_of,
)

# the letters of a hand formula's axes, where they differ from its block's
HAND_AXES = {"P1": "xs", "B2": "shy", "C2": "shy", "B3": "eshxy", "C3": "eshxy",
             "A2": "cduv", "A3": "abcdxyuv"}


def _collect(out: List[ConstraintViolation], cid: str, resid: np.ndarray, tol: float) -> None:
    ok = resid <= tol   # False on NaN
    if ok.all():   # the common case skips the index scan
        return
    for idx in np.argwhere(~ok):
        out.append(ConstraintViolation(cid, tuple(int(i) for i in idx),
                                       float(resid[tuple(idx)])))


def check_dp_feasible(inst: ScInstance, pt: DualPointSC,
                      tol: float = 1e-12) -> List[ConstraintViolation]:
    _check_shapes(_table_of(inst, pt), pt)
    M = inst.M
    P = inst.source.mass
    exc = inst.distortion.excess().astype(float)
    out: List[ConstraintViolation] = []
    if pt.gamma_a is not None:
        # (P1): gamma_a(s) <= sum_y lam_c(x, s, y), for all (x, s)
        resid = pt.gamma_a[None, :] - pt.lam_c.sum(axis=2)
        _collect(out, "P1", resid, tol)
    if pt.gamma_b is not None:
        # (P2): gamma_b(y) <= sum_s lam_s(s, sh, y), for all (y, sh)
        resid = pt.gamma_b[:, None] - pt.lam_s.sum(axis=0).T
        _collect(out, "P2", resid, tol)
    # (P3) over (s, x, y, sh): lam_s(s,sh,y) + lam_c(x,s,y) <= P(s)
    # 1{d(s,sh) > level} 1{y=x}; the right side is subtracted in place on x = y
    resid = pt.lam_s.transpose(0, 2, 1)[:, None, :, :] + \
        pt.lam_c.transpose(1, 0, 2)[:, :, :, None]
    x = np.arange(M)
    resid[:, x, x, :] -= (P[:, None] * exc)[:, None, :]
    _collect(out, "P3", resid, tol)
    return out


def check_dpje_feasible(inst: SwInstance, pt: DualPointJE,
                        tol: float = 1e-12) -> List[ConstraintViolation]:
    _check_shapes(_table_of(inst, pt), pt)
    n1, n2, m1, m2 = inst.dims
    P = inst.joint.mass
    out: List[ConstraintViolation] = []
    if pt.gamma_a is not None:
        # (A1): gamma_a(s1,s2) <= sum_{y1,y2} lam_c(s1,s2,x1,x2,y1,y2)
        resid = pt.gamma_a[:, :, None, None] - pt.lam_c.sum(axis=(4, 5))
        _collect(out, "A1", resid, tol)
    if pt.gamma_b is not None:
        # (A2): gamma_b(y1,y2) <= sum_{s1,s2} lam_s(.., sh1, sh2, y1, y2)
        resid = pt.gamma_b[None, None, :, :] - pt.lam_s.sum(axis=(0, 1))
        _collect(out, "A2", resid, tol)
    # (A3) over (s1,s2,sh1,sh2,x1,x2,y1,y2); the right side
    # P(s1,s2) 1{(sh1,sh2) != (s1,s2)} is subtracted in place on x1 = y1, x2 = y2
    mism = 1.0 - np.einsum("ac, bd -> abcd", np.eye(n1), np.eye(n2))
    resid = pt.lam_s[:, :, :, :, None, None, :, :] + \
        pt.lam_c[:, :, None, None, :, :, :, :]
    x1, x2 = np.arange(m1)[:, None], np.arange(m2)[None, :]
    resid[:, :, :, :, x1, x2, x1, x2] -= (P[:, :, None, None] * mism)[..., None, None]
    _collect(out, "A3", resid, tol)
    return out


def check_dpsi_feasible(inst: SwInstance, pt: DualPointSI,
                        tol: float = 1e-12) -> List[ConstraintViolation]:
    _check_shapes(_table_of(inst, pt), pt)
    sw = inst.oriented(pt.which)   # side 2 is checked as side 1 of the swapped pair
    ne, _, M, _ = sw.dims
    P = sw.joint.mass
    ids = ("B1", "B2", "B3") if pt.which == 1 else ("C1", "C2", "C3")
    out: List[ConstraintViolation] = []
    if pt.gamma_a is not None:
        # (B1): gamma_a(se) <= sum_{ss, y} lam_c(se, ss, x, y)
        resid = pt.gamma_a[:, None] - pt.lam_c.sum(axis=(1, 3))
        _collect(out, ids[0], resid, tol)
    if pt.gamma_b is not None:
        # (B2) over (ss, sh, y): lam_s.sum(0) has axes (ss, sh, y)
        resid = pt.gamma_b[:, None, :] - pt.lam_s.sum(axis=0)
        _collect(out, ids[1], resid, tol)
    # (B3) over (se, ss, sh, x, y): lam_s(se,ss,sh,y) + lam_c(se,ss,x,y)
    # <= P(se,ss) 1{se != sh} 1{y=x}; the right side is subtracted in place on x = y
    resid = pt.lam_s[:, :, :, None, :] + pt.lam_c[:, :, None, :, :]
    x = np.arange(M)
    resid[:, :, :, x, x] -= (P[:, :, None] * (1.0 - np.eye(ne))[:, None, :])[..., None]
    _collect(out, ids[2], resid, tol)
    return out


def check_dpsw_feasible(inst: SwInstance, pt: DualPointSW,
                        tol: float = 1e-12) -> List[ConstraintViolation]:
    """Residual check of (D1)-(D7); returns one record per violated entry."""
    _check_shapes(_table_of(inst, pt), pt)
    n1, n2, m1, m2 = inst.dims
    P = inst.joint.mass
    out: List[ConstraintViolation] = []

    if pt.gamma_a is not None:
        # (D1) over (s1, x1)
        resid = pt.gamma_a[:, None] - pt.mu_c_1.sum(axis=(2, 3)) \
            - pt.mu_c_12.sum(axis=2).T
        _collect(out, "D1", resid, tol)
    if pt.gamma_b is not None:
        # (D2) over (s2, x2); mu_c_21 axes are (x2, s1, s2)
        resid = pt.gamma_b[:, None] - pt.mu_c_2.sum(axis=(2, 3)) \
            - pt.mu_c_21.sum(axis=1).T
        _collect(out, "D2", resid, tol)
    if pt.gamma_c is not None:
        # (D3) over (y1, y2, sh1, sh2)
        dec = pt.mu_s_1.sum(axis=0) + pt.mu_s_2.sum(axis=0)  # (sh1, sh2, y1, y2)
        resid = pt.gamma_c[:, :, None, None] - dec.transpose(2, 3, 0, 1)
        _collect(out, "D3", resid, tol)

    # (D4) over (s1, s2, x1, x2, y1, y2, sh1, sh2); the right side
    # P(s1, s2) 1{(sh1, sh2) != (s1, s2)} sits on x1 = y1, x2 = y2 only,
    # so it is subtracted there in place instead of built as a dense 8-D array
    mism = 1.0 - np.einsum("ac, bd -> abcd", np.eye(n1), np.eye(n2))
    resid = pt.lam_s_12[:, :, None, :, :, :, :, :] + pt.lam_s_21[:, :, :, None, :, :, :, :]
    resid += pt.lam_c[:, :, :, :, :, :, None, None]   # in place: one 8-D array, not two
    x1, x2 = np.arange(m1)[:, None], np.arange(m2)[None, :]
    resid[:, :, x1, x2, x1, x2] -= (P[:, :, None, None] * mism)[:, :, None, None]
    _collect(out, "D4", resid, tol)

    # (D5) over (s2, x2, y1, y2, sh1, sh2)
    lhs = pt.mu_s_2.transpose(0, 3, 4, 1, 2)[:, None, :, :, :, :] \
        + pt.mu_c_2[:, :, :, :, None, None]
    _collect(out, "D5", lhs - pt.lam_s_12.sum(axis=0), tol)

    # (D6) over (s1, x1, y1, y2, sh1, sh2)
    lhs = pt.mu_s_1.transpose(0, 3, 4, 1, 2)[:, None, :, :, :, :] \
        + pt.mu_c_1[:, :, :, :, None, None]
    _collect(out, "D6", lhs - pt.lam_s_21.sum(axis=1), tol)

    # (D7) over (s1, s2, x1, x2)
    lhs = pt.mu_c_12.transpose(1, 2, 0)[:, :, :, None] \
        + pt.mu_c_21.transpose(1, 2, 0)[:, :, None, :]
    _collect(out, "D7", lhs - pt.lam_c.sum(axis=(4, 5)), tol)
    return out


HAND_CHECKERS = {DualPointSC: check_dp_feasible, DualPointSI: check_dpsi_feasible,
                 DualPointJE: check_dpje_feasible, DualPointSW: check_dpsw_feasible}
