"""Distributed (Slepian-Wolf) converse bounds and dual-point synthesis.

The three-flow metaconverse is solved exactly as an LP.  The scalar
Miyake-Kanaya style bounds reparameterize through t = exp(-b) and take the
exact sup over the finite breakpoint set, like the point-to-point module.

The constructors at the bottom turn feasible dual points of the simpler
problems (side-information, jointly encoded) into feasible dual points of
the distributed LP, following the check-before-construct rule: inputs are
verified feasible first, outputs are exact up to float rounding.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .lp_core import LpModel, solve
from .probability import PmfError
from .relaxations import (
    DEFAULT_VAR_CAP,
    DualPointJE,
    DualPointSI,
    DualPointSW,
    InstanceTooLarge,
    SwInstance,
    check_dpje_feasible,
    check_dpsi_feasible,
)
from .converses_ptp import (
    BoundReport,
    _breakpoint_sup,
    _report,
    closed_leq,
    meta_je,
    meta_sid,
)


class InfeasibleInput(ValueError):
    """A constructor input failed its own feasibility check."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or []


# ---------------------------------------------------------------------------
# exact metaconverse LP


def meta_sw(inst: SwInstance, cap: int = DEFAULT_VAR_CAP) -> BoundReport:
    """sup over 0 <= phi_hat, phi_12, phi_21 <= P of
    sum min{P, phi_hat + phi_12 + phi_21} - M1 M2 max phi_hat
    - M1 sum_s2 max_sh1 phi_12 - M2 sum_s1 max_sh2 phi_21,
    as an LP with epigraph variables for the min and the three maxima."""
    n1, n2, m1, m2 = inst.dims
    K = n1 * n2
    nv = 4 * K + 1 + n1 + n2
    if nv > cap:
        raise InstanceTooLarge(f"{nv} variables exceeds cap {cap}")
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
            rows.append((r, "<=", 0.0))
            r = np.zeros(nv)            # u >= phi_hat
            r[i_hat + k] = 1.0
            r[i_u] = -1.0
            rows.append((r, "<=", 0.0))
            r = np.zeros(nv)            # v(s1) >= phi_21(s1, .)
            r[i_21 + k] = 1.0
            r[i_v + a] = -1.0
            rows.append((r, "<=", 0.0))
            r = np.zeros(nv)            # w(s2) >= phi_12(., s2)
            r[i_12 + k] = 1.0
            r[i_w + b] = -1.0
            rows.append((r, "<=", 0.0))

    lower = np.zeros(nv)
    upper = np.concatenate([P, P, P, P, np.full(1 + n1 + n2, math.inf)])
    sol = solve(LpModel.from_rows("max", obj, rows, lower=lower, upper=upper))
    wit = {
        "phi_hat": sol.primal[i_hat:i_hat + K].reshape(n1, n2),
        "phi_12": sol.primal[i_12:i_12 + K].reshape(n1, n2),
        "phi_21": sol.primal[i_21:i_21 + K].reshape(n1, n2),
    }
    return _report("meta-sw", sol.value, wit,
                   "distributed metaconverse, three-flow form")


def meta_sw_eta(inst: SwInstance, eta1, eta2, eta3) -> BoundReport:
    """The metaconverse integrand at fixed nonnegative eta tensors (no sup):
    phi_hat = min{P, eta1}, phi_12 = min{P, eta2}, phi_21 = min{P, eta3}."""
    P = inst.joint.mass
    n1, n2, m1, m2 = inst.dims
    es = []
    for e in (eta1, eta2, eta3):
        e = np.asarray(e, dtype=float)
        if e.shape != P.shape or np.any(e < 0):
            raise PmfError("eta tensors must be nonnegative with the joint shape")
        es.append(e)
    e1, e2, e3 = es
    raw = (np.minimum(P, e1 + e2 + e3).sum()
           - m1 * m2 * np.minimum(P, e1).max()
           - m1 * np.minimum(P, e2).max(axis=0).sum()
           - m2 * np.minimum(P, e3).max(axis=1).sum())
    return _report("meta-sw-eta", raw,
                   {"eta1": e1.copy(), "eta2": e2.copy(), "eta3": e3.copy()},
                   "distributed metaconverse at fixed flows")


def max_converse(inst: SwInstance) -> BoundReport:
    """Best of the three single-problem relaxations (jointly encoded and the
    two side-information problems), each of which embeds into the
    distributed dual."""
    reps = [meta_je(inst), meta_sid(inst, 1), meta_sid(inst, 2)]
    best = max(reps, key=lambda r: r.raw_value)
    wit = dict(best.witness)
    wit["winner"] = best.name
    return _report("max-converse", best.raw_value, wit,
                   "best single-problem embedding")


# ---------------------------------------------------------------------------
# Miyake-Kanaya style scalar bounds


def _mk_coef(inst: SwInstance) -> np.ndarray:
    """Per-pair max{1/(M1 M2), P2(s2)/M1, P1(s1)/M2}: the largest of the
    three density thresholds at unit t."""
    n1, n2, m1, m2 = inst.dims
    P = inst.joint.mass
    P1 = P.sum(axis=1)
    P2 = P.sum(axis=0)
    return np.maximum.reduce([
        np.full((n1, n2), 1.0 / (m1 * m2)),
        np.broadcast_to(P2[None, :] / m1, (n1, n2)),
        np.broadcast_to(P1[:, None] / m2, (n1, n2)),
    ])


def _mk_candidates(inst: SwInstance) -> np.ndarray:
    P = inst.joint.mass
    coef = _mk_coef(inst)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_atom = np.where(coef > 0, P / coef, np.inf)
    inside = t_atom[(t_atom > 0) & (t_atom < 1.0)]
    return np.unique(np.concatenate([inside, [0.0]]))


def mk_classic_at(inst: SwInstance, t: float) -> float:
    """P[joint or either conditional density exceeds its log M budget] - 3t,
    the union expressed through the per-pair threshold P <= t * coef."""
    P = inst.joint.mass
    return float(P[closed_leq(P, t * _mk_coef(inst))].sum() - 3.0 * t)


def mk_improved_at(inst: SwInstance, t: float) -> float:
    """mk_classic_at plus t * coef on every pair outside the union event;
    both terms together are sum min{P, t * coef} - 3t."""
    P = inst.joint.mass
    return float(np.minimum(P, t * _mk_coef(inst)).sum() - 3.0 * t)


def mk_classic(inst: SwInstance) -> BoundReport:
    val, t = _breakpoint_sup(lambda t: mk_classic_at(inst, t), _mk_candidates(inst))
    return _report("mk", val, {"t": float(t)}, "Miyake-Kanaya union bound")


def mk_improved(inst: SwInstance) -> BoundReport:
    val, t = _breakpoint_sup(lambda t: mk_improved_at(inst, t), _mk_candidates(inst))
    return _report("mk-improved", val, {"t": float(t)},
                   "improved Miyake-Kanaya converse")


# ---------------------------------------------------------------------------
# dual-point synthesis


def _require_feasible(violations, what):
    if violations:
        worst = max(v.residual for v in violations)
        raise InfeasibleInput(
            f"{what} fails feasibility: {len(violations)} violated "
            f"constraints, worst residual {worst:.3e}", violations)


def _si_gammas(inst: SwInstance, pt: DualPointSI):
    """Effective normalization multipliers, binding when not stored."""
    lam_s = pt.lam_s if pt.which == 1 else pt.lam_s.swapaxes(0, 1)
    lam_c = pt.lam_c if pt.which == 1 else pt.lam_c.swapaxes(0, 1)
    ga = pt.gamma_a if pt.gamma_a is not None else lam_c.sum(axis=(1, 3)).min(axis=1)
    gb = pt.gamma_b if pt.gamma_b is not None else lam_s.sum(axis=0).min(axis=1)
    return ga, gb


def _binding_sw_gammas(lam_fields):
    (mu_s_1, mu_s_2, mu_c_1, mu_c_2, mu_c_12, mu_c_21) = lam_fields
    ga = (mu_c_1.sum(axis=(2, 3)) + mu_c_12.sum(axis=2).T).min(axis=1)
    gb = (mu_c_2.sum(axis=(2, 3)) + mu_c_21.sum(axis=1).T).min(axis=1)
    dec = mu_s_1.sum(axis=0) + mu_s_2.sum(axis=0)
    gc = dec.min(axis=(0, 1))
    return ga, gb, gc


def embed_sid_feasible(inst: SwInstance, dual_point_sid: DualPointSI,
                       which: Optional[int] = None,
                       input_tol: float = 1e-9) -> DualPointSW:
    """Lift a side-information dual point into the distributed dual.

    The encoded source's flows ride along the other channel's x = y diagonal;
    the side channel's normalization multiplier becomes a decoder-side
    channel flow.  The objective value is preserved exactly.
    """
    pt = dual_point_sid
    if which is not None and which != pt.which:
        raise InfeasibleInput(
            f"dual point is for which={pt.which}, asked for {which}")
    _require_feasible(check_dpsi_feasible(inst, pt, tol=input_tol),
                      f"side-information dual point (which={pt.which})")
    n1, n2, m1, m2 = inst.dims
    ga_bar, gb_bar = _si_gammas(inst, pt)
    zeros = {
        "mu_s_1": np.zeros((n1, n1, n2, m1, m2)),
        "mu_s_2": np.zeros((n2, n1, n2, m1, m2)),
    }
    if pt.which == 1:
        # lam_s (s1,s2,sh1,y1), lam_c (s1,s2,x1,y1); side channel is 2
        eye2 = np.eye(m2)
        lam_s_12 = np.broadcast_to(
            pt.lam_s.transpose(0, 1, 3, 2)[:, :, None, :, None, :, None]
            * eye2[None, None, :, None, :, None, None],
            (n1, n2, m2, m1, m2, n1, n2)).copy()
        lam_s_21 = np.zeros((n1, n2, m1, m1, m2, n1, n2))
        lam_c = np.broadcast_to(
            pt.lam_c[:, :, :, None, :, None]
            * eye2[None, None, None, :, None, :],
            (n1, n2, m1, m2, m1, m2)).copy()
        mu_c_1 = np.zeros((n1, m1, m1, m2))
        mu_c_2 = np.broadcast_to(
            gb_bar[:, None, :, None] * eye2[None, :, None, :],
            (n2, m2, m1, m2)).copy()
        mu_c_12 = pt.lam_c.sum(axis=3).transpose(2, 0, 1).copy()
        mu_c_21 = np.zeros((m2, n1, n2))
        gamma_a = np.asarray(ga_bar, dtype=float).copy()
        gamma_b = np.asarray(gb_bar, dtype=float).sum(axis=1)
    else:
        # stored lam_s (s1,s2,sh2,y2), lam_c (s1,s2,x2,y2); side channel is 1
        eye1 = np.eye(m1)
        lam_s_21 = np.broadcast_to(
            pt.lam_s.transpose(0, 1, 3, 2)[:, :, None, None, :, None, :]
            * eye1[None, None, :, :, None, None, None],
            (n1, n2, m1, m1, m2, n1, n2)).copy()
        lam_s_12 = np.zeros((n1, n2, m2, m1, m2, n1, n2))
        lam_c = np.broadcast_to(
            pt.lam_c[:, :, None, :, None, :] * eye1[None, None, :, None, :, None],
            (n1, n2, m1, m2, m1, m2)).copy()
        mu_c_2 = np.zeros((n2, m2, m1, m2))
        mu_c_1 = np.broadcast_to(
            gb_bar[:, None, None, :] * eye1[None, :, :, None],
            (n1, m1, m1, m2)).copy()
        mu_c_21 = pt.lam_c.sum(axis=3).transpose(2, 0, 1).copy()
        mu_c_12 = np.zeros((m1, n1, n2))
        gamma_a = np.asarray(gb_bar, dtype=float).sum(axis=1)
        gamma_b = np.asarray(ga_bar, dtype=float).copy()
    gamma_c = np.zeros((m1, m2))
    return DualPointSW(lam_s_12, lam_s_21, lam_c, zeros["mu_s_1"],
                       zeros["mu_s_2"], mu_c_1, mu_c_2, mu_c_12, mu_c_21,
                       gamma_a, gamma_b, gamma_c)


def embed_je_feasible(inst: SwInstance, dual_point_je: DualPointJE,
                      input_tol: float = 1e-9) -> DualPointSW:
    """Lift a jointly-encoded dual point into the distributed dual: the pair
    source flow feeds one decoder-side source flow, the pair normalization
    becomes the other encoder's channel-average flow."""
    pt = dual_point_je
    _require_feasible(check_dpje_feasible(inst, pt, tol=input_tol),
                      "jointly-encoded dual point")
    n1, n2, m1, m2 = inst.dims
    ga_hat = pt.gamma_a if pt.gamma_a is not None \
        else pt.lam_c.sum(axis=(4, 5)).min(axis=(2, 3))
    gb_hat = pt.gamma_b if pt.gamma_b is not None \
        else pt.lam_s.sum(axis=(0, 1)).min(axis=(0, 1))
    # lam_s (s1,s2,sh1,sh2,y1,y2) -> (s1,s2,x2,y1,y2,sh1,sh2)
    lam_s_12 = np.broadcast_to(
        pt.lam_s.transpose(0, 1, 4, 5, 2, 3)[:, :, None, :, :, :, :],
        (n1, n2, m2, m1, m2, n1, n2)).copy()
    lam_s_21 = np.zeros((n1, n2, m1, m1, m2, n1, n2))
    lam_c = pt.lam_c.copy()
    # mu_s_2(s2, sh1, sh2, y1, y2) = sum_s1 lam_s(s1, s2, sh1, sh2, y1, y2)
    mu_s_2 = pt.lam_s.sum(axis=0)
    mu_s_1 = np.zeros((n1, n1, n2, m1, m2))
    mu_c_1 = np.zeros((n1, m1, m1, m2))
    mu_c_2 = np.zeros((n2, m2, m1, m2))
    mu_c_12 = np.zeros((m1, n1, n2))
    mu_c_21 = np.broadcast_to(ga_hat[None, :, :], (m2, n1, n2)).copy()
    gamma_a = np.zeros(n1)
    gamma_b = np.asarray(ga_hat, dtype=float).sum(axis=0)
    gamma_c = np.asarray(gb_hat, dtype=float).copy()
    return DualPointSW(lam_s_12, lam_s_21, lam_c, mu_s_1, mu_s_2,
                       mu_c_1, mu_c_2, mu_c_12, mu_c_21,
                       gamma_a, gamma_b, gamma_c)


def combine_feasible(inst: SwInstance, sid12_flows: DualPointSI,
                     sid21_flows: DualPointSI, je_flows: DualPointJE,
                     alpha: float, input_tol: float = 1e-9) -> DualPointSW:
    """Nonlinear merge of feasible points of the three sub-problem duals into
    a feasible point of the distributed dual.

    The two source flows superpose the matching side-information flow (on
    its channel diagonal) with an alpha split of the pair flow; the channel
    flow takes the pointwise min of the summed sub-problem channel flows
    against the error-density cap, which is what beats any convex
    combination of the embedded points.
    """
    if not (0.0 < alpha < 1.0):
        raise InfeasibleInput(f"alpha must lie strictly in (0, 1), got {alpha!r}")
    bar, til, hat = sid12_flows, sid21_flows, je_flows
    if bar.which != 1 or til.which != 2:
        raise InfeasibleInput(
            "combine_feasible needs a which=1 point then a which=2 point")
    _require_feasible(check_dpsi_feasible(inst, bar, tol=input_tol),
                      "side-information dual point (which=1)")
    _require_feasible(check_dpsi_feasible(inst, til, tol=input_tol),
                      "side-information dual point (which=2)")
    _require_feasible(check_dpje_feasible(inst, hat, tol=input_tol),
                      "jointly-encoded dual point")
    n1, n2, m1, m2 = inst.dims
    P = inst.joint.mass
    eye1, eye2 = np.eye(m1), np.eye(m2)
    pair = np.einsum("ac, bd -> abcd", np.eye(n1), np.eye(n2))

    # source flow 1|2: SID flow on the x2 = y2 diagonal plus alpha of the
    # pair flow, both pinned to the correct-pair diagonal
    sid_part = bar.lam_s.transpose(0, 1, 3, 2)[:, :, None, :, None, :, None] \
        * eye2[None, None, :, None, :, None, None]
    je_part = hat.lam_s.transpose(0, 1, 4, 5, 2, 3)[:, :, None, :, :, :, :]
    pairb = pair[:, :, None, None, None, :, :]
    lam_s_12 = (sid_part + alpha * je_part) * pairb
    lam_s_12 = np.ascontiguousarray(np.broadcast_to(
        lam_s_12, (n1, n2, m2, m1, m2, n1, n2)))

    sid_part = til.lam_s.transpose(0, 1, 3, 2)[:, :, None, None, :, None, :] \
        * eye1[None, None, :, :, None, None, None]
    lam_s_21 = (sid_part + (1.0 - alpha) * je_part) * pairb
    lam_s_21 = np.ascontiguousarray(np.broadcast_to(
        lam_s_21, (n1, n2, m1, m1, m2, n1, n2)))

    # channel flow: min of the summed sub-problem channel flows against the
    # diagonal error-density cap (D4's right-hand side at the correct pair)
    cap = P[:, :, None, None, None, None] \
        * np.einsum("xu, yv -> xyuv", eye1, eye2)[None, None, :, :, :, :]
    summed = hat.lam_c \
        + bar.lam_c[:, :, :, None, :, None] * eye2[None, None, None, :, None, :] \
        + til.lam_c[:, :, None, :, None, :] * eye1[None, None, :, None, :, None]
    lam_c = np.minimum(cap, summed)

    # decoder-side source flows: the alpha split of the pair flow, pinned to
    # the matching own-symbol diagonal
    _, gb_bar = _si_gammas(inst, bar)
    _, gb_til = _si_gammas(inst, til)
    d1 = np.einsum("abadef -> badef", hat.lam_s)     # (s2, sh1, sh2, y1, y2)
    mu_s_2 = alpha * d1 * np.eye(n2)[:, None, :, None, None]
    d2 = np.einsum("abcbef -> acbef", hat.lam_s)     # (s1, sh1, sh2, y1, y2)
    mu_s_1 = (1.0 - alpha) * d2 * np.eye(n1)[:, :, None, None, None]

    # decoder-side channel flows: largest values the (D5)/(D6) slack allows,
    # including the zero cap forced by mismatched estimates
    tot = bar.lam_s.sum(axis=0)                      # (s2, sh1, y1)
    diag = np.einsum("asay -> say", bar.lam_s)       # (s2, sh1, y1)
    cap2 = (gb_bar[:, None, :] - (tot - diag)).min(axis=1)
    if n2 > 1:
        cap2 = np.minimum(cap2, 0.0)
    mu_c_2 = np.ascontiguousarray(np.broadcast_to(
        cap2[:, None, :, None] * eye2[None, :, None, :], (n2, m2, m1, m2)))

    tot = til.lam_s.sum(axis=1)                      # (s1, sh2, y2)
    diag = np.einsum("abby -> aby", til.lam_s)       # (s1, sh2, y2)
    cap1 = (gb_til[:, None, :] - (tot - diag)).min(axis=1)
    if n1 > 1:
        cap1 = np.minimum(cap1, 0.0)
    mu_c_1 = np.ascontiguousarray(np.broadcast_to(
        cap1[:, None, None, :] * eye1[None, :, :, None], (n1, m1, m1, m2)))

    mu_c_12 = np.zeros((m1, n1, n2))
    mu_c_21 = lam_c.sum(axis=(4, 5)).min(axis=2).transpose(2, 0, 1).copy()

    ga, gb, gc = _binding_sw_gammas((mu_s_1, mu_s_2, mu_c_1, mu_c_2,
                                     mu_c_12, mu_c_21))
    return DualPointSW(lam_s_12, lam_s_21, lam_c, mu_s_1, mu_s_2,
                       mu_c_1, mu_c_2, mu_c_12, mu_c_21, ga, gb, gc)


def mk_flows(inst: SwInstance, t: float) -> DualPointSW:
    """The distributed dual point behind the improved Miyake-Kanaya bound at
    a fixed t: marginal-weighted source flows on the channel diagonals, a
    uniform decoder-side flow worth t/(M1 M2), and the channel flow capped
    at t times the per-pair threshold coefficient."""
    if not (t >= 0.0 and math.isfinite(t)):
        raise InfeasibleInput(f"t must be a finite nonnegative scalar, got {t!r}")
    n1, n2, m1, m2 = inst.dims
    P = inst.joint.mass
    P1 = P.sum(axis=1)
    P2 = P.sum(axis=0)
    eye1, eye2 = np.eye(m1), np.eye(m2)
    pair = np.einsum("ac, bd -> abcd", np.eye(n1), np.eye(n2))
    pairb = pair[:, :, None, None, None, :, :]

    lam_s_12 = np.ascontiguousarray(np.broadcast_to(
        -(t / m1) * P2[None, :, None, None, None, None, None]
        * eye2[None, None, :, None, :, None, None] * pairb,
        (n1, n2, m2, m1, m2, n1, n2)))
    lam_s_21 = np.ascontiguousarray(np.broadcast_to(
        (-(t / m2) * P1[:, None, None, None, None, None, None]
         * eye1[None, None, :, :, None, None, None]
         - t / (m1 * m2)) * pairb,
        (n1, n2, m1, m1, m2, n1, n2)))
    diag_ch = np.einsum("xu, yv -> xyuv", eye1, eye2)
    lam_c = np.minimum(P, t * _mk_coef(inst))[:, :, None, None, None, None] \
        * diag_ch[None, None, :, :, :, :]

    mu_s_1 = np.ascontiguousarray(np.broadcast_to(
        -(t / (m1 * m2)) * np.eye(n1)[:, :, None, None, None],
        (n1, n1, n2, m1, m2)))
    mu_s_2 = np.zeros((n2, n1, n2, m1, m2))
    mu_c_1 = np.ascontiguousarray(np.broadcast_to(
        -(t / m2) * P1[:, None, None, None] * eye1[None, :, :, None],
        (n1, m1, m1, m2)))
    mu_c_2 = np.ascontiguousarray(np.broadcast_to(
        -(t / m1) * P2[:, None, None, None] * eye2[None, :, None, :],
        (n2, m2, m1, m2)))
    mu_c_12 = np.zeros((m1, n1, n2))
    mu_c_21 = lam_c.sum(axis=(4, 5)).min(axis=2).transpose(2, 0, 1).copy()

    ga, gb, gc = _binding_sw_gammas((mu_s_1, mu_s_2, mu_c_1, mu_c_2,
                                     mu_c_12, mu_c_21))
    return DualPointSW(lam_s_12, lam_s_21, lam_c, mu_s_1, mu_s_2,
                       mu_c_1, mu_c_2, mu_c_12, mu_c_21, ga, gb, gc)
