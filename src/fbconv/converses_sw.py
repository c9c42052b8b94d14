"""Distributed (Slepian-Wolf) converse bounds and dual-point synthesis.

The three-flow metaconverse is solved exactly as an LP over one threshold
per flow maximum.  The scalar Miyake-Kanaya style bounds reparameterize
through t = exp(-b) and take the exact sup over the finite breakpoint set,
like the point-to-point module.

The constructors at the bottom turn feasible dual points of the simpler
problems (side-information, jointly encoded) into feasible dual points of
the distributed LP, following the check-before-construct rule: inputs are
verified feasible first, outputs are exact up to float rounding.
"""

from __future__ import annotations

import math
from dataclasses import replace
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
    _binding_gammas,
    check_dpje_feasible,
    check_dpsi_feasible,
)
from .converses_ptp import (
    BoundReport,
    _breakpoint_sup,
    _formula_sum,
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
    - M1 sum_s2 max_s1 phi_12 - M2 sum_s1 max_s2 phi_21, solved exactly.

    Each flow costs only through its maxima, and the first term only grows
    with each flow.  So replacing phi_hat by min{P, u} with u = max phi_hat,
    each column phi_12(., s2) by min{P, w(s2)} with w(s2) = its max, and each
    row phi_21(s1, .) by min{P, v(s1)} with v(s1) = its max keeps every
    penalty and cannot lower the first term: some optimum has that form.
    On such flows the first term is sum min{P, u + v(s1) + w(s2)}, and the
    penalties are at most M1 M2 u, M2 sum v and M1 sum w, with equality at
    those maxima.  So the sup equals the sup over u, v, w >= 0 of
        sum min{P, u + v(s1) + w(s2)} - M1 M2 u - M2 sum v - M1 sum w,
    an LP in (t, u, v, w) with K = n1 n2 epigraph variables 0 <= t <= P and
    K rows t - u - v(s1) - w(s2) <= 0.  raw_value is the defining formula at
    the witness flows min{P, u}, min{P, w(s2)}, min{P, v(s1)}, which lie in
    [0, P] by construction.
    """
    n1, n2, m1, m2 = inst.dims
    K = n1 * n2
    nv = K + 1 + n1 + n2
    if nv > cap:
        raise InstanceTooLarge(f"{nv} variables exceeds cap {cap}")
    P = inst.joint.mass
    # variables: t (K, row-major over (s1, s2)), u, v (n1), w (n2)
    A = np.hstack([np.eye(K), -np.ones((K, 1)),
                   -np.repeat(np.eye(n1), n2, axis=0), -np.tile(np.eye(n2), (n1, 1))])
    obj = np.concatenate([np.ones(K), [-float(m1 * m2)],
                          np.full(n1, -float(m2)), np.full(n2, -float(m1))])
    model = LpModel("max", obj, A, ("<=",) * K, np.zeros(K), lower=np.zeros(nv),
                    upper=np.concatenate([P.reshape(-1), np.full(1 + n1 + n2, math.inf)]))
    x = solve(model).primal
    u, v, w = x[K], x[K + 1:K + 1 + n1], x[K + 1 + n1:]
    flows = (np.clip(u, 0.0, P), np.clip(w[None, :], 0.0, P), np.clip(v[:, None], 0.0, P))
    return _report("meta-sw", _meta_sw_raw(inst, *flows),
                   dict(zip(("phi_hat", "phi_12", "phi_21"), flows)),
                   "distributed metaconverse, three-flow form")


def _meta_sw_raw(inst: SwInstance, phi_hat, phi_12, phi_21) -> float:
    """The three-flow metaconverse integrand at flows in [0, P]."""
    n1, n2, m1, m2 = inst.dims
    return _formula_sum(np.concatenate([
        np.minimum(inst.joint.mass, phi_hat + phi_12 + phi_21).ravel(),
        [-m1 * m2 * phi_hat.max()], -m1 * phi_12.max(axis=0), -m2 * phi_21.max(axis=1)]))


def meta_sw_eta(inst: SwInstance, eta1, eta2, eta3) -> BoundReport:
    """The metaconverse integrand at fixed nonnegative eta tensors (no sup):
    phi_hat = min{P, eta1}, phi_12 = min{P, eta2}, phi_21 = min{P, eta3}."""
    P = inst.joint.mass
    es = []
    for e in (eta1, eta2, eta3):
        e = np.asarray(e, dtype=float)
        if e.shape != P.shape or np.any(e < 0):
            raise PmfError("eta tensors must be nonnegative with the joint shape")
        es.append(e)
    e1, e2, e3 = es
    raw = _meta_sw_raw(inst, np.minimum(P, e1), np.minimum(P, e2), np.minimum(P, e3))
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


def _with_binding_gammas(inst: SwInstance, pt: DualPointSW) -> DualPointSW:
    return replace(pt, **_binding_gammas(inst, pt))


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
    gb_bar = _binding_gammas(inst, pt)["gamma_b"]
    mu_s_1, mu_s_2 = np.zeros((n1, n1, n2, m1, m2)), np.zeros((n2, n1, n2, m1, m2))
    if pt.which == 1:
        # lam_s (s1,s2,sh1,y1), lam_c (s1,s2,x1,y1); side channel is 2
        eye2 = np.eye(m2)
        lam_s_12 = pt.lam_s.transpose(0, 1, 3, 2)[:, :, None, :, None, :, None] \
            * eye2[None, None, :, None, :, None, None]
        lam_s_12 = np.broadcast_to(lam_s_12, (n1, n2, m2, m1, m2, n1, n2))
        lam_s_21 = np.zeros((n1, n2, m1, m1, m2, n1, n2))
        lam_c = pt.lam_c[:, :, :, None, :, None] * eye2[None, None, None, :, None, :]
        mu_c_1 = np.zeros((n1, m1, m1, m2))
        mu_c_2 = gb_bar[:, None, :, None] * eye2[None, :, None, :]
        mu_c_12 = pt.lam_c.sum(axis=3).transpose(2, 0, 1)
        mu_c_21 = np.zeros((m2, n1, n2))
    else:
        # lam_s (s2,s1,sh2,y2), lam_c (s2,s1,x2,y2); side channel is 1
        eye1 = np.eye(m1)
        lam_s_21 = pt.lam_s.transpose(1, 0, 3, 2)[:, :, None, None, :, None, :] \
            * eye1[None, None, :, :, None, None, None]
        lam_s_21 = np.broadcast_to(lam_s_21, (n1, n2, m1, m1, m2, n1, n2))
        lam_s_12 = np.zeros((n1, n2, m2, m1, m2, n1, n2))
        lam_c = pt.lam_c.transpose(1, 0, 2, 3)[:, :, None, :, None, :] \
            * eye1[None, None, :, None, :, None]
        mu_c_2 = np.zeros((n2, m2, m1, m2))
        mu_c_1 = gb_bar[:, None, None, :] * eye1[None, :, :, None]
        mu_c_21 = pt.lam_c.sum(axis=3).transpose(2, 1, 0)
        mu_c_12 = np.zeros((m1, n1, n2))
    return _with_binding_gammas(inst, DualPointSW(
        lam_s_12, lam_s_21, lam_c, mu_s_1, mu_s_2, mu_c_1, mu_c_2, mu_c_12, mu_c_21))


def embed_je_feasible(inst: SwInstance, dual_point_je: DualPointJE,
                      input_tol: float = 1e-9) -> DualPointSW:
    """Lift a jointly-encoded dual point into the distributed dual: the pair
    source flow feeds one decoder-side source flow, the pair normalization
    becomes the other encoder's channel-average flow."""
    pt = dual_point_je
    _require_feasible(check_dpje_feasible(inst, pt, tol=input_tol),
                      "jointly-encoded dual point")
    n1, n2, m1, m2 = inst.dims
    ga_hat = _binding_gammas(inst, pt)["gamma_a"]
    # lam_s (s1,s2,sh1,sh2,y1,y2) -> (s1,s2,x2,y1,y2,sh1,sh2)
    lam_s_12 = np.broadcast_to(pt.lam_s.transpose(0, 1, 4, 5, 2, 3)[:, :, None],
                               (n1, n2, m2, m1, m2, n1, n2))
    lam_s_21 = np.zeros((n1, n2, m1, m1, m2, n1, n2))
    # mu_s_2(s2, sh1, sh2, y1, y2) = sum_s1 lam_s(s1, s2, sh1, sh2, y1, y2)
    mu_s_2 = pt.lam_s.sum(axis=0)
    mu_s_1 = np.zeros((n1, n1, n2, m1, m2))
    mu_c_1 = np.zeros((n1, m1, m1, m2))
    mu_c_2 = np.zeros((n2, m2, m1, m2))
    mu_c_12 = np.zeros((m1, n1, n2))
    mu_c_21 = np.broadcast_to(ga_hat, (m2, n1, n2))
    return _with_binding_gammas(inst, DualPointSW(
        lam_s_12, lam_s_21, pt.lam_c, mu_s_1, mu_s_2, mu_c_1, mu_c_2, mu_c_12, mu_c_21))


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
    lam_s_12 = np.broadcast_to((sid_part + alpha * je_part) * pairb,
                               (n1, n2, m2, m1, m2, n1, n2))

    # side 2 is stored (s2, s1, ...)
    sid_part = til.lam_s.transpose(1, 0, 3, 2)[:, :, None, None, :, None, :] \
        * eye1[None, None, :, :, None, None, None]
    lam_s_21 = np.broadcast_to((sid_part + (1.0 - alpha) * je_part) * pairb,
                               (n1, n2, m1, m1, m2, n1, n2))

    # channel flow: min of the summed sub-problem channel flows against the
    # diagonal error-density cap (D4's right-hand side at the correct pair)
    cap = P[:, :, None, None, None, None] \
        * np.einsum("xu, yv -> xyuv", eye1, eye2)[None, None, :, :, :, :]
    summed = hat.lam_c \
        + bar.lam_c[:, :, :, None, :, None] * eye2[None, None, None, :, None, :] \
        + til.lam_c.transpose(1, 0, 2, 3)[:, :, None, :, None, :] \
        * eye1[None, None, :, None, :, None]
    lam_c = np.minimum(cap, summed)

    # decoder-side source flows: the alpha split of the pair flow, pinned to
    # the matching own-symbol diagonal
    gb_bar = _binding_gammas(inst, bar)["gamma_b"]
    gb_til = _binding_gammas(inst, til)["gamma_b"]
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
    mu_c_2 = cap2[:, None, :, None] * eye2[None, :, None, :]

    tot = til.lam_s.sum(axis=0)                      # (s1, sh2, y2)
    diag = np.einsum("baby -> aby", til.lam_s)       # (s1, sh2, y2)
    cap1 = (gb_til[:, None, :] - (tot - diag)).min(axis=1)
    if n1 > 1:
        cap1 = np.minimum(cap1, 0.0)
    mu_c_1 = cap1[:, None, None, :] * eye1[None, :, :, None]

    mu_c_12 = np.zeros((m1, n1, n2))
    mu_c_21 = lam_c.sum(axis=(4, 5)).min(axis=2).transpose(2, 0, 1)
    return _with_binding_gammas(inst, DualPointSW(
        lam_s_12, lam_s_21, lam_c, mu_s_1, mu_s_2, mu_c_1, mu_c_2, mu_c_12, mu_c_21))


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

    lam_s_12 = np.broadcast_to(
        -(t / m1) * P2[None, :, None, None, None, None, None]
        * eye2[None, None, :, None, :, None, None] * pairb,
        (n1, n2, m2, m1, m2, n1, n2))
    lam_s_21 = np.broadcast_to(
        (-(t / m2) * P1[:, None, None, None, None, None, None]
         * eye1[None, None, :, :, None, None, None]
         - t / (m1 * m2)) * pairb,
        (n1, n2, m1, m1, m2, n1, n2))
    diag_ch = np.einsum("xu, yv -> xyuv", eye1, eye2)
    lam_c = np.minimum(P, t * _mk_coef(inst))[:, :, None, None, None, None] \
        * diag_ch[None, None, :, :, :, :]

    mu_s_1 = np.broadcast_to(-(t / (m1 * m2)) * np.eye(n1)[:, :, None, None, None],
                             (n1, n1, n2, m1, m2))
    mu_s_2 = np.zeros((n2, n1, n2, m1, m2))
    mu_c_1 = np.broadcast_to(-(t / m2) * P1[:, None, None, None] * eye1[None, :, :, None],
                             (n1, m1, m1, m2))
    mu_c_2 = np.broadcast_to(-(t / m1) * P2[:, None, None, None] * eye2[None, :, None, :],
                             (n2, m2, m1, m2))
    mu_c_12 = np.zeros((m1, n1, n2))
    mu_c_21 = lam_c.sum(axis=(4, 5)).min(axis=2).transpose(2, 0, 1)
    return _with_binding_gammas(inst, DualPointSW(
        lam_s_12, lam_s_21, lam_c, mu_s_1, mu_s_2, mu_c_1, mu_c_2, mu_c_12, mu_c_21))
