"""Distributed (Slepian-Wolf) converse bounds and dual-point synthesis.

The three-flow metaconverse is solved exactly as the covered-mass LP of
converses_ptp under all three cap families, whose row duals are its
thresholds; that LP's structure is cached per sizes, so a call builds its
cost alone.  The scalar Miyake-Kanaya style bounds are curves, as in the
point-to-point module: one integrand in t = exp(-b) over a 1-D array of t,
one (t x pairs) numpy pass, read by both the exact sup over its finite
breakpoint set, in blocks of at most converses_ptp._SUP_BLOCK entries, and
the public mk_*_at, as a batch of one.

The constructors at the bottom turn feasible dual points of the simpler
problems (side-information, jointly encoded) into feasible dual points of
the distributed LP, following the check-before-construct rule: inputs are
verified feasible first, outputs are exact up to float rounding.  Side 2 is
built as side 1 of the swapped pair, SwInstance.oriented(2), exchanged back.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .lp_core import solve
from .probability import PmfError
from .relaxations import (
    _JE_ROWS,
    _SW_ROWS,
    DualPointJE,
    DualPointSI,
    DualPointSW,
    SwInstance,
    _binding_gammas,
    _check_lp_size,
    _exchanged,
    _sw_table,
    check_feasible,
)
from .converses_ptp import (
    BoundReport,
    _at,
    _breakpoint_sup,
    _covered_mass_lp,
    _meta_sw_raw,
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


def meta_sw(inst: SwInstance) -> BoundReport:
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
        sum min{P, u + v(s1) + w(s2)} - M1 M2 u - M2 sum v - M1 sum w.
    The dual of the covered-mass LP max{sum mu P : 0 <= mu <= 1, A mu <= b},
    whose rows cap sum mu at M1 M2, each row sum at M2 and each column sum
    at M1, is the min over y = (u, v, w) >= 0 of b.y + sum (P - A^T y)^+,
    with A^T y = u + v(s1) + w(s2).  As sum min{P, s} = 1 - sum (P - s)^+,
    that is 1 minus the sup above, so the LP's row duals are an optimal
    (u, v, w).  raw_value is the defining formula at the witness flows
    min{P, u}, min{P, w(s2)}, min{P, v(s1)}, which lie in [0, P].
    """
    model, read = _covered_mass_lp(inst, "uvw")
    flows = read(solve(model).dual)
    return _report("meta-sw", _meta_sw_raw(inst, *flows),
                   dict(zip(("phi_hat", "phi_12", "phi_21"), flows)),
                   "distributed metaconverse, three-flow form")


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


def _mk_curve(inst: SwInstance, improved: bool):
    """The classic or improved Miyake-Kanaya integrand at an array of t, over
    t = 0 and the t in (0, 1) where some P = t * coef is crossed."""
    P = inst.joint.mass
    coef = _mk_coef(inst)
    t_atom = P / coef            # coef >= 1/(M1 M2) > 0
    cands = np.unique(np.concatenate([t_atom[(t_atom > 0) & (t_atom < 1.0)], [0.0]]))
    p, c = P.reshape(-1), coef.reshape(-1)
    if improved:
        return lambda t: np.minimum(p, t[:, None] * c).sum(axis=1) - 3.0 * t, cands, p.size
    return (lambda t: np.where(closed_leq(p, t[:, None] * c), p, 0.0).sum(axis=1) - 3.0 * t,
            cands, p.size)


def mk_classic_at(inst: SwInstance, t: float) -> float:
    """P[joint or either conditional density exceeds its log M budget] - 3t,
    the union expressed through the per-pair threshold P <= t * coef."""
    return _at(_mk_curve(inst, improved=False), t)


def mk_improved_at(inst: SwInstance, t: float) -> float:
    """mk_classic_at plus t * coef on every pair outside the union event;
    both terms together are sum min{P, t * coef} - 3t."""
    return _at(_mk_curve(inst, improved=True), t)


def mk_classic(inst: SwInstance) -> BoundReport:
    val, t = _breakpoint_sup(*_mk_curve(inst, improved=False))
    return _report("mk", val, {"t": float(t)}, "Miyake-Kanaya union bound")


def mk_improved(inst: SwInstance) -> BoundReport:
    val, t = _breakpoint_sup(*_mk_curve(inst, improved=True))
    return _report("mk-improved", val, {"t": float(t)},
                   "improved Miyake-Kanaya converse")


# ---------------------------------------------------------------------------
# dual-point synthesis


def _require_feasible(violations, what):
    if violations:
        worst = np.max([v.residual for v in violations])   # nan if any residual is
        raise InfeasibleInput(
            f"{what} fails feasibility: {len(violations)} violated "
            f"constraints, worst residual {worst:.3e}", violations)


def _sw_point(inst: SwInstance, **fields) -> DualPointSW:
    """The SW dual point of `fields`, binding gammas, and zero (a read-only
    broadcast, which holds no memory) in every other multiplier field."""
    sizes = _sw_table(inst)[0]
    zeros = {name: np.broadcast_to(0.0, tuple(sizes[k] for k in letters))
             for name, letters, _, minus in _SW_ROWS if minus is not None and name not in fields}
    pt = DualPointSW(**zeros, **fields)
    return replace(pt, **_binding_gammas(inst, pt))


def embed_sid_feasible(inst: SwInstance, dual_point_sid: DualPointSI,
                       input_tol: float = 1e-9) -> DualPointSW:
    """Lift a side-information dual point into the distributed dual.

    The encoded source's flows ride along the other channel's x = y diagonal;
    the side channel's normalization multiplier becomes a decoder-side
    channel flow.  The objective value is preserved exactly.  A which = 2
    point is lifted as the which = 1 point of inst.oriented(2).
    """
    pt = dual_point_sid
    _require_feasible(check_feasible(inst, pt, tol=input_tol),
                      f"side-information dual point (which={pt.which})")
    sw = inst.oriented(pt.which)
    n1, n2, m1, m2 = sw.dims
    gb_bar = _binding_gammas(inst, pt)["gamma_b"]
    # lam_s (s1,s2,sh1,y1), lam_c (s1,s2,x1,y1) of sw; side channel is 2
    eye2 = np.eye(m2)
    lam_s_12 = pt.lam_s.transpose(0, 1, 3, 2)[:, :, None, :, None, :, None] \
        * eye2[None, None, :, None, :, None, None]
    fields = dict(
        lam_s_12=np.broadcast_to(lam_s_12, (n1, n2, m2, m1, m2, n1, n2)),
        lam_c=pt.lam_c[:, :, :, None, :, None] * eye2[None, None, None, :, None, :],
        mu_c_2=gb_bar[:, None, :, None] * eye2[None, :, None, :],
        mu_c_12=pt.lam_c.sum(axis=3).transpose(2, 0, 1))
    if pt.which == 2:
        fields = _exchanged(_SW_ROWS, fields)
    return _sw_point(inst, **fields)


def embed_je_feasible(inst: SwInstance, dual_point_je: DualPointJE,
                      input_tol: float = 1e-9) -> DualPointSW:
    """Lift a jointly-encoded dual point into the distributed dual: the pair
    source flow feeds one decoder-side source flow, the pair normalization
    becomes the other encoder's channel-average flow."""
    pt = dual_point_je
    _require_feasible(check_feasible(inst, pt, tol=input_tol),
                      "jointly-encoded dual point")
    n1, n2, m1, m2 = inst.dims
    ga_hat = _binding_gammas(inst, pt)["gamma_a"]
    # lam_s (s1,s2,sh1,sh2,y1,y2) -> (s1,s2,x2,y1,y2,sh1,sh2)
    lam_s_12 = np.broadcast_to(pt.lam_s.transpose(0, 1, 4, 5, 2, 3)[:, :, None],
                               (n1, n2, m2, m1, m2, n1, n2))
    # mu_s_2(s2, sh1, sh2, y1, y2) = sum_s1 lam_s(s1, s2, sh1, sh2, y1, y2)
    return _sw_point(inst, lam_s_12=lam_s_12, lam_c=pt.lam_c, mu_s_2=pt.lam_s.sum(axis=0),
                     mu_c_21=np.broadcast_to(ga_hat, (m2, n1, n2)))


def _encoder_fields(inst: SwInstance, sid: DualPointSI, je_lam_s: np.ndarray,
                    share: float) -> dict:
    """Encoder 1's fields of combine_feasible and its part of the channel
    flow, from a which = 1 point and its share of the pair flow's lam_s."""
    n1, n2, m1, m2 = inst.dims
    eye2 = np.eye(m2)
    pair = np.einsum("ac, bd -> abcd", np.eye(n1), np.eye(n2))
    # source flow: SID flow on the x2 = y2 diagonal plus the share of the
    # pair flow, both pinned to the correct-pair diagonal
    sid_part = sid.lam_s.transpose(0, 1, 3, 2)[:, :, None, :, None, :, None] \
        * eye2[None, None, :, None, :, None, None]
    je_part = je_lam_s.transpose(0, 1, 4, 5, 2, 3)[:, :, None, :, :, :, :]
    lam_s_12 = np.broadcast_to((sid_part + share * je_part) * pair[:, :, None, None, None, :, :],
                               (n1, n2, m2, m1, m2, n1, n2))
    # decoder-side source flow: the share of the pair flow, pinned to the
    # matching own-symbol diagonal
    d1 = np.einsum("abadef -> badef", je_lam_s)      # (s2, sh1, sh2, y1, y2)
    mu_s_2 = share * d1 * np.eye(n2)[:, None, :, None, None]
    # decoder-side channel flow: the largest value the (D5) slack allows,
    # including the zero cap forced by mismatched estimates
    gb = _binding_gammas(inst, sid)["gamma_b"]
    tot = sid.lam_s.sum(axis=0)                      # (s2, sh1, y1)
    diag = np.einsum("asay -> say", sid.lam_s)       # (s2, sh1, y1)
    cap = (gb[:, None, :] - (tot - diag)).min(axis=1)
    if n2 > 1:
        cap = np.minimum(cap, 0.0)
    return dict(lam_s_12=lam_s_12, mu_s_2=mu_s_2,
                mu_c_2=cap[:, None, :, None] * eye2[None, :, None, :],
                lam_c=sid.lam_c[:, :, :, None, :, None] * eye2[None, None, None, :, None, :])


def combine_feasible(inst: SwInstance, sid12_flows: DualPointSI,
                     sid21_flows: DualPointSI, je_flows: DualPointJE,
                     alpha: float, input_tol: float = 1e-9) -> DualPointSW:
    """Nonlinear merge of feasible points of the three sub-problem duals into
    a feasible point of the distributed dual.

    The two source flows superpose the matching side-information flow (on
    its channel diagonal) with an alpha split of the pair flow; the channel
    flow takes the pointwise min of the summed sub-problem channel flows
    against the error-density cap, which is what beats any convex
    combination of the embedded points.  Encoder 2's fields are encoder 1's
    of inst.oriented(2).
    """
    if not (0.0 < alpha < 1.0):
        raise InfeasibleInput(f"alpha must lie strictly in (0, 1), got {alpha!r}")
    bar, til, hat = sid12_flows, sid21_flows, je_flows
    if bar.which != 1 or til.which != 2:
        raise InfeasibleInput(
            "combine_feasible needs a which=1 point then a which=2 point")
    _require_feasible(check_feasible(inst, bar, tol=input_tol),
                      "side-information dual point (which=1)")
    _require_feasible(check_feasible(inst, til, tol=input_tol),
                      "side-information dual point (which=2)")
    _require_feasible(check_feasible(inst, hat, tol=input_tol),
                      "jointly-encoded dual point")
    sw = inst.oriented(2)
    one = _encoder_fields(inst, bar, hat.lam_s, alpha)
    hat_sw = _exchanged(_JE_ROWS, {"lam_s": hat.lam_s})["lam_s"]
    # in C order, as encoder 1's fields, since the checker runs slower on
    # permuted views; the point keeps a read-only broadcast uncopied
    two = {k: np.broadcast_to(np.ascontiguousarray(v), v.shape) for k, v in _exchanged(
        _SW_ROWS, _encoder_fields(sw, replace(til, which=1), hat_sw, 1.0 - alpha)).items()}

    # channel flow: min of the summed sub-problem channel flows against the
    # diagonal error-density cap (D4's right-hand side at the correct pair)
    m1, m2 = inst.sizes.M1, inst.sizes.M2
    cap = inst.joint.mass[:, :, None, None, None, None] \
        * np.einsum("xu, yv -> xyuv", np.eye(m1), np.eye(m2))[None, None, :, :, :, :]
    lam_c = np.minimum(cap, hat.lam_c + one.pop("lam_c") + two.pop("lam_c"))
    mu_c_21 = lam_c.sum(axis=(4, 5)).min(axis=2).transpose(2, 0, 1)
    return _sw_point(inst, **one, **two, lam_c=lam_c, mu_c_21=mu_c_21)


def mk_flows(inst: SwInstance, t: float) -> DualPointSW:
    """The distributed dual point behind the improved Miyake-Kanaya bound at
    a fixed t: marginal-weighted source flows on the channel diagonals, a
    uniform decoder-side flow worth t/(M1 M2), and the channel flow capped
    at t times the per-pair threshold coefficient.  Its fields, and the
    residual check_feasible forms on the LP's W block (D4), grow with that
    block, (n1 n2 M1 M2)^2 entries, which must stay within MAX_LP_ENTRIES."""
    if not (t >= 0.0 and math.isfinite(t)):
        raise InfeasibleInput(f"t must be a finite nonnegative scalar, got {t!r}")
    n1, n2, m1, m2 = inst.dims
    _check_lp_size(k := n1 * n2 * m1 * m2, k, "mk_flows point")
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
    mu_c_1 = np.broadcast_to(-(t / m2) * P1[:, None, None, None] * eye1[None, :, :, None],
                             (n1, m1, m1, m2))
    mu_c_2 = np.broadcast_to(-(t / m1) * P2[:, None, None, None] * eye2[None, :, None, :],
                             (n2, m2, m1, m2))
    mu_c_21 = lam_c.sum(axis=(4, 5)).min(axis=2).transpose(2, 0, 1)
    return _sw_point(inst, lam_s_12=lam_s_12, lam_s_21=lam_s_21, lam_c=lam_c, mu_s_1=mu_s_1,
                     mu_c_1=mu_c_1, mu_c_2=mu_c_2, mu_c_21=mu_c_21)
